"""tools/differential.py: the same tree agrees with itself, and a changed message is reported."""

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src"
TOOL = ROOT / "tools" / "differential.py"


def _compare(old, new) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), str(old), str(new), "--cases", "300"],
                          capture_output=True, text=True, timeout=120)


def test_a_tree_against_itself_shows_no_difference():
    run = _compare(SRC, SRC)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "cases=630 differences=0"


def test_a_changed_truncated_message_is_reported(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    pack = copy / "packrun" / "pack.py"
    text = pack.read_text()
    assert "need {needed} bytes, have {available}" in text
    pack.write_text(text.replace("need {needed} bytes, have {available}",
                                 "need {needed} bytes, hold {available}"))
    run = _compare(SRC, copy)
    assert run.returncode == 1, run.stdout + run.stderr
    last = run.stdout.splitlines()[-1]
    assert last.startswith("cases=630 differences=") and last != "cases=630 differences=0"
    assert "!Truncated(buffer truncated: need" in run.stdout
    assert "bytes, hold" in run.stdout
