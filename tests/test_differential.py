"""tools/differential.py: the same tree agrees with itself, and a changed message is reported."""

import pathlib
import shutil
import subprocess
import sys
import time

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


def _changed_copy(tmp_path) -> pathlib.Path:
    """A copy of ``src`` whose ``Truncated`` message has one word changed."""
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    pack = copy / "packrun" / "pack.py"
    text = pack.read_text()
    assert "need {needed} bytes, have {available}" in text
    pack.write_text(text.replace("need {needed} bytes, have {available}",
                                 "need {needed} bytes, hold {available}"))
    return copy


def _emitters(seed: int) -> list[int]:
    """Ids of the case generators running with ``seed`` (Linux /proc scan)."""
    found = []
    for entry in pathlib.Path("/proc").iterdir():
        try:
            argv = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        if b"--emit" in argv and b"--seed" in argv[:-1] and \
                argv[argv.index(b"--seed") + 1] == str(seed).encode():
            found.append(int(entry.name))
    return found


def test_a_tree_against_itself_leaves_no_unclosed_file():
    run = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", str(TOOL),
                          str(SRC), str(SRC), "--cases", "300"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "ResourceWarning" not in run.stderr, run.stderr


def test_a_reader_that_stops_early_ends_the_run_and_its_children(tmp_path):
    copy = _changed_copy(tmp_path)
    seed = 7919  # marks this run's case generators
    proc = subprocess.Popen([sys.executable, str(TOOL), str(SRC), str(copy), "--cases", "20000",
                             "--seed", str(seed)], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline().startswith(b"case ")
        proc.stdout.close()  # as `| head -1` does
        proc.wait(timeout=10)
    finally:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 5
    while _emitters(seed) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _emitters(seed) == []
    with proc.stderr:
        errors = proc.stderr.read().decode()
    assert "Traceback" not in errors, errors  # the reader leaving ends the output quietly


def test_a_changed_truncated_message_is_reported(tmp_path):
    copy = _changed_copy(tmp_path)
    run = _compare(SRC, copy)
    assert run.returncode == 1, run.stdout + run.stderr
    last = run.stdout.splitlines()[-1]
    assert last.startswith("cases=630 differences=") and last != "cases=630 differences=0"
    assert "!Truncated(buffer truncated: need" in run.stdout
    assert "bytes, hold" in run.stdout
