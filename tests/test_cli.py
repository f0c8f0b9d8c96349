"""CLI tests: argument grammar, output contracts, backend equivalence."""

import pathlib
import re
import signal
import subprocess
import time

import pytest

from packrun.cli import bench_main, demo_main, idlc_main, mprun_main
from support import CONSOLE_SCRIPTS, console_script, pids_running, program

DEMOS = pathlib.Path(__file__).parent.parent / "demos"


def demo(name):
    return str(DEMOS / name)


# ---------------------------------------------------------------- mprun


def test_mprun_requires_program_separator():
    with pytest.raises(SystemExit) as info:
        mprun_main(["-n", "2"])
    assert info.value.code == 2


def test_mprun_rejects_zero_ranks():
    with pytest.raises(SystemExit) as info:
        mprun_main(["-n", "0", "--", "prog.py"])
    assert info.value.code == 2


def test_mprun_unknown_backend():
    with pytest.raises(SystemExit) as info:
        mprun_main(["-n", "1", "--backend", "fiber", "--", "prog.py"])
    assert info.value.code == 2


def test_mprun_missing_program_reports_failure(capsys):
    rc = mprun_main(["-n", "1", "--", "/no/such/prog.py"])
    assert rc == 1
    assert "mprun:" in capsys.readouterr().err


def test_mprun_thread_and_process_logs_match(capfd):
    rc = mprun_main(["-n", "3", "--backend", "thread", "--", demo("ping.py")])
    assert rc == 0
    thread_out = capfd.readouterr().out
    rc = mprun_main(["-n", "3", "--backend", "process", "--", demo("ping.py")])
    assert rc == 0
    process_out = capfd.readouterr().out
    assert thread_out == process_out
    assert "pong from rank 1" in thread_out
    assert "pong from rank 2" in thread_out


def test_mprun_passes_first_failure_code(capfd):
    prog = pathlib.Path(__file__).parent / "programs" / "exitcode.py"
    rc = mprun_main(["-n", "3", "--", str(prog), "7", "1"])
    assert rc == 7
    assert "rank 1 exited with status 7" in capfd.readouterr().err


def test_mprun_program_args_after_separator(capfd):
    prog = pathlib.Path(__file__).parent / "programs" / "exitcode.py"
    # options that look like mprun flags must reach the program untouched
    rc = mprun_main(["-n", "1", "--backend", "thread", "--", str(prog), "0", "0"])
    assert rc == 0


# ---------------------------------------------------------------- idlc


def test_idlc_prints_descriptors(tmp_path, capsys):
    src = tmp_path / "types.idl"
    src.write_text("record point { x: f64; y: f64; }\n"
                   "variant shade { light; dark(point); }\n")
    rc = idlc_main([str(src)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "record point {" in out
    assert "  x: f64;" in out
    assert "variant shade {" in out
    assert "  dark(point);" in out


def test_idlc_unresolved_type(tmp_path, capsys):
    src = tmp_path / "bad.idl"
    src.write_text("record a { x: ghost; }")
    rc = idlc_main([str(src)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "ghost" in captured.err


def test_idlc_syntax_error_names_location(tmp_path, capsys):
    src = tmp_path / "syntax.idl"
    src.write_text("record a { x i32; }")
    rc = idlc_main([str(src)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "line 1" in captured.err


def test_idlc_reports_a_non_ascii_digit_as_a_syntax_error(tmp_path, capsys):
    src = tmp_path / "digits.idl"
    src.write_text("record a {\n  x: [i32; ²];\n}\n", encoding="utf-8")
    rc = idlc_main([str(src)])
    assert rc == 1
    assert "idlc: line 2, column 12" in capsys.readouterr().err


def test_idlc_empty_file(tmp_path, capsys):
    src = tmp_path / "empty.idl"
    src.write_text("")
    rc = idlc_main([str(src)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""


def test_idlc_missing_file(capsys):
    rc = idlc_main(["/no/such/file.idl"])
    assert rc == 1
    assert "idlc:" in capsys.readouterr().err


def test_idlc_output_reparses(tmp_path, capsys):
    from packrun.idl import TypeRegistry
    src = tmp_path / "round.idl"
    src.write_text("record inner { v: seq<u8>; }\n"
                   "record outer { a: inner; b: [i32; 2]; }\n")
    assert idlc_main([str(src)]) == 0
    listing = capsys.readouterr().out
    reparsed = TypeRegistry.from_idl(listing).check()
    assert set(r.name for r in reparsed) == {"inner", "outer"}


# ---------------------------------------------------------------- bench


def test_bench_pack_prints_ratio(capsys):
    rc = bench_main(["pack", "--size", "65536", "--reps", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    match = re.search(r"^ratio=([0-9.]+|inf)$", out, re.MULTILINE)
    assert match is not None
    float(match.group(1))


def test_bench_pack_portable_adds_second_ratio(capsys):
    rc = bench_main(["pack", "--size", "4096", "--reps", "3", "--portable"])
    out = capsys.readouterr().out
    assert rc == 0
    assert re.search(r"^ratio=", out, re.MULTILINE)
    assert re.search(r"^portable_ratio=", out, re.MULTILINE)


def test_bench_pack_degenerate_size(capsys):
    rc = bench_main(["pack", "--size", "1", "--reps", "3"])
    assert rc == 0
    assert "ratio=" in capsys.readouterr().out


def test_bench_pack_rejects_bad_size(capsys):
    rc = bench_main(["pack", "--size", "0", "--reps", "3"])
    assert rc == 2
    assert "bench:" in capsys.readouterr().err


def test_bench_requires_subcommand():
    with pytest.raises(SystemExit) as info:
        bench_main([])
    assert info.value.code == 2


# ---------------------------------------------------------------- demo


def test_demo_taskfarm_prints_speedup(capsys):
    rc = demo_main(["taskfarm", "--jobs", "6", "--workers", "3",
                    "--job-ms", "30"])
    out = capsys.readouterr().out
    assert rc == 0
    match = re.search(r"^speedup=([0-9.]+|nan|inf)$", out, re.MULTILINE)
    assert match is not None


def test_demo_taskfarm_zero_jobs_is_nan(capsys):
    rc = demo_main(["taskfarm", "--jobs", "0", "--workers", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert re.search(r"^speedup=nan$", out, re.MULTILINE)


def test_demo_taskfarm_one_worker_near_unity(capsys):
    rc = demo_main(["taskfarm", "--jobs", "4", "--workers", "1",
                    "--job-ms", "20"])
    out = capsys.readouterr().out
    assert rc == 0
    speedup = float(re.search(r"^speedup=(\S+)$", out, re.MULTILINE).group(1))
    assert speedup == 1.0  # self-comparison by construction


def test_demo_taskfarm_rejects_zero_workers(capsys):
    rc = demo_main(["taskfarm", "--jobs", "2", "--workers", "0"])
    assert rc == 2


# ---------------------------------------------------------------- console scripts


@pytest.mark.parametrize("script", CONSOLE_SCRIPTS)
def test_console_scripts_exist(script):
    pytest.importorskip("tomllib")
    argv, env = console_script(script)
    proc = subprocess.run([*argv, "--help"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0
    assert script in proc.stdout


def test_mprun_script_end_to_end():
    pytest.importorskip("tomllib")
    argv, env = console_script("mprun")
    proc = subprocess.run(
        [*argv, "-n", "2", "--", program("exitcode.py"), "5", "0"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 5
    assert "rank 0 exited with status 5" in proc.stderr


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP], ids=["TERM", "HUP"])
def test_a_signal_to_mprun_kills_every_rank(signum):
    pytest.importorskip("tomllib")
    argv, env = console_script("mprun")
    others = set(pids_running("hang.py"))
    proc = subprocess.Popen([*argv, "-n", "2", "--", program("hang.py")], env=env,
                            stderr=subprocess.DEVNULL)
    try:
        # rank 0 of hang.py leaves at once and rank 1 sleeps, so count every
        # rank seen, until both have run
        seen, deadline = set(), time.monotonic() + 30
        while len(seen) < 2 and time.monotonic() < deadline:
            seen.update(set(pids_running("hang.py")) - others)
            time.sleep(0.01)
        assert len(seen) == 2
        time.sleep(0.2)  # past the spawn of the last rank
        proc.send_signal(signum)
        assert proc.wait(timeout=10) == 128 + signum
        deadline = time.monotonic() + 10
        while seen & set(pids_running("hang.py")) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert seen.isdisjoint(pids_running("hang.py"))
    finally:
        proc.kill()
        proc.wait(5)
