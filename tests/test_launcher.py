"""Launcher tests: plans, both backends, exit codes, orphan hygiene."""

import logging
import os
import subprocess
import sys
import threading
import time

import pytest

from packrun import transport
from packrun.launcher import LaunchError, LaunchPlan, SpawnFailure, launch
from packrun.transport import BackendKind, RendezvousTimeout, WorldConfig

from support import pids_running, program

THREAD = BackendKind.IN_PROCESS
PROCESS = BackendKind.SOCKET_MESH


def plan(nprocs, prog, *args, **kw):
    return LaunchPlan(nprocs=nprocs, program=program(prog), args=args, **kw)


def test_plan_rejects_zero_ranks():
    with pytest.raises(LaunchError):
        LaunchPlan(nprocs=0, program="x.py")


def test_plan_normalizes_args():
    p = LaunchPlan(nprocs=1, program="x.py", args=["a", "b"])
    assert p.args == ("a", "b")


def test_missing_program_is_spawn_failure():
    for backend in (THREAD, PROCESS):
        with pytest.raises(SpawnFailure):
            launch(LaunchPlan(nprocs=1, program="/no/such/prog.py",
                              backend=backend))


@pytest.mark.parametrize("backend", [THREAD, PROCESS])
def test_single_trivial_rank(backend):
    codes = launch(plan(1, "exitcode.py", "0", "0", backend=backend,
                        run_timeout=30.0))
    assert codes == [0]


@pytest.mark.parametrize("backend", [THREAD, PROCESS])
def test_exit_code_passes_through_per_rank(backend):
    codes = launch(plan(4, "exitcode.py", "3", "2", backend=backend,
                        run_timeout=30.0))
    assert codes == [0, 0, 3, 0]


def test_launcher_logs_each_rank_joining(caplog):
    with caplog.at_level(logging.INFO, logger="packrun.launcher"):
        codes = launch(plan(4, "exitcode.py", "0", "0", backend=PROCESS,
                            run_timeout=30.0))
    assert codes == [0, 0, 0, 0]
    messages = [r.getMessage() for r in caplog.records if r.name == "packrun.launcher"]
    joined = [m for m in messages if "joined the mesh" in m]
    assert sorted(int(m.split()[1]) for m in joined) == [0, 1, 2, 3]
    assert messages[-1] == "mesh complete: 4 ranks"


@pytest.mark.parametrize("backend", [THREAD, PROCESS])
def test_each_rank_sees_own_id(tmp_path, backend):
    codes = launch(plan(3, "envdump.py", str(tmp_path), backend=backend,
                        run_timeout=30.0))
    assert codes == [0, 0, 0]
    for rank in range(3):
        text = (tmp_path / f"rank{rank}.txt").read_text().split()
        assert text == [str(rank), "3", "0"]


@pytest.mark.parametrize("backend", [THREAD, PROCESS])
def test_hetero_flag_reaches_every_rank(tmp_path, backend):
    codes = launch(plan(2, "envdump.py", str(tmp_path), backend=backend,
                        hetero=True, run_timeout=30.0))
    assert codes == [0, 0]
    for rank in range(2):
        text = (tmp_path / f"rank{rank}.txt").read_text().split()
        assert text[2] == "1"


@pytest.mark.parametrize("via", ["per_rank_env", "inherited"])
def test_a_native_world_stays_native_whatever_packrun_hetero_says(tmp_path, monkeypatch, via):
    extra = {"PACKRUN_HETERO": "1"}
    if via == "inherited":
        monkeypatch.setenv("PACKRUN_HETERO", "1")
        extra = {}
    codes = launch(plan(2, "envdump.py", str(tmp_path), backend=PROCESS, hetero=False,
                        per_rank_env=extra, run_timeout=30.0))
    assert codes == [0, 0]
    for rank in range(2):
        assert (tmp_path / f"rank{rank}.txt").read_text().split() == [str(rank), "2", "0"]


def test_rank_env_is_deterministic(tmp_path):
    # rank i must always see PACKRUN_RANK=i; repeat to catch ordering luck
    for trial in range(3):
        d = tmp_path / f"t{trial}"
        d.mkdir()
        launch(plan(3, "envdump.py", str(d), backend=PROCESS, run_timeout=30.0))
        for rank in range(3):
            assert (d / f"rank{rank}.txt").read_text().split()[0] == str(rank)


def test_unwind_writes_markers_and_returns_failure(tmp_path):
    codes = launch(plan(2, "unwind.py", str(tmp_path), backend=PROCESS,
                        run_timeout=30.0))
    assert codes[0] == 0
    assert codes[1] != 0
    for rank in range(2):
        text = (tmp_path / f"rank{rank}.marker").read_text()
        assert "at_exit=True" in text
        assert "finalized=True" in text


def test_unwind_thread_backend(tmp_path):
    codes = launch(plan(2, "unwind.py", str(tmp_path), backend=THREAD,
                        run_timeout=30.0))
    assert codes == [0, 1]
    for rank in range(2):
        assert "finalized=True" in (tmp_path / f"rank{rank}.marker").read_text()


def test_rendezvous_timeout_reaps_children():
    with pytest.raises(RendezvousTimeout):
        launch(plan(2, "norendezvous.py", backend=PROCESS, timeout=1.5))
    assert pids_running("norendezvous.py") == []


def test_partial_registration_notifies_and_reaps(tmp_path):
    # rank 0 joins the mesh and exits; rank 1 never joins.  The launcher
    # must time out waiting for rank 1 and kill it.
    with pytest.raises(RendezvousTimeout):
        launch(plan(2, "half_register.py", backend=PROCESS, timeout=2.0))
    assert pids_running("half_register.py") == []


def test_a_rank_that_exits_before_joining_fails_the_launch_at_once():
    started = time.monotonic()
    with pytest.raises(SpawnFailure) as err:
        launch(plan(3, "early_exit.py", "3", "1", backend=PROCESS, timeout=30.0))
    assert time.monotonic() - started < 10.0
    assert err.value.rank == 1
    assert err.value.reason == "exited with code 3 before joining the mesh"
    assert pids_running("early_exit.py") == []


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def test_a_launch_leaves_the_launchers_descriptors_as_it_found_them():
    before = _open_fds()
    assert launch(plan(3, "exitcode.py", "0", "0", backend=PROCESS, run_timeout=30.0)) == [0, 0, 0]
    assert _open_fds() == before
    with pytest.raises(RendezvousTimeout):
        launch(plan(2, "norendezvous.py", backend=PROCESS, timeout=0.5))
    assert _open_fds() == before


def test_run_timeout_kills_stragglers():
    with pytest.raises(LaunchError):
        launch(plan(2, "hang.py", backend=PROCESS, timeout=10.0,
                    run_timeout=3.0))
    assert pids_running("hang.py") == []


def _cmdline(pid: int) -> bytes:
    with open(f"/proc/{pid}/cmdline", "rb") as fh:
        return fh.read()


def test_pids_running_counts_only_python_processes_running_the_program(tmp_path):
    script = tmp_path / "pids_probe.py"
    script.write_text("import time\ntime.sleep(60)\n")
    procs = [subprocess.Popen(argv) for argv in (
        ["/bin/sh", "-c", f"sleep 60; : {script}"],  # a shell naming the program
        [sys.executable, "-c", "import time; time.sleep(60)  # pids_probe.py"],
        [sys.executable, "-u", str(script)],
    )]
    try:
        # Popen returns once each child has exec'd, but its command line can
        # still read empty for a moment after that
        deadline = time.monotonic() + 10
        for proc in procs:
            while not _cmdline(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.01)
        assert pids_running("pids_probe.py") == [procs[2].pid]
        assert pids_running("probe.py") == []  # a whole file name, not a suffix of one
    finally:
        for proc in procs:
            proc.kill()
            proc.wait(5)
    assert pids_running("pids_probe.py") == []


@pytest.mark.parametrize("backend", [THREAD, PROCESS])
def test_run_timeout_is_one_deadline_for_all_ranks(backend):
    # Ranks end 0, 0.5 and 1.0 s after the rendezvous: each within 0.8 s of
    # the one before it, but the last one past 0.8 s in all.
    before = set(threading.enumerate())
    with pytest.raises(LaunchError, match=r"2\]? still running after 0.8 s"):
        launch(plan(3, "staggered.py", "0.5", backend=backend, run_timeout=0.8))
    assert pids_running("staggered.py") == []
    for runner in set(threading.enumerate()) - before:
        runner.join(5.0)
        assert not runner.is_alive()


def test_rendezvous_window_reaches_every_rank(tmp_path):
    script = tmp_path / "window.py"
    script.write_text(
        "import sys\n"
        "from packrun.spmd import spmd_enter\n"
        "from packrun.transport import WorldConfig\n"
        "with spmd_enter() as sctx:\n"
        "    with open(f'{sys.argv[1]}/rank{sctx.myid}.txt', 'w') as out:\n"
        "        out.write(str(WorldConfig.from_env().timeout))\n")
    codes = launch(LaunchPlan(nprocs=2, program=str(script), args=(str(tmp_path),),
                              backend=PROCESS, timeout=30.0, run_timeout=30.0))
    assert codes == [0, 0]
    assert [(tmp_path / f"rank{r}.txt").read_text() for r in range(2)] == ["30.0"] * 2
    env = WorldConfig(my_rank_hint=1, ports=(9, 10), listen_fd=7, ready_fd=8).to_env()
    del env[transport.ENV_TIMEOUT]
    assert WorldConfig.from_env(env).timeout == 10.0


def test_per_rank_env_reaches_children(tmp_path):
    marker = tmp_path / "env_seen.txt"
    script = tmp_path / "envcheck.py"
    script.write_text(
        "import os, sys\n"
        "from packrun.spmd import spmd_enter\n"
        "with spmd_enter() as sctx:\n"
        f"    open({str(marker)!r}, 'a').write(os.environ['EXTRA_FLAG'])\n")
    codes = launch(LaunchPlan(nprocs=1, program=str(script), backend=PROCESS,
                              per_rank_env={"EXTRA_FLAG": "y"},
                              run_timeout=30.0))
    assert codes == [0]
    assert marker.read_text() == "y"


def test_thread_backend_isolates_main_thread_slot():
    # launching in-process must not consume this thread's once-only state
    from packrun._slots import current_slot
    before = current_slot()
    launch(plan(2, "exitcode.py", "0", "0", backend=THREAD, run_timeout=30.0))
    assert current_slot() is before
    assert not before.spmd_ever_entered
