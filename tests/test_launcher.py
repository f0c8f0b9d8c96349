"""Launcher tests: plans, both backends, exit codes, orphan hygiene."""

import logging
import os
import threading

import pytest

from packrun import transport
from packrun.launcher import LaunchError, LaunchPlan, SpawnFailure, _child_env, launch
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


def test_coordinator_logs_each_registration(caplog):
    with caplog.at_level(logging.INFO, logger="packrun.mesh"):
        codes = launch(plan(4, "exitcode.py", "0", "0", backend=PROCESS,
                            run_timeout=30.0))
    assert codes == [0, 0, 0, 0]
    registrations = [r for r in caplog.records if "registered rank" in r.message]
    assert len(registrations) == 4


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
    # rank 0 registers and waits for the table; rank 1 stays silent.
    # The coordinator must tell rank 0 the rendezvous died (so it exits on
    # its own) and the launcher must kill rank 1.
    with pytest.raises(RendezvousTimeout):
        launch(plan(2, "half_register.py", backend=PROCESS, timeout=2.0))
    assert pids_running("half_register.py") == []


def test_run_timeout_kills_stragglers():
    with pytest.raises(LaunchError):
        launch(plan(2, "hang.py", backend=PROCESS, timeout=10.0,
                    run_timeout=3.0))
    assert pids_running("hang.py") == []


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


def test_rendezvous_window_reaches_every_rank():
    env = _child_env(LaunchPlan(nprocs=2, program="x.py", timeout=30.0), 1, "127.0.0.1:9")
    assert WorldConfig.from_env(env).timeout == 30.0
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
