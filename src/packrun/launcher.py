"""Start N ranks of a program and collect their exit codes.

Two backends share one entry point. The process backend spawns one child
interpreter per rank, points them at the rendezvous coordinator it then runs
via PACKRUN_* environment variables, and waits for all of them; on a
rendezvous failure every child is killed so no orphans survive. The thread
backend runs every rank inside this process: each rank gets its own
logical-process slot with a pre-attached in-process transport, then the
program file is executed as __main__ in a dedicated thread.
"""

import os
import runpy
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ._slots import Slot, install_slot
from .mesh import Coordinator
from .transport import (ENV_COORD, ENV_HETERO, ENV_NPROCS, ENV_RANK, ENV_TIMEOUT,
                        BackendKind, InProcessWorld)


class LaunchError(Exception):
    """Base class for launcher failures."""


class SpawnFailure(LaunchError):
    def __init__(self, rank: int, reason: str) -> None:
        super().__init__(f"rank {rank}: {reason}")
        self.rank = rank
        self.reason = reason


@dataclass
class LaunchPlan:
    """Everything needed to start one multi-rank run.

    run_timeout is one deadline for all ranks together, from the end of the
    rendezvous or the start of thread ranks (None = wait forever); timeout
    bounds the rendezvous, in the launcher and in every rank.  per_rank_env
    is added to each rank's environment on the process backend only; thread
    ranks share this process's environment.
    """

    nprocs: int
    program: str
    args: Tuple[str, ...] = ()
    backend: BackendKind = BackendKind.SOCKET_MESH
    timeout: float = 10.0
    hetero: bool = False
    run_timeout: Optional[float] = None
    per_rank_env: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.args = tuple(self.args)
        if self.nprocs < 1:
            raise LaunchError("nprocs must be at least 1")


def launch(plan: LaunchPlan) -> List[int]:
    """Run the plan; returns one exit code per rank, in rank order."""
    if not os.path.isfile(plan.program):
        raise SpawnFailure(0, f"program not found: {plan.program}")
    if plan.backend is BackendKind.IN_PROCESS:
        return _launch_threads(plan)
    return _launch_processes(plan)


# ---------------------------------------------------------------------------
# process backend


def _child_env(plan: LaunchPlan, rank: int, coord_address: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.update(plan.per_rank_env)
    env[ENV_RANK] = str(rank)
    env[ENV_NPROCS] = str(plan.nprocs)
    env[ENV_COORD] = coord_address
    env[ENV_TIMEOUT] = str(plan.timeout)
    if plan.hetero:
        env[ENV_HETERO] = "1"
    else:
        env.pop(ENV_HETERO, None)
    return env


def _deadline(run_timeout: Optional[float]) -> Optional[float]:
    return None if run_timeout is None else time.monotonic() + run_timeout


def _left(deadline: Optional[float]) -> Optional[float]:
    return None if deadline is None else max(0.0, deadline - time.monotonic())


def _kill_all(procs: Sequence[subprocess.Popen]) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
    for proc in procs:
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            pass


def _launch_processes(plan: LaunchPlan) -> List[int]:
    coordinator = Coordinator(plan.nprocs, timeout=plan.timeout)
    argv = [sys.executable, plan.program, *plan.args]
    procs: List[subprocess.Popen] = []
    try:
        for rank in range(plan.nprocs):
            env = _child_env(plan, rank, coordinator.address)
            try:
                procs.append(subprocess.Popen(argv, env=env))
            except OSError as exc:
                raise SpawnFailure(rank, str(exc)) from exc

        coordinator.run()  # children that dial early wait in its listener's backlog

        deadline = _deadline(plan.run_timeout)
        codes = []
        for rank, proc in enumerate(procs):
            try:
                codes.append(proc.wait(timeout=_left(deadline)))
            except subprocess.TimeoutExpired:
                raise LaunchError(
                    f"rank {rank} still running after {plan.run_timeout} s") from None
        return codes
    finally:
        _kill_all(procs)
        coordinator.close()


# ---------------------------------------------------------------------------
# thread backend


class _RankRunner(threading.Thread):
    """One rank of the thread backend: private slot, staged transport."""

    def __init__(self, rank: int, ctx, program: str) -> None:
        super().__init__(name=f"packrun-rank{rank}", daemon=True)
        self.rank = rank
        self.exit_code = 0
        self._ctx = ctx
        self._program = program

    def run(self) -> None:
        slot = Slot()
        slot.staged_transport = self._ctx
        install_slot(slot)
        try:
            runpy.run_path(self._program, run_name="__main__")
        except SystemExit as exc:
            code = exc.code
            if isinstance(code, int):
                self.exit_code = code
            elif code is not None:
                print(code, file=sys.stderr)
                self.exit_code = 1
        except BaseException:
            traceback.print_exc()
            self.exit_code = 1
        finally:
            if not self._ctx.finalized:
                self._ctx.finalize()
            install_slot(None)


def _launch_threads(plan: LaunchPlan) -> List[int]:
    world = InProcessWorld(plan.nprocs, hetero=plan.hetero)
    argv = [plan.program, *plan.args]
    runners = [_RankRunner(rank, world.attach(rank), plan.program)
               for rank in range(plan.nprocs)]

    saved_argv = sys.argv
    sys.argv = argv
    try:
        for runner in runners:
            runner.start()
        deadline = _deadline(plan.run_timeout)
        for runner in runners:
            runner.join(_left(deadline))
        stuck = [r.rank for r in runners if r.is_alive()]
        if stuck:
            raise LaunchError(f"rank(s) {stuck} still running after {plan.run_timeout} s")
    finally:
        sys.argv = saved_argv
    return [runner.exit_code for runner in runners]
