"""Start N ranks of a program and collect their exit codes.

Two backends share one entry point. The process backend connects every pair
of ranks (:func:`packrun.mesh.connected_pairs`) and opens one pipe per rank
before it spawns any. Each child inherits its ends of those connections and
its pipe's write end, named in PACKRUN_* variables, and writes one byte to the
pipe once it holds them. If a rank exits before its byte, or the window
passes, every child is killed, so no orphans survive. The thread backend runs
each rank's program as __main__ on a thread of this process, as a rank of its
own (:func:`packrun.transport.rank_thread`) whose ``init`` returns its context
in one in-process world.
"""

import logging
import os
import runpy
import selectors
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .mesh import connected_pairs
from .transport import BackendKind, InProcessWorld, RendezvousTimeout, WorldConfig, rank_thread

_log = logging.getLogger(__name__)


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

    run_timeout is one deadline for all ranks together, from the moment the
    last process rank joins the mesh or the start of thread ranks (None =
    wait forever); timeout bounds making the connections, then every process
    rank's way to ``init``.  per_rank_env is added to each rank's environment
    on the process backend only; thread ranks share this process's environment.
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


def _close(fds: List[int]) -> None:
    while fds:
        os.close(fds.pop())


def _await_mesh(procs: Sequence[subprocess.Popen], ready: Sequence[int], timeout: float) -> None:
    """Wait for one byte from each rank's pipe: the rank's mesh is up.

    A pipe that ends first means its rank exited before joining, which fails
    the launch at once; so does the window passing.
    """
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as selector:
        for rank, fd in enumerate(ready):
            selector.register(fd, selectors.EVENT_READ, rank)
        joined = 0
        while joined < len(ready):
            events = selector.select(_left(deadline))
            if not events:
                raise RendezvousTimeout(timeout)
            for key, _mask in events:
                rank = key.data
                selector.unregister(key.fd)
                if not os.read(key.fd, 1):
                    try:
                        code = procs[rank].wait(_left(deadline))
                    except subprocess.TimeoutExpired:  # closed its pipe, yet runs on
                        raise RendezvousTimeout(timeout) from None
                    raise SpawnFailure(rank, f"exited with code {code} before joining the mesh")
                joined += 1
                _log.info("rank %d joined the mesh (%d of %d)", rank, joined, len(ready))
    _log.info("mesh complete: %d ranks", len(ready))


def _launch_processes(plan: LaunchPlan) -> List[int]:
    argv = [sys.executable, plan.program, *plan.args]
    procs: List[subprocess.Popen] = []
    handed: List[List[int]] = []  # what rank r inherits, held here until it is spawned
    ready: List[int] = []         # rank r's pipe read end at r
    try:
        try:
            ends = connected_pairs(plan.nprocs, plan.timeout)
            handed = [[fd for fd in row if fd is not None] for row in ends]
            for mine in handed:
                read_end, write_end = os.pipe()
                ready.append(read_end)
                mine.append(write_end)
        except OSError as exc:
            raise LaunchError(f"could not connect {plan.nprocs} ranks: {exc}") from exc
        for rank, mine in enumerate(handed):
            config = WorldConfig(my_rank_hint=rank, hetero=plan.hetero, fds=tuple(ends[rank]),
                                 ready_fd=mine[-1])
            env = {**os.environ, **plan.per_rank_env, **config.to_env()}
            try:
                procs.append(subprocess.Popen(argv, env=env, pass_fds=mine))
            except OSError as exc:
                raise SpawnFailure(rank, str(exc)) from exc
            finally:  # the rank holds the only copies, so its exit ends its pipe and connections
                _close(mine)

        _await_mesh(procs, ready, plan.timeout)

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
        _close([fd for mine in handed for fd in mine] + ready)


# ---------------------------------------------------------------------------
# thread backend


class _RankRunner(threading.Thread):
    """One rank of the thread backend, running its program with its context staged."""

    def __init__(self, ctx, program: str) -> None:
        super().__init__(name=f"packrun-rank{ctx.rank}", daemon=True)
        self.rank = ctx.rank
        self.exit_code = 0
        self._ctx = ctx
        self._program = program

    def run(self) -> None:
        try:
            with rank_thread(self._ctx):
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
            self._ctx.finalize()


def _launch_threads(plan: LaunchPlan) -> List[int]:
    argv = [plan.program, *plan.args]
    runners = [_RankRunner(ctx, plan.program)
               for ctx in InProcessWorld(plan.nprocs, hetero=plan.hetero).contexts]

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
