"""Time `launch` from call to return, for 2 and 4 ranks on both backends.

The script launches itself. Each rank joins the world with ``init()`` and
leaves it with ``finalize()``, so a launch costs the spawn, the hand-over of
the connections and the teardown and nothing else. Each case is launched
REPEATS times (default 10, at least 2) after one untimed warm-up launch, and
the median and quartiles are printed in milliseconds. A ``pairs`` line per n
in (4, 16, 64) times ``connected_pairs``, the launcher's making of one
connection per pair of ranks, in this process.

    PYTHONPATH=src python3 tools/launch_time.py [REPEATS]
"""

import os
import statistics
import sys
import time

from packrun.transport import BackendKind, init

_RANK_FLAG = "--rank"


def _timed(repeats: int, run) -> str:
    """Median and quartiles in ms of ``repeats`` calls of ``run`` after one warm-up call."""
    samples = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        run()
        if i:
            samples.append((time.perf_counter() - t0) * 1e3)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return f"repeats={repeats} median_ms={median:.1f} q1_ms={q1:.1f} q3_ms={q3:.1f}"


def _pairs(nprocs: int) -> None:
    from packrun.mesh import connected_pairs
    for row in connected_pairs(nprocs, 10.0):
        for fd in row:
            if fd is not None:
                os.close(fd)


def main(argv: list) -> None:
    if argv[:1] == [_RANK_FLAG]:
        init().finalize()
        return
    from packrun.launcher import LaunchPlan, launch
    repeats = int(argv[0]) if argv else 10
    if repeats < 2:
        raise SystemExit("REPEATS must be at least 2")
    for backend in (BackendKind.SOCKET_MESH, BackendKind.IN_PROCESS):
        for nprocs in (2, 4):
            plan = LaunchPlan(nprocs, os.path.abspath(__file__), (_RANK_FLAG,), backend,
                              run_timeout=60)

            def run():
                codes = launch(plan)
                if any(codes):
                    raise SystemExit(f"{backend.value} -n {nprocs}: rank exit codes {codes}")

            print(f"backend={backend.value} n={nprocs} {_timed(repeats, run)}", flush=True)
    for nprocs in (4, 16, 64):
        print(f"pairs n={nprocs} {_timed(repeats, lambda: _pairs(nprocs))}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
