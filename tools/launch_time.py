"""Time `launch` from call to return, for 2 and 4 ranks on both backends.

The script launches itself. Each rank joins the world with ``init()`` and
leaves it with ``finalize()``, so a launch costs the spawn, the mesh set-up
and the teardown and nothing else. Each case is launched REPEATS times
(default 10, at least 2) after one untimed warm-up launch, and the median
and quartiles are printed in milliseconds.

    PYTHONPATH=src python3 tools/launch_time.py [REPEATS]
"""

import os
import statistics
import sys
import time

from packrun.launcher import LaunchPlan, launch
from packrun.transport import BackendKind, init

_RANK_FLAG = "--rank"


def main(argv: list) -> None:
    if argv[:1] == [_RANK_FLAG]:
        init().finalize()
        return
    repeats = int(argv[0]) if argv else 10
    if repeats < 2:
        raise SystemExit("REPEATS must be at least 2")
    for backend in (BackendKind.SOCKET_MESH, BackendKind.IN_PROCESS):
        for nprocs in (2, 4):
            plan = LaunchPlan(nprocs, os.path.abspath(__file__), (_RANK_FLAG,), backend,
                              run_timeout=60)
            samples = []
            for i in range(repeats + 1):
                t0 = time.perf_counter()
                codes = launch(plan)
                elapsed = time.perf_counter() - t0
                if any(codes):
                    raise SystemExit(f"{backend.value} -n {nprocs}: rank exit codes {codes}")
                if i:
                    samples.append(elapsed * 1e3)
            q1, median, q3 = statistics.quantiles(samples, n=4)
            print(f"backend={backend.value} n={nprocs} repeats={repeats} median_ms={median:.1f} "
                  f"q1_ms={q1:.1f} q3_ms={q3:.1f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
