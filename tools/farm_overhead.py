"""Time the task farm's own cost per job: run_joblist over no-op jobs.

For each slave count W, an in-process world of W + 1 ranks runs
``slave_loop`` on ranks 1..W, each on its own thread, with one handler that
leaves its empty request as the reply. Rank 0 makes one untimed warm-up
``run_joblist`` call, then times ``run_joblist`` over N jobs, rep by rep.
Each rep's wall time and process CPU time (all threads), divided by N, is
one sample; the median and the quartiles of each are printed in
microseconds per job.

    PYTHONPATH=src python3 tools/farm_overhead.py [N]   # default: 500 jobs
"""

import statistics
import sys
import threading
import time

from packrun.slave import HandlerTable, MasterPool, slave_loop
from packrun.transport import InProcessWorld

_SLAVES = (1, 2, 4)
_REPS = 9


def _table() -> HandlerTable:
    table = HandlerTable()
    table.register("noop", lambda buf: None)
    return table


def _summary(name: str, samples: list) -> str:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return f"{name}_median_us={median:.1f} {name}_q1_us={q1:.1f} {name}_q3_us={q3:.1f}"


def farm_overhead(slaves: int, jobs: int) -> str:
    ctxs = InProcessWorld(slaves + 1).contexts
    threads = [threading.Thread(target=slave_loop, args=(ctx, _table()), daemon=True)
               for ctx in ctxs[1:]]
    for t in threads:
        t.start()
    requests = [b""] * jobs
    wall, cpu = [], []
    try:
        with MasterPool(ctxs[0], _table()) as pool:
            pool.run_joblist("noop", requests)
            for _ in range(_REPS):
                w0, c0 = time.perf_counter(), time.process_time()
                pool.run_joblist("noop", requests)
                wall.append((time.perf_counter() - w0) * 1e6 / jobs)
                cpu.append((time.process_time() - c0) * 1e6 / jobs)
        for t in threads:
            t.join(30.0)
    finally:
        for ctx in ctxs:
            ctx.finalize()
    return f"slaves={slaves} jobs={jobs} reps={_REPS} {_summary('wall', wall)} {_summary('cpu', cpu)}"


def main(argv: list) -> None:
    jobs = int(argv[0]) if argv else 500
    for slaves in _SLAVES:
        print(farm_overhead(slaves, jobs), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
