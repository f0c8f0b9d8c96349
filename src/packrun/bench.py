"""Measure pack overhead against a raw byte copy, and farm speedup.

bench_pack answers "what does the serializer cost over memcpy" for the
cheap case that dominates bulk transfers: a Native-encoded byte sequence.
demo_taskfarm runs the same sleep-based job list through a 1-worker farm
and a W-worker farm and reports the wall-time ratio. Both print one
machine-readable line (ratio=... / speedup=...) for scripts to grep.
"""

import math
import random
import statistics
import sys
import threading
import time
from typing import List, Optional, TextIO

from .msgbuf import MsgBuf
from .pack import Buffer, Encoding, Prim, PrimTag, Seq, pack
from .slave import HandlerTable, MasterPool, slave_loop
from .transport import InProcessWorld


def _time_reps(reps: int, fn) -> List[float]:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return samples


def _throughput(size_bytes: int, seconds: float) -> float:
    if seconds <= 0.0:
        return math.inf
    return size_bytes / seconds / 1e6


def bench_pack(size_bytes: int, repetitions: int, portable: bool = False,
               out: Optional[TextIO] = None) -> float:
    """Time Native pack of a seq<u8> against bytearray(payload); print both.

    Returns the pack/copy time ratio (1.0 means free serialization).
    """
    if size_bytes < 1:
        raise ValueError("size must be at least 1 byte")
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    out = out or sys.stdout

    payload = random.Random(20020905).randbytes(size_bytes)
    value = Seq(payload)
    buf = Buffer(Encoding.NATIVE)

    def do_pack():
        buf.reset()
        pack(buf, value)

    def do_copy():
        bytearray(payload)

    # one warm-up each, then the measured reps
    do_pack()
    do_copy()
    pack_median = statistics.median(_time_reps(repetitions, do_pack))
    copy_median = statistics.median(_time_reps(repetitions, do_copy))
    ratio = math.inf if copy_median <= 0.0 else pack_median / copy_median

    print(f"payload: {size_bytes} bytes, {repetitions} reps, median times", file=out)
    print(f"native pack seq<u8>: {pack_median * 1e6:.2f} us/rep "
          f"({_throughput(size_bytes, pack_median):.1f} MB/s)", file=out)
    print(f"raw byte copy:       {copy_median * 1e6:.2f} us/rep "
          f"({_throughput(size_bytes, copy_median):.1f} MB/s)", file=out)
    print(f"ratio={ratio:.4f}", file=out)

    if portable:
        count = max(1, size_bytes // 8)
        rng = random.Random(19570301)
        doubles = Seq([Prim(PrimTag.F64, rng.random()) for _ in range(count)])
        pbuf = Buffer(Encoding.PORTABLE)

        def do_portable():
            pbuf.reset()
            pack(pbuf, doubles)

        do_portable()
        portable_median = statistics.median(_time_reps(repetitions, do_portable))
        portable_ratio = (math.inf if copy_median <= 0.0
                          else portable_median / copy_median)
        print(f"portable pack seq<f64> ({count} values): "
              f"{portable_median * 1e6:.2f} us/rep "
              f"({_throughput(count * 8, portable_median):.1f} MB/s)", file=out)
        print(f"portable_ratio={portable_ratio:.4f}", file=out)

    return ratio


# ---------------------------------------------------------------------------
# task farm speedup demo


def _farm_table() -> HandlerTable:
    table = HandlerTable()

    def sleep_job(buf: MsgBuf) -> None:
        seconds = buf.take_f64()
        time.sleep(seconds)
        buf.reset()
        buf.put_f64(seconds)

    table.register("sleep", sleep_job)
    return table


def _timed_farm(durations: List[float], workers: int) -> float:
    """Wall time to run the job list on an in-process farm of `workers`."""
    ctxs = InProcessWorld(workers + 1).contexts

    slaves = []
    for rank in range(1, workers + 1):
        t = threading.Thread(target=slave_loop, args=(ctxs[rank], _farm_table()),
                             name=f"farm-worker{rank}", daemon=True)
        t.start()
        slaves.append(t)

    master = ctxs[0]
    try:
        with MasterPool(master, _farm_table()) as pool:
            jobs = [MsgBuf(master).put_f64(d) for d in durations]
            t0 = time.perf_counter()
            pool.run_joblist("sleep", jobs)
            elapsed = time.perf_counter() - t0
        for t in slaves:
            t.join(30.0)
        return elapsed
    finally:
        for ctx in ctxs:
            ctx.finalize()


def demo_taskfarm(jobs: int, workers: int, job_ms: float = 100.0,
                  out: Optional[TextIO] = None) -> float:
    """Compare 1-worker and W-worker farms on `jobs` fixed-length sleep jobs.

    Returns the speedup (1-worker wall time over W-worker wall time);
    nan when there are no jobs to measure.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if jobs < 0:
        raise ValueError("jobs must not be negative")
    out = out or sys.stdout

    if jobs == 0:
        print("no jobs; nothing to measure", file=out)
        print("speedup=nan", file=out)
        return math.nan

    durations = [job_ms / 1000.0] * jobs
    serial = _timed_farm(durations, 1)
    parallel = serial if workers == 1 else _timed_farm(durations, workers)
    speedup = math.inf if parallel <= 0.0 else serial / parallel

    print(f"{jobs} jobs x {job_ms:.0f} ms", file=out)
    print(f"1 worker:  {serial:.3f} s", file=out)
    print(f"{workers} workers: {parallel:.3f} s", file=out)
    print(f"speedup={speedup:.4f}", file=out)
    return speedup
