"""Time the collectives on rank 0 of in-process worlds as P grows.

For each world size P (2 and 4, one thread per rank) every rank runs the
same schedule: ``barrier``, then ``broadcast``, ``gather`` and ``scatter``
from root 0 at each payload size. Each row starts with one untimed warm-up
call, then takes samples of a few calls each, with an untimed barrier
before every sample so that none starts behind a backlog. Rank 0 times each
sample; its time divided by the number of calls is one sample in
microseconds per call, and the median and the quartiles of the samples are
printed, one row per (op, P, bytes). The payload is the broadcast body,
each member's gather contribution and each scatter segment; a barrier
carries none and is printed once per P with ``bytes=0``. A root returns
once it has posted, so a broadcast or scatter row is the root's cost only.

For the largest size at P = 4 it also prints the traced peak
(``tracemalloc``, all rank threads) of one ``MsgBuf.bcast`` and one
``MsgBuf.gather`` to root 0, in multiples of the payload size; below some
KiB the threads' own allocations outweigh the payloads.

On a host with fewer CPUs than ranks, the P = 4 rows time four threads on
fewer cores.

    PYTHONPATH=src python3 tools/collective_time.py [BYTES ...]   # default: 64 1048576
"""

import statistics
import sys
import threading
import time
import tracemalloc

from packrun.msgbuf import MsgBuf
from packrun.transport import InProcessWorld

_WORLDS = (2, 4)
_REPS = 9
_CALLS = 10
_TIMEOUT = 120.0


def _run(ctxs, fn) -> None:
    """Run fn(ctx) on one thread per rank and wait for all of them."""
    errors = []

    def rank(ctx):
        try:
            fn(ctx)
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=rank, args=(ctx,), daemon=True) for ctx in ctxs]
    for t in threads:
        t.start()
    for t in threads:
        t.join(_TIMEOUT)
    if errors:
        raise errors[0]
    if any(t.is_alive() for t in threads):
        raise RuntimeError(f"ranks still running after {_TIMEOUT:g} s")


def _call(ctx, op: str, body: bytes):
    world = ctx.world
    if op == "barrier":
        return lambda: ctx.barrier(world)
    if op == "broadcast":
        return lambda: ctx.broadcast(world, 0, body)
    if op == "gather":
        return lambda: ctx.gather(world, 0, body)
    segments = [body] * world.size
    return lambda: ctx.scatter(world, 0, segments)


def _time_rows(ctxs, schedule) -> dict:
    samples = {row: [] for row in schedule}

    def rank(ctx):
        for op, size in schedule:
            call = _call(ctx, op, bytes(size))
            call()
            for _ in range(_REPS):
                ctx.barrier(ctx.world)
                t0 = time.perf_counter()
                for _ in range(_CALLS):
                    call()
                if ctx.rank == 0:
                    samples[op, size].append((time.perf_counter() - t0) * 1e6 / _CALLS)

    _run(ctxs, rank)
    return samples


def _peak_payloads(ctxs, op: str, size: int) -> float:
    bufs = [MsgBuf(ctx).append(bytes(size)) for ctx in ctxs]
    tracemalloc.start()
    try:
        _run(ctxs, lambda ctx: getattr(bufs[ctx.rank], op)(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / size


def collective_time(nprocs: int, sizes: list) -> list:
    world = InProcessWorld(nprocs)
    ctxs = [world.attach(rank) for rank in range(nprocs)]
    schedule = [("barrier", 0)] + [(op, size) for size in sizes
                                   for op in ("broadcast", "gather", "scatter")]
    try:
        rows = []
        for (op, size), times in _time_rows(ctxs, schedule).items():
            q1, median, q3 = statistics.quantiles(times, n=4)
            rows.append(f"op={op} P={nprocs} bytes={size} calls={_CALLS} reps={_REPS} "
                        f"median_us={median:.1f} q1_us={q1:.1f} q3_us={q3:.1f}")
        if nprocs == 4:
            for op, label in (("bcast", "broadcast"), ("gather", "gather")):
                rows.append(f"op={label} P={nprocs} bytes={max(sizes)} "
                            f"traced_peak_payloads={_peak_payloads(ctxs, op, max(sizes)):.2f}")
        return rows
    finally:
        for ctx in ctxs:
            ctx.finalize()


def main(argv: list) -> None:
    sizes = [int(arg) for arg in argv] or [64, 1048576]
    for nprocs in _WORLDS:
        for row in collective_time(nprocs, sizes):
            print(row, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
