"""Time MsgBuf round trips over a real two-rank TCP mesh, per payload size.

The script launches itself as two rank processes on the socket mesh. For
each payload size, rank 0 packs a ``seq<u8>`` of that size, sends it to
rank 1 and takes the echo back; rank 1 takes the bytes and sends them back
the same way. A round trip is timed from ``put_bytes`` to ``take_bytes`` on
rank 0, after a few untimed warm-up trips, and the echo is checked. Rank 0
prints the median and the quartiles of each size in microseconds.

    PYTHONPATH=src python3 tools/mesh_rtt.py [BYTES ...]   # default: 64 65536 1048576 8388608
"""

import os
import statistics
import sys
import time

from packrun.launcher import LaunchPlan, launch
from packrun.msgbuf import MsgBuf
from packrun.transport import BackendKind, init

_RANK_FLAG = "--rank"
_WARMUP = 5


def _reps(size: int) -> int:
    return max(50, min(2000, (256 << 20) // max(size, 1) // 4))


def _label(size: int) -> str:
    for unit, scale in (("MiB", 1 << 20), ("KiB", 1 << 10)):
        if size >= scale and size % scale == 0:
            return f"{size // scale}{unit}"
    return f"{size}B"


def rank_main(sizes: list) -> None:
    ctx = init()
    buf = MsgBuf(ctx)
    try:
        for size in sizes:
            payload = os.urandom(size)
            reps = _reps(size)
            if ctx.rank == 1:
                for _ in range(_WARMUP + reps):
                    echo = buf.get(source=0).take_bytes()
                    buf.reset().put_bytes(echo).send(0)
                continue
            samples = []
            for i in range(_WARMUP + reps):
                t0 = time.perf_counter()
                buf.reset().put_bytes(payload).send(1)
                echo = buf.get(source=1).take_bytes()
                elapsed = time.perf_counter() - t0
                if echo != payload:
                    raise SystemExit(f"size {size}: echo differs from what was sent")
                if i >= _WARMUP:
                    samples.append(elapsed * 1e6)
            q1, median, q3 = statistics.quantiles(samples, n=4)
            print(f"size={_label(size)} reps={reps} median_us={median:.1f} "
                  f"q1_us={q1:.1f} q3_us={q3:.1f}", flush=True)
    finally:
        ctx.finalize()


def main(argv: list) -> None:
    if argv[:1] == [_RANK_FLAG]:
        rank_main([int(a) for a in argv[1:]])
        return
    sizes = [str(int(a)) for a in argv] or ["64", "65536", "1048576", "8388608"]
    codes = launch(LaunchPlan(2, os.path.abspath(__file__), (_RANK_FLAG, *sizes),
                              BackendKind.SOCKET_MESH, run_timeout=600))
    if any(codes):
        raise SystemExit(f"rank exit codes {codes}")


if __name__ == "__main__":
    main(sys.argv[1:])
