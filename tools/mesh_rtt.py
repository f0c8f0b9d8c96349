"""Time round trips between two rank processes, per path and payload size.

For each path, the script launches itself as two rank processes on the
socket mesh. For each payload size, rank 0 sends a payload of that size to
rank 1 and takes the echo back; rank 1 takes the bytes and sends them back
the same way. A round trip is timed on rank 0, after a few untimed warm-up
trips, and the echo is checked. Rank 0 prints the median and the quartiles
of each row in microseconds. The paths, from the least runtime to the most:

- ``raw``: packrun's wire frames over a loopback socket of their own, read
  on the calling thread;
- ``raw-thread``: the same socket, read by a reader thread that hands each
  payload over through a ``threading.Condition``, as the mesh does;
- ``ctx``: ``ctx.send`` and ``ctx.recv`` over the mesh;
- ``msgbuf``: a ``seq<u8>`` through ``MsgBuf``: ``put_bytes``, ``send``,
  ``get`` and ``take_bytes``.

    PYTHONPATH=src python3 tools/mesh_rtt.py [BYTES ...]   # default: 64 65536 1048576 8388608
"""

import os
import socket
import statistics
import struct
import sys
import threading
import time

from packrun.launcher import LaunchPlan, launch
from packrun.mesh import LOOPBACK
from packrun.msgbuf import MsgBuf
from packrun.transport import BackendKind, init
from packrun.wire import read_frame, write_frame

_RANK_FLAG = "--rank"
_PATHS = ("raw", "raw-thread", "ctx", "msgbuf")
_WARMUP = 5


def _reps(size: int) -> int:
    return max(50, min(2000, (256 << 20) // max(size, 1) // 4))


def _label(size: int) -> str:
    for unit, scale in (("MiB", 1 << 20), ("KiB", 1 << 10)):
        if size >= scale and size % scale == 0:
            return f"{size // scale}{unit}"
    return f"{size}B"


def _echo(rank: int, path: str, sizes: list, send, recv) -> None:
    """Rank 0 times send-then-recv round trips of each size; rank 1 echoes them."""
    for size in sizes:
        payload = os.urandom(size)
        reps = _reps(size)
        if rank == 1:
            for _ in range(_WARMUP + reps):
                # held until the next echo arrives: freeing a MiB-sized echo at
                # once made the msgbuf rows up to 2x slower through the allocator
                echo = recv()
                send(echo)
            continue
        samples = []
        for i in range(_WARMUP + reps):
            t0 = time.perf_counter()
            send(payload)
            echo = recv()
            elapsed = time.perf_counter() - t0
            if echo != payload:
                raise SystemExit(f"{path}, size {size}: echo differs from what was sent")
            if i >= _WARMUP:
                samples.append(elapsed * 1e6)
        q1, median, q3 = statistics.quantiles(samples, n=4)
        print(f"path={path} size={_label(size)} reps={reps} median_us={median:.1f} "
              f"q1_us={q1:.1f} q3_us={q3:.1f}", flush=True)


def _raw_socket(ctx) -> socket.socket:
    """A loopback connection between the two ranks, beside the mesh."""
    if ctx.rank == 0:
        with socket.create_server((LOOPBACK, 0)) as listener:
            ctx.send(ctx.world, 1, 0, struct.pack(">H", listener.getsockname()[1]))
            sock = listener.accept()[0]
    else:
        (port,) = struct.unpack(">H", ctx.recv(ctx.world, source=0, tag=0)[2])
        sock = socket.create_connection((LOOPBACK, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _reader(sock: socket.socket):
    """Start a thread that files each payload read from ``sock``; return the call that takes one."""
    inbox, arrived = [], threading.Condition()

    def read_loop():
        while (env := read_frame(sock)) is not None:
            with arrived:
                inbox.append(env.payload)
                arrived.notify()

    def take():
        with arrived:
            arrived.wait_for(lambda: inbox)
            return inbox.pop(0)

    threading.Thread(target=read_loop, daemon=True).start()
    return take


def rank_main(path: str, sizes: list) -> None:
    ctx = init()
    rank, peer = ctx.rank, 1 - ctx.rank
    try:
        if path == "ctx":
            _echo(rank, path, sizes, lambda payload: ctx.send(ctx.world, peer, 0, payload),
                  lambda: ctx.recv(ctx.world, source=peer, tag=0)[2])
        elif path == "msgbuf":
            buf = MsgBuf(ctx)
            _echo(rank, path, sizes, lambda payload: buf.reset().put_bytes(payload).send(peer),
                  lambda: buf.get(source=peer).take_bytes())
        else:
            with _raw_socket(ctx) as sock:
                recv = _reader(sock) if path == "raw-thread" else lambda: read_frame(sock).payload
                _echo(rank, path, sizes,
                      lambda payload: write_frame(sock, rank, peer, 0, 0, payload), recv)
    finally:
        ctx.finalize()


def main(argv: list) -> None:
    if argv[:1] == [_RANK_FLAG]:
        rank_main(argv[1], [int(a) for a in argv[2:]])
        return
    sizes = [str(int(a)) for a in argv] or ["64", "65536", "1048576", "8388608"]
    # a launch per path: each row starts from fresh processes, so no row
    # inherits the heap another path left behind
    for path in _PATHS:
        codes = launch(LaunchPlan(2, os.path.abspath(__file__), (_RANK_FLAG, path, *sizes),
                                  BackendKind.SOCKET_MESH, run_timeout=600))
        if any(codes):
            raise SystemExit(f"{path}: rank exit codes {codes}")


if __name__ == "__main__":
    main(sys.argv[1:])
