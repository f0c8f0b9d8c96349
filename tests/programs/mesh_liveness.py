"""Two mesh ranks whose sends meet a full socket or a peer busy outside packrun.

Usage: mesh_liveness.py exchange|busy

exchange: each rank sends 8 MiB to the other before it receives, then
checks what it got (exit 4 if it differs).
busy: rank 1 sleeps 2 s before it receives 1 MiB from rank 0; rank 0
exits 3 if that send took 0.5 s or more.  Rank 1 then answers, so rank 0
finalizes only once the payload has arrived.
"""

import sys
import time

from packrun.transport import init

BIG = 8 << 20


def main() -> None:
    mode = sys.argv[1]
    ctx = init()
    peer = 1 - ctx.rank
    try:
        if mode == "exchange":
            ctx.send(ctx.world, peer, 0, bytes([ctx.rank]) * BIG)
            if ctx.recv(ctx.world, peer, 0, timeout=20)[2] != bytes([peer]) * BIG:
                sys.exit(4)
        elif ctx.rank == 1:
            time.sleep(2.0)
            size = len(ctx.recv(ctx.world, 0, 0, timeout=20)[2])
            ctx.send(ctx.world, 0, 1, str(size).encode())
        else:
            started = time.monotonic()
            ctx.send(ctx.world, 1, 0, bytes(1 << 20))
            took = time.monotonic() - started
            if ctx.recv(ctx.world, 1, 1, timeout=20)[2] != b"%d" % (1 << 20):
                sys.exit(4)
            if took >= 0.5:
                sys.exit(3)
    finally:
        ctx.finalize()


if __name__ == "__main__":
    main()
