"""Rank r sleeps r * STEP seconds after joining the world, then exits 0.

Usage: staggered.py STEP
"""

import sys
import time

from packrun.spmd import spmd_enter


def main() -> None:
    step = float(sys.argv[1])
    with spmd_enter() as sctx:
        time.sleep(sctx.myid * step)


if __name__ == "__main__":
    main()
