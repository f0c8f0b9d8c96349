"""Rank 1 never joins the mesh; every other rank enters normally.

Forces the partial-join path: rank 0 joins (it adopts its connection to
rank 1, which nothing reads) and exits, and the launcher must time out
waiting for rank 1's ready byte and reap it.
"""

import os
import time

from packrun.spmd import spmd_enter


def main() -> None:
    if os.environ.get("PACKRUN_RANK") == "1":
        time.sleep(600.0)
        return
    with spmd_enter():
        pass


if __name__ == "__main__":
    main()
