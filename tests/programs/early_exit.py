"""Exit with CODE on rank RANK before entering the runtime.

Usage: early_exit.py CODE RANK

Every other rank waits a second before it enters, so the chosen rank is
the first to go and the only one to leave before joining the mesh. The
others then wait for a peer that is gone until the launcher kills them.
"""

import os
import sys
import time

from packrun.spmd import spmd_enter


def main() -> None:
    code, which = int(sys.argv[1]), sys.argv[2]
    if os.environ["PACKRUN_RANK"] == which:
        sys.exit(code)
    time.sleep(1.0)
    with spmd_enter():
        pass


if __name__ == "__main__":
    main()
