"""Record the sockets this rank holds before it joins, then join and leave.

Usage: inherited.py DIR

Writes DIR/rank<r>.json: every socket descriptor open in the process (from
/proc/self/fd), the descriptors PACKRUN_FDS names, and for each peer the
local and remote address of this rank's end of the connection to it.
"""

import json
import os
import socket
import sys

from packrun.transport import WorldConfig, init


def sockets() -> list:
    found = []
    for name in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{name}").startswith("socket:"):
                found.append(int(name))
        except OSError:
            pass  # the descriptor listdir itself read the directory with
    return sorted(found)


def main() -> None:
    config = WorldConfig.from_env()
    held = {"sockets": sockets(), "fds": list(config.fds), "ends": []}
    for fd in config.fds:
        if fd is None:
            held["ends"].append(None)
            continue
        end = socket.socket(fileno=fd)
        held["ends"].append([end.getsockname(), end.getpeername()])
        end.detach()
    init().finalize()
    with open(os.path.join(sys.argv[1], f"rank{config.my_rank_hint}.json"), "w") as out:
        json.dump(held, out)


if __name__ == "__main__":
    main()
