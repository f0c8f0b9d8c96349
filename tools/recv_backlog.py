"""Time one receive that waits behind a backlog of unmatched envelopes.

For each backlog size N, rank 1 of a two-rank in-process world queues N
envelopes at rank 0 that no receive asks for (tags 1..N). Then, rep by
rep, it sends one tag-0 message, and rank 0 takes it with an exact receive
(source 1, tag 0) or with an ``ANY``-source receive (tag 0). For
``same_key_us`` the N envelopes all carry tag 0 instead, so each exact
receive takes the oldest of N + 1 pending on its own key. Only the
receive is timed; the median of each is printed in microseconds.

    PYTHONPATH=src python3 tools/recv_backlog.py [N ...]   # default: 0 1000 10000
"""

import statistics
import sys
import time

from packrun.transport import InProcessWorld


def median_recv_us(backlog: int, reps: int = 200, same_key: bool = False, **filters) -> float:
    r0, r1 = InProcessWorld(2).contexts
    for tag in range(1, backlog + 1):
        r1.send(r1.world, 0, 0 if same_key else tag, b"x")
    samples = []
    for _ in range(reps):
        r1.send(r1.world, 0, 0, b"y")
        t0 = time.perf_counter()
        r0.recv(r0.world, tag=0, **filters)
        samples.append(time.perf_counter() - t0)
    r0.finalize()
    r1.finalize()
    return statistics.median(samples) * 1e6


def main(argv: list) -> None:
    for backlog in [int(a) for a in argv] or [0, 1000, 10000]:
        print(f"pending={backlog} exact_us={median_recv_us(backlog, source=1):.1f} "
              f"any_source_us={median_recv_us(backlog):.1f} "
              f"same_key_us={median_recv_us(backlog, same_key=True, source=1):.1f}")


if __name__ == "__main__":
    main(sys.argv[1:])
