"""superstep-tagged: bulk-synchronous rounds with a deep receive backlog.

In each round both ranks send K tagged messages to the peer in a seeded
shuffled tag order, pass a barrier, then receive with explicit source and tag
in ascending tag order, so most receives match far behind the head of the
mailbox. The barrier makes the whole round queued before the first receive,
so the backlog each receive skips is the one computed from the schedule. A
gather of per-rank checksums to rank 0 and a bcast of the next K (0 = stop)
close the round. Each message carries its send time, and the receiver
records its delivery latency on the shared monotonic clock.
"""

from time import perf_counter_ns

T_FIRST = perf_counter_ns()

import sys  # noqa: E402

from packrun import Prim, PrimTag  # noqa: E402

from perfbench.inputs import SUPERSTEP_IDL, depth_ahead  # noqa: E402
from perfbench.rank import Rank  # noqa: E402

MASK = (1 << 64) - 1


def prepare(h: Rank):
    data = h.inputs()
    rounds = data["rounds"]
    depth = [depth_ahead(r["order"][1 - h.rank]) for r in rounds]
    # what rank 0 must gather: each rank's sum of the values its peer sent
    expected = [(sum(r["values"][1]) & MASK, sum(r["values"][0]) & MASK) for r in rounds]
    return data["block"], rounds, depth, expected


def main() -> None:
    h = Rank(T_FIRST, sys.argv)
    with h.enter():
        registry = h.registry(SUPERSTEP_IDL)
        h.ready()
        block, rounds, depth, expected = h.prepared(prepare)
        me = h.rank
        peer = 1 - me
        n = len(rounds)
        tr, buf = h.trace, h.msgbuf(registry)
        h.go()
        index = h.spec["start"]
        done = 0
        k = rounds[index % n]["k"]
        while k:
            r = index % n
            mine, theirs = rounds[r]["values"][me], rounds[r]["values"][peer]
            for tag in rounds[r]["order"][me]:
                tr.req = index << 16 | tag
                buf.reset().put_u32(index).put_u32(tag).put_i64(mine[tag - 1])
                buf.put_i64(perf_counter_ns()).send(peer, tag=tag)
            h.ctx.barrier(h.ctx.world)
            checksum = 0
            for tag in range(1, k + 1):
                tr.req, tr.depth = index << 16 | tag, depth[r][tag - 1]
                buf.get(source=peer, tag=tag, timeout=h.timeout)
                size = buf.size
                got = (buf.take_u32(), buf.take_u32(), buf.take_i64())
                h.latencies.append(perf_counter_ns() - buf.take_i64())
                if h.check(got == (index, tag, theirs[tag - 1]), f"round {index} tag {tag}"):
                    h.msgs += 1
                    h.bytes += size
                checksum = (checksum + got[2]) & MASK
            tr.req, tr.depth = -1, 0
            buf.reset().put(Prim(PrimTag.U64, checksum)).gather(0)
            index += 1
            done += 1
            if me == 0:
                sums = (buf.take("u64").value, buf.take("u64").value)
                h.check(sums == expected[r], f"checksums of round {index - 1}")
                # rounds stop only at the end of a cycle, so every run sees whole cycles
                last = done % block == 0 and not h.more(done // block)
                k = 0 if last else rounds[index % n]["k"]
                buf.reset().put_u32(k).bcast(0)
            else:
                k = buf.reset().bcast(0).take_u32()
                h.check(k in (0, rounds[index % n]["k"]), f"bcast of round {index}")
        h.stop()
        h.extra["next"] = index
    h.finish()


if __name__ == "__main__":
    main()
