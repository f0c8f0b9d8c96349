"""records-portable: closed-loop IDL batches in the portable encoding.

Rank 0 packs one ``batch`` record (1-64 ``sample`` records, one in four with
a 1024-value seq<f64>) behind a u32 seq; rank 1 decodes it, compares it with
the generated value and replies with a (seq, sample count) ack. Ranks are
threads, so delivery is an in-memory append and the serializer dominates.
"""

from time import perf_counter_ns

T_FIRST = perf_counter_ns()

import sys  # noqa: E402

from perfbench.inputs import RECORDS_IDL, batch_value  # noqa: E402
from perfbench.rank import Rank  # noqa: E402

STOP = 0xFFFFFFFF


def prepare(h: Rank):
    data = h.inputs()
    entries = data["batches"]
    return data["block"], [batch_value(e) for e in entries], [len(e[1]) for e in entries]


def main() -> None:
    h = Rank(T_FIRST, sys.argv)
    with h.enter():
        registry = h.registry(RECORDS_IDL)
        h.ready()
        block, batches, counts = h.prepared(prepare)
        n = len(batches)
        tr, buf = h.trace, h.msgbuf(registry)
        h.go()
        if h.rank == 0:
            seq = h.spec["start"]
            blocks = 0
            while h.more(blocks):
                for _ in range(block):
                    tr.req = seq
                    t0 = perf_counter_ns()
                    buf.reset().put_u32(seq).put(batches[seq % n], "batch").send(1)
                    buf.get(source=1, timeout=h.timeout)
                    size = buf.size
                    ack_seq, ack_count = buf.take_u32(), buf.take_u32()
                    h.latencies.append(perf_counter_ns() - t0)
                    if h.check(ack_seq == seq and ack_count == counts[seq % n], f"ack {seq}"):
                        h.msgs += 1
                        h.bytes += size
                    seq += 1
                blocks += 1
            tr.req = -1
            buf.reset().put_u32(STOP).send(1)
            h.extra["next"] = seq
        else:
            expected = h.spec["start"]
            while True:
                tr.req = expected
                buf.get(source=0, timeout=h.timeout)
                size = buf.size
                seq = buf.take_u32()
                if seq == STOP:
                    break
                value = buf.take("batch")
                if h.check(seq == expected and value == batches[seq % n], f"batch {seq}"):
                    h.msgs += 1
                    h.bytes += size
                expected += 1
                count = len(value.fields[1])
                if h.corrupt(seq):
                    count += 1
                buf.reset().put_u32(seq).put_u32(count).send(0)
        h.stop()
    h.finish()


if __name__ == "__main__":
    main()
