"""pingpong-mesh: closed-loop echo of seq<u8> payloads over the TCP mesh.

Rank 0 sends a native MsgBuf holding a u32 seq and a seq<u8> payload cut
from the input pool; rank 1 unpacks it, checks it against the inputs and
echoes it; rank 0 checks the echo. One message is in flight at a time.
"""

from time import perf_counter_ns

T_FIRST = perf_counter_ns()

import sys  # noqa: E402

from perfbench.inputs import PINGPONG_IDL  # noqa: E402
from perfbench.rank import Rank  # noqa: E402

STOP = 0xFFFFFFFF


def prepare(h: Rank):
    data = h.inputs()
    return data["sizes"], data["offsets"], data["block"], h.pool()


def main() -> None:
    h = Rank(T_FIRST, sys.argv)
    with h.enter():
        registry = h.registry(PINGPONG_IDL)
        h.ready()
        sizes, offsets, block, pool = h.prepared(prepare)
        n = len(sizes)
        tr, buf = h.trace, h.msgbuf(registry)
        h.go()
        if h.rank == 0:
            seq = h.spec["start"]
            blocks = 0
            while h.more(blocks):
                for _ in range(block):
                    i = seq % n
                    payload = pool[offsets[i]:offsets[i] + sizes[i]]
                    tr.req = seq
                    t0 = perf_counter_ns()
                    buf.reset().put_u32(seq).put_bytes(payload).send(1)
                    buf.get(source=1, timeout=h.timeout)
                    size = buf.size
                    echo_seq, echo = buf.take_u32(), buf.take_bytes()
                    h.latencies.append(perf_counter_ns() - t0)
                    if h.check(echo_seq == seq and echo == payload, f"echo {seq}"):
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
                data = buf.take_bytes()
                echo = bytes([data[0] ^ 0xFF]) + data[1:] if h.corrupt(seq) else data
                buf.reset().put_u32(seq).put_bytes(echo).send(0)
                # checked once the echo is on its way, in parallel with rank 0's unpacking
                i = seq % n
                if h.check(seq == expected and data == pool[offsets[i]:offsets[i] + sizes[i]],
                           f"payload {seq}"):
                    h.msgs += 1
                    h.bytes += size
                expected += 1
        h.stop()
    h.finish()


if __name__ == "__main__":
    main()
