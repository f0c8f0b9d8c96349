"""Message buffers: the pack-then-move idiom over both value and wire layers."""

import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from packrun.idl import PrimTag, TypeRegistry
from packrun.msgbuf import BY_REFERENCE, MsgBuf
from packrun.pack import Buffer, Encoding, Prim, Rec, Seq, Str, Truncated, pack
from packrun.transport import (
    NOT_MEMBER,
    Mailbox,
    SegmentCountMismatch,
    SelfSend,
    TransportContext,
    TransportError,
)
from packrun.wire import Envelope, encode_frame, write_frame
from support import make_mesh_world, make_world, run_ranks


def test_pack_send_get_unpack_flow():
    _, (c0, c1) = make_world(2)

    def member(ctx):
        buf = MsgBuf(ctx)
        if ctx.rank == 0:
            buf.put_i32(42).put_f64(2.5).put_str("hello").send(1)
            return None
        buf.get(timeout=5)
        return buf.take_i32(), buf.take_f64(), buf.take_str()

    results = run_ranks([c0, c1], member)
    assert results[1] == (42, 2.5, "hello")


def test_send_resets_buffer():
    _, (c0, c1) = make_world(2)
    buf = MsgBuf(c0)
    buf.put_i32(1).send(1)
    assert buf.size == 0
    assert buf.remaining == 0


def test_empty_message_is_legal_but_unpacking_it_is_not():
    _, (c0, c1) = make_world(2)
    MsgBuf(c0).send(1)
    peer = MsgBuf(c1).get(timeout=5)
    assert peer.size == 0
    with pytest.raises(Truncated):
        peer.take_i32()


def test_send_to_self_propagates():
    _, (c0, _) = make_world(2)
    with pytest.raises(SelfSend):
        MsgBuf(c0).put_i32(1).send(0)


def test_get_returns_messages_in_fifo_order():
    _, (c0, c1) = make_world(2)
    sender = MsgBuf(c0)
    sender.put_i32(1).send(1)
    sender.put_i32(2).send(1)
    receiver = MsgBuf(c1)
    assert receiver.get(timeout=5).take_i32() == 1
    assert receiver.get(timeout=5).take_i32() == 2


def test_get_source_filter_skips_other_senders():
    _, (c0, c1, c2) = make_world(3)
    MsgBuf(c1).put_i32(11).send(0)
    MsgBuf(c2).put_i32(22).send(0)
    receiver = MsgBuf(c0)
    assert receiver.get(source=2, timeout=5).take_i32() == 22
    assert receiver.last_source == 2
    assert receiver.get(source=1, timeout=5).take_i32() == 11
    assert receiver.last_source == 1


def test_bcast_single_expression_idiom():
    _, ctxs = make_world(4)

    def member(ctx):
        buf = MsgBuf(ctx)
        if ctx.rank == 0:
            buf.put_i32(7).put_f64(-1.25)
        else:
            buf.put_str("stale bytes to be discarded")
        buf.bcast(0)
        return buf.take_i32(), buf.take_f64()

    assert run_ranks(ctxs, member) == [(7, -1.25)] * 4


def test_bcast_single_member_resets_cursor():
    _, (c0,) = make_world(1)
    buf = MsgBuf(c0)
    buf.put_i32(9)
    buf.take_i32()
    buf.put_i32(10)  # cursor now mid-buffer
    buf.bcast(0)
    assert buf.take_i32() == 9
    assert buf.take_i32() == 10


def test_gather_concatenates_in_rank_order():
    _, ctxs = make_world(3)

    def member(ctx):
        buf = MsgBuf(ctx)
        buf.put_i32(10 + ctx.rank).gather(0)
        if ctx.rank == 0:
            return [buf.take_i32() for _ in range(3)]
        return buf.size

    results = run_ranks(ctxs, member)
    assert results[0] == [10, 11, 12]
    assert results[1] == 0 and results[2] == 0  # non-root buffers left clean


def test_gather_of_empty_buffers():
    _, ctxs = make_world(3)
    results = run_ranks(ctxs, lambda ctx: MsgBuf(ctx).gather(0).size)
    assert results[0] == 0


def test_scatter_delivers_each_segment():
    _, ctxs = make_world(2)

    def member(ctx):
        parts = [MsgBuf(ctx).put_i32(1), MsgBuf(ctx).put_i32(2)] if ctx.rank == 0 else None
        return MsgBuf(ctx).scatter(0, parts).take_i32()

    assert run_ranks(ctxs, member) == [1, 2]


def test_scatter_single_member():
    _, (c0,) = make_world(1)
    assert MsgBuf(c0).scatter(0, [MsgBuf(c0).put_i32(5)]).take_i32() == 5


def test_scatter_counts_segments_at_root():
    recorder = _FrameRecorder()
    ctx = TransportContext(0, 3, recorder, Mailbox())
    with pytest.raises(SegmentCountMismatch) as err:
        MsgBuf(ctx).scatter(0, [b"only one"])
    assert (err.value.expected, err.value.found) == (3, 1)
    with pytest.raises(SegmentCountMismatch):
        MsgBuf(ctx).scatter(0)
    assert recorder.sent == b""  # nothing posted


def test_scatter_then_gather_reproduces_the_parts():
    _, ctxs = make_world(4)
    payloads = [bytes([r]) * (r + 1) for r in range(4)]

    def member(ctx):
        buf = MsgBuf(ctx).scatter(0, payloads if ctx.rank == 0 else None)
        buf.gather(0)
        return buf.data

    results = run_ranks(ctxs, member)
    assert results[0] == b"".join(payloads)


@pytest.mark.parametrize("backend", ["in-process", "mesh"])
def test_scatter_gives_each_member_its_part_of_every_form(backend):
    ctxs = make_world(4)[1] if backend == "in-process" else make_mesh_world(4)
    blob = random.Random(3).randbytes(BY_REFERENCE + 1)
    string = pack(Buffer(), Str("two"), "string")

    def member(ctx):
        parts = None
        if ctx.rank == 1:
            held = MsgBuf(ctx).put_bytes(blob)  # a piece held by reference
            parts = [held, string, b"\x07\x00\x00\x00", bytearray(b"\x08\x00\x00\x00")]
        buf = MsgBuf(ctx).scatter(1, parts)
        return buf.data, [buf.take_bytes, buf.take_str, buf.take_i32, buf.take_i32][ctx.rank]()

    try:
        results = run_ranks(ctxs, member)
    finally:
        for ctx in ctxs:
            ctx.finalize()
    assert results == [(pack(Buffer(), Seq(blob), "seq<u8>").data, blob), (string.data, "two"),
                       (b"\x07\x00\x00\x00", 7), (b"\x08\x00\x00\x00", 8)]


def test_hetero_world_uses_portable_encoding():
    _, ctxs = make_world(2, hetero=True)
    assert MsgBuf(ctxs[0]).encoding is Encoding.PORTABLE
    _, plain = make_world(2)
    assert MsgBuf(plain[0]).encoding is Encoding.NATIVE


def test_comm_defaults_to_world_and_can_be_narrowed():
    _, ctxs = make_world(4)

    def member(ctx):
        buf = MsgBuf(ctx)
        assert buf.comm is ctx.world
        child = ctx.comm_create(ctx.world, [1, 3])
        if child is NOT_MEMBER:
            return None
        buf.comm = child
        if child.local_rank == 0:
            buf.put_i32(99)
        buf.bcast(0)
        return buf.take_i32()

    results = run_ranks(ctxs, member)
    assert results[0] is None and results[2] is None
    assert results[1] == results[3] == 99


def test_named_types_round_trip_through_send():
    registry = TypeRegistry.from_idl("record pt { x: i32; y: f64; }")
    _, (c0, c1) = make_world(2)

    def member(ctx):
        buf = MsgBuf(ctx, registry=registry)
        if ctx.rank == 0:
            buf.put(Rec("pt", [Prim(PrimTag.I32, 3), Prim(PrimTag.F64, 0.5)]), "pt")
            buf.send(1)
            return None
        return buf.get(timeout=5).take("pt")

    results = run_ranks([c0, c1], member)
    assert results[1] == Rec("pt", [Prim(PrimTag.I32, 3), Prim(PrimTag.F64, 0.5)])


def test_bytes_helpers_round_trip():
    _, (c0, c1) = make_world(2)
    payload = bytes(range(64))
    MsgBuf(c0).put_bytes(payload).put_bool(True).send(1)
    buf = MsgBuf(c1).get(timeout=5)
    assert buf.take_bytes() == payload
    assert buf.take_bool() is True


PUT_HELPERS = {  # helper: (its argument, the value pack infers the same kind from)
    "put_i32": (-7, Prim(PrimTag.I32, -7)),
    "put_u32": (2**32 - 1, Prim(PrimTag.U32, 2**32 - 1)),
    "put_i64": (-2**40, Prim(PrimTag.I64, -2**40)),
    "put_f64": (0.1, Prim(PrimTag.F64, 0.1)),
    "put_bool": (True, Prim(PrimTag.BOOL, True)),
    "put_str": ("h\u00e9llo", Str("h\u00e9llo")),
    "put_bytes": (bytes(range(7)), Seq(bytes(range(7)))),
}


@pytest.mark.parametrize("hetero", [False, True], ids=["native", "portable"])
@pytest.mark.parametrize("helper", list(PUT_HELPERS))
def test_each_put_helper_writes_the_bytes_of_its_inferred_kind(helper, hetero):
    arg, value = PUT_HELPERS[helper]
    _, (ctx,) = make_world(1, hetero)
    buf = MsgBuf(ctx)
    getattr(buf, helper)(arg)
    assert buf.data == pack(Buffer(buf.encoding), value).data


# ---------------------------------------------------------------------------
# Large bytes held by reference


class _FrameRecorder:
    """A backend that writes each posted frame to itself, standing in for a socket."""

    def __init__(self):
        self.sent = bytearray()

    def sendmsg(self, buffers, ancdata=(), flags=0):
        data = b"".join(buffers)
        self.sent += data
        return len(data)

    def post(self, src, dest, comm_id, tag, payload, kind):
        write_frame(self, src, dest, comm_id, tag, payload, kind)


_BLOB_SIZES = [0, 5, BY_REFERENCE - 1, BY_REFERENCE, BY_REFERENCE + 1, BY_REFERENCE + 2,
               BY_REFERENCE + 3]
_PUTS = st.one_of(
    st.tuples(st.just("u32"), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("str"), st.text(max_size=5)),
    st.builds(lambda size, seed, mutable: ("bytes", (bytearray if mutable else bytes)(
        random.Random(seed).randbytes(size))),
        st.sampled_from(_BLOB_SIZES), st.integers(0, 2**16), st.booleans()),
)
_PUT_VALUES = {"u32": lambda v: (Prim(PrimTag.U32, v), "u32"),
               "str": lambda v: (Str(v), "string"),
               "bytes": lambda v: (Seq(v), "seq<u8>")}


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.lists(_PUTS, max_size=6), st.booleans())
def test_held_bytes_send_and_read_back_as_the_packed_bytes(puts, hetero):
    recorder = _FrameRecorder()
    ctx = TransportContext(0, 2, recorder, Mailbox(), hetero)
    packed = Buffer(Encoding.PORTABLE if hetero else Encoding.NATIVE)
    for helper, arg in puts:
        pack(packed, *_PUT_VALUES[helper](arg))
    expected = packed.data

    def filled():
        buf = MsgBuf(ctx)
        for helper, arg in puts:
            getattr(buf, "put_" + helper)(arg)
        return buf

    filled().send(1, tag=3)
    assert recorder.sent == encode_frame(Envelope(0, 1, 0, 3, expected))

    buf = filled()
    assert buf.size == len(expected)
    assert [getattr(buf, "take_" + helper)() for helper, _ in puts] == [arg for _, arg in puts]
    assert buf.remaining == 0
    assert buf.size == len(buf.data) and buf.data == expected

    recorder.sent.clear()
    with mock.patch("packrun.transport.MAX_PAYLOAD", len(expected) - 1):
        with pytest.raises(TransportError):
            filled().send(1)
    assert recorder.sent == b""


def test_collectives_and_scatter_parts_read_held_bytes():
    _, (ctx,) = make_world(1, hetero=True)
    blob = random.Random(5).randbytes(BY_REFERENCE + 4)

    def filled():
        return MsgBuf(ctx).put_bytes(blob)

    expected = pack(Buffer(Encoding.PORTABLE), Seq(blob), "seq<u8>").data
    assert filled().data == expected
    assert filled().bcast(0).data == expected
    assert filled().gather(0).data == expected
    assert MsgBuf(ctx).scatter(0, [filled()]).data == expected


def test_gather_of_a_mebibyte_on_four_members_peaks_at_seven_payloads():
    size = 1 << 20
    _, ctxs = make_world(4)
    bufs = [MsgBuf(ctx).append(bytes(size)) for ctx in ctxs]
    tracemalloc.start()
    try:
        run_ranks(ctxs, lambda ctx: bufs[ctx.rank].gather(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bufs[0].size == 4 * size
    # three members' snapshots queued at the root, and the four payloads it joins
    assert peak <= 7.05 * size, f"gather peaked at {peak / size:.2f} payloads"


def test_scatter_of_a_mebibyte_on_four_members_peaks_at_four_payloads():
    size = 1 << 20
    _, ctxs = make_world(4)
    parts = [MsgBuf(ctxs[0]).append(bytes([m]) * size) for m in range(4)]
    tracemalloc.start()
    try:
        firsts = run_ranks(ctxs, lambda ctx: MsgBuf(ctx).scatter(
            0, parts if ctx.rank == 0 else None).data[:1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert firsts == [bytes([m]) for m in range(4)]
    # the root's one copy of each part: the members load what it posted
    assert peak <= 4.05 * size, f"scatter peaked at {peak / size:.2f} payloads"
