"""Task farm tests: handler tables, request framing, scheduling, teardown."""

import hashlib
import random
import struct

import pytest

from packrun.msgbuf import MsgBuf
from packrun.slave import (
    FARM_TAG,
    STOP,
    DuplicateSelector,
    HandlerError,
    HandlerTable,
    MasterPool,
    NoIdleSlave,
    NoOutstanding,
    NoSlaves,
    SlaveError,
    TableMismatch,
    request_frame,
    slave_loop,
)

from support import make_world, run_ranks


def add_table():
    table = HandlerTable()

    def add(buf):
        a = buf.take_i32()
        b = buf.take_i32()
        buf.reset()
        buf.put_i32(a + b)

    def square(buf):
        v = buf.take_i32()
        buf.reset()
        buf.put_i64(v * v)

    def fail_on_negative(buf):
        v = buf.take_i32()
        if v < 0:
            raise ValueError(f"bad input {v}")
        buf.reset()
        buf.put_i32(v)

    table.register("add", add)
    table.register("square", square)
    table.register("fail_on_negative", fail_on_negative)
    return table


# ---------------------------------------------------------------- table


def test_register_assigns_ordered_indices():
    table = add_table()
    assert table.selector("add") == 0
    assert table.selector("square") == 1
    assert table.selector("fail_on_negative") == 2
    assert table.names == ("add", "square", "fail_on_negative")
    assert len(table) == 3
    assert "square" in table


def test_duplicate_selector_rejected():
    table = add_table()
    with pytest.raises(DuplicateSelector):
        table.register("add", lambda buf: None)


def test_unknown_handler_name():
    table = add_table()
    with pytest.raises(SlaveError):
        table.selector("missing")


def test_decorator_registration():
    table = HandlerTable()

    @table.handler("noop")
    def noop(buf):
        return None

    assert table.selector("noop") == 0
    assert table.lookup(0) == ("noop", noop)


def test_digest_tracks_names_and_order():
    a = HandlerTable()
    a.register("x", lambda b: None)
    a.register("y", lambda b: None)

    b = HandlerTable()
    b.register("x", lambda b_: None)
    b.register("y", lambda b_: None)
    assert a.digest() == b.digest()

    c = HandlerTable()
    c.register("y", lambda b_: None)
    c.register("x", lambda b_: None)
    assert a.digest() != c.digest()

    d = HandlerTable()
    d.register("x", lambda b_: None)
    assert a.digest() != d.digest()


def test_request_frame_layout():
    frame = request_frame(7, b"args")
    assert frame == struct.pack(">I", 7) + b"args"
    assert request_frame(STOP) == b"\xff\xff\xff\xff"


# ---------------------------------------------------------------- farm


def farm(nprocs, master_fn, table_for_rank=None, timeout=15.0):
    """Drive a farm: rank 0 runs master_fn(ctx, table), others slave_loop."""
    world, ctxs = make_world(nprocs)
    table_for_rank = table_for_rank or (lambda rank: add_table())

    def body(ctx):
        table = table_for_rank(ctx.rank)
        if ctx.rank == 0:
            return master_fn(ctx, table)
        return slave_loop(ctx, table)

    return run_ranks(ctxs, body, timeout)


def test_single_request_round_trip():
    def master(ctx, table):
        with MasterPool(ctx, table) as pool:
            req = pool.request("add").put_i32(19).put_i32(23)
            rank = pool.exec(req)
            assert rank == 1
            src, reply = pool.get_returnv()
            assert src == rank
            return reply.take_i32()

    results = farm(3, master)
    assert results[0] == 42
    assert results[1] == 1 or results[2] == 1  # one slave handled it


def test_exec_picks_lowest_idle_rank():
    def master(ctx, table):
        with MasterPool(ctx, table) as pool:
            picked = [pool.exec(pool.request("add").put_i32(i).put_i32(i))
                      for i in range(3)]
            with pytest.raises(NoIdleSlave):
                pool.exec(pool.request("add").put_i32(0).put_i32(0))
            while pool.outstanding:
                pool.get_returnv()
            assert pool.all_idle()
            return picked

    results = farm(4, master)
    assert results[0] == [1, 2, 3]


def test_get_returnv_requires_outstanding():
    def master(ctx, table):
        with MasterPool(ctx, table) as pool:
            with pytest.raises(NoOutstanding):
                pool.get_returnv()
        return True

    assert farm(2, master)[0] is True


def test_exec_resets_request_buffer():
    def master(ctx, table):
        with MasterPool(ctx, table) as pool:
            req = pool.request("add").put_i32(1).put_i32(2)
            assert req.size > 4
            pool.exec(req)
            size_after = req.size
            pool.get_returnv()
            return size_after

    assert farm(2, master)[0] == 0


def test_unknown_selector_reports_and_slave_survives():
    def master(ctx, table):
        with MasterPool(ctx, table) as pool:
            pool.exec(request_frame(99))
            with pytest.raises(HandlerError) as info:
                pool.get_returnv()
            assert "unknown selector 99" in info.value.diagnostic
            assert pool.all_idle()
            # same slave still serves valid requests
            pool.exec(pool.request("add").put_i32(2).put_i32(3))
            _, reply = pool.get_returnv()
            return reply.take_i32()

    assert farm(2, master)[0] == 5


def test_handler_exception_reports_and_slave_survives():
    def master(ctx, table):
        with MasterPool(ctx, table) as pool:
            pool.exec(pool.request("fail_on_negative").put_i32(-4))
            with pytest.raises(HandlerError) as info:
                pool.get_returnv()
            assert info.value.slave == 1
            assert "ValueError" in info.value.diagnostic
            assert "bad input -4" in info.value.diagnostic
            pool.exec(pool.request("fail_on_negative").put_i32(4))
            _, reply = pool.get_returnv()
            return reply.take_i32()

    assert farm(2, master)[0] == 4


def test_a_lone_surrogate_in_a_handler_error_is_escaped_and_the_slave_survives():
    def undecodable(buf):
        raise ValueError("bad byte \udcff")  # what os.fsdecode makes of an undecodable byte

    def table_for_rank(rank):
        table = add_table()
        table.register("undecodable", undecodable)
        return table

    def master(ctx, table):
        with MasterPool(ctx, table) as pool:
            pool.exec(pool.request("undecodable"))
            with pytest.raises(HandlerError) as info:
                pool.get_returnv()
            assert info.value.diagnostic == "ValueError: bad byte \\udcff"
            pool.exec(pool.request("add").put_i32(2).put_i32(3))
            _, reply = pool.get_returnv()
            return reply.take_i32()

    assert farm(2, master, table_for_rank, timeout=5)[0] == 5


def test_shutdown_collects_receipts_and_is_idempotent():
    def master(ctx, table):
        with MasterPool(ctx, table) as pool:
            for i in range(5):
                pool.exec(pool.request("add").put_i32(i).put_i32(i))
                pool.get_returnv()
            pool.shutdown()
            pool.shutdown()
            return {rank: len(receipts) for rank, receipts in pool.receipts.items()}

    counts = farm(3, master)[0]
    assert set(counts) == {1, 2}
    assert sum(counts.values()) == 5


def test_receipts_are_request_frame_digests():
    def master(ctx, table):
        frame = request_frame(table.selector("add"),
                              MsgBuf(ctx).put_i32(6).put_i32(7).data)
        with MasterPool(ctx, table) as pool:
            pool.exec(frame)
            pool.get_returnv()
            pool.shutdown()
            return pool.receipts[1], frame

    receipts, frame = farm(2, master)[0]
    assert receipts == [hashlib.sha256(frame).digest()]


def test_shutdown_drains_outstanding_replies():
    def master(ctx, table):
        with MasterPool(ctx, table) as pool:
            for i in range(4):
                pool.exec(pool.request("square").put_i32(i))
        with pytest.raises(NoOutstanding):
            pool.get_returnv()
        return sorted(len(r) for r in pool.receipts.values()), pool.outstanding

    results = farm(5, master)
    assert results[0] == ([1, 1, 1, 1], 0)
    assert results[1:] == [1, 1, 1, 1]


def test_slave_loop_returns_handled_count():
    def master(ctx, table):
        with MasterPool(ctx, table) as pool:
            for i in range(6):
                pool.exec(pool.request("add").put_i32(i).put_i32(1))
                pool.get_returnv()
        return None

    results = farm(2, master)
    assert results[1] == 6


def test_run_joblist_orders_replies_by_job():
    rng = random.Random(4242)
    inputs = [rng.randrange(-1000, 1000) for _ in range(12)]

    def master(ctx, table):
        jobs = [MsgBuf(ctx).put_i32(v) for v in inputs]
        with MasterPool(ctx, table) as pool:
            replies = pool.run_joblist("square", jobs)
            return [r.take_i64() for r in replies]

    assert farm(4, master)[0] == [v * v for v in inputs]


def test_run_joblist_dispatches_each_job_exactly_once():
    inputs = list(range(20))

    def master(ctx, table):
        selector = table.selector("square")
        frames = [request_frame(selector, MsgBuf(ctx).put_i32(v).data)
                  for v in inputs]
        with MasterPool(ctx, table) as pool:
            pool.run_joblist("square", [MsgBuf(ctx).put_i32(v) for v in inputs])
            pool.shutdown()
            seen = [d for receipts in pool.receipts.values() for d in receipts]
            return sorted(seen), sorted(hashlib.sha256(f).digest() for f in frames)

    seen, expected = farm(4, master)[0]
    assert seen == expected


def test_run_joblist_empty_is_empty():
    def master(ctx, table):
        with MasterPool(ctx, table) as pool:
            return pool.run_joblist("add", [])

    assert farm(3, master)[0] == []


def test_run_joblist_failure_carries_job_index():
    def master(ctx, table):
        jobs = [MsgBuf(ctx).put_i32(v) for v in [3, 1, -7, 2, 5]]
        with MasterPool(ctx, table) as pool:
            with pytest.raises(HandlerError) as info:
                pool.run_joblist("fail_on_negative", jobs)
            return info.value.job

    assert farm(2, master)[0] == 2


def test_run_joblist_with_a_request_in_flight_dispatches_nothing():
    def master(ctx, table):
        with MasterPool(ctx, table) as pool:
            pool.exec(pool.request("square").put_i32(7))
            with pytest.raises(SlaveError, match="1 request"):
                pool.run_joblist("square", [MsgBuf(ctx).put_i32(v) for v in range(3)])
            assert pool.outstanding == 1
            rank, reply = pool.get_returnv()
            return rank, reply.take_i64()

    results = farm(3, master)
    assert results == [(1, 49), 1, 0]


def test_run_joblist_fewer_jobs_than_slaves():
    def master(ctx, table):
        with MasterPool(ctx, table) as pool:
            replies = pool.run_joblist("square", [MsgBuf(ctx).put_i32(v)
                                                  for v in (9, 11)])
            return [r.take_i64() for r in replies]

    assert farm(5, master)[0] == [81, 121]


def test_table_mismatch_detected_at_startup():
    def other_table():
        table = HandlerTable()
        table.register("different", lambda buf: None)
        return table

    world, ctxs = make_world(3)

    def body(ctx):
        table = other_table() if ctx.rank == 1 else add_table()
        try:
            if ctx.rank == 0:
                MasterPool(ctx, table)
                return "no error"
            return slave_loop(ctx, table)
        except TableMismatch as exc:
            return exc.ranks

    results = run_ranks(ctxs, body)
    assert results[0] == (1,)
    assert results[1] == (1,)
    assert results[2] == 0  # matching slave got a clean STOP


def test_master_pool_refuses_nonzero_rank():
    world, ctxs = make_world(2)

    def body(ctx):
        table = add_table()
        if ctx.rank == 1:
            with pytest.raises(SlaveError):
                MasterPool(ctx, table)
            return True
        with pytest.raises(SlaveError):
            slave_loop(ctx, table)
        return True

    assert run_ranks(ctxs, body) == [True, True]


def test_pool_without_slaves():
    world, ctxs = make_world(1)

    def body(ctx):
        table = add_table()
        with MasterPool(ctx, table) as pool:
            assert pool.nslaves == 0
            assert pool.all_idle()
            with pytest.raises(NoIdleSlave):
                pool.exec(pool.request("add").put_i32(1).put_i32(1))
            with pytest.raises(NoSlaves):
                pool.run_joblist("add", [b""])
            assert pool.run_joblist("add", []) == []
        return True

    assert run_ranks(ctxs, body)[0] is True


def test_randomized_joblist_matches_serial_oracle():
    rng = random.Random(77)
    table_master = add_table()

    def serial(values):
        return [v * v for v in values]

    for trial in range(5):
        inputs = [rng.randrange(0, 10000) for _ in range(rng.randrange(1, 30))]

        def master(ctx, table, inputs=inputs):
            with MasterPool(ctx, table) as pool:
                replies = pool.run_joblist(
                    "square", [MsgBuf(ctx).put_i32(v) for v in inputs])
                return [r.take_i64() for r in replies]

        assert farm(rng.randrange(2, 6), master)[0] == serial(inputs)


def test_every_reply_to_a_recorded_request_carries_its_receipt():
    # The slave side of the wire: status byte, the request's digest, then the body.
    world, (c0, c1) = make_world(2)
    table = add_table()

    def master(ctx):
        ctx.broadcast(ctx.world, 0, table.digest())
        ctx.gather(ctx.world, 0, b"\x01")
        frames = [request_frame(0, MsgBuf(ctx).put_i32(2).put_i32(3).data),
                  request_frame(2, MsgBuf(ctx).put_i32(-1).data),
                  request_frame(99),
                  b"\x00\x01"]
        replies = []
        for frame in frames + [request_frame(STOP)]:
            ctx.send(ctx.world, 1, FARM_TAG, frame)
            replies.append(ctx.recv(ctx.world, source=1, tag=FARM_TAG)[2])
        return frames, replies

    frames, replies = run_ranks([c0, c1], lambda ctx: master(ctx) if ctx.rank == 0
                                else slave_loop(ctx, table))[0]
    for frame, reply in zip(frames[:3], replies):
        assert reply[1:33] == hashlib.sha256(frame).digest()
    assert replies[0][0] == 0 and MsgBuf(c0).load(replies[0][33:]).take_i32() == 5
    assert replies[1][0] == 1 and b"bad input -1" in replies[1][33:]
    assert replies[2][0] == 2 and replies[2][33:] == b"unknown selector 99"
    # a short frame has its own status and no receipt; STOP's answer holds nothing
    assert replies[3][0] not in (0, 1, 2, replies[4][0])
    assert replies[3][1:] == b"short request frame"
    assert len(replies[4]) == 1


def test_short_frame_reply_is_a_handler_error_without_a_receipt():
    def master(ctx, table):
        with MasterPool(ctx, table) as pool:
            ctx.send(ctx.world, 1, FARM_TAG, b"\x01")  # bypasses exec's own check
            pool._idle.discard(1)
            with pytest.raises(HandlerError) as info:
                pool.get_returnv()
            assert info.value.diagnostic == "short request frame"
        return pool.receipts

    assert farm(2, master)[0] == {1: []}


def test_late_reply_at_shutdown_keeps_its_receipt_and_every_slave_is_stopped():
    # A reply the pool did not wait for reaches shutdown ahead of the slave's
    # STOP answer; its receipt is kept, and every slave still gets an entry.
    def master(ctx, table):
        frame = request_frame(table.selector("add"), MsgBuf(ctx).put_i32(1).put_i32(2).data)
        with MasterPool(ctx, table) as pool:
            ctx.send(ctx.world, 1, FARM_TAG, frame)
        return pool.receipts, hashlib.sha256(frame).digest()

    results = farm(3, master)
    receipts, digest = results[0]
    assert receipts == {1: [digest], 2: []}
    assert results[1:] == [1, 0]
