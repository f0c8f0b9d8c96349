"""Socket backend: frames, rendezvous, and a real TCP mesh inside one process."""

import socket
import struct
import threading

import pytest
from hypothesis import given, settings, strategies as st

from packrun.mesh import Coordinator, connect_mesh
from packrun.transport import (
    BackendKind,
    RankConflict,
    RendezvousTimeout,
    TransportError,
    WorldConfig,
)
from packrun.wire import (
    Envelope,
    FrameError,
    HEADER_SIZE,
    KIND_CONTROL,
    decode_header,
    encode_frame,
    read_frame,
    recv_json,
    send_json,
)
from support import run_ranks


# ---------------------------------------------------------------------------
# Frame codec


def test_frame_layout_is_pinned():
    env = Envelope(src=1, dest=2, comm_id=0, tag=7, payload=b"\xab\xcd")
    frame = encode_frame(env)
    assert frame[:4] == b"MPB1"
    assert frame[4] == 1  # version
    assert frame[5] == 0  # data kind
    assert frame[6:26] == struct.pack(">IIIII", 1, 2, 0, 7, 2)
    assert frame[26:] == b"\xab\xcd"
    assert len(frame) == HEADER_SIZE + 2


def test_frame_header_round_trip():
    env = Envelope(3, 0, 258, 0xFFFFFFFF, b"", KIND_CONTROL)
    frame = encode_frame(env)
    kind, src, dest, comm_id, tag, length = decode_header(frame[:HEADER_SIZE])
    assert (kind, src, dest, comm_id, tag, length) == (1, 3, 0, 258, 0xFFFFFFFF, 0)


def test_frame_rejects_bad_magic_and_version():
    env = Envelope(0, 1, 0, 0, b"")
    good = encode_frame(env)
    with pytest.raises(FrameError):
        decode_header(b"XXXX" + good[4:HEADER_SIZE])
    with pytest.raises(FrameError):
        decode_header(good[:4] + b"\x09" + good[5:HEADER_SIZE])


def _read_stream(stream: bytes):
    """read_frame on a socket whose peer wrote ``stream`` and shut down."""
    writer, reader = socket.socketpair()
    with writer, reader:
        writer.sendall(stream)  # far below the socket buffer size
        writer.shutdown(socket.SHUT_WR)
        return read_frame(reader)


_FRAME_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@_FRAME_PROPERTY
@given(st.binary(max_size=96))
def test_read_frame_on_arbitrary_bytes_raises_only_frame_error(stream):
    try:
        env = _read_stream(stream)
    except FrameError:
        return
    assert env is None if not stream else isinstance(env, Envelope)


@_FRAME_PROPERTY
@given(st.sampled_from([0, KIND_CONTROL]), st.tuples(*[st.integers(0, 2**32 - 1)] * 4),
       st.integers(0, 512), st.binary(max_size=512))
def test_read_frame_after_a_valid_header_reads_the_payload_or_raises_frame_error(
        kind, fields, length, tail):
    header = encode_frame(Envelope(*fields, bytes(length), kind))[:HEADER_SIZE]
    try:
        env = _read_stream(header + tail)
    except FrameError:
        assert length > len(tail)
        return
    assert env == Envelope(*fields, tail[:length], kind)


def test_json_exchange_over_socketpair():
    a, b = socket.socketpair()
    try:
        send_json(a, {"op": "register", "rank": 3})
        assert recv_json(b) == {"op": "register", "rank": 3}
        a.close()
        assert recv_json(b) is None
    finally:
        b.close()


# ---------------------------------------------------------------------------
# Rendezvous + mesh (threads standing in for rank processes)


def _mesh_config(coordinator, nprocs, rank, hetero=False, timeout=10.0):
    return WorldConfig(nprocs=nprocs, backend=BackendKind.SOCKET_MESH,
                       rendezvous=coordinator.address, my_rank_hint=rank,
                       hetero=hetero, timeout=timeout)


def _bring_up_world(nprocs, hetero=False):
    coordinator = Coordinator(nprocs, timeout=10.0)
    boss = threading.Thread(target=coordinator.run, daemon=True)
    boss.start()
    ctxs = [None] * nprocs
    errors = []

    def join_world(rank):
        try:
            ctxs[rank] = connect_mesh(_mesh_config(coordinator, nprocs, rank, hetero))
        except Exception as exc:  # surfaced below
            errors.append(exc)

    joiners = [threading.Thread(target=join_world, args=(r,), daemon=True) for r in range(nprocs)]
    for t in joiners:
        t.start()
    for t in joiners:
        t.join(10)
    boss.join(10)
    if errors:
        raise errors[0]
    assert all(ctx is not None for ctx in ctxs)
    return coordinator, ctxs


def test_mesh_world_sends_and_collects():
    coordinator, ctxs = _bring_up_world(3)
    try:
        assert sorted(coordinator.registered) == [0, 1, 2]

        def member(ctx):
            if ctx.rank == 0:
                ctx.send(ctx.world, 1, 4, b"zero->one")
            if ctx.rank == 1:
                assert ctx.recv(ctx.world, source=0, tag=4, timeout=5)[2] == b"zero->one"
            ctx.barrier(ctx.world)
            return ctx.gather(ctx.world, 0, bytes([ctx.rank * 2]))

        results = run_ranks(ctxs, member, timeout=15)
        assert results[0] == [b"\x00", b"\x02", b"\x04"]
    finally:
        for ctx in ctxs:
            ctx.finalize()


def test_mesh_single_rank_world():
    coordinator, (ctx,) = _bring_up_world(1)
    ctx.barrier(ctx.world)
    assert ctx.broadcast(ctx.world, 0, b"solo") == b"solo"
    ctx.finalize()


def test_mesh_carries_hetero_flag():
    _, ctxs = _bring_up_world(2, hetero=True)
    try:
        assert all(ctx.hetero for ctx in ctxs)
    finally:
        for ctx in ctxs:
            ctx.finalize()


def test_rank_conflict_detected():
    coordinator = Coordinator(2, timeout=5.0)
    outcome = {}

    def boss():
        try:
            coordinator.run()
        except RankConflict as exc:
            outcome["boss"] = exc

    boss_thread = threading.Thread(target=boss, daemon=True)
    boss_thread.start()

    first = socket.create_connection((coordinator.host, coordinator.port), timeout=5)
    send_json(first, {"op": "register", "rank": 0, "host": "127.0.0.1",
                      "port": 1, "encoding": "native"})
    second = socket.create_connection((coordinator.host, coordinator.port), timeout=5)
    send_json(second, {"op": "register", "rank": 0, "host": "127.0.0.1",
                       "port": 2, "encoding": "native"})
    second.settimeout(5)
    reply = recv_json(second)
    assert reply["op"] == "error"
    assert reply["reason"] == "rank-conflict"
    boss_thread.join(5)
    assert isinstance(outcome.get("boss"), RankConflict)
    first.close()
    second.close()


def test_mixed_encoding_world_rejected():
    coordinator = Coordinator(2, timeout=5.0)
    outcome = {}

    def boss():
        try:
            coordinator.run()
        except TransportError as exc:
            outcome["boss"] = exc

    boss_thread = threading.Thread(target=boss, daemon=True)
    boss_thread.start()

    conns = []
    for rank, encoding in ((0, "native"), (1, "portable")):
        conn = socket.create_connection((coordinator.host, coordinator.port), timeout=5)
        send_json(conn, {"op": "register", "rank": rank, "host": "127.0.0.1",
                         "port": 1000 + rank, "encoding": encoding})
        conn.settimeout(5)
        conns.append(conn)
    replies = [recv_json(c) for c in conns]
    assert all(r["op"] == "error" for r in replies)
    boss_thread.join(5)
    assert isinstance(outcome.get("boss"), TransportError)
    assert not isinstance(outcome.get("boss"), RankConflict)
    for c in conns:
        c.close()


def test_rendezvous_timeout_when_ranks_missing():
    coordinator = Coordinator(2, timeout=0.3)
    with pytest.raises(RendezvousTimeout):
        coordinator.run()


def test_client_times_out_without_coordinator():
    # A bound-but-unserved port: connect succeeds, no table ever arrives.
    silent = socket.create_server(("127.0.0.1", 0))
    host, port = silent.getsockname()
    try:
        config = WorldConfig(nprocs=2, backend=BackendKind.SOCKET_MESH,
                             rendezvous=f"{host}:{port}", my_rank_hint=0, timeout=0.3)
        with pytest.raises(RendezvousTimeout):
            connect_mesh(config)
    finally:
        silent.close()


def test_client_requires_rank_and_address():
    with pytest.raises(TransportError):
        connect_mesh(WorldConfig(nprocs=2, backend=BackendKind.SOCKET_MESH))


def test_mesh_fifo_and_large_payload():
    _, ctxs = _bring_up_world(2)
    try:
        blob = bytes(range(256)) * 1024  # 256 KiB crosses many TCP segments

        def member(ctx):
            if ctx.rank == 0:
                ctx.send(ctx.world, 1, 0, blob)
                ctx.send(ctx.world, 1, 0, b"tail")
                return None
            first = ctx.recv(ctx.world, timeout=10)[2]
            second = ctx.recv(ctx.world, timeout=10)[2]
            return first, second

        results = run_ranks(ctxs, member, timeout=20)
        assert results[1][0] == blob
        assert results[1][1] == b"tail"
    finally:
        for ctx in ctxs:
            ctx.finalize()
