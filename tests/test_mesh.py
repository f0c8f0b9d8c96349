"""Socket backend: frames, rendezvous, and a real TCP mesh inside one process."""

import random
import socket
import struct
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from packrun.mesh import Coordinator, _MeshBackend, connect_mesh
from packrun.transport import (
    BackendKind,
    Mailbox,
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
    KIND_DATA,
    decode_header,
    encode_frame,
    read_frame,
    recv_json,
    send_json,
    write_frame,
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


class _Drain(threading.Thread):
    """Reads what the peer of ``sock`` writes until it shuts down; keeps it or only counts it."""

    def __init__(self, sock, keep=True):
        super().__init__(daemon=True)
        self.sock, self.keep = sock, keep
        self.data, self.count = bytearray(), 0
        self._chunk = bytearray(1 << 16)

    def run(self):
        while n := self.sock.recv_into(self._chunk):
            self.count += n
            if self.keep:
                self.data += memoryview(self._chunk)[:n]


def _feed(writer, pieces, pause=0.0):
    """Write each piece to ``writer`` from a thread, pausing between them, then close it."""
    def write():
        with writer:
            for piece in pieces:
                writer.sendall(piece)
                time.sleep(pause)

    feeder = threading.Thread(target=write, daemon=True)
    feeder.start()
    return feeder


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.one_of(st.sampled_from([0, 1 << 20]), st.integers(0, 64), st.integers(0, 1 << 20)),
       st.integers(0, 2**32 - 1), st.booleans(), st.booleans(),
       st.sampled_from(["write_frame", "post"]))
def test_a_frame_written_in_place_is_the_bytes_of_encode_frame(size, seed, mutable, timeout, via):
    env = Envelope(1, 0, 7, seed, random.Random(seed).randbytes(size),
                   KIND_DATA if seed % 2 else KIND_CONTROL)
    sent = bytearray(env.payload) if mutable else env.payload
    writer, reader = socket.socketpair()
    if timeout:  # non-blocking underneath: sendmsg stops short and sendall sends the rest
        writer.settimeout(5.0)
    drain = _Drain(reader)
    drain.start()
    with reader:
        if via == "post":
            backend = _MeshBackend(1, {0: writer}, Mailbox())
            backend.post(env.src, env.dest, env.comm_id, env.tag, sent, env.kind)
            backend.shutdown()
        else:
            with writer:
                write_frame(writer, env.src, env.dest, env.comm_id, env.tag, sent, env.kind)
                writer.shutdown(socket.SHUT_WR)
        drain.join(10)
    assert not drain.is_alive()
    assert drain.data == encode_frame(env)


class _ShortSender:
    """A socket whose first sendmsg takes only ``first`` bytes; records what was sent."""

    def __init__(self, first):
        self.first, self.sent = first, bytearray()

    def sendmsg(self, buffers):
        self.sent += b"".join(buffers)[:self.first]
        return self.first

    def sendall(self, data):
        self.sent += data


@pytest.mark.parametrize("first", [0, 3, HEADER_SIZE, HEADER_SIZE + 5])
def test_write_frame_sends_the_rest_of_a_short_sendmsg(first):
    payload = bytearray(range(40))
    sock = _ShortSender(first)
    write_frame(sock, 2, 3, 4, 5, payload)
    assert sock.sent == encode_frame(Envelope(2, 3, 4, 5, bytes(payload)))


@pytest.mark.parametrize("timeout", [None, 5.0], ids=["blocking", "timeout"])
@pytest.mark.parametrize("pieces", ["1-byte", "random"])
def test_read_frame_takes_frames_written_in_pieces(pieces, timeout):
    rng = random.Random(10)
    envs = [Envelope(2, 3, 4, 5, rng.randbytes(n)) for n in (0, 1, 37)]
    if pieces == "random":
        envs.append(Envelope(0, 1, 0, 9, rng.randbytes(300_000), KIND_CONTROL))
    stream = b"".join(encode_frame(env) for env in envs)
    cuts = [0]
    while cuts[-1] < len(stream):
        cuts.append(cuts[-1] + (1 if pieces == "1-byte" else rng.randint(1, 70_000)))
    writer, reader = socket.socketpair()
    reader.settimeout(timeout)
    # the pause lets the reader see each piece on its own
    feeder = _feed(writer, [stream[a:b] for a, b in zip(cuts, cuts[1:])], pause=0.0005)
    with reader:
        got = [read_frame(reader) for _ in envs]
        assert read_frame(reader) is None
    feeder.join(10)
    assert got == envs


@pytest.mark.parametrize("timeout", [None, 5.0], ids=["blocking", "timeout"])
@pytest.mark.parametrize("cut", ["mid-header", "mid-payload", "before-payload"])
def test_end_of_stream_inside_a_frame_is_a_frame_error(cut, timeout):
    frame = encode_frame(Envelope(0, 1, 0, 3, bytes(100_000)))
    stream = frame[:{"mid-header": HEADER_SIZE // 2, "mid-payload": HEADER_SIZE + 60_000,
                     "before-payload": HEADER_SIZE}[cut]]
    writer, reader = socket.socketpair()
    reader.settimeout(timeout)
    feeder = _feed(writer, [stream])
    with reader, pytest.raises(FrameError, match="closed mid"):
        read_frame(reader)
    feeder.join(10)


@pytest.mark.parametrize("spoofed", [Envelope(2, 1, 0, 2, b"spoof"), Envelope(0, 0, 0, 2, b"spoof")],
                         ids=["src", "dest"])
def test_a_frame_misnaming_its_sender_or_receiver_ends_the_reader(spoofed):
    # rank 1 reads from rank 0; only frames from 0 to 1 belong on this socket
    writer, reader = socket.socketpair()
    mailbox = Mailbox()
    backend = _MeshBackend(1, {0: reader}, mailbox)
    frames = [Envelope(0, 1, 0, 1, b"first"), spoofed, Envelope(0, 1, 0, 3, b"after")]
    with writer:
        writer.sendall(b"".join(encode_frame(env) for env in frames))
        readers = [t for t in threading.enumerate() if t.name == "mesh-read-1<-0"]
        for thread in readers:
            thread.join(5)
        assert readers and not any(thread.is_alive() for thread in readers)
    assert mailbox.take(KIND_DATA, 0, None, None, timeout=1).payload == b"first"
    assert mailbox.pending() == 0
    backend.shutdown()


_BIG = 8 << 20


def test_read_frame_of_a_big_frame_allocates_about_one_payload():
    frame = encode_frame(Envelope(0, 1, 0, 0, bytes(_BIG)))
    writer, reader = socket.socketpair()
    tracemalloc.start()
    try:
        feeder = _feed(writer, [frame])
        with reader:
            env = read_frame(reader)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    feeder.join(10)
    assert env.payload == bytes(_BIG)
    assert peak < 1.25 * _BIG, f"read_frame peaked at {peak / _BIG:.2f} payloads"


def test_write_frame_allocates_nothing_of_payload_size():
    payload = bytearray(_BIG)
    writer, reader = socket.socketpair()
    drain = _Drain(reader, keep=False)
    drain.start()
    with writer, reader:
        tracemalloc.start()
        try:
            write_frame(writer, 0, 1, 0, 0, payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        writer.shutdown(socket.SHUT_WR)
        drain.join(10)
    assert drain.count == HEADER_SIZE + _BIG
    assert peak < _BIG // 16, f"write_frame allocated {peak} bytes"


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


def test_a_hello_split_across_two_writes_still_joins_the_mesh():
    # Rank 1 of a two-rank world accepts the mesh connection; rank 0 is
    # played by hand and sends its 8-byte hello in two TCP segments.
    coordinator = Coordinator(2, timeout=10.0)
    boss = threading.Thread(target=coordinator.run, daemon=True)
    boss.start()
    joined = {}

    def rank1():
        try:
            joined["ctx"] = connect_mesh(_mesh_config(coordinator, 2, 1))
        except Exception as exc:  # surfaced below
            joined["error"] = exc

    acceptor = threading.Thread(target=rank1, daemon=True)
    acceptor.start()
    with socket.create_connection((coordinator.host, coordinator.port), timeout=5) as coord:
        send_json(coord, {"op": "register", "rank": 0, "host": "127.0.0.1", "port": 1,
                          "encoding": "native"})
        table = recv_json(coord)
    host, port = table["peers"][1]
    with socket.create_connection((host, port), timeout=5) as dialer:
        dialer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = struct.pack(">4sI", b"HELO", 0)
        dialer.sendall(hello[:3])
        time.sleep(0.2)
        dialer.sendall(hello[3:])
        acceptor.join(10)
        boss.join(10)
        assert "error" not in joined, joined.get("error")
        ctx = joined["ctx"]
        try:
            write_frame(dialer, 0, 1, 0, 5, b"after the hello")
            assert ctx.recv(ctx.world, source=0, tag=5, timeout=5)[2] == b"after the hello"
        finally:
            ctx.finalize()
