"""Socket backend: frames, mesh set-up, and a real TCP mesh inside one process."""

import dataclasses
import os
import random
import socket
import struct
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from packrun.mesh import _MeshBackend, connect_mesh
from packrun.transport import (
    InvalidRank,
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
    write_frame,
)
from support import make_mesh_world, mesh_configs, run_ranks


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


def _read_frame_peak(stream: bytes):
    """read_frame on a peer that writes ``stream`` and closes; (frame or error, traced peak)."""
    writer, reader = socket.socketpair()
    tracemalloc.start()
    try:
        feeder = _feed(writer, [stream])
        with reader:
            try:
                got = read_frame(reader)
            except FrameError as exc:
                got = exc
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    feeder.join(10)
    return got, peak


def test_a_header_declaring_a_huge_payload_does_not_allocate_it():
    header = encode_frame(Envelope(0, 1, 0, 0, b""))[:HEADER_SIZE - 4] + struct.pack(">I", 256 << 20)
    got, peak = _read_frame_peak(header + bytes(8))
    assert isinstance(got, FrameError)
    assert peak < 17 << 20, f"read_frame peaked at {peak / (1 << 20):.1f} MiB"


def test_a_frame_above_the_recv_cap_reads_back_whole():
    env = Envelope(0, 1, 0, 0, random.Random(24).randbytes(24 << 20))
    got, peak = _read_frame_peak(encode_frame(env))
    assert got == env
    assert peak < 2 * len(env.payload) + (16 << 20), f"read_frame peaked at {peak / (1 << 20):.1f} MiB"


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


# ---------------------------------------------------------------------------
# Mesh set-up (threads standing in for rank processes)


def _join_in_background(config):
    """Run ``connect_mesh(config)`` on a thread; the outcome lands in the returned dict."""
    outcome = {}

    def join():
        try:
            outcome["ctx"] = connect_mesh(config)
        except Exception as exc:  # surfaced by the test
            outcome["error"] = exc

    thread = threading.Thread(target=join, daemon=True)
    thread.start()
    return thread, outcome


def _hello(rank, portable=False):
    return struct.pack(">4sI?", b"HELO", rank, portable)


def _close_listeners(configs):
    for config in configs:
        os.close(config.listen_fd)


def test_mesh_world_sends_and_collects():
    ctxs = make_mesh_world(3)
    try:
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
    (ctx,) = make_mesh_world(1)
    ctx.barrier(ctx.world)
    assert ctx.broadcast(ctx.world, 0, b"solo") == b"solo"
    ctx.finalize()


def test_mesh_carries_hetero_flag():
    ctxs = make_mesh_world(2, hetero=True)
    try:
        assert all(ctx.hetero for ctx in ctxs)
    finally:
        for ctx in ctxs:
            ctx.finalize()


def test_a_joined_rank_writes_its_ready_byte_and_closes_what_it_was_handed():
    read_end, write_end = os.pipe()
    config = dataclasses.replace(mesh_configs(1)[0], ready_fd=write_end)
    ctx = connect_mesh(config)
    try:
        assert os.read(read_end, 2) == b"\x01"
        assert os.read(read_end, 1) == b""  # the rank's write end is closed
        with pytest.raises(OSError):
            os.fstat(config.listen_fd)
    finally:
        os.close(read_end)
        ctx.finalize()


def test_a_rank_that_fails_to_join_closes_its_ready_descriptor_without_writing():
    read_end, write_end = os.pipe()
    configs = mesh_configs(2, timeout=0.3)
    config = dataclasses.replace(configs[1], ready_fd=write_end)
    _close_listeners(configs[:1])
    with pytest.raises(RendezvousTimeout):
        connect_mesh(config)
    try:
        assert os.read(read_end, 1) == b""
    finally:
        os.close(read_end)


def test_rank_conflict_detected():
    # Rank 2 accepts ranks 0 and 1; two dialers both claim to be rank 0.
    configs = mesh_configs(3)
    _close_listeners(configs[:2])
    thread, outcome = _join_in_background(configs[2])
    dialers = [socket.create_connection(("127.0.0.1", configs[2].ports[2]), timeout=5)
               for _ in range(2)]
    try:
        for dialer in dialers:
            dialer.sendall(_hello(0))
        thread.join(10)
        assert isinstance(outcome.get("error"), RankConflict)
        assert outcome["error"].rank == 0
    finally:
        for dialer in dialers:
            dialer.close()


def test_mixed_encoding_world_rejected():
    native, portable = mesh_configs(2)
    outcomes = [_join_in_background(config)
                for config in (dataclasses.replace(native, hetero=True), portable)]
    for thread, _ in outcomes:
        thread.join(10)
    acceptor = outcomes[1][1]
    assert isinstance(acceptor.get("error"), TransportError)
    assert not isinstance(acceptor["error"], RankConflict)
    assert "mixed-encoding" in str(acceptor["error"])
    if "ctx" in outcomes[0][1]:  # the dialer joined before its peer refused it
        outcomes[0][1]["ctx"].finalize()


def test_rendezvous_timeout_when_ranks_missing():
    # Rank 1 waits for rank 0 to dial, and rank 0 never runs.
    configs = mesh_configs(2, timeout=0.3)
    _close_listeners(configs[:1])
    with pytest.raises(RendezvousTimeout):
        connect_mesh(configs[1])


def test_a_peer_that_never_sends_its_hello_times_out():
    configs = mesh_configs(2, timeout=0.3)
    _close_listeners(configs[:1])
    with socket.create_connection(("127.0.0.1", configs[1].ports[1]), timeout=5):
        with pytest.raises(RendezvousTimeout):
            connect_mesh(configs[1])


def test_client_requires_rank_and_address():
    with pytest.raises(TransportError):
        connect_mesh(WorldConfig(my_rank_hint=0, ports=(1, 2)))


@pytest.mark.parametrize("rank", [None, -1, 2])
def test_a_rank_outside_the_ports_is_refused_and_its_descriptors_closed(rank):
    config, other = mesh_configs(2)
    _close_listeners([other])
    read_end, ready_fd = os.pipe()
    with open(read_end, "rb") as ready:
        with pytest.raises(InvalidRank):
            connect_mesh(dataclasses.replace(config, my_rank_hint=rank, ready_fd=ready_fd))
        assert ready.read() == b""  # the write end is closed, and nothing was written
    with pytest.raises(OSError):
        os.fstat(config.listen_fd)


def test_mesh_fifo_and_large_payload():
    ctxs = make_mesh_world(2)
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
    # played by hand and sends its hello in two TCP segments.
    configs = mesh_configs(2)
    _close_listeners(configs[:1])
    acceptor, joined = _join_in_background(configs[1])
    with socket.create_connection(("127.0.0.1", configs[1].ports[1]), timeout=5) as dialer:
        dialer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = _hello(0)
        dialer.sendall(hello[:3])
        time.sleep(0.2)
        dialer.sendall(hello[3:])
        acceptor.join(10)
        assert "error" not in joined, joined.get("error")
        ctx = joined["ctx"]
        try:
            write_frame(dialer, 0, 1, 0, 5, b"after the hello")
            assert ctx.recv(ctx.world, source=0, tag=5, timeout=5)[2] == b"after the hello"
        finally:
            ctx.finalize()
