"""Socket backend: frames, mesh set-up, and a real TCP mesh inside one process."""

import dataclasses
import errno
import os
import random
import socket
import struct
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from packrun.launcher import LaunchPlan, launch
from packrun.mesh import _MeshBackend, connect_mesh, connected_pairs
from packrun.msgbuf import BY_REFERENCE, MsgBuf
from packrun.transport import (
    NOT_MEMBER,
    BackendKind,
    Finalized,
    InvalidRank,
    Mailbox,
    RecvTimeout,
    TransportContext,
    TransportError,
    WorldConfig,
)
from packrun.wire import (
    Envelope,
    FrameError,
    HEADER_SIZE,
    KIND_CONTROL,
    KIND_DATA,
    Segments,
    decode_header,
    encode_frame,
    read_frame,
    write_frame,
)
from support import make_mesh_world, make_world, mesh_configs, program, run_ranks


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

    def sendmsg(self, buffers, ancdata=(), flags=0):
        assert len(buffers) <= 1024  # IOV_MAX: sendmsg refuses more
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


_PIECES = [b"ab", bytearray(b"cde"), b"", bytes(range(7)), bytearray(b"f")]


def test_write_frame_of_segments_finishes_a_sendmsg_cut_anywhere():
    frame = encode_frame(Envelope(2, 3, 4, 5, b"".join(_PIECES)))
    for first in range(len(frame) + 1):  # in the header, inside a piece and between pieces
        sock = _ShortSender(first)
        write_frame(sock, 2, 3, 4, 5, Segments(_PIECES))
        assert sock.sent == frame, f"first sendmsg took {first} bytes"


def test_write_frame_sends_more_segments_than_one_sendmsg_takes():
    pieces = Segments(bytes([i % 256]) * (i % 3) for i in range(2500))
    sock = _ShortSender(HEADER_SIZE + 7)
    write_frame(sock, 0, 1, 0, 0, pieces)
    assert sock.sent == encode_frame(Envelope(0, 1, 0, 0, b"".join(pieces)))


@pytest.mark.parametrize("count", [1, 3, 40, 1500])
def test_write_frame_of_segments_on_a_small_socket_buffer(count):
    rng = random.Random(count)
    pieces = Segments(rng.randbytes(rng.choice([0, 1, 5, 3000, 20_000])) for _ in range(count))
    writer, reader = socket.socketpair()
    writer.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    drain = _Drain(reader)
    drain.start()
    with reader:
        with writer:
            write_frame(writer, 1, 0, 9, 2, pieces)
            writer.shutdown(socket.SHUT_WR)
        drain.join(10)
    assert not drain.is_alive()
    assert drain.data == encode_frame(Envelope(1, 0, 9, 2, b"".join(pieces)))


def test_write_frame_checks_the_size_of_all_segments_before_writing(monkeypatch):
    monkeypatch.setattr("packrun.wire.MAX_PAYLOAD", 9)
    sock = _ShortSender(0)
    with pytest.raises(FrameError):
        write_frame(sock, 0, 1, 0, 0, Segments([bytes(5), bytes(5)]))
    assert sock.sent == b""


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
        assert mailbox.take(KIND_DATA, 0, None, None, timeout=5).payload == b"first"
        with pytest.raises(RecvTimeout):
            mailbox.take(KIND_DATA, 0, None, None, timeout=0.3)
        assert mailbox.pending() == 0
        # nothing read the connection past the misnamed frame
        unread = reader.recv(1 << 16, socket.MSG_PEEK | socket.MSG_DONTWAIT)
        assert unread == encode_frame(frames[2])
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


@pytest.mark.parametrize("size", [BY_REFERENCE, _BIG])
def test_put_bytes_then_send_on_the_mesh_copies_no_payload(size):
    payload = random.Random(size).randbytes(size)
    writer, reader = socket.socketpair()
    drain = _Drain(reader, keep=False)
    drain.start()
    mailbox = Mailbox()
    ctx = TransportContext(0, 2, _MeshBackend(0, {1: writer}, mailbox), mailbox)
    buf = MsgBuf(ctx).put_u32(7)
    with reader:
        tracemalloc.start()
        try:
            buf.put_bytes(payload).put_u32(8).send(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ctx.finalize()
        drain.join(10)
    assert drain.count == HEADER_SIZE + 4 + 4 + size + 4
    assert peak < size // 4, f"put_bytes and send allocated {peak} bytes"


# ---------------------------------------------------------------------------
# Mesh set-up (threads standing in for rank processes)


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


def _collective_script(ctx, seed):
    """Every collective three times in a seeded order, then a child communicator's gather.

    Every rank draws the same script from ``seed``: roots move, and bodies are
    empty, one byte, or large enough to need more than one socket read.
    """
    rng = random.Random(seed)
    n = ctx.world.size
    ops = ["barrier", "broadcast", "gather", "scatter"] * 3
    rng.shuffle(ops)
    results = []
    for op in ops:
        root = rng.randrange(n)
        bodies = [rng.randbytes(rng.choice([0, 1, 100, 70_000])) for _ in range(n)]
        mine = ctx.rank == root
        if op == "barrier":
            results.append(ctx.barrier(ctx.world))
        elif op == "broadcast":
            results.append(ctx.broadcast(ctx.world, root, bodies[root] if mine else None))
        elif op == "gather":
            results.append(ctx.gather(ctx.world, root, bodies[ctx.rank]))
        else:
            results.append(ctx.scatter(ctx.world, root, bodies if mine else None))
    child = ctx.comm_create(ctx.world, [0, 2])
    if child is not NOT_MEMBER:
        results.append((child.comm_id, child.local_rank, ctx.gather(child, 1, bytes([ctx.rank]) * 3)))
    return results


@pytest.mark.parametrize("seed", [1, 2])
def test_mesh_collectives_give_the_in_process_results(seed):
    expected = run_ranks(make_world(3)[1], lambda ctx: _collective_script(ctx, seed))
    ctxs = make_mesh_world(3)
    try:
        assert run_ranks(ctxs, lambda ctx: _collective_script(ctx, seed), timeout=30) == expected
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
    config, peer = mesh_configs(2)
    ctx = connect_mesh(dataclasses.replace(config, ready_fd=write_end))
    try:
        assert os.read(read_end, 2) == b"\x01"
        assert os.read(read_end, 1) == b""  # the rank's write end is closed
    finally:
        os.close(read_end)
        os.close(peer.fds[0])
        ctx.finalize()
    with pytest.raises(OSError):
        os.fstat(config.fds[1])  # the adopted connection closed with the context


def test_a_rank_that_fails_to_join_closes_its_ready_descriptor_without_writing():
    read_end, write_end = os.pipe()
    with pytest.raises(TransportError):
        connect_mesh(WorldConfig(my_rank_hint=1, fds=(None, None), ready_fd=write_end))
    try:
        assert os.read(read_end, 1) == b""
    finally:
        os.close(read_end)


def test_client_requires_rank_and_address():
    with pytest.raises(TransportError, match="no connection to rank 1"):
        connect_mesh(WorldConfig(my_rank_hint=0, fds=(None, None)))
    with pytest.raises(InvalidRank):
        connect_mesh(WorldConfig(my_rank_hint=0, fds=()))


def _closed_by_its_peer(fd):
    """Whether the connection whose other end is ``fd`` was closed; ``fd`` is closed here."""
    with socket.socket(fileno=fd) as end:
        end.settimeout(5)
        return end.recv(1) == b""


@pytest.mark.parametrize("rank", [None, -1, 2])
def test_a_rank_outside_the_fds_is_refused_and_its_descriptors_closed(rank):
    config, other = mesh_configs(2)
    read_end, ready_fd = os.pipe()
    with open(read_end, "rb") as ready:
        with pytest.raises(InvalidRank):
            connect_mesh(dataclasses.replace(config, my_rank_hint=rank, ready_fd=ready_fd))
        assert ready.read() == b""  # the write end is closed, and nothing was written
    assert _closed_by_its_peer(other.fds[0])


@pytest.mark.parametrize("fault", ["not-a-socket", "missing"])
def test_a_failed_join_closes_every_descriptor_it_was_handed(fault):
    # Rank 0 of 4 adopts its end to rank 1, then fails on rank 2's entry.
    configs = mesh_configs(4)
    os.close(configs[2].fds[0])
    pipe_r, pipe_w = os.pipe()
    fds = list(configs[0].fds)
    os.close(fds[2])
    fds[2] = pipe_r if fault == "not-a-socket" else None
    if fault == "missing":
        os.close(pipe_r)
    read_end, ready_fd = os.pipe()
    try:
        with pytest.raises(TransportError):
            connect_mesh(WorldConfig(my_rank_hint=0, fds=tuple(fds), ready_fd=ready_fd))
        assert os.read(read_end, 1) == b""
        with pytest.raises(BrokenPipeError):
            os.write(pipe_w, b"x")  # the pipe's read end is closed too
        assert _closed_by_its_peer(configs[1].fds[0])  # adopted before the fault
        assert _closed_by_its_peer(configs[3].fds[0])  # never reached
    finally:
        os.close(read_end)
        os.close(pipe_w)
        for config in configs[1:]:
            for peer, fd in enumerate(config.fds):
                if peer not in (0, config.my_rank_hint):
                    os.close(fd)


def test_a_stray_dial_to_the_pairing_listener_is_closed_not_adopted(monkeypatch):
    real = socket.create_connection
    strays = []

    def dial_after_a_stray(address, *args, **kwargs):
        strays.append(real(address, *args, **kwargs))  # lands in the backlog first
        return real(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", dial_after_a_stray)
    configs = mesh_configs(3)
    monkeypatch.undo()
    ctxs = [connect_mesh(config) for config in configs]
    try:
        assert len(strays) == 3
        for stray in strays:
            stray.settimeout(5)
            assert stray.recv(1) == b""  # closed by the listener

        def ring(ctx):
            ctx.send(ctx.world, (ctx.rank + 1) % 3, 0, bytes([ctx.rank]))
            return ctx.recv(ctx.world, (ctx.rank - 1) % 3, 0, timeout=10)[2]

        assert run_ranks(ctxs, ring) == [b"\x02", b"\x00", b"\x01"]
    finally:
        for stray in strays:
            stray.close()
        for ctx in ctxs:
            ctx.finalize()


def test_a_failure_while_connecting_leaves_no_descriptor_open(monkeypatch):
    real = socket.create_connection
    dials = []

    def fail_on_the_fourth(*args, **kwargs):
        dials.append(args)
        if len(dials) == 4:
            raise OSError(errno.EMFILE, "Too many open files")
        return real(*args, **kwargs)

    before = sorted(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(socket, "create_connection", fail_on_the_fourth)
    with pytest.raises(OSError, match="Too many open files"):
        connected_pairs(4, 5.0)
    assert sorted(os.listdir("/proc/self/fd")) == before


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


# ---------------------------------------------------------------------------
# Who reads the sockets: the thread that waits for a message


@pytest.mark.parametrize("mode", ["exchange", "busy"])
def test_mesh_ranks_stay_live_when_sends_meet_a_full_or_idle_peer(mode):
    # exchange: each rank sends 8 MiB, beyond the socket buffers, before it
    # receives.  busy: a 1 MiB send to a rank sleeping outside packrun
    # returns in under 0.5 s.  The program exits nonzero if either fails.
    codes = launch(LaunchPlan(2, program("mesh_liveness.py"), (mode,),
                              BackendKind.SOCKET_MESH, run_timeout=30.0))
    assert codes == [0, 0]


def test_threads_of_a_rank_receive_on_their_own_tags_while_the_peer_sends():
    # four receiving threads on two CPUs, switching often, share one reader role
    ctxs = make_mesh_world(2)
    tags, count = (1, 2, 3, 4), 100
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def member(ctx):
            if ctx.rank == 0:
                for i in range(count):
                    for tag in reversed(tags):
                        ctx.send(ctx.world, 1, tag, b"%d:%d" % (tag, i))
                return None
            got = {}

            def take(tag):
                got[tag] = [ctx.recv(ctx.world, 0, tag, timeout=10)[2] for _ in range(count)]

            takers = [threading.Thread(target=take, args=(tag,), daemon=True) for tag in tags]
            for taker in takers:
                taker.start()
            for taker in takers:
                taker.join(15)
                assert not taker.is_alive()
            return got

        got = run_ranks(ctxs, member, timeout=20)[1]
        assert got == {tag: [b"%d:%d" % (tag, i) for i in range(count)] for tag in tags}
    finally:
        sys.setswitchinterval(interval)
        for ctx in ctxs:
            ctx.finalize()


def test_a_thread_waiting_behind_the_reader_takes_the_role_when_it_leaves():
    ctxs = make_mesh_world(2)
    sender, receiver = ctxs
    got = {}

    def take(tag, timeout):
        try:
            got[tag] = receiver.recv(receiver.world, 0, tag, timeout=timeout)[2]
        except RecvTimeout as exc:
            got[tag] = exc

    first = threading.Thread(target=take, args=(1, 0.3), daemon=True)
    second = threading.Thread(target=take, args=(2, 10), daemon=True)
    try:
        first.start()
        deadline = time.monotonic() + 5
        while not receiver._mailbox._reading and time.monotonic() < deadline:
            time.sleep(0.01)
        second.start()  # waits on the condition: the first thread holds the reader role
        first.join(5)  # gives up the role when its timeout passes, with nothing read
        assert isinstance(got.pop(1), RecvTimeout)
        started = time.monotonic()
        sender.send(sender.world, 1, 2, b"two")
        second.join(5)
        assert got == {2: b"two"} and time.monotonic() - started < 1
    finally:
        for ctx in ctxs:
            ctx.finalize()


def test_a_mesh_recv_with_a_timeout_raises_recv_timeout_or_takes_what_has_arrived():
    ctxs = make_mesh_world(2)
    try:
        started = time.monotonic()
        with pytest.raises(RecvTimeout):
            ctxs[0].recv(ctxs[0].world, timeout=0.2)
        assert 0.2 <= time.monotonic() - started < 2.0
        ctxs[1].send(ctxs[1].world, 0, 5, b"waiting in the socket")
        time.sleep(0.2)
        assert ctxs[0].recv(ctxs[0].world, timeout=0)[2] == b"waiting in the socket"
    finally:
        for ctx in ctxs:
            ctx.finalize()


def test_finalize_from_another_thread_ends_a_recv_reading_the_sockets():
    ctxs = make_mesh_world(2)
    outcome = {}

    def wait():
        try:
            ctxs[1].recv(ctxs[1].world)
        except Finalized as exc:
            outcome["error"] = exc

    receiver = threading.Thread(target=wait, daemon=True)
    try:
        receiver.start()
        deadline = time.monotonic() + 5
        while not ctxs[1]._mailbox._reading and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ctxs[1]._mailbox._reading  # the receiver is in the sockets, not on the condition
        finisher = threading.Thread(target=ctxs[1].finalize, daemon=True)
        started = time.monotonic()
        finisher.start()
        receiver.join(1)
        finisher.join(1)
        assert not (receiver.is_alive() or finisher.is_alive())
        assert time.monotonic() - started < 1
        assert isinstance(outcome.get("error"), Finalized)
    finally:
        for ctx in ctxs:
            ctx.finalize()


def test_connect_mesh_starts_no_thread():
    before = set(threading.enumerate())
    ctxs = make_mesh_world(3)
    try:
        assert set(threading.enumerate()) == before
    finally:
        for ctx in ctxs:
            ctx.finalize()


def test_finalize_leaves_no_descriptor_open():
    before = set(os.listdir("/proc/self/fd"))
    ctxs = make_mesh_world(3)

    def member(ctx):  # an 8 MiB ring exchange, so blocked sends start helper readers
        n = ctx.world.size
        ctx.send(ctx.world, (ctx.rank + 1) % n, 0, bytes(_BIG))
        return len(ctx.recv(ctx.world, (ctx.rank - 1) % n, 0, timeout=20)[2])

    try:
        assert run_ranks(ctxs, member, timeout=30) == [_BIG] * 3
    finally:
        for ctx in ctxs:
            ctx.finalize()
    assert set(os.listdir("/proc/self/fd")) <= before
