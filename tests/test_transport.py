"""Runtime messaging: point-to-point, filters, collectives, communicators."""

import random
import struct
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, invariant, precondition, rule, run_state_machine_as_test)

from packrun.msgbuf import MsgBuf
from packrun.transport import (
    ANY,
    AlreadyInitialized,
    Communicator,
    EmptySubset,
    Finalized,
    InvalidRank,
    InvalidRoot,
    Mailbox,
    NOT_MEMBER,
    RecvTimeout,
    SegmentCountMismatch,
    SelfSend,
    TransportError,
    WorldConfig,
    init,
    rank_thread,
)
from packrun.wire import KIND_CONTROL, KIND_DATA, Envelope
from support import make_mesh_world, make_world, run_ranks


@pytest.fixture
def fresh_slot():
    """Sandbox the once-per-process rules inside a throwaway logical process."""
    with rank_thread():
        yield


# ---------------------------------------------------------------------------
# Worlds and init


def test_single_rank_world(fresh_slot):
    ctx = init(WorldConfig())
    assert ctx.rank == 0
    assert ctx.nprocs == 1
    assert ctx.world.size == 1


def test_a_world_without_ports_has_only_rank_0(fresh_slot):
    with pytest.raises(InvalidRank):
        init(WorldConfig(my_rank_hint=1))


def test_second_init_rejected(fresh_slot):
    init(WorldConfig())
    with pytest.raises(AlreadyInitialized):
        init(WorldConfig())


def test_four_rank_world_identities():
    _, ctxs = make_world(4)
    assert [c.rank for c in ctxs] == [0, 1, 2, 3]
    assert all(c.nprocs == 4 for c in ctxs)
    assert all(c.world.members == (0, 1, 2, 3) for c in ctxs)


def test_config_from_env_defaults_to_single_rank():
    assert WorldConfig.from_env(env={}) == WorldConfig()


def test_config_from_env_reads_launcher_variables():
    env = {"PACKRUN_FDS": "7,9,-,11", "PACKRUN_READY_FD": "8", "PACKRUN_NPROCS": "4",
           "PACKRUN_RANK": "2", "PACKRUN_HETERO": "1"}
    config = WorldConfig.from_env(env=env)
    assert config.my_rank_hint == 2
    assert config.fds == (7, 9, None, 11)
    assert config.ready_fd == 8
    assert config.hetero


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 2**31 - 1), max_size=64).flatmap(
           lambda peers: st.tuples(st.integers(0, len(peers)), st.just(peers))),
       st.integers(0, 2**31 - 1), st.booleans())
def test_config_to_env_is_read_back_by_from_env(rank_and_peers, ready_fd, hetero):
    rank, peers = rank_and_peers
    fds = (*peers[:rank], None, *peers[rank:])
    config = WorldConfig(my_rank_hint=rank, hetero=hetero, fds=fds, ready_fd=ready_fd)
    env = config.to_env()
    assert WorldConfig.from_env(env) == config
    assert env["PACKRUN_NPROCS"] == str(len(fds))


# ---------------------------------------------------------------------------
# Point-to-point


def test_send_recv_delivers_payload():
    _, (c0, c1) = make_world(2)
    c0.send(c0.world, 1, 0, b"\x01\x02\x03\x04")
    src, tag, payload = c1.recv(c1.world, timeout=5)
    assert (src, tag, payload) == (0, 0, b"\x01\x02\x03\x04")


def test_fifo_order_same_tag():
    _, (c0, c1) = make_world(2)
    c0.send(c0.world, 1, 0, b"first")
    c0.send(c0.world, 1, 0, b"second")
    assert c1.recv(c1.world, timeout=5)[2] == b"first"
    assert c1.recv(c1.world, timeout=5)[2] == b"second"


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_payload_changed_after_send_arrives_as_first_sent(backend):
    # Backends get the sender's own bytearray; it may change once send returns.
    ctxs = make_world(2)[1] if backend == "thread" else make_mesh_world(2)
    first = bytes(range(256)) * 4096  # 1 MiB
    refill = b"refill" * 1000

    def member(ctx):
        buf = MsgBuf(ctx)
        if ctx.rank == 0:
            buf.put_bytes(first).send(1)
            buf.put_bytes(refill)
            raw = bytearray(first)
            ctx.send(ctx.world, 1, 1, raw)
            raw[:] = refill
            ctx.send(ctx.world, 1, 3, [1, 2, 3])  # anything bytes() accepts
            buf.send(1, 2)
            return None
        return (buf.get(source=0, tag=0, timeout=10).take_bytes(),
                ctx.recv(ctx.world, 0, 1, timeout=10)[2],
                buf.get(source=0, tag=2, timeout=10).take_bytes(),
                ctx.recv(ctx.world, 0, 3, timeout=10)[2])

    try:
        got = run_ranks(ctxs, member, timeout=30)[1]
    finally:
        for ctx in ctxs:
            ctx.finalize()
    assert got == (first, first, refill, b"\x01\x02\x03")
    assert all(type(payload) is bytes for payload in got)


def test_self_send_rejected():
    _, (c0, _) = make_world(2)
    with pytest.raises(SelfSend):
        c0.send(c0.world, 0, 0, b"loop")


def test_send_to_rank_outside_comm():
    _, (c0, _) = make_world(2)
    with pytest.raises(InvalidRank):
        c0.send(c0.world, 5, 0, b"")


@pytest.mark.parametrize("tag", [2**32, -1, "x", [1], 1.0])
def test_tag_outside_u32_rejected_by_send_and_recv(tag):
    # A receive for a tag no send can carry would otherwise wait forever.
    _, (c0, c1) = make_world(2)
    with pytest.raises(TransportError, match="does not fit in u32"):
        c0.send(c0.world, 1, tag, b"")
    t0 = time.monotonic()
    with pytest.raises(TransportError, match="does not fit in u32"):
        c1.recv(c1.world, tag=tag, timeout=1)
    assert time.monotonic() - t0 < 0.5


@pytest.mark.parametrize("rank", ["x", None, 1.5, [0], -1, 2])
def test_rank_that_is_not_a_member_index_is_rejected_everywhere(rank):
    # A non-integer rank must fail like an out-of-range one, not with the
    # TypeError of comparing or indexing with it.
    _, (c0, c1) = make_world(2)
    with pytest.raises(InvalidRank):
        c0.send(c0.world, rank, 0, b"")
    with pytest.raises(InvalidRank):
        c1.recv(c1.world, source=rank, timeout=1)
    with pytest.raises(InvalidRank):
        c0.comm_create(c0.world, [0, rank])
    for collective in (c0.broadcast, c0.gather, c0.scatter):
        with pytest.raises(InvalidRoot):
            collective(c0.world, rank, b"")


class _Index:
    """An integer-like value that is not an int, as numpy's integers are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("name", ["__index__", "int64", "uint32"])
def test_integer_like_tags_and_ranks_are_accepted_and_posted_as_int(name):
    make = _Index if name == "__index__" else getattr(pytest.importorskip("numpy"), name)
    _, (c0, c1) = make_world(2)
    c0.send(c0.world, make(1), make(7), b"tagged")
    src, tag, payload = c1.recv(c1.world, source=make(0), tag=make(7), timeout=1)
    assert (src, tag, payload) == (0, 7, b"tagged")
    assert type(tag) is int

    def collectives(ctx):
        root = make(1)
        child = ctx.comm_create(ctx.world, [make(0), make(1)])
        return (ctx.broadcast(ctx.world, root, b"b" if ctx.rank == 1 else None),
                ctx.gather(child, root, bytes([ctx.rank])),
                ctx.scatter(ctx.world, root, [b"s0", b"s1"] if ctx.rank == 1 else None))

    assert run_ranks([c0, c1], collectives) == [(b"b", None, b"s0"),
                                                (b"b", [b"\x00", b"\x01"], b"s1")]


def test_tag_filter_skips_and_keeps_nonmatching():
    _, (c0, c1) = make_world(2)
    c0.send(c0.world, 1, 3, b"tag3")
    c0.send(c0.world, 1, 7, b"tag7")
    assert c1.recv(c1.world, tag=7, timeout=5)[2] == b"tag7"
    assert c1.recv(c1.world, tag=3, timeout=5)[2] == b"tag3"


def test_source_filter_ignores_other_senders():
    _, (c0, c1, c2) = make_world(3)
    c1.send(c1.world, 0, 0, b"from1")
    c2.send(c2.world, 0, 0, b"from2")
    assert c0.recv(c0.world, source=2, timeout=5)[2] == b"from2"
    assert c0.recv(c0.world, source=1, timeout=5)[2] == b"from1"


def test_wildcard_source_eventually_returns_everything():
    _, (c0, c1, c2) = make_world(3)
    c1.send(c1.world, 0, 0, b"a")
    c2.send(c2.world, 0, 0, b"b")
    got = {c0.recv(c0.world, timeout=5)[2] for _ in range(2)}
    assert got == {b"a", b"b"}


def test_recv_blocks_until_matching_send():
    _, (c0, c1) = make_world(2)
    result = {}

    def receiver(ctx):
        result["got"] = ctx.recv(ctx.world, tag=9, timeout=5)

    t = threading.Thread(target=receiver, args=(c1,), daemon=True)
    t.start()
    time.sleep(0.05)
    assert "got" not in result
    c0.send(c0.world, 1, 9, b"now")
    t.join(5)
    assert result["got"][2] == b"now"


def test_scripted_filters_match_queue_simulation():
    # Oracle: simulate the matching rule (first arrival that satisfies the
    # filters, FIFO preserved for everything skipped) over a known arrival
    # order, then check the real mailbox agrees on the same script.
    rng = random.Random(20260814)
    for _ in range(30):
        sends = [(rng.choice([1, 2]), rng.randrange(3)) for _ in range(rng.randint(1, 8))]
        recvs = []
        for _ in range(len(sends)):
            recvs.append((rng.choice([None, 1, 2]), rng.choice([None, 0, 1, 2])))

        queue = list(enumerate(sends))
        expected = []
        for source, tag in recvs:
            hit = next((i for i, (s, t) in queue
                        if (source is None or s == source) and (tag is None or t == tag)), None)
            expected.append(hit)
            if hit is not None:
                queue = [(i, st) for i, st in queue if i != hit]

        _, ctxs = make_world(3)
        c0 = ctxs[0]
        for i, (sender, tag) in enumerate(sends):
            ctxs[sender].send(ctxs[sender].world, 0, tag, bytes([i]))
        for (source, tag), hit in zip(recvs, expected):
            kwargs = {}
            if source is not None:
                kwargs["source"] = source
            if tag is not None:
                kwargs["tag"] = tag
            if hit is None:
                with pytest.raises(TransportError):
                    c0.recv(c0.world, timeout=0.02, **kwargs)
            else:
                assert c0.recv(c0.world, timeout=5, **kwargs)[2] == bytes([hit])

    # Deep backlogs: three senders over 40 tags, sends interleaved with exact
    # and ANY receives, a few hundred envelopes pending at the peak.  Most
    # filters are drawn from a pending envelope (wildcarding its source, its
    # tag or both); a few are arbitrary and may match nothing.  The last
    # phase drains the backlog.
    for _ in range(4):
        _, ctxs = make_world(4)
        c0 = ctxs[0]
        queue = []  # (index, sender, tag), simulated, in arrival order

        def receive(source, tag):
            hit = next((e for e in queue if (source is None or e[1] == source)
                        and (tag is None or e[2] == tag)), None)
            kwargs = {}
            if source is not None:
                kwargs["source"] = source
            if tag is not None:
                kwargs["tag"] = tag
            if hit is None:
                with pytest.raises(TransportError):
                    c0.recv(c0.world, timeout=0.02, **kwargs)
            else:
                queue.remove(hit)
                i, s, t = hit
                assert c0.recv(c0.world, timeout=5, **kwargs) == (s, t, i.to_bytes(2, "big"))

        def pending_filter():
            _, s, t = rng.choice(queue)
            return rng.choice([None, s]), rng.choice([None, t])

        sent = 0
        for _ in range(6):
            for _ in range(rng.randint(50, 150)):
                sender, tag = rng.choice([1, 2, 3]), rng.randrange(40)
                ctxs[sender].send(ctxs[sender].world, 0, tag, sent.to_bytes(2, "big"))
                queue.append((sent, sender, tag))
                sent += 1
            for _ in range(rng.randint(20, 60)):
                if rng.random() < 0.95:
                    receive(*pending_filter())
                else:
                    receive(rng.choice([None, 1, 2, 3]), rng.choice([None, *range(45)]))
        while queue:
            receive(*pending_filter())
        assert c0._mailbox.pending() == 0


_SMALL = st.integers(0, 2)  # sources, tags and communicators
_ENVELOPES = st.lists(st.tuples(st.sampled_from([KIND_DATA, KIND_CONTROL]), _SMALL, _SMALL, _SMALL),
                      max_size=4)


class _FilingReader:
    """A backend stand-in: each read files every envelope it still holds."""

    def __init__(self, mailbox, envs):
        self.mailbox, self.envs = mailbox, envs

    def read(self, timeout):
        while self.envs:
            self.mailbox.put(self.envs.pop(0))

    def wake(self):
        pass


class _MailboxModel(RuleBasedStateMachine):
    """One Mailbox against a list: a take's answer is the first entry that matches."""

    def __init__(self):
        super().__init__()
        self.mailbox = Mailbox()
        self.model = []   # filed envelopes, in arrival order
        self.unread = []  # what the installed reader files when a take finds no match
        self.closed = False
        self.serial = 0   # each payload is unique, so an answer names one envelope

    def _envelopes(self, drawn):
        envs = [Envelope(src, 0, comm, tag, (self.serial + i).to_bytes(4, "big"), kind)
                for i, (kind, src, comm, tag) in enumerate(drawn)]
        self.serial += len(envs)
        return envs

    def _first(self, kind, comm, src, tag):
        return next((env for env in self.model if env.kind == kind and env.comm_id == comm
                     and src in (None, env.src)
                     and (kind == KIND_CONTROL or tag in (None, env.tag))), None)

    def _take(self, kind, comm, src, tag):
        expected = self._first(kind, comm, src, tag)
        if expected is None and not self.closed:  # the take reads once, then looks again
            self.model += self.unread
            self.unread = []
            expected = self._first(kind, comm, src, tag)
        if expected is None:
            with pytest.raises(Finalized if self.closed else RecvTimeout):
                self.mailbox.take(kind, comm, src, tag, timeout=0)
        else:
            assert self.mailbox.take(kind, comm, src, tag, timeout=0) is expected
            self.model.remove(expected)
        assert not self.mailbox._reading

    @rule(drawn=_ENVELOPES)
    def put(self, drawn):
        for env in self._envelopes(drawn):
            self.mailbox.put(env)
            if not self.closed:
                self.model.append(env)

    @rule(comm=_SMALL, src=st.none() | _SMALL, tag=st.none() | _SMALL)
    def take_data(self, comm, src, tag):
        self._take(KIND_DATA, comm, src, tag)

    @rule(comm=_SMALL, src=_SMALL, opcode=_SMALL)
    def take_control(self, comm, src, opcode):
        self._take(KIND_CONTROL, comm, src, opcode)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), any_src=st.booleans(), any_tag=st.booleans(), opcode=_SMALL)
    def take_with_a_pending_ones_filters(self, data, any_src, any_tag, opcode):
        env = data.draw(st.sampled_from(self.model))
        if env.kind == KIND_CONTROL:
            self._take(KIND_CONTROL, env.comm_id, env.src, opcode)
        else:
            self._take(KIND_DATA, env.comm_id, None if any_src else env.src,
                       None if any_tag else env.tag)

    @rule(drawn=_ENVELOPES)
    def install_reader(self, drawn):
        self.unread = self._envelopes(drawn)
        self.mailbox.reader = _FilingReader(self.mailbox, list(self.unread))

    @rule()
    def close(self):
        self.mailbox.close()
        self.closed = True

    @invariant()
    def pending_is_the_model_length(self):
        assert self.mailbox.pending() == len(self.model)


def test_mailbox_matches_a_list_model():
    run_state_machine_as_test(_MailboxModel, settings=settings(
        derandomize=True, database=None, deadline=None, max_examples=60, stateful_step_count=30))


class _OneAtATimeReader:
    """A backend stand-in: ``read`` files the calling thread's envelope, if it has one,
    else blocks until ``wake``; it records every reading thread and any overlap."""

    def __init__(self, mailbox, envs_by_thread=None):
        self.mailbox, self.envs = mailbox, dict(envs_by_thread or {})
        self.readers, self.inside, self.overlapped = [], 0, False
        self.entered, self.woken = threading.Event(), threading.Event()
        self._lock = threading.Lock()

    def read(self, timeout):
        with self._lock:
            self.inside += 1
            self.overlapped |= self.inside > 1
            self.readers.append(threading.current_thread())
        self.entered.set()
        try:
            env = self.envs.pop(threading.get_ident(), None)
            if env is None:
                self.woken.wait(timeout)
            else:
                self.mailbox.put(env)  # wakes the other takers while this read holds the role
                time.sleep(0.01)
        finally:
            with self._lock:
                self.inside -= 1

    def wake(self):
        self.woken.set()


def test_three_takers_share_the_reader_role_one_at_a_time():
    mailbox = Mailbox()
    reader = mailbox.reader = _OneAtATimeReader(mailbox)
    start, got = threading.Barrier(3), {}

    def taker(tag):
        reader.envs[threading.get_ident()] = Envelope(1, 0, 0, tag, bytes([tag]), KIND_DATA)
        start.wait()
        got[tag] = mailbox.take(KIND_DATA, 0, 1, tag)

    threads = [threading.Thread(target=taker, args=(tag,), daemon=True) for tag in range(3)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(5)
        assert not any(t.is_alive() for t in threads), "the reader role was not handed on"
    finally:
        mailbox.close()  # a stuck taker raises Finalized and ends
    # each taker read once, for its own envelope: the role went from one to the next
    assert sorted(map(id, reader.readers)) == sorted(map(id, threads))
    assert not reader.overlapped
    assert {tag: env.payload for tag, env in got.items()} == {t: bytes([t]) for t in range(3)}
    assert not mailbox._reading and mailbox.pending() == 0


def test_reading_lends_the_reader_role_to_a_helper_for_the_block():
    mailbox = Mailbox()
    reader = mailbox.reader = _OneAtATimeReader(mailbox)
    with mailbox.reading():
        assert reader.entered.wait(1)
        assert mailbox._reading
        (helper,) = reader.readers
        assert helper is not threading.current_thread()
        assert not reader.woken.is_set()
    assert reader.woken.is_set()
    helper.join(1)
    assert not helper.is_alive()
    assert not mailbox._reading and not reader.overlapped


def test_round_of_distinct_tags_leaves_no_queues_behind():
    # One queue per tag appears while the round is pending; every one must
    # be gone once its message is taken, or idle mailboxes keep growing.
    _, (c0, c1) = make_world(2)
    tags = list(range(2048))
    random.Random(2048).shuffle(tags)
    for tag in tags:
        c1.send(c1.world, 0, tag, tag.to_bytes(2, "big"))
    assert c0._mailbox.pending() == 2048
    for tag in range(2048):
        assert c0.recv(c0.world, source=1, tag=tag, timeout=5) == (1, tag, tag.to_bytes(2, "big"))
    assert c0._mailbox.pending() == 0
    assert c0._mailbox._queues == {}


def test_concurrent_senders_and_receivers_keep_per_key_fifo():
    # Four senders and two receivers share rank 0's mailbox, more threads
    # than cores with a short switch interval: nothing may be lost,
    # duplicated or reordered within its (source, tag) key, and no queue
    # may be left behind.
    per_sender, ntags = 400, 16
    _, ctxs = make_world(5)
    c0 = ctxs[0]
    got = [{}, {}]

    def take_low_tags():  # ANY source, exact tag
        for tag in range(ntags // 2):
            for _ in range(4 * per_sender // ntags):
                src, t, payload = c0.recv(c0.world, tag=tag, timeout=10)
                got[0].setdefault((src, t), []).append(int.from_bytes(payload, "big"))

    def take_high_tags():  # exact source and tag
        for tag in range(ntags // 2, ntags):
            for src in range(1, 5):
                for _ in range(per_sender // ntags):
                    _, _, payload = c0.recv(c0.world, source=src, tag=tag, timeout=10)
                    got[1].setdefault((src, tag), []).append(int.from_bytes(payload, "big"))

    def rank(ctx):
        if ctx.rank == 0:
            take_low_tags()
        else:
            for i in range(per_sender):
                ctx.send(ctx.world, 0, i % ntags, i.to_bytes(2, "big"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        helper = threading.Thread(target=take_high_tags, daemon=True)
        helper.start()
        run_ranks(ctxs, rank)
        helper.join(15)
    finally:
        sys.setswitchinterval(interval)
    assert not helper.is_alive()
    expected = {(src, tag): list(range(tag, per_sender, ntags))
                for src in range(1, 5) for tag in range(ntags)}
    assert {**got[0], **got[1]} == expected
    assert c0._mailbox.pending() == 0
    assert c0._mailbox._queues == {}


def test_randomized_exchange_is_exactly_once():
    rng = random.Random(42)
    for _ in range(10):
        n = rng.randint(2, 4)
        _, ctxs = make_world(n)
        plan = {r: [] for r in range(n)}  # receiver -> [(sender, tag, payload)]
        for sender in range(n):
            for _ in range(rng.randint(0, 6)):
                dest = rng.choice([d for d in range(n) if d != sender])
                tag = rng.randrange(4)
                payload = bytes(rng.randrange(256) for _ in range(rng.randint(0, 8)))
                plan[dest].append((sender, tag, payload))

        def worker(ctx):
            for dest, messages in plan.items():
                for sender, tag, payload in messages:
                    if sender == ctx.rank:
                        ctx.send(ctx.world, dest, tag, payload)
            mine = plan[ctx.rank]
            got = [ctx.recv(ctx.world, timeout=10) for _ in range(len(mine))]
            return sorted(got), sorted(mine)

        for got, sent in run_ranks(ctxs, worker):
            assert got == sent


# ---------------------------------------------------------------------------
# Collectives


def test_barrier_single_member_returns_immediately():
    _, (c0,) = make_world(1)
    c0.barrier(c0.world)


def test_barrier_waits_for_slowest_member():
    _, ctxs = make_world(3)
    entry = {}
    exit_ = {}

    def member(ctx):
        if ctx.rank == 2:
            time.sleep(0.1)
        entry[ctx.rank] = time.monotonic()
        ctx.barrier(ctx.world)
        exit_[ctx.rank] = time.monotonic()

    run_ranks(ctxs, member)
    for r in range(3):
        assert exit_[r] >= entry[2]


def test_broadcast_delivers_root_payload_to_all():
    _, ctxs = make_world(4)
    results = run_ranks(ctxs, lambda ctx: ctx.broadcast(
        ctx.world, 0, b"\xaa\xbb" if ctx.rank == 0 else None))
    assert results == [b"\xaa\xbb"] * 4


def test_broadcast_invalid_root():
    _, (c0, _) = make_world(2)
    with pytest.raises(InvalidRoot):
        c0.broadcast(c0.world, 2, b"")


def test_gather_collects_in_local_rank_order():
    _, ctxs = make_world(3)
    results = run_ranks(ctxs, lambda ctx: ctx.gather(ctx.world, 0, bytes([ctx.rank])))
    assert results[0] == [b"\x00", b"\x01", b"\x02"]
    assert results[1] is None and results[2] is None


def test_gather_keeps_empty_contributions():
    _, ctxs = make_world(3)
    results = run_ranks(ctxs, lambda ctx: ctx.gather(
        ctx.world, 1, b"" if ctx.rank != 1 else b"root"))
    assert results[1] == [b"", b"root", b""]


def test_scatter_hands_each_member_its_segment():
    _, ctxs = make_world(3)
    segments = [b"\xa0", b"\xa1", b"\xa2"]
    results = run_ranks(ctxs, lambda ctx: ctx.scatter(
        ctx.world, 0, segments if ctx.rank == 0 else None))
    assert results == segments


def test_scatter_segment_count_checked_at_root():
    _, ctxs = make_world(3)
    with pytest.raises(SegmentCountMismatch) as err:
        ctxs[0].scatter(ctxs[0].world, 0, [b"x", b"y"])
    assert (err.value.expected, err.value.found) == (3, 2)


def test_non_root_collective_arguments_are_left_untouched():
    _, ctxs = make_world(3)
    junk = object()  # bytes(junk) raises TypeError
    results = run_ranks(ctxs, lambda ctx: (
        ctx.broadcast(ctx.world, 1, b"b" if ctx.rank == 1 else junk),
        ctx.scatter(ctx.world, 1, [b"0", b"1", b"2"] if ctx.rank == 1 else junk)))
    assert results == [(b"b", b"0"), (b"b", b"1"), (b"b", b"2")]

def test_collectives_match_reference_semantics():
    rng = random.Random(777)
    for _ in range(40):
        n = rng.randint(1, 5)
        root = rng.randrange(n)
        payloads = [bytes(rng.randrange(256) for _ in range(rng.randint(0, 16)))
                    for _ in range(n)]
        segments = [bytes(rng.randrange(256) for _ in range(rng.randint(0, 16)))
                    for _ in range(n)]
        _, ctxs = make_world(n)

        def member(ctx):
            b = ctx.broadcast(ctx.world, root, payloads[root] if ctx.rank == root else None)
            g = ctx.gather(ctx.world, root, payloads[ctx.rank])
            s = ctx.scatter(ctx.world, root, segments if ctx.rank == root else None)
            return b, g, s

        results = run_ranks(ctxs, member)
        for rank, (b, g, s) in enumerate(results):
            assert b == payloads[root]
            assert g == (payloads if rank == root else None)
            assert s == segments[rank]


# Control opcodes as they travel on the wire
_ENTER, _RELEASE, _BCAST, _GATHER, _SCATTER, _PROPOSAL, _RESULT = range(1, 8)


def test_collectives_post_the_flat_root_centric_schedule():
    # Every envelope each rank posts, in order, against the flat algorithm:
    # in a fan-in each non-root member sends its body to the root, in a
    # fan-out the root sends each other member its body in local-rank
    # order.  barrier and comm_create are a fan-in then a fan-out at local
    # rank 0; broadcast and scatter one fan-out; gather one fan-in.
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(1, 5)
        world, ctxs = make_world(n)
        posted = [[] for _ in range(n)]
        deliver = world.post

        def record(src, dest, comm_id, tag, payload, kind):
            posted[src].append(Envelope(src, dest, comm_id, tag, bytes(payload), kind))
            deliver(src, dest, comm_id, tag, payload, kind)

        world.post = record
        bcast_root, gather_root, scatter_root = (rng.randrange(n) for _ in range(3))
        payloads = [bytes(rng.randrange(256) for _ in range(rng.randint(0, 6))) for _ in range(n)]
        segments = [bytes(rng.randrange(256) for _ in range(rng.randint(0, 6))) for _ in range(n)]
        subset = sorted(rng.sample(range(n), rng.randint(1, n)))
        child_root = rng.randrange(len(subset))

        def member(ctx):
            ctx.barrier(ctx.world)
            ctx.broadcast(ctx.world, bcast_root, payloads[ctx.rank] if ctx.rank == bcast_root else None)
            ctx.gather(ctx.world, gather_root, payloads[ctx.rank])
            ctx.scatter(ctx.world, scatter_root, segments if ctx.rank == scatter_root else None)
            child = ctx.comm_create(ctx.world, subset)
            if child is not NOT_MEMBER:
                ctx.gather(child, child_root, payloads[ctx.rank])
                ctx.barrier(child)
            if n > 1:
                with pytest.raises(TransportError, match="identical subset"):
                    ctx.comm_create(ctx.world, [0] if ctx.rank == 0 else range(n))
            return child

        results = run_ranks(ctxs, member)
        child_id = 1  # the first child of the world: (0 << 8) | 1
        assert {c.comm_id for c in results if c is not NOT_MEMBER} == {child_id}

        expected = [[] for _ in range(n)]

        def fan_in(comm_id, members, root, seq, opcode, bodies):
            for m, rank in enumerate(members):
                if m != root:
                    expected[rank].append(Envelope(rank, members[root], comm_id, opcode,
                                                   bodies[m], KIND_CONTROL))

        def fan_out(comm_id, members, root, seq, opcode, bodies):
            for m, rank in enumerate(members):
                if m != root:
                    expected[members[root]].append(Envelope(members[root], rank, comm_id, opcode,
                                                            bodies[m], KIND_CONTROL))

        everyone = list(range(n))
        fan_in(0, everyone, 0, 1, _ENTER, [b""] * n)
        fan_out(0, everyone, 0, 1, _RELEASE, [b""] * n)
        fan_out(0, everyone, bcast_root, 2, _BCAST, [payloads[bcast_root]] * n)
        fan_in(0, everyone, gather_root, 3, _GATHER, payloads)
        fan_out(0, everyone, scatter_root, 4, _SCATTER, segments)
        fan_in(0, everyone, 0, 5, _PROPOSAL, [struct.pack(f">{len(subset)}I", *subset)] * n)
        fan_out(0, everyone, 0, 5, _RESULT, [b"\x01"] * n)
        fan_in(child_id, subset, child_root, 1, _GATHER, [payloads[r] for r in subset])
        fan_in(child_id, subset, 0, 2, _ENTER, [b""] * len(subset))
        fan_out(child_id, subset, 0, 2, _RELEASE, [b""] * len(subset))
        if n > 1:
            fan_in(0, everyone, 0, 6, _PROPOSAL,
                   [struct.pack(">I", 0)] + [struct.pack(f">{n}I", *everyone)] * (n - 1))
            fan_out(0, everyone, 0, 6, _RESULT, [b"\x00"] * n)
        assert posted == expected
        # P-1 envelopes per broadcast, gather and scatter; 2(P-1) per barrier
        # and comm_create: on the world 3 + 2 * 3 collectives, on the child
        # one gather and one barrier
        c = len(subset)
        assert sum(map(len, posted)) == 9 * (n - 1) + 3 * (c - 1)
        assert all(ctx._mailbox.pending() == 0 for ctx in ctxs)


def test_collective_traffic_invisible_to_wildcard_recv():
    _, (c0, c1) = make_world(2)

    def peer(ctx):
        ctx.send(ctx.world, 0, 0, b"data")
        ctx.barrier(ctx.world)

    t = threading.Thread(target=peer, args=(c1,), daemon=True)
    t.start()
    time.sleep(0.05)  # let the barrier-enter control frame arrive first
    src, tag, payload = c0.recv(c0.world, timeout=5)
    assert payload == b"data"
    c0.barrier(c0.world)
    t.join(5)
    assert not t.is_alive()


def test_a_collective_called_out_of_order_raises_collective_mismatch():
    # Control envelopes match in arrival order: rank 0's barrier takes rank 1's
    # broadcast body as its next envelope from rank 1, and refuses its opcode.
    _, ctxs = make_world(2)

    def member(ctx):
        if ctx.rank == 1:
            return ctx.broadcast(ctx.world, 1, b"early")
        with pytest.raises(TransportError, match="collective mismatch"):
            ctx.barrier(ctx.world)

    run_ranks(ctxs, member, timeout=10)


def test_a_broadcast_body_is_one_object_every_member_shares():
    size = 8 << 20
    _, ctxs = make_world(4)
    body = random.Random(19).randbytes(size)
    bufs = [MsgBuf(ctx) for ctx in ctxs]
    bufs[0].append(body)
    tracemalloc.start()
    try:
        run_ranks(ctxs, lambda ctx: bufs[ctx.rank].bcast(0), timeout=30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(buf.data == body for buf in bufs)
    # the root's snapshot of its buffer, and nothing per destination
    assert peak < 1.5 * size


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("collective", ["broadcast", "gather", "scatter"])
def test_a_collective_body_above_the_maximum_is_refused_before_anything_is_posted(
        monkeypatch, backend, collective):
    # gather from its poster, scatter from a root whose own segment is too big
    ctxs = make_world(2)[1] if backend == "thread" else make_mesh_world(2)
    monkeypatch.setattr("packrun.transport.MAX_PAYLOAD", 8)
    monkeypatch.setattr("packrun.wire.MAX_PAYLOAD", 8)
    posted = []
    for ctx in ctxs:
        ctx._backend.post = lambda *args: posted.append(args)
    body = bytes(16)
    try:
        with pytest.raises(TransportError, match="16 bytes exceeds the 8 maximum"):
            if collective == "broadcast":
                ctxs[0].broadcast(ctxs[0].world, 0, body)
            elif collective == "gather":
                ctxs[1].gather(ctxs[1].world, 0, body)
            else:
                ctxs[1].scatter(ctxs[1].world, 1, [b"", body])
        assert posted == []
    finally:
        for ctx in ctxs:
            ctx.finalize()


# ---------------------------------------------------------------------------
# Communicators


def test_local_of_maps_members_and_rejects_others():
    comm = Communicator(7, (1, 4, 6, 9), 0)
    assert [comm.local_of(w) for w in comm.members] == [0, 1, 2, 3]
    for outsider in (0, 2, 5, 10):
        with pytest.raises(ValueError):
            comm.local_of(outsider)


def test_comm_create_remaps_local_ranks():
    _, ctxs = make_world(4)
    results = run_ranks(ctxs, lambda ctx: ctx.comm_create(ctx.world, [1, 3]))
    assert results[0] is NOT_MEMBER
    assert results[2] is NOT_MEMBER
    child1, child3 = results[1], results[3]
    assert child1.members == (1, 3)
    assert (child1.local_rank, child3.local_rank) == (0, 1)
    assert child1.comm_id == child3.comm_id != 0


def test_comm_create_full_subset_is_fresh_id():
    _, ctxs = make_world(2)
    results = run_ranks(ctxs, lambda ctx: ctx.comm_create(ctx.world, [0, 1]))
    assert results[0].members == (0, 1)
    assert results[0].comm_id != 0


def test_comm_create_empty_subset():
    _, (c0,) = make_world(1)
    with pytest.raises(EmptySubset):
        c0.comm_create(c0.world, [])


def test_comm_create_rejects_mismatched_subsets():
    _, ctxs = make_world(2)
    with pytest.raises(TransportError):
        run_ranks(ctxs, lambda ctx: ctx.comm_create(ctx.world, [0] if ctx.rank == 0 else [0, 1]))


def test_nested_communicators_get_distinct_ids():
    _, ctxs = make_world(4)

    def member(ctx):
        child = ctx.comm_create(ctx.world, [0, 1, 2, 3])
        grand = ctx.comm_create(child, [0, 1])
        return child, grand

    results = run_ranks(ctxs, member)
    child_ids = {c.comm_id for c, _ in results}
    assert len(child_ids) == 1
    grand = [g for _, g in results if g is not NOT_MEMBER]
    assert len(grand) == 2
    assert grand[0].comm_id not in (0, results[0][0].comm_id)


def test_running_out_of_child_ids_raises_on_every_member_at_the_same_call():
    _, ctxs = make_world(2)

    def member(ctx):
        for call in range(1, 300):
            try:
                ctx.comm_create(ctx.world, [0, 1])
            except TransportError as exc:
                ctx.barrier(ctx.world)  # nothing of the failed call is left pending
                return call, str(exc), ctx._mailbox.pending()
        return None

    results = run_ranks(ctxs, member, timeout=10)
    assert results == [(256, "communicator nesting/fan-out exceeds the id space", 0)] * 2


def test_child_broadcast_never_touches_non_members():
    _, ctxs = make_world(4)

    def member(ctx):
        child = ctx.comm_create(ctx.world, [1, 3])
        if child is NOT_MEMBER:
            return None
        return ctx.broadcast(child, 0, b"child-only" if child.local_rank == 0 else None)

    results = run_ranks(ctxs, member)
    assert results[1] == results[3] == b"child-only"
    assert ctxs[0]._mailbox.pending() == 0
    assert ctxs[2]._mailbox.pending() == 0


def test_same_tag_different_comms_do_not_mix():
    _, ctxs = make_world(2)

    def member(ctx):
        child = ctx.comm_create(ctx.world, [0, 1])
        if ctx.rank == 0:
            ctx.send(ctx.world, 1, 5, b"world")
            ctx.send(child, 1, 5, b"child")
            return None
        world_msg = ctx.recv(ctx.world, tag=5, timeout=5)[2]
        child_msg = ctx.recv(child, tag=5, timeout=5)[2]
        return world_msg, child_msg

    results = run_ranks(ctxs, member)
    assert results[1] == (b"world", b"child")


# ---------------------------------------------------------------------------
# Lifecycle


def test_finalize_then_operations_error():
    _, (c0, c1) = make_world(2)
    c0.finalize()
    with pytest.raises(Finalized):
        c0.send(c0.world, 1, 0, b"")
    with pytest.raises(Finalized):
        c0.recv(c0.world)
    with pytest.raises(Finalized):
        c0.barrier(c0.world)


def test_finalize_is_idempotent():
    _, (c0,) = make_world(1)
    c0.finalize()
    c0.finalize()
    assert c0.finalized


def test_finalize_wakes_blocked_recv():
    _, (c0, c1) = make_world(2)
    outcome = {}

    def receiver(ctx):
        try:
            ctx.recv(ctx.world, timeout=10)
        except Finalized:
            outcome["raised"] = True

    t = threading.Thread(target=receiver, args=(c0,), daemon=True)
    t.start()
    time.sleep(0.05)
    c0.finalize()
    t.join(5)
    assert outcome.get("raised")


def test_messages_to_finalized_rank_are_dropped():
    _, (c0, c1) = make_world(2)
    c1.finalize()
    c0.send(c0.world, 1, 0, b"late")  # must not raise or block
