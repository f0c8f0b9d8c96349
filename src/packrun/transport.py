"""Rank identity, tagged point-to-point messaging, communicators, collectives.

Two interchangeable backends sit beneath :class:`TransportContext`: an
in-process world whose ranks are threads sharing one interpreter (used for
deterministic tests and the thread launcher) and a TCP socket mesh with one
OS process per rank (see :mod:`packrun.mesh`).  Everything above the backend
is identical: reliable FIFO point-to-point delivery per (src, dest,
communicator) triple, tag and source filtering on receive, and flat
root-centric collectives.  Each rank's :class:`Mailbox` queues arrivals by
(kind, communicator, source, tag): an exact receive costs the same however
much unrelated traffic is pending, and a wildcard one looks at one queue
head per key, not at every pending message.

Collective traffic travels as control-kind envelopes, so it can never be
confused with user messages, even ones received with wildcard filters.  A
control envelope's tag is its collective's opcode.  Members issue the
collectives on one communicator in the same order, one at a time, and
delivery per pair is FIFO, so a collective takes each peer's oldest control
envelope and only checks its opcode.  The one collective algorithm lives in
``TransportContext._fan_in`` (every member's body to a root) and
``_fan_out`` (a body per member from a root); each collective calls one or
both.

A backend's ``post(src, dest, comm_id, tag, payload, kind)`` delivers one
message.  ``payload`` may be the sender's own ``bytearray``, which is free to
change once ``post`` returns: the mesh has written it to the socket by then,
and the in-process world snapshots it (a ``bytes`` payload is shared as is).
Pieces in a :class:`packrun.wire.Segments` are written in turn or joined.
"""

from __future__ import annotations

import operator
import os
import struct
import threading
import time
from bisect import bisect_left
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .wire import KIND_CONTROL, KIND_DATA, MAX_PAYLOAD, Envelope, Segments


class _AnyFilter:
    def __repr__(self) -> str:
        return "ANY"


ANY = _AnyFilter()  # wildcard for recv source/tag filters


class _NotMember:
    def __repr__(self) -> str:
        return "NOT_MEMBER"


NOT_MEMBER = _NotMember()  # comm_create's result for ranks outside the subset

WORLD_COMM_ID = 0

# A mesh rank's hand-over in its environment: WorldConfig.to_env writes it, from_env reads it
ENV_RANK = "PACKRUN_RANK"
ENV_NPROCS = "PACKRUN_NPROCS"
ENV_FDS = "PACKRUN_FDS"
ENV_READY_FD = "PACKRUN_READY_FD"
ENV_HETERO = "PACKRUN_HETERO"

# Control opcodes: the tag of every control-kind envelope a collective posts
_OP_BARRIER_ENTER = 1
_OP_BARRIER_RELEASE = 2
_OP_BCAST = 3
_OP_GATHER = 4
_OP_SCATTER = 5
_OP_COMM_PROPOSAL = 6
_OP_COMM_RESULT = 7


# ---------------------------------------------------------------------------
# Errors


class TransportError(Exception):
    """Base class for runtime messaging errors."""


class AlreadyInitialized(TransportError):
    def __init__(self):
        super().__init__("transport already initialized in this process")


class RendezvousTimeout(TransportError):
    def __init__(self, seconds: float):
        super().__init__(f"rendezvous did not complete within {seconds:g} s")
        self.seconds = seconds


class SelfSend(TransportError):
    def __init__(self):
        super().__init__("a rank cannot send a point-to-point message to itself")


class InvalidRank(TransportError):
    def __init__(self, rank):
        super().__init__(f"rank {rank!r} is not a member of this communicator")
        self.rank = rank


class InvalidRoot(TransportError):
    def __init__(self, root):
        super().__init__(f"root {root!r} is not a member of this communicator")
        self.root = root


class Finalized(TransportError):
    def __init__(self):
        super().__init__("transport context is finalized")


class EmptySubset(TransportError):
    def __init__(self):
        super().__init__("a communicator needs at least one member")


class SegmentCountMismatch(TransportError):
    def __init__(self, expected: int, found: int):
        super().__init__(f"scatter needs {expected} segments, got {found}")
        self.expected = expected
        self.found = found


class RecvTimeout(TransportError):
    def __init__(self, seconds: float):
        super().__init__(f"no matching message arrived within {seconds:g} s")
        self.seconds = seconds


# ---------------------------------------------------------------------------
# Configuration


class BackendKind(Enum):
    IN_PROCESS = "thread"
    SOCKET_MESH = "process"


@dataclass
class WorldConfig:
    """A rank's hand-over: with ``fds``, a socket mesh of ``len(fds)`` ranks, else one rank."""

    my_rank_hint: Optional[int] = None
    hetero: bool = False
    fds: tuple = ()                 # this rank's end of each connection, by peer; None at its own
    ready_fd: Optional[int] = None  # gets one byte once this rank holds its connections

    @classmethod
    def from_env(cls, env=os.environ) -> "WorldConfig":
        """The mesh rank's configuration a launcher injected (PACKRUN_FDS), else one rank's."""
        fds = env.get(ENV_FDS)
        if fds is None:
            return cls()
        return cls(
            my_rank_hint=int(env[ENV_RANK]),
            hetero=env.get(ENV_HETERO, "0") == "1",
            fds=tuple(None if fd == "-" else int(fd) for fd in fds.split(",")),
            ready_fd=int(env[ENV_READY_FD]),
        )

    def to_env(self) -> dict[str, str]:
        """The variables ``from_env`` reads back as this mesh rank's config."""
        return {
            ENV_RANK: str(self.my_rank_hint),
            ENV_NPROCS: str(len(self.fds)),  # for the rank's program; packrun counts the fds
            ENV_FDS: ",".join("-" if fd is None else str(fd) for fd in self.fds),
            ENV_READY_FD: str(self.ready_fd),
            ENV_HETERO: "1" if self.hetero else "0",
        }


@dataclass(frozen=True)
class Communicator:
    """An ordered rank subset. Local ranks are positions in ``members``."""

    comm_id: int
    members: tuple  # world ranks, sorted ascending
    local_rank: int

    @property
    def size(self) -> int:
        return len(self.members)

    def local_of(self, world: int) -> int:
        local = bisect_left(self.members, world)
        if local == len(self.members) or self.members[local] != world:
            raise ValueError(f"world rank {world!r} is not a member")
        return local


# Tags and ranks may be any integer (numpy's too); the checked int is what gets posted.
def _check_tag(tag) -> int:
    try:
        if 0 <= operator.index(tag) < 2**32:
            return operator.index(tag)
    except TypeError:
        pass
    raise TransportError(f"tag {tag} does not fit in u32")


def _check_rank(comm: Communicator, rank, error=InvalidRank) -> int:
    try:
        if 0 <= operator.index(rank) < comm.size:
            return operator.index(rank)
    except TypeError:
        pass
    raise error(rank)


def _check_bodies(bodies) -> None:
    for body in bodies:
        if len(body) > MAX_PAYLOAD:
            raise TransportError(
                f"collective body of {len(body)} bytes exceeds the {MAX_PAYLOAD} maximum")


# ---------------------------------------------------------------------------
# Mailbox


class Mailbox:
    """Arrival-numbered message store, indexed by (kind, comm_id, src, tag).

    Each key holds its envelopes in arrival order, so an exact receive pops
    the head of one queue whatever else is pending.  A wildcard receive
    (``None`` for src or tag) takes the matching head with the lowest arrival
    number, which is the first pending arrival that matches, so FIFO order
    per sender holds across keys.  Control envelopes share one key per
    sender and communicator, so a receive takes the oldest whatever its tag.
    Unmatched messages stay queued under their own keys.  The store is
    unbounded by design: filing an arrival never waits for a receiver.

    With a ``reader`` (the mesh backend), a ``take`` that finds no match
    becomes the one thread that reads the backend, and wakes the threads
    waiting on the condition as it files arrivals and when it leaves.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._queues: dict[tuple, deque[tuple[int, Envelope]]] = {}
        self._arrivals = 0
        self._closed = False
        self.reader = None  # a backend whose read(timeout) files arrivals, and wake() ends it
        self._reading = False

    def put(self, env: Envelope) -> None:
        with self._cond:
            if self._closed:
                return
            key = (env.kind, env.comm_id, env.src, env.tag if env.kind == KIND_DATA else None)
            queue = self._queues.get(key)
            if queue is None:
                self._queues[key] = queue = deque()
            queue.append((self._arrivals, env))
            self._arrivals += 1
            self._cond.notify_all()

    def take(self, kind: int, comm_id: int, src: Optional[int], tag: Optional[int],
             timeout: Optional[float] = None) -> Envelope:
        """Remove and return the oldest envelope matching the filters.

        ``src`` and ``tag`` are world rank and tag, or ``None`` for any.
        Blocks until one arrives; raises RecvTimeout after ``timeout``
        seconds, or Finalized once the mailbox is closed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        expired = False
        with self._cond:
            while True:
                if src is None or tag is None:
                    key = self._oldest_key(kind, comm_id, src, tag)
                else:
                    key = (kind, comm_id, src, tag if kind == KIND_DATA else None)
                queue = self._queues.get(key)
                if queue is not None:
                    env = queue.popleft()[1]
                    if not queue:
                        del self._queues[key]
                    return env
                if self._closed:
                    raise Finalized()
                if expired:
                    raise RecvTimeout(timeout)
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    expired = remaining <= 0  # after one last look at what has arrived
                self._wait(remaining)

    def _wait(self, timeout: Optional[float]) -> None:
        """Wait up to ``timeout`` s for arrivals, as the reader unless another thread is."""
        if self.reader is None or self._reading:
            self._cond.wait(timeout)
            return
        self._reading = True
        self._cond.release()
        try:
            self.reader.read(timeout)
        finally:
            self._cond.acquire()
            self._reading = False
            self._cond.notify_all()  # hands the reader role on

    @contextmanager
    def reading(self):
        """While a blocked send runs in here, a helper thread takes the free reader role."""
        done = threading.Event()

        def help_read():
            with self._cond:
                while not (done.is_set() or self._closed):
                    self._wait(None)

        threading.Thread(target=help_read, daemon=True).start()
        try:
            yield
        finally:
            done.set()
            self.reader.wake()  # ends the helper's read, or the read it waits behind

    def _oldest_key(self, kind, comm_id, src, tag) -> Optional[tuple]:
        first = key = None
        for k, queue in self._queues.items():
            if (k[0] == kind and k[1] == comm_id and (src is None or k[2] == src)
                    and (tag is None or k[3] == tag) and (first is None or queue[0][0] < first)):
                first, key = queue[0][0], k
        return key

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def pending(self) -> int:
        with self._cond:
            return sum(len(queue) for queue in self._queues.values())


# ---------------------------------------------------------------------------
# Context


class TransportContext:
    """One rank's handle on the world.

    Thread-safe for point-to-point traffic.  Collectives follow the usual
    contract: every member calls the same collectives in the same order on a
    given communicator, one at a time.
    """

    def __init__(self, rank: int, nprocs: int, backend, mailbox: Mailbox, hetero: bool = False):
        self.rank = rank
        self.nprocs = nprocs
        self.hetero = hetero
        self._backend = backend
        self._mailbox = mailbox
        self._finalized = False
        self._lock = threading.Lock()
        self._child_counter: dict[int, int] = {}
        self.world = Communicator(WORLD_COMM_ID, tuple(range(nprocs)), rank)

    # -- plumbing

    @property
    def finalized(self) -> bool:
        return self._finalized

    def _check_open(self) -> None:
        if self._finalized:
            raise Finalized()

    def _begin_collective(self, comm: Communicator, root: int = 0) -> int:
        """Check the context and the root; return the root."""
        self._check_open()
        return _check_rank(comm, root, InvalidRoot)

    def _fan_in(self, comm: Communicator, root: int, opcode: int,
                body: bytes) -> Optional[list[bytes]]:
        """Send ``body`` to ``root``; root gets every member's, in local-rank order."""
        _check_bodies((body,))
        if comm.local_rank != root:
            self._send_control(comm, root, opcode, body)
            return None
        return [body if m == root else self._recv_control(comm, m, opcode)
                for m in range(comm.size)]

    def _fan_out(self, comm: Communicator, root: int, opcode: int, bodies) -> bytes:
        """Root sends ``bodies[m]`` to each other member ``m``; each returns its own."""
        if comm.local_rank != root:
            return self._recv_control(comm, root, opcode)
        _check_bodies(bodies)  # before the first post
        for m in range(comm.size):
            if m != root:
                self._send_control(comm, m, opcode, bodies[m])
        return bodies[root]

    def _send_control(self, comm: Communicator, dest_local: int,
                      opcode: int, body: bytes) -> None:
        self._backend.post(self.rank, comm.members[dest_local], comm.comm_id,
                           opcode, body, KIND_CONTROL)

    def _recv_control(self, comm: Communicator, src_local: int, opcode: int) -> bytes:
        env = self._mailbox.take(KIND_CONTROL, comm.comm_id, comm.members[src_local], opcode)
        if env.tag != opcode:
            raise TransportError(
                f"collective mismatch: expected opcode {opcode}, got {env.tag} "
                f"(members issuing collectives in different orders?)")
        return env.payload

    # -- point to point

    def send(self, comm: Communicator, dest: int, tag: int, payload: bytes) -> None:
        """Send ``payload`` (anything ``bytes()`` accepts) to local rank ``dest``.

        A ``bytes`` or ``bytearray`` goes to the backend as it is, and may be
        changed again once this returns.
        """
        self._check_open()
        dest = _check_rank(comm, dest)
        if dest == comm.local_rank:
            raise SelfSend()
        tag = _check_tag(tag)
        cls = type(payload)
        if cls is not bytearray and cls is not bytes and cls is not Segments:
            payload = bytes(payload)
        if len(payload) > MAX_PAYLOAD:
            raise TransportError(f"payload of {len(payload)} bytes exceeds the {MAX_PAYLOAD} maximum")
        self._backend.post(self.rank, comm.members[dest], comm.comm_id, tag, payload, KIND_DATA)

    def recv(self, comm: Communicator, source=ANY, tag=ANY,
             timeout: Optional[float] = None) -> tuple[int, int, bytes]:
        self._check_open()
        if source is not ANY:
            source = _check_rank(comm, source)
        if tag is not ANY:
            tag = _check_tag(tag)
        env = self._mailbox.take(KIND_DATA, comm.comm_id,
                                 None if source is ANY else comm.members[source],
                                 None if tag is ANY else tag, timeout)
        return comm.local_of(env.src), env.tag, env.payload

    # -- collectives

    def barrier(self, comm: Communicator) -> None:
        self._begin_collective(comm)
        self._fan_in(comm, 0, _OP_BARRIER_ENTER, b"")
        self._fan_out(comm, 0, _OP_BARRIER_RELEASE, [b""] * comm.size)

    def broadcast(self, comm: Communicator, root: int, payload: Optional[bytes] = None) -> bytes:
        root = self._begin_collective(comm, root)
        if comm.local_rank == root:
            payload = bytes(payload if payload is not None else b"")
        return self._fan_out(comm, root, _OP_BCAST, [payload] * comm.size)

    def gather(self, comm: Communicator, root: int, payload: bytes) -> Optional[list[bytes]]:
        """Root gets every member's payload in local-rank order; its own is the object it passed."""
        root = self._begin_collective(comm, root)
        return self._fan_in(comm, root, _OP_GATHER,
                            payload if type(payload) is bytearray else bytes(payload))

    def scatter(self, comm: Communicator, root: int,
                segments: Optional[list[bytes]] = None) -> bytes:
        root = self._begin_collective(comm, root)
        if comm.local_rank == root:
            segments = [bytes(s) for s in (segments or [])]
            if len(segments) != comm.size:
                raise SegmentCountMismatch(comm.size, len(segments))
        return self._fan_out(comm, root, _OP_SCATTER, segments)

    def comm_create(self, parent: Communicator, members):
        """Collectively carve a child communicator out of ``parent``.

        ``members`` are parent-local ranks; every parent member must call
        with the identical subset.  Members of the subset get the child
        communicator, everyone else gets NOT_MEMBER.
        """
        self._check_open()
        requested = [_check_rank(parent, m) for m in members]
        subset = sorted(set(requested))
        if not subset:
            raise EmptySubset()
        if len(subset) != len(requested):
            raise InvalidRank(next(m for m in requested if requested.count(m) > 1))
        world_members = tuple(sorted(parent.members[m] for m in subset))
        proposal = struct.pack(f">{len(world_members)}I", *world_members)
        self._begin_collective(parent)
        proposals = self._fan_in(parent, 0, _OP_COMM_PROPOSAL, proposal)
        result = b"\x00"  # local rank 0 decides for everyone
        if proposals is not None and all(p == proposal for p in proposals):
            result = b"\x01"
        if self._fan_out(parent, 0, _OP_COMM_RESULT, [result] * parent.size) != b"\x01":
            raise TransportError("comm_create needs an identical subset from every parent member")
        child_id = self._allocate_comm_id(parent.comm_id)
        if self.rank not in world_members:
            return NOT_MEMBER
        return Communicator(child_id, world_members, world_members.index(self.rank))

    def _allocate_comm_id(self, parent_id: int) -> int:
        # Child ids pack the ancestry into bytes: (parent << 8) | counter.
        # Every member of the parent counts the same agreed comm_creates, so
        # each allocates the same id without sending it.
        with self._lock:
            counter = self._child_counter.get(parent_id, 0) + 1
            self._child_counter[parent_id] = counter
        if counter > 0xFF or parent_id > 0xFFFFFF:
            raise TransportError("communicator nesting/fan-out exceeds the id space")
        return (parent_id << 8) | counter

    # -- lifecycle

    def finalize(self) -> None:
        """Tear down this rank's messaging. Idempotent."""
        if self._finalized:
            return
        self._finalized = True
        self._mailbox.close()
        self._backend.shutdown()


# ---------------------------------------------------------------------------
# In-process backend


class InProcessWorld:
    """All ranks as threads of one interpreter, queues in shared memory.

    The world makes every rank's context with itself (``contexts``, by rank),
    so each exists exactly once.  Delivery is a direct append to the
    destination mailbox, so messages to a finalized rank are dropped the way
    a closed socket would drop them.
    """

    def __init__(self, nprocs: int, hetero: bool = False):
        if nprocs < 1:
            raise TransportError("a world needs at least one rank")
        self._mailboxes = [Mailbox() for _ in range(nprocs)]
        self.contexts = [TransportContext(rank, nprocs, self, mailbox, hetero)
                         for rank, mailbox in enumerate(self._mailboxes)]

    def post(self, src: int, dest: int, comm_id: int, tag: int, payload, kind: int) -> None:
        # The snapshot: the sender may refill a bytearray payload once send returns.
        body = b"".join(payload) if type(payload) is Segments else bytes(payload)
        self._mailboxes[dest].put(Envelope(src, dest, comm_id, tag, body, kind))

    def shutdown(self) -> None:
        pass  # per-rank mailboxes are closed by their contexts


# ---------------------------------------------------------------------------
# Entry point: once per rank


@dataclass
class _RankState:
    """A rank's once-only state: the context a thread launcher staged, and whether init ran."""

    staged: Optional[TransportContext] = None
    initialized: bool = False


_process_state = _RankState()  # a process rank's, shared by all its threads
_thread_state = threading.local()  # .state: a thread-backend rank's, on the thread that runs it


def _rank_state() -> _RankState:
    return getattr(_thread_state, "state", _process_state)


@contextmanager
def rank_thread(ctx: Optional[TransportContext] = None):
    """Run the block as a rank of its own: its ``init`` returns ``ctx``, or else builds a world."""
    _thread_state.state = _RankState(ctx)
    try:
        yield
    finally:
        del _thread_state.state


def init(config: Optional[WorldConfig] = None) -> TransportContext:
    """Bring up this rank and connect the world; a second call raises AlreadyInitialized.

    The context is the one this thread's ``rank_thread`` staged, else a socket mesh
    rank's from ``config`` or a launcher's environment, else rank 0 of a one-rank world.
    """
    state = _rank_state()
    if state.initialized:
        raise AlreadyInitialized()
    ctx = state.staged
    if ctx is None:
        if config is None:
            config = WorldConfig.from_env()
        if config.fds:
            from .mesh import connect_mesh
            ctx = connect_mesh(config)
        elif config.my_rank_hint not in (None, 0):
            raise InvalidRank(config.my_rank_hint)
        else:
            ctx = InProcessWorld(1, config.hetero).contexts[0]
    state.initialized = True
    return ctx
