"""Master-slave task farm on top of the transport layer.

Rank 0 owns a MasterPool; every other rank runs slave_loop. Work requests
travel as frames on tag 1: a big-endian u32 handler selector followed by
packed arguments. The slave invokes the handler with the arguments in a
MsgBuf; whatever the handler leaves in that buffer is shipped back as the
reply. The reserved selector STOP tells a slave to leave its loop.

A reply is a status byte, the request frame's SHA-256 digest (its receipt,
which the master logs as the reply arrives) and a body. The answer to STOP
and the reply to a frame too short for a selector carry no receipt.

Both sides must register the same handler table. A digest of the selector
names is exchanged at startup (broadcast from rank 0, acknowledgements
gathered back) so that a mismatched table is caught before any request is
dispatched.
"""

import hashlib
import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .msgbuf import MsgBuf
from .transport import ANY, TransportContext

STOP = 0xFFFFFFFF
FARM_TAG = 1

_SELECTOR = struct.Struct(">I")

# reply status bytes
_REPLY_OK = 0
_REPLY_HANDLER_ERROR = 1
_REPLY_UNKNOWN_SELECTOR = 2
_REPLY_STOPPED = 3
_REPLY_SHORT_FRAME = 4

_RECEIPT_SIZE = hashlib.sha256().digest_size


class SlaveError(Exception):
    """Base class for task farm failures."""


class DuplicateSelector(SlaveError):
    def __init__(self, name: str) -> None:
        super().__init__(f"selector {name!r} registered twice")
        self.name = name


class TableMismatch(SlaveError):
    """Master and slave handler tables disagree."""

    def __init__(self, ranks: Sequence[int]) -> None:
        listed = ", ".join(str(r) for r in ranks)
        super().__init__(f"handler table mismatch on rank(s) {listed}")
        self.ranks = tuple(ranks)


class NoIdleSlave(SlaveError):
    def __init__(self) -> None:
        super().__init__("all slaves are busy")


class NoOutstanding(SlaveError):
    def __init__(self) -> None:
        super().__init__("no outstanding request to wait for")


class NoSlaves(SlaveError):
    def __init__(self) -> None:
        super().__init__("task farm needs at least one slave")


class HandlerError(SlaveError):
    """A slave reported a failed or unknown request.

    job is filled in by run_joblist so callers can tell which job died.
    """

    def __init__(self, slave: int, diagnostic: str, job: Optional[int] = None) -> None:
        super().__init__(f"slave {slave}: {diagnostic}")
        self.slave = slave
        self.diagnostic = diagnostic
        self.job = job


Handler = Callable[[MsgBuf], object]


class HandlerTable:
    """Ordered registry of named handlers.

    The selector wired into each request frame is the registration index,
    so master and slaves must register the same names in the same order.
    """

    def __init__(self) -> None:
        self._entries: List[Tuple[str, Handler]] = []
        self._index: Dict[str, int] = {}

    def register(self, name: str, fn: Handler) -> int:
        if name in self._index:
            raise DuplicateSelector(name)
        index = self._index[name] = len(self._entries)
        self._entries.append((name, fn))
        return index

    def handler(self, name: str) -> Callable[[Handler], Handler]:
        """Decorator form of register."""

        def wrap(fn: Handler) -> Handler:
            self.register(name, fn)
            return fn

        return wrap

    def selector(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SlaveError(f"no handler registered under {name!r}") from None

    def lookup(self, index: int) -> Tuple[str, Handler]:
        return self._entries[index]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self._entries)

    def digest(self) -> bytes:
        h = hashlib.sha256()
        for name in self.names:
            h.update(name.encode("utf-8"))
            h.update(b"\x00")
        return h.digest()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._index


def request_frame(selector: int, args: bytes = b"") -> bytes:
    """Build the wire form of one work request."""
    return _SELECTOR.pack(selector) + args


def _context_of(ctx_or_spmd) -> TransportContext:
    ctx = getattr(ctx_or_spmd, "transport", ctx_or_spmd)
    if not isinstance(ctx, TransportContext):
        raise TypeError("expected a TransportContext or an active spmd context")
    return ctx


def _exchange_digest(ctx: TransportContext, table: HandlerTable) -> List[int]:
    """Run the startup digest handshake. Returns mismatched ranks (rank 0 view)."""
    world = ctx.world
    digest = table.digest()
    master_digest = ctx.broadcast(world, 0, digest)
    ok = b"\x01" if master_digest == digest else b"\x00"
    acks = ctx.gather(world, 0, ok)
    if ctx.rank == 0:
        return [rank for rank, ack in enumerate(acks) if ack != b"\x01"]
    if ok != b"\x01":
        raise TableMismatch([ctx.rank])
    return []


def slave_loop(sctx, table: HandlerTable) -> int:
    """Serve requests from rank 0 until a STOP frame arrives.

    A handler receives the packed arguments in a MsgBuf and leaves its
    reply in the same buffer (unpack, reset, repack). Handler exceptions
    and unknown selectors are reported to the master as error replies;
    the loop keeps serving either way. Returns the number of requests
    handled.
    """
    ctx = _context_of(sctx)
    if ctx.rank == 0:
        raise SlaveError("rank 0 is the master, not a slave")
    _exchange_digest(ctx, table)

    world = ctx.world

    def reply(status: int, body: bytes = b"") -> None:
        ctx.send(world, 0, FARM_TAG, bytes([status]) + receipt + body)

    handled = 0
    while True:
        _, _, payload = ctx.recv(world, source=0, tag=FARM_TAG)
        receipt = b""  # STOP and a short frame are answered without one
        if len(payload) < _SELECTOR.size:
            reply(_REPLY_SHORT_FRAME, b"short request frame")
            continue
        (selector,) = _SELECTOR.unpack_from(payload)
        if selector == STOP:
            break
        receipt = hashlib.sha256(payload).digest()
        if selector >= len(table):
            reply(_REPLY_UNKNOWN_SELECTOR, f"unknown selector {selector}".encode("utf-8"))
            continue
        _, fn = table.lookup(selector)
        buf = MsgBuf(ctx)
        buf.load(payload[_SELECTOR.size:])
        try:
            fn(buf)
        except Exception as exc:
            diagnostic = f"{type(exc).__name__}: {exc}"  # a lone surrogate is escaped, not fatal
            reply(_REPLY_HANDLER_ERROR, diagnostic.encode("utf-8", "backslashreplace"))
            continue
        reply(_REPLY_OK, buf.data)
        handled += 1
    reply(_REPLY_STOPPED)
    return handled


class MasterPool:
    """Rank 0 scheduler for the task farm.

    Tracks which slaves are idle, dispatches requests to the lowest idle
    rank, and collects replies in completion order. Use as a context
    manager so shutdown always runs: it sends STOP to every slave, reads
    every outstanding reply on the way to each STOP answer, and publishes
    the per-slave receipt logs it kept.
    """

    def __init__(self, sctx, table: HandlerTable) -> None:
        ctx = _context_of(sctx)
        if ctx.rank != 0:
            raise SlaveError("the master pool lives on rank 0")
        self._ctx = ctx
        self._table = table
        self._slaves = tuple(range(1, ctx.nprocs))
        self._idle = set(self._slaves)
        self._done = False
        self._receipts: Dict[int, List[bytes]] = {rank: [] for rank in self._slaves}
        self.receipts: Dict[int, List[bytes]] = {}  # filled at shutdown
        bad = _exchange_digest(ctx, table)
        if bad:
            # stop the slaves that did agree, then report the rest
            good = [r for r in self._slaves if r not in bad]
            self._stop_ranks(good)
            self._done = True
            raise TableMismatch(bad)

    @property
    def nslaves(self) -> int:
        return len(self._slaves)

    @property
    def outstanding(self) -> int:
        return len(self._slaves) - len(self._idle)

    def all_idle(self) -> bool:
        return self.outstanding == 0

    def request(self, name: str) -> MsgBuf:
        """Start a request frame: a MsgBuf primed with the named selector."""
        buf = MsgBuf(self._ctx)
        buf.append(_SELECTOR.pack(self._table.selector(name)))
        return buf

    def exec(self, request: Union[MsgBuf, bytes]) -> int:
        """Dispatch one request to the lowest idle slave. Returns its rank."""
        if self._done:
            raise SlaveError("pool is shut down")
        if not self._idle:
            raise NoIdleSlave()
        if isinstance(request, MsgBuf):
            frame = request.data
            request.reset()
        else:
            frame = bytes(request)
        if len(frame) < _SELECTOR.size:
            raise SlaveError("request frame is missing its selector")
        rank = min(self._idle)
        self._ctx.send(self._ctx.world, rank, FARM_TAG, frame)
        self._idle.discard(rank)
        return rank

    def get_returnv(self) -> Tuple[int, MsgBuf]:
        """Wait for any reply. Returns (slave rank, reply buffer).

        The slave is marked idle again whether the reply was a result or
        an error; errors surface as HandlerError.
        """
        if self.outstanding == 0:
            raise NoOutstanding()
        src, status, body = self._reply()
        self._idle.add(src)
        if status == _REPLY_OK:
            buf = MsgBuf(self._ctx)
            buf.load(body)
            return src, buf
        raise HandlerError(src, body.decode("utf-8", "replace"))

    def _reply(self) -> Tuple[int, int, bytes]:
        """Receive any reply and log its receipt. Returns (slave, status, body)."""
        src, _, payload = self._ctx.recv(self._ctx.world, source=ANY, tag=FARM_TAG)
        status = payload[0]
        if status in (_REPLY_STOPPED, _REPLY_SHORT_FRAME):
            return src, status, payload[1:]
        self._receipts[src].append(payload[1:1 + _RECEIPT_SIZE])
        return src, status, payload[1 + _RECEIPT_SIZE:]

    def _stop_ranks(self, ranks: Sequence[int]) -> None:
        stop = _SELECTOR.pack(STOP)
        for rank in ranks:
            self._ctx.send(self._ctx.world, rank, FARM_TAG, stop)
        running = set(ranks)
        while running:  # a slave answers in order: replies in flight log their receipts first
            src, status, _ = self._reply()
            if status == _REPLY_STOPPED:
                running.discard(src)
        self._idle.update(ranks)
        self.receipts = self._receipts

    def shutdown(self) -> None:
        """Stop every slave, reading each outstanding reply, and collect receipts.

        Idempotent. A late reply only logs its receipt, error or not,
        because teardown must reach every slave.
        """
        if self._done:
            return
        self._stop_ranks(self._slaves)
        self._done = True

    def run_joblist(self, name: str, jobs: Sequence[Union[MsgBuf, bytes]]) -> List[MsgBuf]:
        """Fan a list of argument payloads over the slaves.

        Dispatches each job exactly once, keeping every slave busy while
        jobs remain, and returns replies ordered by job index. A failed
        job raises HandlerError with .job set to its index. The pool must
        have no request in flight: otherwise SlaveError is raised and
        nothing is dispatched, and get_returnv still collects those replies.
        """
        if self.outstanding:
            raise SlaveError(f"run_joblist needs an idle pool; {self.outstanding} request(s) in flight")
        jobs = list(jobs)
        if not jobs:
            return []
        if not self._slaves:
            raise NoSlaves()
        selector = self._table.selector(name)
        frames = []
        for job in jobs:
            args = job.data if isinstance(job, MsgBuf) else bytes(job)
            frames.append(request_frame(selector, args))
        replies: List[Optional[MsgBuf]] = [None] * len(frames)
        job_of: Dict[int, int] = {}
        next_job = 0
        while next_job < len(frames) and self._idle:
            job_of[self.exec(frames[next_job])] = next_job
            next_job += 1
        while self.outstanding:
            try:
                rank, reply = self.get_returnv()
            except HandlerError as exc:
                exc.job = job_of.get(exc.slave)
                raise
            replies[job_of.pop(rank)] = reply
            if next_job < len(frames):
                job_of[self.exec(frames[next_job])] = next_job
                next_job += 1
        return replies  # type: ignore[return-value]

    def __enter__(self) -> "MasterPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
