"""Message buffers: serialization and communication in one chainable flow.

A :class:`MsgBuf` is a pack buffer bound to a communicator.  Values are
packed in, then a manipulator-style call moves the bytes: ``send`` ships the
contents to a peer and leaves the buffer clean for the next message, ``get``
replaces the contents with a received payload ready for unpacking, and
``bcast``/``gather``/``scatter`` do the same over collectives.  The chain
reads like a C++ stream::

    buf.put_i32(a).put_f64(b).send(1)          # buf << a << b << send(1)
    x = buf.get().take_i32()                   # buf.get() >> x

Buffers default to the native encoding; a heterogeneous world (one whose
ranks may differ in architecture) switches every buffer to the portable
encoding.  The launcher decides it once for the whole world and hands the
same choice to every rank, so no two ranks of a world encode differently.
"""

from __future__ import annotations

import struct
from typing import Optional

from .idl import PrimTag, TypeRegistry
from .pack import MAX_LENGTH, Buffer, DynValue, Encoding, Prim, Seq, Str, pack, unpack
from .transport import ANY, Communicator, TransportContext, TransportError
from .wire import Segments


# hot paths name these members directly: reading one through its Enum class is slow
_I32, _U32, _I64, _F64, _BOOL = PrimTag.I32, PrimTag.U32, PrimTag.I64, PrimTag.F64, PrimTag.BOOL
_NATIVE, _PORTABLE = Encoding.NATIVE, Encoding.PORTABLE
BY_REFERENCE = 64 << 10  # put_bytes keeps a bytes object at least this long by reference


class MalformedSegmentTable(TransportError):
    def __init__(self, detail: str):
        super().__init__(f"scatter segment table is malformed: {detail}")
        self.detail = detail


def _parse_segments(data: bytes) -> list[bytes]:
    segments = []
    i = 0
    while i < len(data):
        if i + 4 > len(data):
            raise MalformedSegmentTable("truncated length prefix")
        (n,) = struct.unpack_from(">I", data, i)
        i += 4
        if i + n > len(data):
            raise MalformedSegmentTable(f"segment of {n} bytes overruns the table")
        segments.append(data[i:i + n])
        i += n
    return segments


class MsgBuf:
    """A communicator-bound buffer with chainable pack and transfer calls."""

    def __init__(self, ctx: TransportContext, registry: Optional[TypeRegistry] = None,
                 comm: Optional[Communicator] = None):
        self._ctx = ctx
        self._registry = registry
        self.comm = comm if comm is not None else ctx.world
        self._buf = Buffer(_PORTABLE if ctx.hetero else _NATIVE)
        self._held = ()  # the message's pieces before the buffer's own bytes: see put_bytes
        self.last_source: Optional[int] = None

    # -- buffer views

    @property
    def encoding(self) -> Encoding:
        return self._buf.encoding

    @property
    def data(self) -> bytes:
        return bytes(self._joined())

    @property
    def size(self) -> int:
        return self._buf.size + sum(map(len, self._held)) if self._held else self._buf.size

    @property
    def remaining(self) -> int:
        return self.size - self._buf.read_cursor

    def _joined(self):
        """The whole contents in the buffer, the held pieces joined in front; returns them."""
        if self._held:
            self._buf._data = b"".join((*self._held, self._buf._data))
            self._held = ()
        return self._buf._data

    def reset(self) -> "MsgBuf":
        self._buf.reset()
        self._held = ()
        return self

    def load(self, payload: bytes) -> "MsgBuf":
        self._buf.load(payload)
        self._held = ()
        return self

    def append(self, raw: bytes) -> "MsgBuf":
        """Append raw bytes without validation (framing escape hatch)."""
        self._buf.append(raw)
        return self

    # -- packing

    def put(self, value: DynValue, kind=None) -> "MsgBuf":
        pack(self._buf, value, kind, self._registry)
        return self

    def take(self, kind) -> DynValue:
        if self._held:
            self._joined()
        return unpack(self._buf, kind, self._registry)

    def put_i32(self, v: int) -> "MsgBuf":
        return self.put(Prim(_I32, v), "i32")

    def put_u32(self, v: int) -> "MsgBuf":
        return self.put(Prim(_U32, v), "u32")

    def put_i64(self, v: int) -> "MsgBuf":
        return self.put(Prim(_I64, v), "i64")

    def put_f64(self, v: float) -> "MsgBuf":
        return self.put(Prim(_F64, v), "f64")

    def put_bool(self, v: bool) -> "MsgBuf":
        return self.put(Prim(_BOOL, v), "bool")

    def put_str(self, v: str) -> "MsgBuf":
        return self.put(Str(v), "string")

    def put_bytes(self, v: bytes) -> "MsgBuf":
        """Pack a ``seq<u8>``; ``bytes`` of at least ``BY_REFERENCE`` bytes go by reference."""
        if type(v) is not bytes or not BY_REFERENCE <= len(v) <= MAX_LENGTH:
            return self.put(Seq(v), "seq<u8>")
        self.put_u32(len(v))  # a seq<u8>'s length prefix, in either encoding
        self._held += (self._buf._data, v)  # the buffer's own bytes follow v, a portable pad first
        self._buf._data = bytearray(-len(v) % 4 if self._buf.encoding is _PORTABLE else 0)
        return self

    def take_i32(self) -> int:
        return self.take("i32").value

    def take_u32(self) -> int:
        return self.take("u32").value

    def take_i64(self) -> int:
        return self.take("i64").value

    def take_f64(self) -> float:
        return self.take("f64").value

    def take_bool(self) -> bool:
        return self.take("bool").value

    def take_str(self) -> str:
        return self.take("string").text

    def take_bytes(self) -> bytes:
        return self.take("seq<u8>").raw

    # -- transfers

    def send(self, dest: int, tag: int = 0) -> "MsgBuf":
        """Ship the buffer contents to ``dest`` and reset for the next message."""
        payload = Segments((*self._held, self._buf._data)) if self._held else self._buf._data
        self._ctx.send(self.comm, dest, tag, payload)  # sent in place, no snapshot
        self.reset()
        return self

    def get(self, source=ANY, tag=0, timeout: Optional[float] = None) -> "MsgBuf":
        """Replace the contents with one matching message, ready to unpack."""
        src, _tag, payload = self._ctx.recv(self.comm, source, tag, timeout)
        self.load(payload)
        self.last_source = src
        return self

    def bcast(self, root: int) -> "MsgBuf":
        """Broadcast root's bytes; every member ends up ready to unpack them."""
        mine = self.data if self.comm.local_rank == root else None
        return self.load(self._ctx.broadcast(self.comm, root, mine))

    def gather(self, root: int) -> "MsgBuf":
        """Concatenate members' bytes at root in local-rank order; others reset."""
        parts = self._ctx.gather(self.comm, root, self._joined())
        return self.reset() if parts is None else self.load(b"".join(parts))

    def scatter(self, root: int) -> "MsgBuf":
        """Slice root's segment table across the members.

        Root's buffer must hold one length-prefixed segment per member (see
        :meth:`pack_segment`); member i ends up with segment i's bytes.
        """
        if self.comm.local_rank == root:
            return self.load(self._ctx.scatter(self.comm, root, _parse_segments(self.data)))
        return self.load(self._ctx.scatter(self.comm, root))

    def pack_segment(self, payload) -> "MsgBuf":
        """Append one scatter segment: u32 big-endian length, then the bytes."""
        raw = payload.data if isinstance(payload, (Buffer, MsgBuf)) else bytes(payload)
        self._buf.append(struct.pack(">I", len(raw)))
        self._buf.append(raw)
        return self

    def __repr__(self) -> str:
        return (f"MsgBuf(rank={self._ctx.rank}, comm={self.comm.comm_id}, "
                f"{self._buf.encoding.value}, size={self.size})")
