"""Buffers and descriptor-driven serialization.

Values are dynamically typed trees (:class:`Prim`, :class:`Str`,
:class:`Seq`, :class:`Rec`, :class:`Var`).  ``pack`` walks a value together
with its type descriptor and appends bytes to a :class:`Buffer`; ``unpack``
reads them back.  Two encodings exist:

* ``Encoding.NATIVE`` uses host byte order and natural scalar widths
  (``u8`` is one byte, ``bool`` is one byte, no padding).  Fast, and correct
  between peers on the same architecture.
* ``Encoding.PORTABLE`` is a machine-independent subset of the XDR rules from
  RFC 4506: everything big-endian, scalars four or eight bytes (``u8`` and
  ``bool`` widened to an unsigned four-byte word), strings and byte sequences
  length-prefixed and zero-padded to a four-byte boundary.  The portable byte
  string for a value is a pure function of descriptor and value, identical on
  every host.

A buffer is append-only on the write side; extraction never removes bytes, it
only advances the read cursor.  Successive packs concatenate, so one buffer
can carry several values and they unpack in the same order.

No type identity is written to the wire.  Sender and receiver must agree on
the type out of band, exactly as peers of a message-passing program agree on
message layout.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Union

from .idl import (
    FieldKind,
    FixedArray,
    Named,
    Primitive,
    PrimTag,
    RecordType,
    Sequence,
    TypeRegistry,
    VariantType,
    format_kind,
    parse_kind,
)

MAX_LENGTH = 2**31 - 1  # elements in a seq / bytes in a string


class Encoding(Enum):
    NATIVE = "native"
    PORTABLE = "portable"


# ---------------------------------------------------------------------------
# Errors


class PackError(Exception):
    """Base class for serialization errors."""


class SchemaMismatch(PackError):
    def __init__(self, path: str, expected: str, found: str):
        super().__init__(f"{path}: expected {expected}, found {found}")
        self.path = path
        self.expected = expected
        self.found = found


class UnknownType(PackError):
    def __init__(self, name: str):
        super().__init__(f"type {name!r} is not registered")
        self.name = name


class Truncated(PackError):
    def __init__(self, needed: int, available: int):
        super().__init__(f"buffer truncated: need {needed} bytes, have {available}")
        self.needed = needed
        self.available = available


class MalformedVariantTag(PackError):
    def __init__(self, value: int):
        super().__init__(f"variant tag {value} does not name an arm")
        self.value = value


class MalformedBool(PackError):
    def __init__(self, value: int):
        super().__init__(f"bool encoding must be 0 or 1, got {value}")
        self.value = value


class MalformedByte(PackError):
    def __init__(self, value: int):
        super().__init__(f"u8 encoding must be in 0..255, got {value}")
        self.value = value


class MalformedString(PackError):
    def __init__(self, detail: str):
        super().__init__(f"string payload is not valid UTF-8: {detail}")
        self.detail = detail


# ---------------------------------------------------------------------------
# Dynamic values


@dataclass(eq=True)
class Prim:
    tag: PrimTag
    value: Union[int, float, bool]


@dataclass(eq=True)
class Str:
    text: str


@dataclass(eq=True)
class Rec:
    type_name: str
    fields: tuple

    def __post_init__(self):
        self.fields = tuple(self.fields)


@dataclass(eq=True)
class Var:
    type_name: str
    arm: str
    payload: Optional["DynValue"] = None


class Seq:
    """An ordered sequence of values.

    ``items`` may be a list of values or, for byte sequences, a ``bytes``
    object that stands for one ``u8`` element per byte.  The compact form is
    what large payloads should use; it packs and unpacks as a single copy.
    Equality treats the two forms as interchangeable.
    """

    __slots__ = ("_items", "_raw")

    def __init__(self, items):
        if isinstance(items, (bytes, bytearray, memoryview)):
            self._raw: Optional[bytes] = bytes(items)
            self._items: Optional[list] = None
        else:
            self._raw = None
            self._items = list(items)

    @property
    def raw(self) -> Optional[bytes]:
        return self._raw

    def __len__(self) -> int:
        return len(self._raw) if self._raw is not None else len(self._items)

    def elements(self) -> Iterator["DynValue"]:
        if self._raw is not None:
            for b in self._raw:
                yield Prim(PrimTag.U8, b)
        else:
            yield from self._items

    def __eq__(self, other) -> bool:
        if not isinstance(other, Seq):
            return NotImplemented
        if self._raw is not None and other._raw is not None:
            return self._raw == other._raw
        if len(self) != len(other):
            return False
        return all(a == b for a, b in zip(self.elements(), other.elements()))

    def __repr__(self) -> str:
        if self._raw is not None:
            return f"Seq({self._raw!r})"
        return f"Seq({self._items!r})"


DynValue = Union[Prim, Str, Seq, Rec, Var]


# ---------------------------------------------------------------------------
# Buffer


class Buffer:
    """Growable byte buffer with a read cursor and a fixed encoding.

    ``data`` and ``size`` expose the exact current contents, suitable for
    writing to a file or handing to a transport.  ``reset`` empties the buffer
    without changing its encoding; extraction advances ``read_cursor`` and
    never shrinks the contents.
    """

    __slots__ = ("encoding", "_data", "_cursor")

    def __init__(self, encoding: Encoding = Encoding.NATIVE, contents: bytes = b""):
        self.encoding = encoding
        self._data = bytearray(contents)
        self._cursor = 0

    @property
    def data(self) -> bytes:
        return bytes(self._data)

    @property
    def size(self) -> int:
        return len(self._data)

    @property
    def read_cursor(self) -> int:
        return self._cursor

    @property
    def remaining(self) -> int:
        return len(self._data) - self._cursor

    def reset(self) -> "Buffer":
        self._data.clear()
        self._cursor = 0
        return self

    def load(self, payload: bytes) -> "Buffer":
        """Replace the contents entirely and rewind the cursor."""
        self._data = bytearray(payload)
        self._cursor = 0
        return self

    def append(self, raw) -> "Buffer":
        self._data += raw
        return self

    def take(self, n: int) -> bytes:
        if n > self.remaining:
            raise Truncated(n, self.remaining)
        chunk = bytes(self._data[self._cursor:self._cursor + n])
        self._cursor += n
        return chunk

    def __repr__(self) -> str:
        return f"Buffer({self.encoding.value}, size={self.size}, cursor={self._cursor})"


# ---------------------------------------------------------------------------
# Encoding tables

_HOST = "<" if sys.byteorder == "little" else ">"

_PORTABLE_FMT = {
    PrimTag.I32: ">i", PrimTag.U32: ">I",
    PrimTag.I64: ">q", PrimTag.U64: ">Q",
    PrimTag.F32: ">f", PrimTag.F64: ">d",
    PrimTag.U8: ">I", PrimTag.BOOL: ">I",
}
_NATIVE_FMT = {
    PrimTag.I32: _HOST + "i", PrimTag.U32: _HOST + "I",
    PrimTag.I64: _HOST + "q", PrimTag.U64: _HOST + "Q",
    PrimTag.F32: _HOST + "f", PrimTag.F64: _HOST + "d",
    PrimTag.U8: "B", PrimTag.BOOL: "B",
}

_INT_RANGE = {
    PrimTag.I32: (-2**31, 2**31 - 1),
    PrimTag.U32: (0, 2**32 - 1),
    PrimTag.I64: (-2**63, 2**63 - 1),
    PrimTag.U64: (0, 2**64 - 1),
    PrimTag.U8: (0, 255),
}
_FLOAT_TAGS = (PrimTag.F32, PrimTag.F64)


def _pad4(n: int) -> int:
    return (4 - n % 4) % 4


def _scalar_fmt(encoding: Encoding, tag: PrimTag) -> str:
    return (_PORTABLE_FMT if encoding is Encoding.PORTABLE else _NATIVE_FMT)[tag]


def _length_fmt(encoding: Encoding) -> str:
    return ">I" if encoding is Encoding.PORTABLE else _HOST + "I"


# ---------------------------------------------------------------------------
# Kind resolution and validation


def _as_kind(kind) -> FieldKind:
    if isinstance(kind, str):
        return parse_kind(kind)
    return kind


def infer_kind(value: DynValue) -> FieldKind:
    """Derive the field kind a value encodes as, where it is unambiguous."""
    if isinstance(value, Prim):
        return Primitive(value.tag)
    if isinstance(value, Str):
        return Primitive(PrimTag.STRING)
    if isinstance(value, (Rec, Var)):
        return Named(value.type_name)
    if isinstance(value, Seq):
        if value.raw is not None:
            return Sequence(Primitive(PrimTag.U8))
        if len(value) == 0:
            raise SchemaMismatch("$", "an explicit kind for an empty sequence", "empty sequence")
        return Sequence(infer_kind(next(value.elements())))
    raise SchemaMismatch("$", "a dynamic value", type(value).__name__)


def _f32_exact(v: float) -> bool:
    if math.isnan(v):
        return True
    try:
        return struct.unpack("<f", struct.pack("<f", v))[0] == v
    except (OverflowError, struct.error):
        return False


def _describe(value) -> str:
    if isinstance(value, Prim):
        return f"{value.tag.value} value"
    if isinstance(value, Str):
        return "string"
    if isinstance(value, Seq):
        return "byte sequence" if value.raw is not None else "sequence"
    if isinstance(value, Rec):
        return f"record {value.type_name}"
    if isinstance(value, Var):
        return f"variant {value.type_name}"
    return type(value).__name__


# ---------------------------------------------------------------------------
# Encoding


def _scalar(tag: PrimTag, value: DynValue, path: str) -> Union[int, float]:
    """Check a scalar value against ``tag`` and return the number to write."""
    if not isinstance(value, Prim) or value.tag is not tag:
        raise SchemaMismatch(path, tag.value, _describe(value))
    v = value.value
    if tag is PrimTag.BOOL:
        if not isinstance(v, bool):
            raise SchemaMismatch(path, "bool", _describe(value))
        return 1 if v else 0
    if tag in _FLOAT_TAGS:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaMismatch(path, tag.value, _describe(value))
        if tag is PrimTag.F32 and not _f32_exact(float(v)):
            raise SchemaMismatch(path, "a single-precision representable f32", repr(v))
        return v
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaMismatch(path, tag.value, _describe(value))
    lo, hi = _INT_RANGE[tag]
    if not lo <= v <= hi:
        raise SchemaMismatch(path, f"{tag.value} in [{lo}, {hi}]", str(v))
    return v


def _encode(out: bytearray, encoding: Encoding, registry: Optional[TypeRegistry],
            kind: FieldKind, value: DynValue, path: str) -> None:
    """Check each node of ``value`` against ``kind``, then append its bytes.

    A mismatch raises part-way through, after earlier nodes were written;
    ``pack`` cuts ``out`` back so the caller never sees those bytes.
    """
    if isinstance(kind, Primitive):
        tag = kind.tag
        if tag is PrimTag.STRING:
            if not isinstance(value, Str):
                raise SchemaMismatch(path, "string", _describe(value))
            try:
                payload = value.text.encode("utf-8")
            except UnicodeEncodeError:
                raise SchemaMismatch(path, "a UTF-8 encodable string", "unencodable text") from None
            if len(payload) > MAX_LENGTH:
                raise SchemaMismatch(path, f"string of at most {MAX_LENGTH} bytes", f"{len(payload)} bytes")
            out += struct.pack(_length_fmt(encoding), len(payload))
            out += payload
            if encoding is Encoding.PORTABLE:
                out += b"\x00" * _pad4(len(payload))
            return
        out += struct.pack(_scalar_fmt(encoding, tag), _scalar(tag, value, path))
        return

    if isinstance(kind, Sequence):
        if not isinstance(value, Seq):
            raise SchemaMismatch(path, f"sequence of {format_kind(kind.element)}", _describe(value))
        if len(value) > MAX_LENGTH:
            raise SchemaMismatch(path, f"sequence of at most {MAX_LENGTH} elements", f"{len(value)} elements")
        if value.raw is not None and kind.element != Primitive(PrimTag.U8):
            raise SchemaMismatch(path, f"sequence of {format_kind(kind.element)}", "byte sequence")
        out += struct.pack(_length_fmt(encoding), len(value))
        _encode_elements(out, encoding, registry, kind.element, value, path, fixed=False)
        return

    if isinstance(kind, FixedArray):
        if not isinstance(value, Seq):
            raise SchemaMismatch(path, f"array of {kind.length} elements", _describe(value))
        if len(value) != kind.length:
            raise SchemaMismatch(path, f"array of {kind.length} elements", f"{len(value)} elements")
        if value.raw is not None and kind.element != Primitive(PrimTag.U8):
            raise SchemaMismatch(path, f"array of {format_kind(kind.element)}", "byte sequence")
        _encode_elements(out, encoding, registry, kind.element, value, path, fixed=True)
        return

    assert isinstance(kind, Named)
    if registry is None or kind.type_name not in registry:
        raise UnknownType(kind.type_name)
    desc = registry.resolve(kind.type_name)
    if isinstance(desc, RecordType):
        if not isinstance(value, Rec) or value.type_name != desc.name:
            raise SchemaMismatch(path, f"record {desc.name}", _describe(value))
        if len(value.fields) != len(desc.fields):
            raise SchemaMismatch(
                path, f"{len(desc.fields)} fields for record {desc.name}", f"{len(value.fields)} fields")
        for fdesc, fval in zip(desc.fields, value.fields):
            _encode(out, encoding, registry, fdesc.kind, fval, f"{path}.{fdesc.name}")
        return
    assert isinstance(desc, VariantType)
    if not isinstance(value, Var) or value.type_name != desc.name:
        raise SchemaMismatch(path, f"variant {desc.name}", _describe(value))
    try:
        idx = desc.arm_index(value.arm)
    except KeyError:
        raise SchemaMismatch(path, f"an arm of variant {desc.name}", value.arm) from None
    arm = desc.arms[idx]
    if arm.payload is None:
        if value.payload is not None:
            raise SchemaMismatch(f"{path}.{arm.name}", "no payload", _describe(value.payload))
    elif value.payload is None:
        raise SchemaMismatch(f"{path}.{arm.name}", format_kind(arm.payload), "no payload")
    out += struct.pack(_length_fmt(encoding), idx)
    if arm.payload is not None:
        _encode(out, encoding, registry, arm.payload, value.payload, f"{path}.{arm.name}")


def _encode_elements(out: bytearray, encoding: Encoding, registry: Optional[TypeRegistry],
                     element: FieldKind, value: Seq, path: str, fixed: bool) -> None:
    # u8 elements encode the same whether the Seq stores compact bytes or a
    # list of values: native and portable seq<u8> write the raw payload (the
    # portable form padded to four bytes), while a fixed [u8; n] widens each
    # byte like any other portable scalar element.
    if isinstance(element, Primitive) and element.tag is PrimTag.U8:
        raw = value.raw if value.raw is not None else bytes(
            _scalar(PrimTag.U8, item, f"{path}[{i}]") for i, item in enumerate(value.elements()))
        if encoding is Encoding.NATIVE:
            out += raw
        elif not fixed:
            out += raw
            out += b"\x00" * _pad4(len(raw))
        else:
            out += struct.pack(f">{len(raw)}I", *raw)
        return
    if isinstance(element, Primitive) and element.tag is not PrimTag.STRING:
        tag = element.tag
        fmt = _scalar_fmt(encoding, tag)
        values = [_scalar(tag, item, f"{path}[{i}]") for i, item in enumerate(value.elements())]
        if not values:
            return
        bulk = f"{fmt[0]}{len(values)}{fmt[1]}" if len(fmt) == 2 else f"{len(values)}{fmt}"
        out += struct.pack(bulk, *values)
        return
    for i, item in enumerate(value.elements()):
        _encode(out, encoding, registry, element, item, f"{path}[{i}]")


# ---------------------------------------------------------------------------
# Decoding


def _min_encoded_size(encoding: Encoding, registry: Optional[TypeRegistry],
                      kind: FieldKind, seen: frozenset) -> int:
    """Lower bound on the encoded size of any value of ``kind``.

    Used to reject hostile length prefixes before allocating: a claimed
    element count whose minimum footprint exceeds the remaining bytes can
    never decode.  Recursion bottoms out at sequences, whose minimum is an
    empty one.
    """
    portable = encoding is Encoding.PORTABLE
    if isinstance(kind, Primitive):
        tag = kind.tag
        if tag is PrimTag.STRING:
            return 4
        if tag in (PrimTag.I64, PrimTag.U64, PrimTag.F64):
            return 8
        if tag in (PrimTag.U8, PrimTag.BOOL):
            return 4 if portable else 1
        return 4
    if isinstance(kind, Sequence):
        return 4
    if isinstance(kind, FixedArray):
        return kind.length * _min_encoded_size(encoding, registry, kind.element, seen)
    assert isinstance(kind, Named)
    if kind.type_name in seen or registry is None or kind.type_name not in registry:
        return 0
    seen = seen | {kind.type_name}
    desc = registry.resolve(kind.type_name)
    if isinstance(desc, RecordType):
        return sum(_min_encoded_size(encoding, registry, f.kind, seen) for f in desc.fields)
    sizes = [0 if a.payload is None else _min_encoded_size(encoding, registry, a.payload, seen)
             for a in desc.arms]
    return 4 + min(sizes)


def _take_scalar(buf: Buffer, fmt: str):
    return struct.unpack(fmt, buf.take(struct.calcsize(fmt)))[0]


def _decode(buf: Buffer, registry: Optional[TypeRegistry], kind: FieldKind) -> DynValue:
    encoding = buf.encoding
    if isinstance(kind, Primitive):
        tag = kind.tag
        if tag is PrimTag.STRING:
            payload = _take_padded(buf, _take_scalar(buf, _length_fmt(encoding)))
            try:
                return Str(payload.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise MalformedString(str(exc)) from None
        v = _take_scalar(buf, _scalar_fmt(encoding, tag))
        if tag is PrimTag.BOOL:
            if v not in (0, 1):
                raise MalformedBool(v)
            return Prim(tag, bool(v))
        if tag is PrimTag.U8 and v > 255:
            raise MalformedByte(v)
        return Prim(tag, v)

    if isinstance(kind, Sequence):
        count = _take_scalar(buf, _length_fmt(encoding))
        if count > MAX_LENGTH:
            raise PackError(f"sequence count {count} exceeds the {MAX_LENGTH} element maximum")
        if not (isinstance(kind.element, Primitive) and kind.element.tag is PrimTag.U8):
            # Reject hostile counts before allocating.  Byte sequences skip
            # this: their payload is count bytes plus padding, checked
            # exactly in _decode_elements.  Zero-size elements (records with
            # no fields) are exempt; the count cap above still bounds them.
            per_element = _min_encoded_size(encoding, registry, kind.element, frozenset())
            if per_element and count * per_element > buf.remaining:
                raise Truncated(count * per_element, buf.remaining)
        return _decode_elements(buf, registry, kind.element, count, fixed=False)

    if isinstance(kind, FixedArray):
        return _decode_elements(buf, registry, kind.element, kind.length, fixed=True)

    assert isinstance(kind, Named)
    if registry is None or kind.type_name not in registry:
        raise UnknownType(kind.type_name)
    desc = registry.resolve(kind.type_name)
    if isinstance(desc, RecordType):
        fields = [_decode(buf, registry, f.kind) for f in desc.fields]
        return Rec(desc.name, fields)
    idx = _take_scalar(buf, _length_fmt(encoding))
    if idx >= len(desc.arms):
        raise MalformedVariantTag(idx)
    arm = desc.arms[idx]
    payload = None if arm.payload is None else _decode(buf, registry, arm.payload)
    return Var(desc.name, arm.name, payload)


def _take_padded(buf: Buffer, n: int) -> bytes:
    """Take an ``n``-byte payload and, when portable, its zero pad to four bytes."""
    pad = _pad4(n) if buf.encoding is Encoding.PORTABLE else 0
    if n + pad > buf.remaining:
        raise Truncated(n + pad, buf.remaining)
    payload = buf.take(n)
    if pad:
        buf.take(pad)
    return payload


def _decode_elements(buf: Buffer, registry: Optional[TypeRegistry],
                     element: FieldKind, count: int, fixed: bool) -> Seq:
    encoding = buf.encoding
    if isinstance(element, Primitive) and element.tag is PrimTag.U8:
        if encoding is Encoding.NATIVE or not fixed:
            return Seq(_take_padded(buf, count))
        words = struct.unpack(f">{count}I", buf.take(4 * count))
        bad = [w for w in words if w > 255]
        if bad:
            raise MalformedByte(bad[0])
        return Seq(bytes(words))
    if isinstance(element, Primitive) and element.tag is not PrimTag.STRING:
        tag = element.tag
        fmt = _scalar_fmt(encoding, tag)
        unit = struct.calcsize(fmt)
        bulk = f"{fmt[0]}{count}{fmt[1]}" if len(fmt) == 2 else f"{count}{fmt}"
        values = struct.unpack(bulk, buf.take(unit * count)) if count else ()
        if tag is PrimTag.BOOL:
            bad = [v for v in values if v not in (0, 1)]
            if bad:
                raise MalformedBool(bad[0])
            return Seq([Prim(tag, bool(v)) for v in values])
        return Seq([Prim(tag, v) for v in values])
    return Seq([_decode(buf, registry, element) for _ in range(count)])


# ---------------------------------------------------------------------------
# Public API


def pack(buf: Buffer, value: DynValue, kind=None,
         registry: Optional[TypeRegistry] = None) -> Buffer:
    """Validate ``value`` against ``kind`` and append its encoding to ``buf``.

    ``kind`` may be a field kind, a kind expression such as ``"seq<i32>"``,
    or ``None`` to infer the kind from the value itself.  A rejected value
    leaves the buffer untouched, and so does a value nested too deeply to
    walk, which raises :class:`PackError`.
    """
    start = len(buf._data)
    try:
        k = _as_kind(kind) if kind is not None else infer_kind(value)
        _encode(buf._data, buf.encoding, registry, k, value, "$")
    except RecursionError:
        del buf._data[start:]
        raise PackError("value is nested too deeply to encode") from None
    except BaseException:
        del buf._data[start:]
        raise
    return buf


def unpack(buf: Buffer, kind, registry: Optional[TypeRegistry] = None) -> DynValue:
    """Decode one value of ``kind`` from the buffer, advancing the cursor.

    Malformed or hostile bytes raise a :class:`PackError` subclass; bytes
    nested too deeply to walk raise :class:`PackError` itself.
    """
    try:
        return _decode(buf, registry, _as_kind(kind))
    except RecursionError:
        raise PackError("encoded value is nested too deeply to decode") from None


def encode_value(value: DynValue, encoding: Encoding, kind=None,
                 registry: Optional[TypeRegistry] = None) -> bytes:
    """Pack a single value into a fresh buffer and return the bytes."""
    return pack(Buffer(encoding), value, kind, registry).data


def decode_value(payload: bytes, encoding: Encoding, kind,
                 registry: Optional[TypeRegistry] = None) -> DynValue:
    """Decode a single value from raw bytes."""
    return unpack(Buffer(encoding, payload), kind, registry)
