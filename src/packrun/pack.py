"""Buffers and descriptor-driven serialization.

Values are dynamically typed trees (:class:`Prim`, :class:`Str`,
:class:`Seq`, :class:`Rec`, :class:`Var`).  ``pack`` checks a value against
a type descriptor and appends its bytes to a :class:`Buffer`; ``unpack``
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

Each kind is compiled once per encoding into a pair of closures and its
fewest encoded bytes, cached per :class:`TypeRegistry` under the kind as
given (``register`` empties the cache); a ``seq<T>`` compiles its elements
on its first use.  The encoder checks each node and appends its bytes; the
decoder reads at an offset with precompiled structs.  A path such as
``$.samples[3].weight`` is spelled out only for a failure.

Besides a list of values, a :class:`Seq` has two compact forms: ``bytes``
for ``u8``, and an ``array.array`` for ``i32``, ``u32``, ``i64``, ``u64``,
``f32`` and ``f64``.  Those sequences decode into the compact form in one
step (one ``byteswap`` for portable data on a little-endian host), and the
compact form packs in one copy.

A buffer is append-only on the write side; extraction never removes bytes, it
only advances the read cursor.  Successive packs concatenate, so one buffer
can carry several values and they unpack in the same order.

No type identity is written to the wire.  Sender and receiver must agree on
the type out of band, exactly as peers of a message-passing program agree on
message layout.
"""

from __future__ import annotations

import math
import operator
import struct
import sys
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import partial
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


class _Mismatch(Exception):
    """A :class:`SchemaMismatch` whose enclosing nodes append their path steps."""

    def __init__(self, expected: str, found, step: Optional[str] = None):
        self.expected = expected
        self.found = found
        self.steps = [step] if step else []


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


# array typecodes of the compact numeric forms, each as wide as its tag on the wire
_ARRAY_TAG = {"i": PrimTag.I32, "I": PrimTag.U32, "q": PrimTag.I64,
              "Q": PrimTag.U64, "f": PrimTag.F32, "d": PrimTag.F64}


class Seq:
    """An ordered sequence of values.

    ``items`` is a list of values or a compact form, which is copied: a
    ``bytes``-like object (one ``u8`` per byte) or an ``array.array`` of
    typecode ``i``, ``I``, ``q``, ``Q``, ``f`` or ``d`` (one ``i32``, ``u32``,
    ``i64``, ``u64``, ``f32`` or ``f64`` per item).  An array of another
    typecode counts as a list of its numbers.  Compact forms pack and unpack
    in bulk; equality compares element by element across forms.
    """

    __slots__ = ("_items",)

    def __init__(self, items):
        if isinstance(items, (bytes, bytearray, memoryview)):
            self._items = bytes(items)
        elif isinstance(items, array) and items.typecode in _ARRAY_TAG:
            self._items = array(items.typecode, items)
        else:
            self._items = list(items)

    @classmethod
    def _wrap(cls, items) -> "Seq":
        """A Seq that takes ``items`` (a list, bytes or a compact array) without a copy."""
        seq = cls.__new__(cls)
        seq._items = items
        return seq

    @property
    def raw(self) -> Optional[bytes]:
        return self._items if type(self._items) is bytes else None

    @property
    def array(self) -> Optional[array]:
        return self._items if type(self._items) is array else None

    def __len__(self) -> int:
        return len(self._items)

    def elements(self) -> Iterator["DynValue"]:
        if type(self._items) is list:
            return iter(self._items)
        tag = _compact_tag(self._items)
        return (Prim(tag, v) for v in self._items)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Seq):
            return NotImplemented
        a, b = self._items, other._items
        if len(a) != len(b):
            return False
        if type(a) is list and type(b) is list:
            return all(map(operator.eq, a, b))
        if type(a) is not list and type(b) is not list:
            return not a or (_compact_tag(a) is _compact_tag(b) and a == b)
        compact, items = (b, a) if type(a) is list else (a, b)
        # Prim equality with each compact element, without building the Prims
        tag = _compact_tag(compact)
        values = [p.value for p in items if p.__class__ is Prim and tag == p.tag]
        return len(values) == len(items) and list(compact) == values

    def __repr__(self) -> str:
        return f"Seq({self._items!r})"


def _compact_tag(items) -> PrimTag:
    return _U8 if type(items) is bytes else _ARRAY_TAG[items.typecode]


DynValue = Union[Prim, Str, Seq, Rec, Var]


# ---------------------------------------------------------------------------
# Buffer


class Buffer:
    """Growable byte buffer with a read cursor and a fixed encoding.

    ``data`` and ``size`` expose the exact current contents, suitable for
    writing to a file or handing to a transport.  ``reset`` empties the buffer
    without changing its encoding; extraction advances ``read_cursor`` and
    never shrinks the contents.

    ``load`` and the constructor adopt a ``bytes`` object without copying it,
    so a received payload is unpacked where it lies; the first write
    (``pack`` or ``append``) copies it into a ``bytearray`` of the buffer's
    own.  Any other contents are copied at once.
    """

    __slots__ = ("encoding", "_data", "_cursor")

    def __init__(self, encoding: Encoding = Encoding.NATIVE, contents: bytes = b""):
        self.encoding = encoding
        self._data = contents if type(contents) is bytes else bytearray(contents)
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
        self._data = bytearray()
        self._cursor = 0
        return self

    def load(self, payload: bytes) -> "Buffer":
        """Replace the contents entirely and rewind the cursor."""
        self._data = payload if type(payload) is bytes else bytearray(payload)
        self._cursor = 0
        return self

    def _writable(self) -> bytearray:
        """The contents as a bytearray of this buffer's own, copied on the first write."""
        if type(self._data) is not bytearray:
            self._data = bytearray(self._data)
        return self._data

    def append(self, raw) -> "Buffer":
        out = self._writable()
        out += raw
        return self

    def __repr__(self) -> str:
        return f"Buffer({self.encoding.value}, size={self.size}, cursor={self._cursor})"


# ---------------------------------------------------------------------------
# Encoding tables

_HOST = "<" if sys.byteorder == "little" else ">"
# struct (and array.array) code of each scalar; portable widens u8 and bool to "I"
_CODE = {PrimTag.I32: "i", PrimTag.U32: "I", PrimTag.I64: "q", PrimTag.U64: "Q",
         PrimTag.F32: "f", PrimTag.F64: "d", PrimTag.U8: "B", PrimTag.BOOL: "B"}

_INT_RANGE = {
    PrimTag.I32: (-2**31, 2**31 - 1),
    PrimTag.U32: (0, 2**32 - 1),
    PrimTag.I64: (-2**63, 2**63 - 1),
    PrimTag.U64: (0, 2**64 - 1),
    PrimTag.U8: (0, 255),
}
# hot paths name these members directly: reading one through its Enum class is slow
_BOOL, _U8, _F32, _F64, _PORTABLE = (
    PrimTag.BOOL, PrimTag.U8, PrimTag.F32, PrimTag.F64, Encoding.PORTABLE)
_ZERO_PAD = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")  # the pad of a length n is -n % 4 bytes


def _scalar_fmt(encoding: Encoding, tag: PrimTag) -> str:
    """Byte order and struct code of ``tag``; ``u32``'s is also the length prefix's."""
    if encoding is Encoding.NATIVE:
        return _HOST + _CODE[tag]
    return ">I" if tag in (PrimTag.U8, PrimTag.BOOL) else ">" + _CODE[tag]


# ---------------------------------------------------------------------------
# Value checks


# one object per kind, so a codec cache lookup finds it by identity
_INFERRED = {tag: (Primitive(tag), Sequence(Primitive(tag))) for tag in PrimTag}


def infer_kind(value: DynValue) -> FieldKind:
    """Derive the field kind a value encodes as, where it is unambiguous."""
    if isinstance(value, Prim):
        try:
            return _INFERRED[value.tag][0]
        except (KeyError, TypeError):  # not a PrimTag, or not even hashable
            raise SchemaMismatch("$", "a primitive tag", repr(value.tag)) from None
    if isinstance(value, Str):
        return _INFERRED[PrimTag.STRING][0]
    if isinstance(value, (Rec, Var)):
        return Named(value.type_name)
    if isinstance(value, Seq):
        if value.raw is not None or value.array is not None:
            return _INFERRED[_compact_tag(value._items)][1]
        if len(value) == 0:
            raise SchemaMismatch("$", "an explicit kind for an empty sequence", "empty sequence")
        return Sequence(infer_kind(next(value.elements())))
    raise SchemaMismatch("$", "a dynamic value", type(value).__name__)


def _f32_exact(v: float) -> bool:
    try:
        return math.isnan(v) or struct.unpack("<f", struct.pack("<f", v))[0] == v
    except (OverflowError, struct.error):
        return False


def _describe(value) -> str:
    if isinstance(value, Prim):
        tag = value.tag
        return f"{tag.value} value" if isinstance(tag, PrimTag) else f"value tagged {tag!r}"
    if isinstance(value, Str):
        return "string"
    if isinstance(value, Seq):
        return "byte sequence" if value.raw is not None else "sequence"
    if isinstance(value, Rec):
        return f"record {value.type_name}"
    if isinstance(value, Var):
        return f"variant {value.type_name}"
    return type(value).__name__


def _scalar(tag: PrimTag, value: DynValue) -> Union[int, float]:
    """Check a scalar value against ``tag`` and return the number to write."""
    if not isinstance(value, Prim) or value.tag is not tag:
        raise _Mismatch(tag.value, _describe(value))
    v = value.value
    if tag is _BOOL:
        if not isinstance(v, bool):
            raise _Mismatch("bool", _describe(value))
        return 1 if v else 0
    if tag is _F32 or tag is _F64:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise _Mismatch(tag.value, _describe(value))
        if v.__class__ is not float:  # an int may be too large for any float
            try:
                float(v)
            except OverflowError:
                raise _Mismatch(f"{tag.value} in range", f"{v.bit_length()}-bit integer") from None
        if tag is _F32 and not _f32_exact(float(v)):
            raise _Mismatch("a single-precision representable f32", repr(v))
        return v
    if isinstance(v, bool) or not isinstance(v, int):
        raise _Mismatch(tag.value, _describe(value))
    lo, hi = _INT_RANGE[tag]
    if not lo <= v <= hi:
        raise _Mismatch(f"{tag.value} in [{lo}, {hi}]", str(v))
    return v


def _numbers(tag: PrimTag, seq: Seq) -> list:
    """Check each element of ``seq`` against scalar ``tag``; return the numbers to write."""
    items = seq._items
    if type(items) is list and tag is not _F32:
        # one pass for the common case; anything unusual takes the checked loop,
        # f64 ints too, since one may be too large for a float
        plain = (int,) if tag in _INT_RANGE else (float,) if tag is _F64 else (bool,)
        values = [p.value for p in items
                  if p.__class__ is Prim and p.tag is tag and p.value.__class__ in plain]
        lo, hi = _INT_RANGE.get(tag, (None, None))
        if len(values) == len(items) and (lo is None or not values
                                          or lo <= min(values) and max(values) <= hi):
            return values
    values = []
    for i, item in enumerate(seq.elements()):
        try:
            values.append(_scalar(tag, item))
        except _Mismatch as exc:
            exc.steps.append(f"[{i}]")
            raise
    return values


# ---------------------------------------------------------------------------
# Codecs: ``enc(out, value)`` checks a value and appends its bytes to ``out``
# (``pack`` cuts them off on failure); ``dec(data, pos)`` returns (value, end);
# ``size`` is the fewest bytes any value of the kind encodes to.

_NO_TYPES = TypeRegistry()  # stands in for a missing registry: every name is unknown
_CACHE_LIMIT = 4096  # kinds compiled per registry before its cache starts over


def _codec(kind, encoding: Encoding, registry: Optional[TypeRegistry]) -> tuple:
    """Return the ``(enc, dec, size)`` codec of ``kind``, compiling it on first use.

    A compile publishes its named types only once they are complete, so neither
    another thread nor a ``seq<T>`` binding its elements sees half a codec.
    """
    registry = _NO_TYPES if registry is None else registry
    key = (kind, encoding is _PORTABLE)
    codec = registry._codecs.get(key)
    if codec is None:
        compiled: dict = {}
        codec = _compile(parse_kind(kind) if isinstance(kind, str) else kind,
                         encoding, registry, compiled)
        if len(registry._codecs) > _CACHE_LIMIT:
            registry._codecs.clear()
        registry._codecs.update(compiled)
        registry._codecs[key] = codec
    return codec


def _read(st: struct.Struct, data: memoryview, pos: int):
    try:
        return st.unpack_from(data, pos)[0]
    except struct.error:
        raise Truncated(st.size, len(data) - pos) from None


def _compile(kind: FieldKind, encoding: Encoding, registry: TypeRegistry, compiled: dict) -> tuple:
    if isinstance(kind, Primitive):
        tag = kind.tag
        return _string_codec(encoding) if tag is PrimTag.STRING else _scalar_codec(tag, encoding)
    member = partial(_compile, encoding=encoding, registry=registry, compiled=compiled)
    if isinstance(kind, (Sequence, FixedArray)):
        return _array_codec(kind, encoding, registry, member)
    assert isinstance(kind, Named)
    name = kind.type_name
    key = (name, encoding is Encoding.PORTABLE)
    codec = compiled.get(key) or registry._codecs.get(key)
    if codec is not None:
        return codec
    if name not in registry:  # raises only when a value reaches it
        def unknown(*_):
            raise UnknownType(name)
        return unknown, unknown, 0
    # reached again from its own body, bypassing seq (validate() rejects that): 0 bytes
    compiled[key] = (lambda out, value: codec[0](out, value),
                     lambda data, pos: codec[1](data, pos), 0)
    desc = registry.resolve(name)
    compiled[key] = codec = (_record_codec(desc, member) if isinstance(desc, RecordType)
                             else _variant_codec(desc, encoding, member))
    return codec


def _scalar_codec(tag: PrimTag, encoding: Encoding) -> tuple:
    st = struct.Struct(_scalar_fmt(encoding, tag))
    pack_, size = st.pack, st.size

    def enc(out, value):
        out += pack_(_scalar(tag, value))

    def dec(data, pos):
        v = _read(st, data, pos)
        if tag is _BOOL:
            if v not in (0, 1):
                raise MalformedBool(v)
            return Prim(tag, bool(v)), pos + size
        if tag is _U8 and v > 255:
            raise MalformedByte(v)
        return Prim(tag, v), pos + size

    return enc, dec, size


def _string_codec(encoding: Encoding) -> tuple:
    length = struct.Struct(_scalar_fmt(encoding, PrimTag.U32))
    portable = encoding is Encoding.PORTABLE

    def enc(out, value):
        if not isinstance(value, Str):
            raise _Mismatch("string", _describe(value))
        try:
            payload = value.text.encode("utf-8")
        except (UnicodeEncodeError, AttributeError):  # lone surrogates, or text not a str
            raise _Mismatch("a UTF-8 encodable string", "unencodable text") from None
        if len(payload) > MAX_LENGTH:
            raise _Mismatch(f"string of at most {MAX_LENGTH} bytes", f"{len(payload)} bytes")
        out += length.pack(len(payload))
        out += payload
        if portable:
            out += _ZERO_PAD[len(payload) % 4]

    def dec(data, pos):
        n = _read(length, data, pos)
        pos += 4
        taken = n + -n % 4 if portable else n
        if taken > len(data) - pos:
            raise Truncated(taken, len(data) - pos)
        try:
            return Str(str(data[pos:pos + n], "utf-8")), pos + taken
        except UnicodeDecodeError as exc:
            raise MalformedString(str(exc)) from None

    return enc, dec, 4


def _array_codec(kind, encoding: Encoding, registry: TypeRegistry, member) -> tuple:
    """Codec of a ``seq<T>`` or ``[T; n]``: the container's checks around ``_elements``.

    A ``[T; n]`` binds its elements now, within this compile (``member``), as
    its size ``n * size`` needs theirs; a ``seq<T>`` binds them on first use.
    """
    element, fixed = kind.element, isinstance(kind, FixedArray)
    is_bytes = element == Primitive(PrimTag.U8)
    of = f"{'array' if fixed else 'sequence'} of {format_kind(element)}"
    lo, hi = (kind.length, kind.length) if fixed else (0, MAX_LENGTH)
    length = None if fixed else struct.Struct(_scalar_fmt(encoding, PrimTag.U32))  # the count
    sized = f"array of {hi} elements" if fixed else f"sequence of at most {MAX_LENGTH} elements"
    put = get = per_element = None

    def bind():
        nonlocal put, get, per_element
        codec = member(element) if fixed else _codec(element, encoding, registry)
        # assigned in order: a thread that finds per_element set finds put and get set
        put, get, per_element = _elements(element, encoding, fixed, codec)

    def enc(out, value):
        if not isinstance(value, Seq):
            raise _Mismatch(sized if fixed else of, _describe(value))
        count = len(value._items)
        if not lo <= count <= hi:
            raise _Mismatch(sized, f"{count} elements")
        if type(value._items) is bytes and not is_bytes:
            raise _Mismatch(of, "byte sequence")
        if per_element is None:
            bind()
        if length is not None:
            out += length.pack(count)
        put(out, value)

    def dec(data, pos):
        if per_element is None:
            bind()
        count = hi
        if length is not None:
            count, pos = _read(length, data, pos), pos + 4
            if count > MAX_LENGTH:
                raise PackError(f"sequence count {count} exceeds the {MAX_LENGTH} element maximum")
            # Reject hostile counts before allocating (a byte payload is checked exactly when read):
            # every type takes a byte; one of size 0 raises on its first element
            if not is_bytes and count * per_element > len(data) - pos:
                raise Truncated(count * per_element, len(data) - pos)
        return get(data, pos, count)

    if fixed:
        bind()
    return enc, dec, hi * per_element if fixed else 4


def _elements(element: FieldKind, encoding: Encoding, fixed: bool, codec: tuple) -> tuple:
    """Return ``put(out, seq)``, ``get(data, pos, count)`` and the size of an element (``codec``)."""
    portable = encoding is Encoding.PORTABLE
    tag = element.tag if isinstance(element, Primitive) else None

    if tag is PrimTag.U8 and not (portable and fixed):
        # A byte payload from bytes or u8 values, padded to four bytes in a portable
        # seq<u8>; a portable [u8; n] widens each byte like any other scalar, below.
        def put_bytes(out, seq):
            raw = seq._items if type(seq._items) is bytes else bytes(_numbers(tag, seq))
            out += raw
            if portable:
                out += _ZERO_PAD[len(raw) % 4]

        def get_bytes(data, pos, count):
            taken = count + -count % 4 if portable else count
            if taken > len(data) - pos:
                raise Truncated(taken, len(data) - pos)
            return Seq._wrap(bytes(data[pos:pos + count])), pos + taken

        return put_bytes, get_bytes, 4 if portable else 1

    if tag is not None and tag is not PrimTag.STRING:
        order, code = _scalar_fmt(encoding, tag)
        unit = struct.calcsize(order + code)
        swap = order != _HOST

        def put_numbers(out, seq):
            items = seq._items
            if type(items) is array and _ARRAY_TAG[items.typecode] is tag:
                if swap:
                    items = array(code, items)
                    items.byteswap()
                out += items
                return
            values = items if type(items) is bytes else _numbers(tag, seq)
            if values:
                out += struct.pack(f"{order}{len(values)}{code}", *values)

        def get_numbers(data, pos, count):
            size = unit * count
            if size > len(data) - pos:
                raise Truncated(size, len(data) - pos)
            words = array(code)
            words.frombytes(data[pos:pos + size])
            if swap:
                words.byteswap()
            if tag is _BOOL or tag is _U8:  # words that are not their values
                bad = [w for w in words if w > (1 if tag is _BOOL else 255)]
                if bad:
                    raise (MalformedBool if tag is _BOOL else MalformedByte)(bad[0])
                words = ([Prim(tag, w == 1) for w in words] if tag is _BOOL
                         else bytes(words.tolist()))
            return Seq._wrap(words), pos + size

        return put_numbers, get_numbers, unit

    enc, dec, size = codec

    def put_each(out, seq):
        for i, item in enumerate(seq.elements()):
            try:
                enc(out, item)
            except _Mismatch as exc:
                exc.steps.append(f"[{i}]")
                raise

    def get_each(data, pos, count):
        items = []
        for _ in range(count):
            item, pos = dec(data, pos)
            items.append(item)
        return Seq._wrap(items), pos

    return put_each, get_each, size


def _record_codec(desc: RecordType, member) -> tuple:
    name, count = desc.name, len(desc.fields)
    steps = [f".{f.name}" for f in desc.fields]
    codecs = [member(f.kind) for f in desc.fields]

    def enc(out, value):
        if not isinstance(value, Rec) or value.type_name != name:
            raise _Mismatch(f"record {name}", _describe(value))
        if len(value.fields) != count:
            raise _Mismatch(f"{count} fields for record {name}", f"{len(value.fields)} fields")
        for step, (enc_field, _, _), field in zip(steps, codecs, value.fields):
            try:
                enc_field(out, field)
            except _Mismatch as exc:
                exc.steps.append(step)
                raise

    def dec(data, pos):
        fields = []
        for _, dec_field, _ in codecs:
            field, pos = dec_field(data, pos)
            fields.append(field)
        return Rec(name, fields), pos

    return enc, dec, sum(size for _, _, size in codecs)


def _variant_codec(desc: VariantType, encoding: Encoding, member) -> tuple:
    name = desc.name
    length = struct.Struct(_scalar_fmt(encoding, PrimTag.U32))
    arms = [(a.name, a.payload and member(a.payload)) for a in desc.arms]

    def enc(out, value):
        if not isinstance(value, Var) or value.type_name != name:
            raise _Mismatch(f"variant {name}", _describe(value))
        try:
            index = desc.arm_index(value.arm)
        except KeyError:
            raise _Mismatch(f"an arm of variant {name}", value.arm) from None
        arm_name, payload_codec = arms[index]
        if payload_codec is None:
            if value.payload is not None:
                raise _Mismatch("no payload", _describe(value.payload), f".{arm_name}")
        elif value.payload is None:
            raise _Mismatch(format_kind(desc.arms[index].payload), "no payload", f".{arm_name}")
        out += length.pack(index)
        if payload_codec is not None:
            try:
                payload_codec[0](out, value.payload)
            except _Mismatch as exc:
                exc.steps.append(f".{arm_name}")
                raise

    def dec(data, pos):
        index = _read(length, data, pos)
        if index >= len(arms):
            raise MalformedVariantTag(index)
        arm_name, payload_codec = arms[index]
        if payload_codec is None:
            return Var(name, arm_name, None), pos + 4
        payload, pos = payload_codec[1](data, pos + 4)
        return Var(name, arm_name, payload), pos

    return enc, dec, 4 + min(c[2] if c else 0 for _, c in arms)


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
    out = buf._writable()
    start = len(out)
    try:
        _codec(kind if kind is not None else infer_kind(value), buf.encoding, registry)[0](out, value)
    except BaseException as exc:
        del out[start:]
        if isinstance(exc, _Mismatch):
            path = "$" + "".join(reversed(exc.steps))
            raise SchemaMismatch(path, exc.expected, exc.found) from None
        if isinstance(exc, RecursionError):
            raise PackError("value is nested too deeply to encode") from None
        raise
    return buf


def unpack(buf: Buffer, kind, registry: Optional[TypeRegistry] = None) -> DynValue:
    """Decode one value of ``kind`` from the buffer, advancing the cursor.

    Malformed or hostile bytes raise a :class:`PackError` subclass; bytes
    nested too deeply to walk raise :class:`PackError` itself.  A failed
    unpack leaves the cursor where it was.
    """
    dec = _codec(kind, buf.encoding, registry)[1]
    with memoryview(buf._data) as data:
        try:
            value, buf._cursor = dec(data, buf._cursor)
        except RecursionError:
            raise PackError("encoded value is nested too deeply to decode") from None
    return value


def encode_value(value: DynValue, encoding: Encoding, kind=None,
                 registry: Optional[TypeRegistry] = None) -> bytes:
    """Pack a single value into a fresh buffer and return the bytes."""
    return pack(Buffer(encoding), value, kind, registry).data


def decode_value(payload: bytes, encoding: Encoding, kind,
                 registry: Optional[TypeRegistry] = None) -> DynValue:
    """Decode a single value from raw bytes."""
    return unpack(Buffer(encoding, payload), kind, registry)
