"""Serialization: buffers, both encodings, golden bytes, error paths."""

import math
import random
import struct
import sys
import threading
import time
from array import array

import pytest
from hypothesis import Phase, given, settings, strategies as st

from packrun.idl import (
    FieldDescriptor, FixedArray, IdlError, Named, Primitive, PrimTag, RecordType, Sequence, TypeRegistry)
from packrun.pack import (
    Buffer,
    Encoding,
    MalformedBool,
    MalformedByte,
    MalformedString,
    MalformedVariantTag,
    PackError,
    Prim,
    Rec,
    SchemaMismatch,
    Seq,
    Str,
    Truncated,
    UnknownType,
    Var,
    decode_value,
    encode_value,
    infer_kind,
    pack,
    unpack,
)
from support import _INT_RANGE, load_golden, random_pair, value_from_json

LITTLE_ENDIAN_HOST = sys.byteorder == "little"


# ---------------------------------------------------------------------------
# Golden portable bytes


def golden_cases():
    golden = load_golden()
    registry = TypeRegistry.from_idl(golden["idl"])
    return [(registry, v) for v in golden["vectors"]]


@pytest.mark.parametrize("registry,vector", golden_cases(), ids=lambda c: c["name"] if isinstance(c, dict) else "")
def test_portable_golden_encode(registry, vector):
    value = value_from_json(vector["value"])
    assert encode_value(value, Encoding.PORTABLE, vector["kind"], registry).hex() == vector["hex"]


@pytest.mark.parametrize("registry,vector", golden_cases(), ids=lambda c: c["name"] if isinstance(c, dict) else "")
def test_portable_golden_decode(registry, vector):
    value = value_from_json(vector["value"])
    decoded = decode_value(bytes.fromhex(vector["hex"]), Encoding.PORTABLE, vector["kind"], registry)
    assert decoded == value


def test_portable_encoding_is_deterministic():
    registry = TypeRegistry.from_idl("record pt { x: i32; y: f64; }")
    value = Rec("pt", [Prim(PrimTag.I32, 3), Prim(PrimTag.F64, -0.5)])
    first = encode_value(value, Encoding.PORTABLE, "pt", registry)
    second = encode_value(value, Encoding.PORTABLE, "pt", registry)
    assert first == second


# ---------------------------------------------------------------------------
# Native encoding shape


@pytest.mark.skipif(not LITTLE_ENDIAN_HOST, reason="expected bytes written for little-endian hosts")
def test_native_scalar_widths():
    assert encode_value(Prim(PrimTag.I32, 1), Encoding.NATIVE) == b"\x01\x00\x00\x00"
    assert encode_value(Prim(PrimTag.U8, 200), Encoding.NATIVE) == b"\xc8"
    assert encode_value(Prim(PrimTag.BOOL, True), Encoding.NATIVE) == b"\x01"
    assert encode_value(Prim(PrimTag.I64, -1), Encoding.NATIVE) == b"\xff" * 8


@pytest.mark.skipif(not LITTLE_ENDIAN_HOST, reason="expected bytes written for little-endian hosts")
def test_native_string_not_padded():
    assert encode_value(Str("ab"), Encoding.NATIVE) == b"\x02\x00\x00\x00ab"


def test_native_byte_seq_is_prefix_plus_raw_copy():
    payload = bytes(range(7))
    encoded = encode_value(Seq(payload), Encoding.NATIVE)
    assert encoded == struct.pack("=I", 7) + payload


def test_native_matches_host_struct_layout():
    v = encode_value(Prim(PrimTag.F64, 2.5), Encoding.NATIVE)
    assert v == struct.pack("=d", 2.5)


# ---------------------------------------------------------------------------
# Buffer behaviour


def test_successive_packs_concatenate_and_unpack_in_order():
    buf = Buffer(Encoding.PORTABLE)
    pack(buf, Prim(PrimTag.I32, 7))
    pack(buf, Str("hi"))
    pack(buf, Prim(PrimTag.BOOL, True))
    assert unpack(buf, "i32") == Prim(PrimTag.I32, 7)
    assert unpack(buf, "string") == Str("hi")
    assert unpack(buf, "bool") == Prim(PrimTag.BOOL, True)
    assert buf.remaining == 0


def test_extraction_advances_cursor_without_shrinking():
    buf = Buffer(Encoding.PORTABLE)
    pack(buf, Prim(PrimTag.I32, 7))
    size_before = buf.size
    unpack(buf, "i32")
    assert buf.size == size_before
    assert buf.read_cursor == size_before


def test_reset_empties_and_keeps_encoding():
    buf = Buffer(Encoding.PORTABLE)
    pack(buf, Prim(PrimTag.I32, 7))
    buf.reset()
    assert buf.size == 0
    assert buf.read_cursor == 0
    assert buf.encoding is Encoding.PORTABLE


def test_load_replaces_contents_and_rewinds():
    buf = Buffer(Encoding.PORTABLE)
    pack(buf, Prim(PrimTag.I32, 7))
    unpack(buf, "i32")
    buf.load(bytes.fromhex("fffffffe"))
    assert unpack(buf, "i32") == Prim(PrimTag.I32, -2)


def test_load_adopts_bytes_and_the_first_write_copies_them():
    payload = bytes.fromhex("fffffffe") + b"tail"
    buf = Buffer(Encoding.PORTABLE)
    buf.load(payload)
    assert buf.data is payload  # adopted, not copied
    assert unpack(buf, "i32") == Prim(PrimTag.I32, -2)
    pack(buf, Prim(PrimTag.U32, 7))
    buf.append(b"!")
    assert payload == bytes.fromhex("fffffffe") + b"tail"
    assert buf.data == payload + bytes.fromhex("00000007") + b"!"
    assert buf.read_cursor == 4  # the copy keeps the cursor
    assert Buffer(Encoding.PORTABLE, payload).data is payload
    assert decode_value(payload, Encoding.PORTABLE, "i32") == Prim(PrimTag.I32, -2)


@pytest.mark.parametrize("make", [bytearray, memoryview], ids=["bytearray", "memoryview"])
def test_load_copies_any_other_contents(make):
    source = bytearray.fromhex("00000007")
    for buf in (Buffer(Encoding.PORTABLE).load(make(source)),
                Buffer(Encoding.PORTABLE, make(source))):
        source[3] = 9  # the caller may reuse its buffer at once
        assert unpack(buf, "u32") == Prim(PrimTag.U32, 7)
        source[3] = 7


def test_data_and_size_expose_exact_contents():
    buf = Buffer(Encoding.PORTABLE)
    pack(buf, Prim(PrimTag.U32, 0xDEADBEEF))
    assert buf.data == bytes.fromhex("deadbeef")
    assert buf.size == 4


class _Exploding(str):
    def encode(self, *args):
        raise RuntimeError("boom")


def test_failed_pack_leaves_buffer_untouched_on_any_error():
    registry = TypeRegistry.from_idl("record named { id: i32; name: string; }")
    buf = Buffer(Encoding.PORTABLE)
    pack(buf, Prim(PrimTag.I32, 1))
    snapshot = buf.data
    with pytest.raises(RuntimeError):  # the id field is written before name fails
        pack(buf, Rec("named", [Prim(PrimTag.I32, 2), Str(_Exploding("x"))]), "named", registry)
    assert buf.data == snapshot


def test_failed_pack_leaves_buffer_untouched():
    registry = TypeRegistry.from_idl("record pt { x: i32; y: f64; }")
    buf = Buffer(Encoding.PORTABLE)
    pack(buf, Prim(PrimTag.I32, 1))
    snapshot = buf.data
    bad = Rec("pt", [Prim(PrimTag.I32, 1), Prim(PrimTag.I32, 2)])  # y must be f64
    with pytest.raises(SchemaMismatch) as err:
        pack(buf, bad, "pt", registry)
    assert buf.data == snapshot
    assert err.value.path == "$.y"


# ---------------------------------------------------------------------------
# Validation errors


def test_int_range_checks():
    with pytest.raises(SchemaMismatch):
        encode_value(Prim(PrimTag.I32, 2**31), Encoding.PORTABLE)
    with pytest.raises(SchemaMismatch):
        encode_value(Prim(PrimTag.U8, 300), Encoding.PORTABLE)
    with pytest.raises(SchemaMismatch):
        encode_value(Prim(PrimTag.U32, -1), Encoding.PORTABLE)


def test_f32_must_be_single_precision_representable():
    with pytest.raises(SchemaMismatch):
        encode_value(Prim(PrimTag.F32, 0.1), Encoding.PORTABLE)
    with pytest.raises(SchemaMismatch):
        encode_value(Prim(PrimTag.F32, 1e300), Encoding.PORTABLE)
    encode_value(Prim(PrimTag.F32, 1.5), Encoding.PORTABLE)


def test_bool_requires_bool_not_int():
    with pytest.raises(SchemaMismatch):
        encode_value(Prim(PrimTag.BOOL, 1), Encoding.PORTABLE)


def test_record_field_count_must_match():
    registry = TypeRegistry.from_idl("record pt { x: i32; y: f64; }")
    with pytest.raises(SchemaMismatch):
        encode_value(Rec("pt", [Prim(PrimTag.I32, 1)]), Encoding.PORTABLE, "pt", registry)


def test_sequence_element_mismatch_reports_index_path():
    value = Seq([Prim(PrimTag.I32, 1), Str("oops")])
    with pytest.raises(SchemaMismatch) as err:
        encode_value(value, Encoding.PORTABLE, "seq<i32>")
    assert err.value.path == "$[1]"


def test_fixed_array_length_must_match():
    with pytest.raises(SchemaMismatch):
        encode_value(Seq([Prim(PrimTag.I32, 1)]), Encoding.PORTABLE, "[i32; 2]")


def test_unknown_variant_arm_rejected():
    registry = TypeRegistry.from_idl("variant shade { red; rgb(u32); }")
    with pytest.raises(SchemaMismatch):
        encode_value(Var("shade", "blue"), Encoding.PORTABLE, "shade", registry)


_SHADE = TypeRegistry.from_idl("variant shade { red; rgb(u32); }")


def test_a_variant_value_of_another_type_is_rejected():
    with pytest.raises(SchemaMismatch, match=r"^\$: expected variant shade, found variant hue$"):
        encode_value(Var("hue", "red"), Encoding.PORTABLE, "shade", _SHADE)


def test_a_payload_on_an_arm_that_takes_none_is_rejected():
    with pytest.raises(SchemaMismatch, match=r"^\$\.red: expected no payload, found u32 value$"):
        encode_value(Var("shade", "red", Prim(PrimTag.U32, 1)), Encoding.PORTABLE, "shade", _SHADE)


def test_a_missing_payload_is_rejected_at_its_arm():
    with pytest.raises(SchemaMismatch, match=r"^\$\.rgb: expected u32, found no payload$"):
        encode_value(Var("shade", "rgb"), Encoding.PORTABLE, "shade", _SHADE)


@pytest.mark.parametrize("encoding", list(Encoding))
def test_a_float_that_is_not_a_number_is_rejected(encoding):
    with pytest.raises(SchemaMismatch, match="expected f64"):
        encode_value(Prim(PrimTag.F64, "x"), encoding)


@pytest.mark.parametrize("encoding", list(Encoding))
def test_an_integer_that_is_not_an_int_is_rejected(encoding):
    with pytest.raises(SchemaMismatch, match="expected i32"):
        encode_value(Prim(PrimTag.I32, 1.5), encoding)


def test_unknown_type_raises():
    with pytest.raises(UnknownType):
        encode_value(Rec("ghost", []), Encoding.PORTABLE, "ghost", TypeRegistry())


def test_empty_sequence_needs_explicit_kind():
    with pytest.raises(SchemaMismatch):
        pack(Buffer(Encoding.PORTABLE), Seq([]))
    encode_value(Seq([]), Encoding.PORTABLE, "seq<i32>")


# leaves malformed in themselves, bad in place of any scalar
_MALFORMED = [Str(123), Str(None), Prim(None, 1), Prim([1], 1), Prim("i32", 1), Prim("string", "x")]


@pytest.mark.parametrize("leaf", _MALFORMED, ids=repr)
def test_a_malformed_leaf_is_a_schema_mismatch_with_or_without_a_kind(leaf):
    buf = pack(Buffer(), Prim(PrimTag.U8, 7))
    with pytest.raises(SchemaMismatch):
        pack(buf, leaf)
    with pytest.raises(SchemaMismatch):
        pack(buf, Seq([Prim(PrimTag.U8, 1), leaf]), "seq<u8>")
    assert buf.data == bytes([7])


def test_infer_kind_for_plain_values():
    assert encode_value(Prim(PrimTag.I32, 1), Encoding.PORTABLE) == bytes.fromhex("00000001")
    assert infer_kind(Str("x")).tag is PrimTag.STRING
    assert infer_kind(Seq(b"\x01")).element.tag is PrimTag.U8


@pytest.mark.parametrize("value", [Rec("pt", []), Var("pt", "a")], ids=["record", "variant"])
def test_infer_kind_of_a_record_or_variant_names_its_type(value):
    assert infer_kind(value) == Named("pt")


def test_infer_kind_of_what_is_not_a_value_is_a_schema_mismatch():
    with pytest.raises(SchemaMismatch, match="expected a dynamic value, found int"):
        infer_kind(42)


def test_a_registry_past_its_cache_limit_starts_the_cache_over(monkeypatch):
    # the module: the name "packrun.pack" resolves to the pack() function the package exports
    monkeypatch.setattr(sys.modules["packrun.pack"], "_CACHE_LIMIT", 8)
    registry = TypeRegistry()
    encoded = [encode_value(Seq([Prim(PrimTag.I32, i) for i in range(n)]), Encoding.PORTABLE,
                            f"[i32; {n}]", registry) for n in range(1, 21)]
    # one codec per kind; a cache holding 9 starts over, at the 10th and the 19th kind
    assert (encoded, len(registry._codecs)) == (
        [struct.pack(f">{n}i", *range(n)) for n in range(1, 21)], 2)


# ---------------------------------------------------------------------------
# Decode errors


def test_truncated_scalar():
    with pytest.raises(Truncated):
        decode_value(b"\x00\x01", Encoding.PORTABLE, "i32")


def test_hostile_sequence_count_rejected_quickly():
    payload = struct.pack(">I", 2**31 - 1) + b"\x00" * 8
    started = time.monotonic()
    with pytest.raises(Truncated) as err:
        decode_value(payload, Encoding.PORTABLE, "seq<i64>")
    assert time.monotonic() - started < 1.0
    assert err.value.available == 8


def test_hostile_byte_seq_count_rejected():
    payload = struct.pack(">I", 10_000_000) + b"\x00" * 4
    with pytest.raises(Truncated):
        decode_value(payload, Encoding.PORTABLE, "seq<u8>")


_SIZED = """
    record pt { x: f64; y: u8; }
    variant opt { a(f64); b([u8; 2]); }
    record r { x: i32; next: seq<r>; }
    record a { s: seq<b>; }
    record b { x: i64; y: a; }
"""


# a kind holding a seq, the bytes before that seq's count, and the fewest
# bytes of one of its elements: native, portable
@pytest.mark.parametrize("kind,lead,native,portable", [
    ("seq<i32>", 0, 4, 4), ("seq<bool>", 0, 1, 4), ("seq<string>", 0, 4, 4),
    ("seq<seq<u8>>", 0, 4, 4), ("seq<[u8; 3]>", 0, 3, 12), ("seq<[i64; 2]>", 0, 16, 16),
    ("seq<pt>", 0, 9, 12), ("seq<opt>", 0, 6, 12),
    ("seq<r>", 0, 8, 8), ("r", 4, 8, 8),  # r.next is a seq<r>
    ("seq<b>", 0, 12, 12), ("a", 0, 12, 12),  # b.y is an a, whose one field is a seq<b>
])
@pytest.mark.parametrize("first", ["a", "b", None])
def test_hostile_count_is_checked_against_the_fewest_element_bytes(kind, lead, native,
                                                                  portable, first):
    # whichever kind compiles first, each element counts at its full minimum
    for encoding, per_element, prefix in ((Encoding.NATIVE, native, "=I"),
                                          (Encoding.PORTABLE, portable, ">I")):
        registry = TypeRegistry.from_idl(_SIZED)
        if first is not None:
            with pytest.raises(Truncated):
                decode_value(b"", encoding, first, registry)
        with pytest.raises(Truncated) as err:
            decode_value(bytes(lead) + struct.pack(prefix, 1000) + bytes(3), encoding, kind,
                         registry)
        assert (err.value.needed, err.value.available) == (1000 * per_element, 3)


def test_malformed_variant_tag():
    registry = TypeRegistry.from_idl("variant shade { red; rgb(u32); }")
    with pytest.raises(MalformedVariantTag) as err:
        decode_value(struct.pack(">I", 7), Encoding.PORTABLE, "shade", registry)
    assert err.value.value == 7


def test_malformed_bool():
    with pytest.raises(MalformedBool):
        decode_value(struct.pack(">I", 2), Encoding.PORTABLE, "bool")


def test_malformed_widened_byte():
    with pytest.raises(MalformedByte):
        decode_value(struct.pack(">I", 256), Encoding.PORTABLE, "u8")


def test_malformed_string_payload():
    payload = struct.pack(">I", 2) + b"\xff\xfe\x00\x00"
    with pytest.raises(MalformedString):
        decode_value(payload, Encoding.PORTABLE, "string")


# Every registered type encodes to at least one byte, so the count check bounds a decode
_UNIT = TypeRegistry.from_idl("""
    record unit { on: bool; }
    variant opt { none; some(unit); pair([unit; 2]); many(seq<unit>); }
    record node { v: u8; kids: seq<node>; pick: opt; }
""")


@pytest.mark.parametrize("encoding", [Encoding.PORTABLE, Encoding.NATIVE])
@pytest.mark.parametrize("kind", ["seq<unit>", "seq<seq<unit>>"])
def test_a_hostile_count_of_records_is_truncated_at_once(kind, encoding):
    order = ">" if encoding is Encoding.PORTABLE else "="
    started = time.monotonic()
    with pytest.raises(Truncated) as err:
        decode_value(struct.pack(order + "I", 2**31 - 1), encoding, kind, _UNIT)
    assert time.monotonic() - started < 0.1
    assert err.value.needed >= 2**31 - 1  # the count's check, not the first element's read


@pytest.mark.parametrize("encoding", [Encoding.PORTABLE, Encoding.NATIVE])
def test_a_sequence_of_zero_length_arrays_cannot_be_decoded(encoding):
    # a [T; 0] would encode to no bytes and let a count of 2**31 - 1 pass the count check,
    # so neither IDL text nor a descriptor built in Python can name one
    hostile = struct.pack((">" if encoding is Encoding.PORTABLE else "=") + "I", 2**31 - 1)
    with pytest.raises(IdlError):
        decode_value(hostile, encoding, "seq<[i32; 0]>", _UNIT)
    with pytest.raises(IdlError):  # built in Python, such a kind never reaches decode_value
        FixedArray(Primitive(PrimTag.I32), 0)


@pytest.mark.parametrize("encoding", [Encoding.PORTABLE, Encoding.NATIVE])
def test_a_sequence_of_records_longer_than_65536_round_trips(encoding):
    # no per-message element budget: only the bytes on the wire bound a count
    many = Seq([Rec("unit", [Prim(PrimTag.BOOL, True)])] * 65537)
    encoded = encode_value(many, encoding, "seq<unit>", _UNIT)
    assert decode_value(encoded, encoding, "seq<unit>", _UNIT) == many
    buf = Buffer(encoding)
    pack(buf, Prim(PrimTag.I32, 1))
    snapshot = buf.data
    with pytest.raises(SchemaMismatch) as err:
        pack(buf, Seq(list(many.elements()) + [Prim(PrimTag.I32, 1)]), "seq<unit>", _UNIT)
    assert err.value.path == "$[65537]"
    assert buf.data == snapshot


@pytest.mark.parametrize("encoding", [Encoding.PORTABLE, Encoding.NATIVE])
def test_each_inner_count_is_checked_against_the_bytes_left(encoding):
    # four inner counts of 65536 in twenty bytes: the first inner count is refused
    order = ">" if encoding is Encoding.PORTABLE else "="
    payload = struct.pack(order + "5I", 4, *[65536] * 4)
    started = time.monotonic()
    with pytest.raises(Truncated) as err:
        decode_value(payload, encoding, "seq<seq<unit>>", _UNIT)
    assert time.monotonic() - started < 0.1
    assert err.value.available == len(payload) - 8
    fits = Seq([Seq([Rec("unit", [Prim(PrimTag.BOOL, False)])] * 3)] * 4)
    encoded = encode_value(fits, encoding, "seq<seq<unit>>", _UNIT)
    buf = Buffer(encoding, encoded + encoded)
    assert unpack(buf, "seq<seq<unit>>", _UNIT) == fits
    assert unpack(buf, "seq<seq<unit>>", _UNIT) == fits


@pytest.mark.parametrize("encoding", [Encoding.PORTABLE, Encoding.NATIVE])
def test_a_fixed_array_element_needs_its_length_times_the_bytes_of_one(encoding):
    order = ">" if encoding is Encoding.PORTABLE else "="
    kind = "seq<[unit; 16]>"
    one = len(encode_value(Rec("unit", [Prim(PrimTag.BOOL, True)]), encoding, "unit", _UNIT))
    with pytest.raises(Truncated) as err:
        decode_value(struct.pack(order + "I", 65536), encoding, kind, _UNIT)
    assert (err.value.needed, err.value.available) == (65536 * 16 * one, 0)
    with pytest.raises(Truncated):
        decode_value(b"\x00" * (16 * one - 1), encoding, "[unit; 16]", _UNIT)
    value = Seq([Seq([Rec("unit", [Prim(PrimTag.BOOL, True)])] * 16)] * 2)
    encoded = encode_value(value, encoding, kind, _UNIT)
    assert len(encoded) == 4 + 2 * 16 * one
    assert decode_value(encoded, encoding, kind, _UNIT) == value


def _leaves(value) -> int:
    """Nodes of ``value`` that hold no other node: each encodes to at least one byte."""
    if isinstance(value, Seq):
        if value.raw is not None or value.array is not None:
            return len(value) or 1
        return sum(map(_leaves, value.elements())) or 1
    if isinstance(value, Rec):
        return sum(map(_leaves, value.fields)) or 1
    if isinstance(value, Var) and value.payload is not None:
        return _leaves(value.payload)
    return 1


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from([Encoding.PORTABLE, Encoding.NATIVE]),
       st.sampled_from(["u8", "bool", "i64", "string", "unit", "opt", "node", "ghost"]),
       st.lists(st.integers(0, 3), min_size=1, max_size=4),
       st.integers(2**16, 2**32 - 1),
       st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1)), max_size=8),
       st.binary(max_size=16))
def test_property_a_decode_holds_no_more_leaves_than_its_input_has_bytes(
        encoding, element, containers, count, words, tail):
    kind = element
    for n in containers:  # 0 wraps the kind in seq<...>, n in [...; n]
        kind = f"seq<{kind}>" if n == 0 else f"[{kind}; {n}]"
    order = ">" if encoding is Encoding.PORTABLE else "="
    payload = struct.pack(f"{order}{1 + len(words)}I", count, *words) + tail
    try:
        value = decode_value(payload, encoding, kind, _UNIT)
    except PackError:
        return
    assert _leaves(value) <= len(payload)


# ``sh`` is never registered: r and late reach it through fields of size 0
_SH_UNREGISTERED = TypeRegistry.from_idl("record r { x: sh; } record late { a: [r; 2]; b: sh; }")


@pytest.mark.parametrize("encoding", [Encoding.PORTABLE, Encoding.NATIVE])
@pytest.mark.parametrize("element", ["sh", "r", "late"])
def test_an_unregistered_element_type_raises_unknown_type_whatever_the_count(encoding, element):
    # An unregistered type compiles to size 0, so no count is too long for the
    # bytes left: its first element must name the type, before any allocation.
    order = ">" if encoding is Encoding.PORTABLE else "="
    registry = _SH_UNREGISTERED
    for count in (1, 65537, 2**31 - 1):
        with pytest.raises(UnknownType, match="'sh'"):
            decode_value(struct.pack(order + "I", count), encoding, f"seq<{element}>", registry)
    for length in (3, 65537):
        with pytest.raises(UnknownType, match="'sh'"):
            decode_value(b"", encoding, f"[{element}; {length}]", registry)
    value = {"sh": Rec("sh", ()), "r": Rec("r", [Rec("sh", ())]),
             "late": Rec("late", [Seq([Rec("r", [Rec("sh", ())])] * 2), Rec("sh", ())])}[element]
    for count in (1, 65537):
        buf = Buffer(encoding)
        with pytest.raises(UnknownType, match="'sh'"):
            pack(buf, Seq([value] * count), f"seq<{element}>", registry)
        assert buf.size == 0
    empty = encode_value(Seq([]), encoding, f"seq<{element}>", registry)
    assert decode_value(empty, encoding, f"seq<{element}>", registry) == Seq([])


def test_a_record_that_holds_itself_is_nested_too_deeply_to_decode():
    # unsound on purpose (validate() rejects it): it compiles to size 0 too, and
    # one element alone recurses without end
    registry = TypeRegistry.from_idl("record s { d: s; }")
    with pytest.raises(PackError, match="nested too deeply"):
        decode_value(struct.pack("=I", 65537), Encoding.NATIVE, "seq<s>", registry)


# ---------------------------------------------------------------------------
# Byte-sequence fast path


def test_compact_and_itemized_byte_seqs_encode_identically():
    compact = Seq(b"\x01\x02")
    items = Seq([Prim(PrimTag.U8, 1), Prim(PrimTag.U8, 2)])
    for encoding in (Encoding.PORTABLE, Encoding.NATIVE):
        assert (encode_value(compact, encoding, "seq<u8>")
                == encode_value(items, encoding, "seq<u8>"))
    assert compact == items
    assert items == compact


def test_byte_seq_round_trip_stays_compact():
    payload = bytes(range(256))
    decoded = decode_value(encode_value(Seq(payload), Encoding.NATIVE),
                           Encoding.NATIVE, "seq<u8>")
    assert decoded.raw == payload


def test_compact_bytes_rejected_for_non_u8_sequence():
    with pytest.raises(SchemaMismatch):
        encode_value(Seq(b"\x01"), Encoding.PORTABLE, "seq<i32>")


# ---------------------------------------------------------------------------
# Special values


def test_nan_round_trips():
    encoded = encode_value(Prim(PrimTag.F64, math.nan), Encoding.PORTABLE)
    decoded = decode_value(encoded, Encoding.PORTABLE, "f64")
    assert math.isnan(decoded.value)


def test_extreme_integers_round_trip():
    for tag, value in [(PrimTag.I64, -2**63), (PrimTag.U64, 2**64 - 1),
                       (PrimTag.I32, -2**31), (PrimTag.U32, 2**32 - 1)]:
        for encoding in (Encoding.PORTABLE, Encoding.NATIVE):
            assert decode_value(encode_value(Prim(tag, value), encoding),
                                encoding, tag.value) == Prim(tag, value)


# ---------------------------------------------------------------------------
# Randomized round-trips


def test_random_round_trips_both_encodings():
    rng = random.Random(20260814)
    for _ in range(300):
        registry, kind, value = random_pair(rng)
        for encoding in (Encoding.PORTABLE, Encoding.NATIVE):
            encoded = encode_value(value, encoding, kind, registry)
            assert decode_value(encoded, encoding, kind, registry) == value


def test_random_multi_value_buffers():
    rng = random.Random(7)
    for _ in range(50):
        registry, kind, value = random_pair(rng)
        buf = Buffer(Encoding.PORTABLE)
        others = [random_pair(rng) for _ in range(3)]
        pack(buf, value, kind, registry)
        for reg2, kind2, value2 in others:
            pack(buf, value2, kind2, reg2)
        assert unpack(buf, kind, registry) == value
        for reg2, kind2, value2 in others:
            assert unpack(buf, kind2, reg2) == value2
        assert buf.remaining == 0


# ---------------------------------------------------------------------------
# Nesting deeper than the interpreter can walk

_SHAPE = TypeRegistry.from_idl("variant sh { dot; many(seq<sh>); }")


def _nested_shape(levels):
    value = Var("sh", "dot")
    for _ in range(levels):
        value = Var("sh", "many", Seq([value]))
    return value


@pytest.mark.parametrize("encoding", [Encoding.PORTABLE, Encoding.NATIVE])
def test_too_deep_value_is_a_pack_error_and_leaves_buffer_untouched(encoding):
    buf = Buffer(encoding)
    pack(buf, Prim(PrimTag.I32, 1))
    snapshot = buf.data
    with pytest.raises(PackError):
        pack(buf, _nested_shape(3000), "sh", _SHAPE)
    assert buf.data == snapshot


@pytest.mark.parametrize("encoding", [Encoding.PORTABLE, Encoding.NATIVE])
def test_too_deep_hostile_bytes_are_a_pack_error(encoding):
    order = ">" if encoding is Encoding.PORTABLE else "="
    # 5000 levels of arm "many" holding one element, closed by arm "dot"
    hostile = struct.pack(order + "II", 1, 1) * 5000 + struct.pack(order + "I", 0)
    with pytest.raises(PackError):
        decode_value(hostile, encoding, "sh", _SHAPE)


# ---------------------------------------------------------------------------
# Properties over a registry that uses every kind

_ALL_KINDS = TypeRegistry.from_idl("""
    record leaf { i: i32; u: u32; l: i64; q: u64; f: f32; d: f64; b: u8; t: bool; s: string; }
    variant shape { dot; tag(u8); boxed(leaf); many(seq<shape>); }
    record msg {
        head: leaf; raw: seq<u8>; trio: [u8; 3]; pair: [f64; 2]; flags: [bool; 2];
        names: seq<string>; shapes: seq<shape>; ids: seq<i64>;
        reals: seq<f64>; singles: seq<f32>; one: [f32; 1];
    }
""")
_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def _scalars(tag):
    if tag is PrimTag.STRING:
        return st.text(max_size=6).map(Str)
    if tag is PrimTag.BOOL:
        numbers = st.booleans()
    elif tag is PrimTag.F32:
        numbers = st.floats(width=32, allow_nan=False)
    elif tag is PrimTag.F64:
        numbers = st.floats(allow_nan=False)
    else:
        numbers = st.integers(*_INT_RANGE[tag])
    return numbers.map(lambda v: Prim(tag, v))


def _values(kind, depth=0):
    if isinstance(kind, Primitive):
        return _scalars(kind.tag)
    if isinstance(kind, Sequence) and depth > 4:
        return st.just(Seq([]))  # ends the recursion through variant shape
    if isinstance(kind, (Sequence, FixedArray)):
        lo, hi = (kind.length, kind.length) if isinstance(kind, FixedArray) else (0, 3)
        items = st.lists(_values(kind.element, depth + 1), min_size=lo, max_size=hi).map(Seq)
        if kind.element == Primitive(PrimTag.U8):
            return st.one_of(items, st.binary(min_size=lo, max_size=hi + 4 * (lo != hi)).map(Seq))
        return items
    desc = _ALL_KINDS.resolve(kind.type_name)
    if isinstance(desc, RecordType):
        fields = st.tuples(*(_values(f.kind, depth + 1) for f in desc.fields))
        return fields.map(lambda fs: Rec(desc.name, fs))
    return st.one_of(*(
        st.just(Var(desc.name, arm.name)) if arm.payload is None
        else _values(arm.payload, depth + 1).map(lambda p, a=arm.name: Var(desc.name, a, p))
        for arm in desc.arms))


_BAD_SCALARS = {
    PrimTag.I32: [Prim(PrimTag.I32, 2**31), Prim(PrimTag.I32, True)],
    PrimTag.U32: [Prim(PrimTag.U32, -1), Prim(PrimTag.I32, 0)],
    PrimTag.I64: [Prim(PrimTag.I64, 2**63), Prim(PrimTag.I64, 1.5)],
    PrimTag.U64: [Prim(PrimTag.U64, 2**64), Str("7")],
    PrimTag.U8: [Prim(PrimTag.U8, 256), Prim(PrimTag.U32, 1)],
    PrimTag.F32: [Prim(PrimTag.F32, 0.1), Prim(PrimTag.F32, 1e300), Prim(PrimTag.F32, 10**400)],
    PrimTag.F64: [Prim(PrimTag.F64, "1.0"), Prim(PrimTag.F32, 1.0), Prim(PrimTag.F64, 10**400)],
    PrimTag.BOOL: [Prim(PrimTag.BOOL, 1), Prim(PrimTag.U8, 0)],
    PrimTag.STRING: [Str("\ud800"), Prim(PrimTag.U8, 0)],
}


@pytest.mark.parametrize("encoding", [Encoding.NATIVE, Encoding.PORTABLE])
@pytest.mark.parametrize("tag", [PrimTag.F32, PrimTag.F64])
@pytest.mark.parametrize("kind, path", [("{}", "$"), ("seq<{}>", "$[1]"), ("[{}; 2]", "$[1]")])
def test_an_integer_too_large_for_a_float_is_a_schema_mismatch(kind, path, tag, encoding):
    huge = Prim(tag, -10**400)
    value = huge if kind == "{}" else Seq([Prim(tag, 1), huge])
    buf = Buffer(encoding)
    with pytest.raises(SchemaMismatch) as err:
        pack(buf, value, kind.format(tag.value))
    assert err.value.path == path
    assert buf.size == 0


def _swap_leaf(kind, value, path, target, found):
    """Rebuild ``value``, replacing the scalar leaf at ``target`` with a bad one.

    Every leaf path is appended to ``found``; ``target=None`` only collects.
    """
    if isinstance(kind, Primitive):
        found.append((path, kind.tag))
        return target[1] if target and target[0] == path else value
    if isinstance(kind, (Sequence, FixedArray)):
        if value.raw is not None:
            return value
        return Seq([_swap_leaf(kind.element, item, f"{path}[{i}]", target, found)
                    for i, item in enumerate(value.elements())])
    desc = _ALL_KINDS.resolve(kind.type_name)
    if isinstance(desc, RecordType):
        return Rec(desc.name, [_swap_leaf(f.kind, v, f"{path}.{f.name}", target, found)
                               for f, v in zip(desc.fields, value.fields)])
    if value.payload is None:
        return value
    arm = desc.arms[desc.arm_index(value.arm)]
    return Var(desc.name, arm.name,
               _swap_leaf(arm.payload, value.payload, f"{path}.{arm.name}", target, found))


_MSG = Named("msg")


@_PROPERTY
@given(_values(_MSG))
def test_property_round_trip_both_encodings(value):
    for encoding in (Encoding.PORTABLE, Encoding.NATIVE):
        encoded = encode_value(value, encoding, _MSG, _ALL_KINDS)
        assert decode_value(encoded, encoding, _MSG, _ALL_KINDS) == value


# no shrink phase: shrinking a failing 10**400 leaf ran for minutes before reporting
@settings(_PROPERTY, phases=[Phase.explicit, Phase.generate])
@given(_values(_MSG), _values(_MSG), st.data())
def test_property_one_bad_leaf_is_named_and_leaves_buffer_untouched(earlier, value, data):
    leaves = []
    _swap_leaf(_MSG, value, "$", None, leaves)
    path, tag = data.draw(st.sampled_from(leaves))
    bad_leaf = data.draw(st.sampled_from(_BAD_SCALARS[tag] + _MALFORMED))
    bad = _swap_leaf(_MSG, value, "$", (path, bad_leaf), [])
    for encoding in (Encoding.PORTABLE, Encoding.NATIVE):
        buf = pack(Buffer(encoding), earlier, _MSG, _ALL_KINDS)
        snapshot = buf.data
        with pytest.raises(SchemaMismatch) as err:
            pack(buf, bad, _MSG, _ALL_KINDS)
        assert err.value.path == path
        assert buf.data == snapshot


@_PROPERTY
@given(st.sampled_from([Encoding.PORTABLE, Encoding.NATIVE]), _values(_MSG), st.data())
def test_property_arbitrary_bytes_raise_only_pack_errors(encoding, value, data):
    kind = data.draw(st.sampled_from(["msg", "shape", "leaf", "seq<shape>", "[string; 2]"]))
    if kind == "msg" and data.draw(st.booleans()):
        # a valid encoding with bytes overwritten and the tail cut reaches deeper than noise
        payload = bytearray(encode_value(value, encoding, _MSG, _ALL_KINDS))
        for _ in range(data.draw(st.integers(1, 3))):
            payload[data.draw(st.integers(0, len(payload) - 1))] = data.draw(st.integers(0, 255))
        payload = bytes(payload[:data.draw(st.integers(0, len(payload)))])
    else:
        payload = data.draw(st.binary(max_size=96))
    try:
        decode_value(payload, encoding, kind, _ALL_KINDS)
    except PackError:
        pass


# ---------------------------------------------------------------------------
# Compiled codecs and the array form of numeric sequences

_ARRAY_CASES = {
    PrimTag.I32: ("i", [0, -2**31, 2**31 - 1, 7]),
    PrimTag.U32: ("I", [0, 2**32 - 1, 9, 1]),
    PrimTag.I64: ("q", [-2**63, 2**63 - 1, 0, -5]),
    PrimTag.U64: ("Q", [2**64 - 1, 0, 3, 2**40]),
    PrimTag.F32: ("f", [1.5, -0.0, math.inf, -2.0**-126]),
    PrimTag.F64: ("d", [0.1, -1e300, math.inf, 5e-324]),
}


@pytest.mark.parametrize("encoding", [Encoding.PORTABLE, Encoding.NATIVE])
@pytest.mark.parametrize("container", ["seq<{}>", "[{}; 4]"])
@pytest.mark.parametrize("tag", list(_ARRAY_CASES), ids=lambda t: t.value)
def test_array_form_round_trips_like_the_list_form(tag, container, encoding):
    code, numbers = _ARRAY_CASES[tag]
    kind = container.format(tag.value)
    as_list = Seq([Prim(tag, v) for v in numbers])
    as_array = Seq(array(code, numbers))
    encoded = encode_value(as_list, encoding, kind)
    assert encode_value(as_array, encoding, kind) == encoded
    decoded = decode_value(encoded, encoding, kind)
    assert decoded.array is not None and decoded.array.typecode == code
    assert decoded.array.tolist() == numbers
    assert decoded == as_list and as_list == decoded and decoded == as_array
    assert decoded.raw is None and as_list.array is None
    assert list(decoded.elements()) == list(as_list.elements())


def test_array_and_list_forms_compare_element_by_element():
    f64 = Seq(array("d", [1.0, 2.5]))
    assert f64 == Seq([Prim(PrimTag.F64, 1.0), Prim(PrimTag.F64, 2.5)])
    assert Seq([Prim(PrimTag.F64, 1), Prim(PrimTag.F64, 2.5)]) == f64  # 1 == 1.0, as for Prim
    assert f64 != Seq([Prim(PrimTag.F32, 1.0), Prim(PrimTag.F32, 2.5)])  # tag first
    assert f64 != Seq([Prim(PrimTag.F64, 1.0), Prim(PrimTag.F64, 2.0)])
    assert f64 != Seq([Prim(PrimTag.F64, 1.0), Str("2.5")])
    assert f64 != Seq(array("f", [1.0, 2.5])) and f64 != Seq(array("d", [1.0]))
    assert Seq(array("i", [1, 2])) != Seq(array("I", [1, 2]))
    assert Seq(array("I", [1, 2])) != Seq(b"\x01\x02")
    nan = Seq(array("d", [math.nan]))
    assert nan != Seq([Prim(PrimTag.F64, math.nan)]) and nan != Seq(array("d", [math.nan]))
    empties = [Seq([]), Seq(b""), Seq(array("d")), Seq(array("q"))]
    assert all(a == b for a in empties for b in empties)


def test_array_form_is_copied_and_typed():
    source = array("q", [1, 2, 3])
    seq = Seq(source)
    source[0] = 99
    assert seq.array.tolist() == [1, 2, 3] and seq.array is not source
    assert infer_kind(Seq(array("f"))) == Sequence(Primitive(PrimTag.F32))
    assert infer_kind(Seq(array("Q", [1]))) == Sequence(Primitive(PrimTag.U64))
    # a typecode with no fixed-width tag stays a list of its numbers
    assert Seq(array("h", [1, 2])).array is None
    assert list(Seq(array("h", [1, 2])).elements()) == [1, 2]


@pytest.mark.parametrize("encoding", [Encoding.PORTABLE, Encoding.NATIVE])
@pytest.mark.parametrize("numbers,kind", [
    (array("d", [1.0, 2.0]), "seq<i32>"),
    (array("i", [1, 2]), "[u32; 2]"),
    (array("q", [1]), "seq<u8>"),
    (array("f", [0.5]), "[bool; 1]"),
    (array("I", [3]), "seq<string>"),
    (array("Q", [3]), "seq<seq<u64>>"),
    (array("d", [1.0]), "box"),
])
def test_array_under_another_tag_fails_like_the_equivalent_list(numbers, kind, encoding):
    registry = TypeRegistry.from_idl("record box { x: seq<f32>; }")
    value = Seq(numbers)
    listed = Seq(list(value.elements()))
    if kind == "box":
        value, listed = Rec("box", [value]), Rec("box", [listed])
    failures = []
    for v in (value, listed):
        buf = pack(Buffer(encoding), Prim(PrimTag.U8, 1))
        with pytest.raises(SchemaMismatch) as err:
            pack(buf, v, kind, registry)
        assert buf.data == pack(Buffer(encoding), Prim(PrimTag.U8, 1)).data
        failures.append((str(err.value), err.value.path))
    assert failures[0] == failures[1]


def test_type_registered_after_a_first_compile_is_used():
    registry = TypeRegistry.from_idl("record holder { items: seq<pt>; }")
    empty = Rec("holder", [Seq([])])
    one = Rec("holder", [Seq([Rec("pt", [Prim(PrimTag.I32, 4)])])])
    encoded = encode_value(empty, Encoding.PORTABLE, "holder", registry)
    with pytest.raises(UnknownType):
        encode_value(one, Encoding.PORTABLE, "holder", registry)
    with pytest.raises(UnknownType):
        decode_value(encoded[:-4] + struct.pack(">I", 1), Encoding.PORTABLE, "holder", registry)
    registry.register(RecordType("pt", (FieldDescriptor("v", Primitive(PrimTag.I32)),)))
    assert decode_value(encode_value(one, Encoding.PORTABLE, "holder", registry),
                        Encoding.PORTABLE, "holder", registry) == one


def test_threads_first_using_a_recursive_registry_together_agree():
    value = Var("sh", "many", Seq([Var("sh", "dot"), _nested_shape(4)]))
    expected = encode_value(value, Encoding.PORTABLE, "sh", _SHAPE)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            registry = TypeRegistry.from_idl("variant sh { dot; many(seq<sh>); }")
            start = threading.Barrier(8)
            results = []

            def use():
                start.wait()
                encoded = encode_value(value, Encoding.PORTABLE, "sh", registry)
                results.append((encoded, decode_value(encoded, Encoding.PORTABLE, "sh", registry)))

            threads = [threading.Thread(target=use) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
            assert not any(t.is_alive() for t in threads)
            assert results == [(expected, value)] * 8
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("payload,kind", [
    (b"\x00\x00\x00\x02" + b"\x00" * 8, "seq<f64>"),   # needs 16 bytes
    (b"\x00\x00\x00\x01" + b"\x00\x00\x00\x05", "sh"),  # variant tag 5
    (b"\x00\x00\x00\x02", "[bool; 1]"),                # bool 2
    (b"\x00\x00\x00\x03abc", "string"),                # pad missing
])
def test_failed_unpack_leaves_the_cursor_where_it_was(payload, kind):
    buf = pack(Buffer(Encoding.PORTABLE), Prim(PrimTag.I32, 9))
    buf.append(payload)
    assert unpack(buf, "i32").value == 9
    with pytest.raises(PackError):
        unpack(buf, kind, _SHAPE)
    assert buf.read_cursor == 4
    pack(buf, Prim(PrimTag.U8, 1))  # the buffer is not left locked by the failed read
