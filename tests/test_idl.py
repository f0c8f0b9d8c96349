"""Type language: grammar, descriptors, registry validation."""

import random

import pytest

from packrun.idl import (
    Arm,
    DuplicateField,
    DuplicateType,
    FieldDescriptor,
    FixedArray,
    IdlSyntaxError,
    IllegalRecursion,
    MAX_KIND_NESTING,
    Named,
    Primitive,
    PrimTag,
    RecordType,
    Sequence,
    TypeRegistry,
    UnresolvedType,
    VariantType,
    format_descriptors,
    format_kind,
    parse_idl,
    parse_kind,
)
from support import make_random_registry


# ---------------------------------------------------------------------------
# Grammar


def test_record_fields_parse_in_declaration_order():
    (desc,) = parse_idl("record foo { x: i32; y: f64; }")
    assert desc == RecordType("foo", (
        FieldDescriptor("x", Primitive(PrimTag.I32)),
        FieldDescriptor("y", Primitive(PrimTag.F64)),
    ))


def test_sequence_field():
    (desc,) = parse_idl("record t { v: seq<i32>; }")
    assert desc.fields[0].kind == Sequence(Primitive(PrimTag.I32))


def test_missing_semicolon_is_a_syntax_error_at_the_brace():
    with pytest.raises(IdlSyntaxError) as err:
        parse_idl("record a { x: i32 }")
    assert err.value.line == 1
    assert err.value.column == len("record a { x: i32 ") + 1


@pytest.mark.parametrize("length,column", [("²", 7), ("٣", 7), ("3²", 8)])
def test_array_length_takes_only_ascii_digits(length, column):
    with pytest.raises(IdlSyntaxError) as err:
        parse_kind(f"[i32; {length}]")
    assert (err.value.line, err.value.column) == (1, column)


def test_variant_arms_with_and_without_payload():
    (desc,) = parse_idl("variant shade { red; rgb(u32); }")
    assert desc == VariantType("shade", (Arm("red"), Arm("rgb", Primitive(PrimTag.U32))))
    assert desc.arm_index("red") == 0
    assert desc.arm_index("rgb") == 1


def test_variant_needs_at_least_one_arm():
    with pytest.raises(IdlSyntaxError):
        parse_idl("variant empty { }")


def test_empty_record_is_legal():
    (desc,) = parse_idl("record nothing { }")
    assert desc.fields == ()


def test_fixed_array_kind():
    (desc,) = parse_idl("record m { cells: [f64; 9]; }")
    assert desc.fields[0].kind == FixedArray(Primitive(PrimTag.F64), 9)


def test_fixed_array_length_must_be_positive():
    with pytest.raises(IdlSyntaxError):
        parse_idl("record m { cells: [f64; 0]; }")


def test_nested_kinds():
    kind = parse_kind("seq<[seq<u8>; 2]>")
    assert kind == Sequence(FixedArray(Sequence(Primitive(PrimTag.U8)), 2))


def test_comments_and_whitespace_ignored():
    source = """
    // leading comment
    record a {
        x: i32;  // trailing comment
    }
    """
    (desc,) = parse_idl(source)
    assert desc.name == "a"


def test_duplicate_field_rejected():
    with pytest.raises(DuplicateField) as err:
        parse_idl("record a { x: i32; x: f64; }")
    assert err.value.type_name == "a"
    assert err.value.field_name == "x"


def test_duplicate_type_rejected():
    with pytest.raises(DuplicateType):
        parse_idl("record a { x: i32; } record a { y: f64; }")


def test_keywords_cannot_name_types_or_fields():
    with pytest.raises(IdlSyntaxError):
        parse_idl("record record { x: i32; }")
    with pytest.raises(IdlSyntaxError):
        parse_idl("record a { seq: i32; }")


def test_nesting_depth_is_bounded():
    deep = "seq<" * (MAX_KIND_NESTING + 1) + "i32" + ">" * (MAX_KIND_NESTING + 1)
    with pytest.raises(IdlSyntaxError):
        parse_kind(deep)
    ok = "seq<" * 10 + "i32" + ">" * 10
    parse_kind(ok)


def test_syntax_error_reports_position_on_later_lines():
    with pytest.raises(IdlSyntaxError) as err:
        parse_idl("record a {\n  x: wrong!;\n}")
    assert err.value.line == 2


# ---------------------------------------------------------------------------
# Registry validation


def test_unresolved_reference():
    registry = TypeRegistry.from_idl("record a { b_field: b; }")
    errors = registry.validate()
    assert any(isinstance(e, UnresolvedType) and e.name == "b" for e in errors)


def test_direct_self_reference_is_illegal():
    registry = TypeRegistry.from_idl("record a { self_field: a; }")
    errors = registry.validate()
    assert any(isinstance(e, IllegalRecursion) for e in errors)


def test_mutual_recursion_is_illegal():
    registry = TypeRegistry.from_idl("record a { f: b; } record b { g: a; }")
    assert any(isinstance(e, IllegalRecursion) for e in registry.validate())


def test_recursion_through_seq_is_legal():
    registry = TypeRegistry.from_idl("record node { children: seq<node>; payload: i32; }")
    assert registry.validate() == []


def test_recursion_through_fixed_array_is_still_illegal():
    registry = TypeRegistry.from_idl("record a { pair: [a; 2]; }")
    assert any(isinstance(e, IllegalRecursion) for e in registry.validate())


def test_recursion_through_variant_payload_is_illegal():
    registry = TypeRegistry.from_idl("variant v { leaf; inner(v); }")
    assert any(isinstance(e, IllegalRecursion) for e in registry.validate())


def test_variant_recursion_behind_seq_is_legal():
    registry = TypeRegistry.from_idl("variant v { leaf; inner(seq<v>); }")
    assert registry.validate() == []


def test_check_raises_first_error():
    registry = TypeRegistry.from_idl("record a { self_field: a; }")
    with pytest.raises(IllegalRecursion):
        registry.check()


# ---------------------------------------------------------------------------
# Pretty printing


def test_format_parse_round_trip_on_examples():
    source = """
    record pt { x: i32; y: f64; }
    variant shade { red; rgb(u32); }
    record t { v: seq<pt>; m: [u8; 4]; }
    """
    descriptors = parse_idl(source)
    assert parse_idl(format_descriptors(descriptors)) == descriptors


def test_format_kind_spellings():
    assert format_kind(Sequence(Primitive(PrimTag.U8))) == "seq<u8>"
    assert format_kind(FixedArray(Primitive(PrimTag.I32), 3)) == "[i32; 3]"
    assert format_kind(Named("pt")) == "pt"


def test_random_registries_round_trip_through_text():
    rng = random.Random(99)
    for _ in range(50):
        registry = make_random_registry(rng, rng.randint(1, 5))
        descriptors = list(registry)
        assert parse_idl(format_descriptors(descriptors)) == descriptors


def test_declaration_order_preserved_for_random_field_names():
    rng = random.Random(4)
    for _ in range(20):
        names = rng.sample("abcdefghijklmnopqrstuvwxyz", rng.randint(2, 8))
        source = "record r { " + " ".join(f"{n}: i32;" for n in names) + " }"
        (desc,) = parse_idl(source)
        assert [f.name for f in desc.fields] == names


# ---------------------------------------------------------------------------
# Recursion rule against an independent oracle


def _hard_successors(kind, acc):
    """Named references reachable without crossing a sequence."""
    if isinstance(kind, Named):
        acc.add(kind.type_name)
    elif isinstance(kind, FixedArray):
        _hard_successors(kind.element, acc)
    # Sequence deliberately not walked: it breaks recursion.


def _oracle_has_cycle(registry):
    graph = {}
    for desc in registry:
        succ = set()
        if isinstance(desc, RecordType):
            for f in desc.fields:
                _hard_successors(f.kind, succ)
        else:
            for arm in desc.arms:
                if arm.payload is not None:
                    _hard_successors(arm.payload, succ)
        graph[desc.name] = {s for s in succ if s in registry}
    # Kahn's algorithm: a topological order exists iff there is no cycle.
    indegree = {n: 0 for n in graph}
    for succ in graph.values():
        for s in succ:
            indegree[s] += 1
    queue = [n for n, d in indegree.items() if d == 0]
    seen = 0
    while queue:
        n = queue.pop()
        seen += 1
        for s in graph[n]:
            indegree[s] -= 1
            if indegree[s] == 0:
                queue.append(s)
    return seen != len(graph)


def _maybe_rewire(rng, registry):
    """Point one random field at a random type, possibly forming a cycle."""
    descriptors = list(registry)
    names = [d.name for d in descriptors]
    records = [d for d in descriptors if isinstance(d, RecordType) and d.fields]
    if not records:
        return registry
    target = rng.choice(records)
    idx = rng.randrange(len(target.fields))
    pointee = Named(rng.choice(names))
    new_kind = Sequence(pointee) if rng.random() < 0.3 else pointee
    fields = list(target.fields)
    fields[idx] = FieldDescriptor(fields[idx].name, new_kind)
    rebuilt = TypeRegistry()
    for d in descriptors:
        rebuilt.register(RecordType(d.name, tuple(fields)) if d is target else d)
    return rebuilt


def test_validate_agrees_with_cycle_oracle():
    rng = random.Random(123)
    for _ in range(200):
        registry = make_random_registry(rng, rng.randint(1, 6))
        for _ in range(rng.randint(0, 3)):
            registry = _maybe_rewire(rng, registry)
        errors = registry.validate()
        assert not any(isinstance(e, UnresolvedType) for e in errors)
        flagged = any(isinstance(e, IllegalRecursion) for e in errors)
        assert flagged == _oracle_has_cycle(registry)
