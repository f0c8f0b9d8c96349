"""Type definitions and their descriptors.

A small interface definition language declares named compound types:

    record point { x: f64; y: f64; }
    record path  { label: string; points: seq<point>; }
    variant shape { dot; circle(f64); poly(path); }

``parse_idl`` turns source text into :class:`TypeDescriptor` objects, one per
declaration, preserving declaration order.  Descriptors are the structural
metadata that drives generic serialization: a record lists its fields in
order, a variant lists its arms.  A :class:`TypeRegistry` collects descriptors
by name so that ``Named`` field kinds can be resolved, and ``validate``
enforces the one structural rule that matters for serialization: recursive
type references must pass through a ``seq`` (dynamic sizing), never through a
plain field or a fixed array.

Grammar::

    file      := { typedef }
    typedef   := record | variant
    record    := "record" IDENT "{" field { field } "}"
    field     := IDENT ":" kind ";"
    variant   := "variant" IDENT "{" arm { arm } "}"
    arm       := IDENT [ "(" kind ")" ] ";"
    kind      := prim | "seq" "<" kind ">" | "[" kind ";" INT "]" | IDENT
    prim      := i32|u32|i64|u64|f32|f64|bool|u8|string

Comments run from ``//`` to end of line.  Whitespace is insignificant.
Identifiers are ASCII: a letter or underscore, then letters, digits or
underscores.  Keywords and primitive names are reserved.  Tokens come from
one table of patterns, and ``validate`` finds reference cycles with graphlib.
"""

from __future__ import annotations

import graphlib
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Optional, Union


class PrimTag(str, Enum):
    """Primitive wire types."""

    I32 = "i32"
    U32 = "u32"
    I64 = "i64"
    U64 = "u64"
    F32 = "f32"
    F64 = "f64"
    BOOL = "bool"
    U8 = "u8"
    STRING = "string"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_PRIM_NAMES = {t.value: t for t in PrimTag}
_KEYWORDS = {"record", "variant", "seq"} | set(_PRIM_NAMES)

MAX_KIND_NESTING = 64


# ---------------------------------------------------------------------------
# Field kinds and descriptors.  A fixed array's length, a record's fields (as in
# an XDR struct) and a variant's arms each number at least 1: every value takes a byte


@dataclass(frozen=True)
class Primitive:
    tag: PrimTag


@dataclass(frozen=True)
class Sequence:
    element: "FieldKind"


@dataclass(frozen=True)
class FixedArray:
    element: "FieldKind"
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise IdlError(f"a fixed array has a length of at least 1, not {self.length}")


@dataclass(frozen=True)
class Named:
    type_name: str


FieldKind = Union[Primitive, Sequence, FixedArray, Named]


@dataclass(frozen=True)
class FieldDescriptor:
    name: str
    kind: FieldKind


@dataclass(frozen=True)
class Arm:
    name: str
    payload: Optional[FieldKind] = None


@dataclass(frozen=True)
class RecordType:
    """Descriptor for a record: fields serialize in declaration order."""

    name: str
    fields: tuple[FieldDescriptor, ...]

    def __post_init__(self) -> None:
        if not self.fields:
            raise IdlError(f"record {self.name!r} has no fields")


@dataclass(frozen=True)
class VariantType:
    """Descriptor for a discriminated union: the active arm's index goes on
    the wire ahead of its payload."""

    name: str
    arms: tuple[Arm, ...]

    def __post_init__(self) -> None:
        if not self.arms:
            raise IdlError(f"variant {self.name!r} has no arms")

    def arm_index(self, arm_name: str) -> int:
        for i, arm in enumerate(self.arms):
            if arm.name == arm_name:
                return i
        raise KeyError(arm_name)


TypeDescriptor = Union[RecordType, VariantType]


# ---------------------------------------------------------------------------
# Errors


class IdlError(Exception):
    """Base class for IDL parsing and registry errors."""


class IdlSyntaxError(IdlError):
    def __init__(self, line: int, column: int, expected: str):
        super().__init__(f"line {line}, column {column}: expected {expected}")
        self.line = line
        self.column = column
        self.expected = expected


class DuplicateField(IdlError):
    def __init__(self, type_name: str, field_name: str):
        super().__init__(f"duplicate field {field_name!r} in type {type_name!r}")
        self.type_name = type_name
        self.field_name = field_name


class DuplicateType(IdlError):
    def __init__(self, name: str):
        super().__init__(f"duplicate type {name!r}")
        self.name = name


class UnresolvedType(IdlError):
    def __init__(self, name: str, referenced_from: str):
        super().__init__(f"type {name!r} referenced from {referenced_from!r} is not defined")
        self.name = name
        self.referenced_from = referenced_from


class IllegalRecursion(IdlError):
    def __init__(self, cycle: tuple[str, ...]):
        path = " -> ".join(cycle)
        super().__init__(f"recursive reference not behind a seq: {path}")
        self.cycle = cycle


# ---------------------------------------------------------------------------
# Tokenizer


class _Token(NamedTuple):
    kind: str  # "ident", "int", "punct", "eof"
    text: str
    line: int
    column: int


# One alternative per token class, tried in order: every character starts one,
# and end of input is the last.  Identifiers and integers are ASCII only.
_TOKEN = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("ident", r"[A-Za-z_][A-Za-z0-9_]*"), ("punct", r"[{}<>\[\]():;]"), ("blank", r"[ \t\r]+"),
    ("newline", r"\n"), ("int", r"[0-9]+"), ("comment", r"//[^\n]*"),
    ("other", r"."), ("eof", r"\Z"),
)))


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(source):
        kind, column = match.lastgroup, match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "other":
            raise IdlSyntaxError(line, column, f"a token (found {match.group()!r})")
        elif kind not in ("blank", "comment"):
            tokens.append(_Token(kind, match.group(), line, column))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _error(self, expected: str) -> IdlSyntaxError:
        tok = self._peek()
        found = tok.text if tok.kind != "eof" else "end of input"
        return IdlSyntaxError(tok.line, tok.column, f"{expected} (found {found!r})")

    def _expect_punct(self, text: str) -> _Token:
        if self._peek().text == text:
            return self._advance()
        raise self._error(f"{text!r}")

    def _expect_ident(self, what: str = "an identifier") -> _Token:
        tok = self._peek()
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            return self._advance()
        raise self._error(what)

    def parse_file(self) -> list[TypeDescriptor]:
        descriptors: list[TypeDescriptor] = []
        seen: set[str] = set()
        while self._peek().kind != "eof":
            if self._peek().text == "record":
                desc: TypeDescriptor = self._parse_record()
            elif self._peek().text == "variant":
                desc = self._parse_variant()
            else:
                raise self._error("'record' or 'variant'")
            if desc.name in seen:
                raise DuplicateType(desc.name)
            seen.add(desc.name)
            descriptors.append(desc)
        return descriptors

    def _parse_members(self, member, what: str) -> tuple[str, list]:
        """Parse ``IDENT "{" IDENT member ";" { IDENT member ";" } "}"`` after the keyword."""
        keyword = self._advance().text  # "record" or "variant"
        name = self._expect_ident("a type name").text
        self._expect_punct("{")
        members: list = []
        names: set[str] = set()
        while True:
            member_name = self._expect_ident(f"{what} or '}}'" if members
                                             else f"{what} in {keyword} {name!r}").text
            if member_name in names:
                raise DuplicateField(name, member_name)
            names.add(member_name)
            members.append(member(member_name))
            self._expect_punct(";")
            if self._peek().text == "}":
                self._advance()
                return name, members

    def _parse_record(self) -> RecordType:
        name, fields = self._parse_members(self._parse_field, "a field name")
        return RecordType(name, tuple(fields))

    def _parse_field(self, name: str) -> FieldDescriptor:
        self._expect_punct(":")
        return FieldDescriptor(name, self._parse_kind(0))

    def _parse_variant(self) -> VariantType:
        name, arms = self._parse_members(self._parse_arm, "an arm name")
        return VariantType(name, tuple(arms))

    def _parse_arm(self, name: str) -> Arm:
        if self._peek().text != "(":
            return Arm(name)
        self._advance()
        payload = self._parse_kind(0)
        self._expect_punct(")")
        return Arm(name, payload)

    def _parse_kind(self, depth: int) -> FieldKind:
        if depth >= MAX_KIND_NESTING:
            tok = self._peek()
            raise IdlSyntaxError(tok.line, tok.column, f"nesting no deeper than {MAX_KIND_NESTING}")
        tok = self._peek()
        if tok.kind == "ident" and tok.text in _PRIM_NAMES:
            self._advance()
            return Primitive(_PRIM_NAMES[tok.text])
        if tok.kind == "ident" and tok.text == "seq":
            self._advance()
            self._expect_punct("<")
            element = self._parse_kind(depth + 1)
            self._expect_punct(">")
            return Sequence(element)
        if self._peek().text == "[":
            self._advance()
            element = self._parse_kind(depth + 1)
            self._expect_punct(";")
            length_tok = self._peek()
            if length_tok.kind != "int" or int(length_tok.text) < 1:
                raise self._error("an array length of at least 1")
            self._advance()
            self._expect_punct("]")
            return FixedArray(element, int(length_tok.text))
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            self._advance()
            return Named(tok.text)
        raise self._error("a kind (primitive, seq<...>, [...; n] or type name)")


def parse_idl(source: str) -> list[TypeDescriptor]:
    """Parse IDL source into descriptors, in declaration order.

    Pure function: no registry is touched.  Raises :class:`IdlSyntaxError`,
    :class:`DuplicateField` or :class:`DuplicateType`.
    """
    return _Parser(_tokenize(source)).parse_file()


def parse_kind(spec: str) -> FieldKind:
    """Parse a single kind expression such as ``"i32"`` or ``"seq<point>"``."""
    parser = _Parser(_tokenize(spec))
    kind = parser._parse_kind(0)
    tok = parser._peek()
    if tok.kind != "eof":
        raise IdlSyntaxError(tok.line, tok.column, "end of kind expression")
    return kind


# ---------------------------------------------------------------------------
# Pretty printing (also the stable textual form emitted by the idlc tool)


def format_kind(kind: FieldKind) -> str:
    if isinstance(kind, Primitive):
        return kind.tag.value
    if isinstance(kind, Sequence):
        return f"seq<{format_kind(kind.element)}>"
    if isinstance(kind, FixedArray):
        return f"[{format_kind(kind.element)}; {kind.length}]"
    if isinstance(kind, Named):
        return kind.type_name
    raise TypeError(f"not a field kind: {kind!r}")


def format_descriptor(desc: TypeDescriptor) -> str:
    if isinstance(desc, RecordType):
        lines = [f"record {desc.name} {{"]
        lines += [f"  {f.name}: {format_kind(f.kind)};" for f in desc.fields]
        lines.append("}")
        return "\n".join(lines)
    lines = [f"variant {desc.name} {{"]
    for arm in desc.arms:
        if arm.payload is None:
            lines.append(f"  {arm.name};")
        else:
            lines.append(f"  {arm.name}({format_kind(arm.payload)});")
    lines.append("}")
    return "\n".join(lines)


def format_descriptors(descriptors: Iterable[TypeDescriptor]) -> str:
    return "\n\n".join(format_descriptor(d) for d in descriptors)


# ---------------------------------------------------------------------------
# Registry


@dataclass
class TypeRegistry:
    """Named descriptors, looked up during serialization.

    Build once (``register`` or :meth:`from_idl`), ``validate``, then share
    freely; nothing here mutates after the build phase.
    """

    entries: dict[str, TypeDescriptor] = field(default_factory=dict)
    # packrun.pack's compiled codecs for these types; register empties it
    _codecs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_idl(cls, source: str) -> "TypeRegistry":
        registry = cls()
        for desc in parse_idl(source):
            registry.register(desc)
        return registry

    def register(self, descriptor: TypeDescriptor) -> "TypeRegistry":
        if descriptor.name in self.entries:
            raise DuplicateType(descriptor.name)
        self.entries[descriptor.name] = descriptor
        self._codecs.clear()
        return self

    def resolve(self, name: str) -> TypeDescriptor:
        return self.entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __iter__(self) -> Iterator[TypeDescriptor]:
        return iter(self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)

    def validate(self) -> list[IdlError]:
        """Check referential integrity and the recursion rule.

        Returns the list of problems found (empty means the registry is
        sound).  A reference cycle is legal only if at least one edge on it
        passes through a ``seq``: sequences carry their own length, so they
        are the one place unbounded nesting can terminate.
        """
        errors: list[IdlError] = []
        edges: dict[str, list[str]] = {name: [] for name in self.entries}

        def walk(kind: FieldKind, owner: str, behind_seq: bool) -> None:
            if isinstance(kind, Primitive):
                return
            if isinstance(kind, Sequence):
                walk(kind.element, owner, True)
                return
            if isinstance(kind, FixedArray):
                walk(kind.element, owner, behind_seq)
                return
            assert isinstance(kind, Named)
            if kind.type_name not in self.entries:
                errors.append(UnresolvedType(kind.type_name, owner))
            elif not behind_seq:
                edges[owner].append(kind.type_name)

        for name, desc in self.entries.items():
            if isinstance(desc, RecordType):
                for f in desc.fields:
                    walk(f.kind, name, False)
            else:
                for arm in desc.arms:
                    if arm.payload is not None:
                        walk(arm.payload, name, False)

        errors.extend(_find_cycles(edges))
        return errors

    def check(self) -> "TypeRegistry":
        """Validate and raise the first problem, if any."""
        problems = self.validate()
        if problems:
            raise problems[0]
        return self


def _find_cycles(edges: dict[str, list[str]]) -> Iterator[IllegalRecursion]:
    """Report cycles of ``edges`` (type -> types it holds) until none is left.  A reported
    cycle's types then hold nothing: reports share no type, and every cycle meets one."""
    while True:
        sorter = graphlib.TopologicalSorter()
        for name, refs in edges.items():
            sorter.add(name)
            for ref in refs:  # held after holder: the search follows references
                sorter.add(ref, name)
        try:
            sorter.prepare()
        except graphlib.CycleError as exc:
            cycle = tuple(exc.args[1])
            yield IllegalRecursion(cycle)
            edges = {**edges, **dict.fromkeys(cycle, ())}
        else:
            return
