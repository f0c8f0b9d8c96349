"""Shared helpers for the test suite.

Provides the JSON form used by the golden fixtures and seeded random
generators for registries and conforming values.  The generators build
registries that are acyclic by construction (each type references only
earlier ones), so every generated pair must round-trip.  `console_script`
runs the declared console scripts from a checkout, without an install.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import random
import struct
import sys
import threading
import time

import pytest

import packrun
from packrun.idl import (
    Arm,
    FieldDescriptor,
    FieldKind,
    FixedArray,
    Named,
    Primitive,
    PrimTag,
    RecordType,
    Sequence,
    TypeRegistry,
    VariantType,
)
from packrun.pack import DynValue, Prim, Rec, Seq, Str, Var
from packrun.transport import InProcessWorld

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
PROGRAMS = pathlib.Path(__file__).parent / "programs"
PYPROJECT = pathlib.Path(__file__).parent.parent / "pyproject.toml"

# The console scripts that pyproject.toml's [project.scripts] must declare.
CONSOLE_SCRIPTS = ("mprun", "idlc", "bench", "demo")


def load_golden(name: str = "portable_golden.json") -> dict:
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def program(name: str) -> str:
    return str(PROGRAMS / name)


def console_script(name: str) -> tuple[list[str], dict[str, str]]:
    """Argv and environment that run console script `name` from a checkout.

    The argv runs the `[project.scripts]` target under this interpreter the
    way an installed wrapper does, so no install and nothing on PATH is
    needed.  The environment's PYTHONPATH starts with the directory holding
    the packrun this process imported, so the script and any ranks it spawns
    import that same package.  Fails the test, naming the script, when the
    declared scripts differ from CONSOLE_SCRIPTS or a target does not
    resolve to a callable.  Needs `tomllib` (Python 3.11+).
    """
    import tomllib

    with open(PYPROJECT, "rb") as fh:
        declared = tomllib.load(fh).get("project", {}).get("scripts", {})
    missing = sorted(set(CONSOLE_SCRIPTS) - set(declared))
    extra = sorted(set(declared) - set(CONSOLE_SCRIPTS))
    if missing or extra:
        pytest.fail(f"[project.scripts] in {PYPROJECT.name}: "
                    f"missing {missing}, unexpected {extra}")

    module, _, func = declared[name].partition(":")
    try:
        target = getattr(importlib.import_module(module), func)
    except (ImportError, AttributeError, ValueError) as exc:
        pytest.fail(f"console script {name!r} = {declared[name]!r} "
                    f"does not resolve: {exc}")
    if not callable(target):
        pytest.fail(f"console script {name!r} = {declared[name]!r} is not callable")

    code = (f"import sys; sys.argv[0] = {name!r}; "
            f"from {module} import {func}; sys.exit({func}())")
    package_root = str(pathlib.Path(packrun.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return [sys.executable, "-c", code], env


def _script_of(argv: list[bytes]):
    """The script a Python command line runs, or None (not Python, or -c / -m)."""
    if not os.path.basename(argv[0]).startswith(b"python"):
        return None
    for arg in argv[1:]:
        if arg in (b"-c", b"-m"):
            return None
        if not arg.startswith(b"-"):
            return arg
    return None


def pids_running(program_name: str) -> list[int]:
    """Ids of Python processes whose script path ends with `program_name` (Linux /proc scan).

    Only the interpreter's script argument counts, so a shell or a
    ``python -c`` whose text merely names the program is not a match.
    """
    name = program_name.encode()
    found = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            argv = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        script = _script_of(argv)
        if script is not None and (script == name or script.endswith(b"/" + name)):
            found.append(int(entry.name))
    return found


def value_from_json(desc) -> DynValue:
    """Rebuild a dynamic value from its fixture JSON form."""
    (tag, body), = desc.items()
    if tag == "prim":
        prim_tag, raw = body
        t = PrimTag(prim_tag)
        if t is PrimTag.BOOL:
            return Prim(t, bool(raw))
        return Prim(t, raw)
    if tag == "str":
        return Str(body)
    if tag == "bytes":
        return Seq(bytes.fromhex(body))
    if tag == "seq":
        return Seq([value_from_json(item) for item in body])
    if tag == "rec":
        type_name, fields = body
        return Rec(type_name, [value_from_json(f) for f in fields])
    if tag == "var":
        type_name, arm, payload = body
        return Var(type_name, arm, None if payload is None else value_from_json(payload))
    raise ValueError(f"unknown value tag {tag!r}")


# ---------------------------------------------------------------------------
# Random registries and values

_SCALARS = [PrimTag.I32, PrimTag.U32, PrimTag.I64, PrimTag.U64,
            PrimTag.F32, PrimTag.F64, PrimTag.BOOL, PrimTag.U8, PrimTag.STRING]

_INT_RANGE = {
    PrimTag.I32: (-2**31, 2**31 - 1),
    PrimTag.U32: (0, 2**32 - 1),
    PrimTag.I64: (-2**63, 2**63 - 1),
    PrimTag.U64: (0, 2**64 - 1),
    PrimTag.U8: (0, 255),
}

_TEXT_POOL = "abcXYZ09 _-" + "éß世界"


def f32_quantize(x: float) -> float:
    return struct.unpack("<f", struct.pack("<f", x))[0]


def random_kind(rng: random.Random, type_names: list[str], depth: int, max_depth: int = 5) -> FieldKind:
    roll = rng.random()
    if depth >= max_depth or roll < 0.55 or (not type_names and roll < 0.75):
        return Primitive(rng.choice(_SCALARS))
    if roll < 0.70:
        return Sequence(random_kind(rng, type_names, depth + 1, max_depth))
    if roll < 0.80:
        return FixedArray(random_kind(rng, type_names, depth + 1, max_depth), rng.randint(1, 3))
    if type_names:
        return Named(rng.choice(type_names))
    return Primitive(rng.choice(_SCALARS))


def make_random_registry(rng: random.Random, n_types: int = 4) -> TypeRegistry:
    registry = TypeRegistry()
    names: list[str] = []
    for i in range(n_types):
        name = f"t{i}"
        if rng.random() < 0.6:
            n_fields = rng.randint(0 if rng.random() < 0.1 else 1, 4)
            fields = tuple(FieldDescriptor(f"f{j}", random_kind(rng, names, 1))
                           for j in range(n_fields))
            registry.register(RecordType(name, fields))
        else:
            arms = []
            for j in range(rng.randint(1, 3)):
                payload = random_kind(rng, names, 1) if rng.random() < 0.7 else None
                arms.append(Arm(f"a{j}", payload))
            registry.register(VariantType(name, tuple(arms)))
        names.append(name)
    return registry


def random_value(rng: random.Random, kind: FieldKind, registry: TypeRegistry) -> DynValue:
    if isinstance(kind, Primitive):
        tag = kind.tag
        if tag is PrimTag.STRING:
            return Str("".join(rng.choice(_TEXT_POOL) for _ in range(rng.randint(0, 8))))
        if tag is PrimTag.BOOL:
            return Prim(tag, rng.random() < 0.5)
        if tag is PrimTag.F64:
            return Prim(tag, rng.choice([0.0, -1.5, 3.141592653589793, rng.uniform(-1e12, 1e12)]))
        if tag is PrimTag.F32:
            return Prim(tag, f32_quantize(rng.uniform(-1e6, 1e6)))
        lo, hi = _INT_RANGE[tag]
        edge = rng.random()
        if edge < 0.1:
            return Prim(tag, lo)
        if edge < 0.2:
            return Prim(tag, hi)
        return Prim(tag, rng.randint(lo, hi))
    if isinstance(kind, Sequence):
        n = rng.randint(0, 4)
        if kind.element == Primitive(PrimTag.U8) and rng.random() < 0.5:
            return Seq(bytes(rng.randrange(256) for _ in range(n)))
        return Seq([random_value(rng, kind.element, registry) for _ in range(n)])
    if isinstance(kind, FixedArray):
        if kind.element == Primitive(PrimTag.U8) and rng.random() < 0.5:
            return Seq(bytes(rng.randrange(256) for _ in range(kind.length)))
        return Seq([random_value(rng, kind.element, registry) for _ in range(kind.length)])
    assert isinstance(kind, Named)
    desc = registry.resolve(kind.type_name)
    if isinstance(desc, RecordType):
        return Rec(desc.name, [random_value(rng, f.kind, registry) for f in desc.fields])
    assert isinstance(desc, VariantType)
    arm = rng.choice(desc.arms)
    payload = None if arm.payload is None else random_value(rng, arm.payload, registry)
    return Var(desc.name, arm.name, payload)


def random_pair(rng: random.Random):
    """One (registry, kind, value) triple suitable for a round-trip check."""
    registry = make_random_registry(rng, rng.randint(1, 5))
    names = list(registry.entries)
    kind = random_kind(rng, names, 0)
    return registry, kind, random_value(rng, kind, registry)


# ---------------------------------------------------------------------------
# Multi-rank drivers (in-process worlds, one thread per rank)


class _RankThread(threading.Thread):
    def __init__(self, fn, ctx):
        super().__init__(daemon=True, name=f"rank{ctx.rank}")
        self._fn = fn
        self._ctx = ctx
        self.result = None
        self.error = None

    def run(self):
        try:
            self.result = self._fn(self._ctx)
        except BaseException as exc:  # surfaced by run_ranks
            self.error = exc


def make_world(nprocs: int, hetero: bool = False):
    world = InProcessWorld(nprocs, hetero)
    return world, world.contexts


def mesh_configs(nprocs: int, hetero: bool = False, timeout: float = 10.0):
    """One mesh config per rank, naming its ends of connections made as the launcher makes them."""
    from packrun.mesh import connected_pairs
    from packrun.transport import WorldConfig

    return [WorldConfig(my_rank_hint=rank, hetero=hetero, fds=tuple(fds))
            for rank, fds in enumerate(connected_pairs(nprocs, timeout))]


def make_mesh_world(nprocs: int, hetero: bool = False, timeout: float = 10.0):
    """Bring up a real TCP mesh inside this process, one context per rank; returns the ctxs."""
    from packrun.mesh import connect_mesh

    return [connect_mesh(config) for config in mesh_configs(nprocs, hetero, timeout)]


def run_ranks(ctxs, fn, timeout: float = 15.0):
    """Run fn(ctx) concurrently on every rank; return results by rank.

    Raises the first rank error, or fails the test if any rank is still
    running at the deadline (deadlock guard: threads cannot be killed, so
    they are daemons and the suite moves on).
    """
    threads = [_RankThread(fn, ctx) for ctx in ctxs]
    for t in threads:
        t.start()
    deadline = time.monotonic() + timeout
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
    stuck = [t.name for t in threads if t.is_alive()]
    if stuck:
        raise AssertionError(f"ranks did not finish within {timeout} s: {stuck}")
    for t in threads:
        if t.error is not None:
            raise t.error
    return [t.result for t in threads]
