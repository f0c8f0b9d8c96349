"""Run the same seeded pack, unpack and IDL cases on two packrun source trees.

Each tree runs in its own subprocess, with ``PYTHONPATH`` set to that tree
alone, and both run the case generator below, which uses only the public
``packrun`` exports. Every case prints one canonical line:

- a value case draws an encoding, a registry, a kind and a value (often a
  wrong one: a bad tag, an out-of-range int, an inexact ``f32``, the wrong
  arity, ``bytes`` in a non-``u8`` sequence). Its line holds what ``pack``
  did (the bytes, or the exception's class, message and attributes such as
  ``.path``) and what ``unpack`` made of the packed bytes as they are,
  truncated, extended and with one bit flipped, and of random bytes (the
  value's repr and the cursor, or the exception with ``needed``/``available``
  or the malformed ``value``);
- an IDL case parses random IDL text, and reports the descriptors or the
  error, ``validate()``'s problems, and one value case on a type it declares.

Some registries are recursive (``_SIZED`` is ``tests/test_pack.py``'s), some
are unsound on purpose (unresolved names, recursion outside a ``seq``). Some
cases use a fresh registry, so their kind compiles first; others register
part of a registry, use it, then register the rest and use it again.
Every differing line is printed with both outcomes, then
``cases=N differences=D``; the exit status is 1 if D > 0.

    python3 tools/differential.py OLD_SRC NEW_SRC [--seed S] [--cases N]

N value cases run per encoding (default 2000), plus N // 10 IDL cases. A
parent commit's tree comes from git, with nothing downloaded::

    mkdir -p /tmp/parent && git archive <commit> src | tar -x -C /tmp/parent
    python3 tools/differential.py /tmp/parent/src src --cases 100000
"""

import argparse
import hashlib
import itertools
import os
import re
import subprocess
import sys

# Registries the value cases draw from: sound and recursive, then unsound.
_SIZED = """
    record pt { x: f64; y: u8; }
    variant opt { a(f64); b([u8; 2]); }
    record r { x: i32; next: seq<r>; }
    record a { s: seq<b>; }
    record b { x: i64; y: a; }
"""
_SHAPES = """
    record sample { label: string; weight: f64; trace: seq<i32>; }
    variant sh { dot; many(seq<sh>); }
    record unit { on: bool; }
    record box { u: unit; pair: [unit; 2]; flags: [bool; 3]; units: seq<unit>; }
    record tree { v: f32; kids: seq<tree>; leaf: sh; grid: [[u8; 2]; 2]; }
"""
_UNSOUND = """
    record holder { items: seq<pt>; ghosts: [ghost; 2]; }
    variant maybe { none; some(ghost); many(seq<maybe>); }
    record loop { x: i32; again: [loop; 1]; }
    record knot { tie: knot2; n: u8; }
    record knot2 { back: knot; list: seq<knot2>; }
"""
_SOURCES = {"sized": _SIZED, "shapes": _SHAPES, "unsound": _UNSOUND}

_PRIMS = ("i32", "u32", "i64", "u64", "f32", "f64", "bool", "u8", "string")
_INT_RANGE = {"i32": (-2**31, 2**31 - 1), "u32": (0, 2**32 - 1), "i64": (-2**63, 2**63 - 1),
              "u64": (0, 2**64 - 1), "u8": (0, 255)}
_TYPECODE = {"i32": "i", "u32": "I", "i64": "q", "u64": "Q", "f32": "f", "f64": "d"}
_TEXTS = ("", "a", "héllo", "日本", "pad", "seven!!", "x" * 9)
_IDL_NOISE = ("record", "variant", "seq", "<", ">", "[", "]", ";", ":", "{", "}", "(", ")",
              "0", "7", "//c\n", "$", "é", "i32", "p", "\n")
_SHALLOW = 5  # below this depth, sequences are empty and variants prefer leaf arms
_DEEPEST = 14  # a value this deep is a bare number, which ends unsound recursion


def _emit(seed: int, cases: int) -> None:
    """Print one line per case; this runs in each tree's subprocess."""
    import random
    import struct
    from array import array

    import packrun as pr

    tags = {t.value: t for t in pr.PrimTag}
    registries = {name: pr.TypeRegistry.from_idl(text) for name, text in _SOURCES.items()}
    names = {name: list(registry.entries) for name, registry in registries.items()}
    names["none"] = ["pt", "sh"]

    def scrub(text: str) -> str:
        text = re.sub(r"<PrimTag\.\w+: '(\w+)'>", r"\1", text)
        return re.sub(r"0x[0-9a-f]+", "0x?", text).replace("\n", "\\n")

    def failure(exc: BaseException) -> str:
        attrs = "".join(f" {k}={v!r}" for k, v in sorted(vars(exc).items()))
        return f"!{type(exc).__name__}({exc}){attrs}"

    def gen_kind(rng, names, depth=0):
        r = rng.random()
        if depth >= 3 or r < 0.45:
            if names and rng.random() < 0.4:
                return rng.choice(names)
            return rng.choice(_PRIMS)
        inner = gen_kind(rng, names, depth + 1)
        return f"seq<{inner}>" if r < 0.75 else f"[{inner}; {rng.randint(1, 3)}]"

    def wrong(rng):
        return rng.choice((
            lambda: pr.Prim(tags[rng.choice(_PRIMS[:-1])], rng.randint(0, 3)),
            lambda: pr.Str("x"), lambda: pr.Seq([]), lambda: pr.Seq(b"ab"),
            lambda: pr.Rec("pt", []), lambda: pr.Var("sh", "dot"), lambda: None, lambda: 5,
            lambda: pr.Prim("i32", 1), lambda: pr.Prim(pr.PrimTag.I32, "1"),
        ))()

    def gen_number(rng, tag):
        """Mostly a number that ``tag`` holds, one in twenty times an edge or a wrong one."""
        edge = rng.random() < 0.05
        if tag in _INT_RANGE:
            lo, hi = _INT_RANGE[tag]
            if edge:
                return rng.choice((lo, hi, lo - 1, hi + 1, 2**70, True, 1.0))
            return rng.randint(lo, hi) if rng.random() < 0.5 else rng.randint(0, 9)
        if tag == "bool":
            return rng.choice((1, 0, None)) if edge else rng.random() < 0.5
        if tag == "f32":
            if edge:
                return rng.choice((0.1, float("nan"), float("inf"), -0.0, 3, 2**24 + 1, 2**53 + 1,
                                   2**200, 10**400, 3.4028235e38, True, "x"))
            return struct.unpack("<f", struct.pack("<f", rng.uniform(-1e6, 1e6)))[0]
        if edge:
            return rng.choice((float("nan"), float("-inf"), 7, 2**1000, 10**400, True, "x"))
        return rng.uniform(-1e9, 1e9)

    def gen_value(rng, kind, depth=0):
        if depth >= _DEEPEST:
            return pr.Prim(pr.PrimTag.I32, 0)
        if rng.random() < 0.02:
            return wrong(rng)
        if kind == "string":
            return pr.Str(rng.choice(_TEXTS) if rng.random() < 0.97 else rng.choice(("\ud800", 5)))
        if isinstance(kind, str):
            return pr.Prim(tags[kind], gen_number(rng, kind))
        if kind[0] == "array":
            _, element, length = kind
            n = rng.randint(0, 4) if depth < _SHALLOW else 0
            if length is not None:
                n = length if rng.random() < 0.96 else max(0, length + rng.choice((-1, 1)))
            r = rng.random()
            if element == "u8" and r < 0.4:
                return pr.Seq(rng.randbytes(n) if r < 0.3 else bytearray(rng.randbytes(n)))
            if isinstance(element, str) and element in _TYPECODE and r < 0.4:
                values = [gen_number(rng, element) for _ in range(n)]
                good = [v for v in values if type(v) in (int, float) and v == v]
                try:
                    return pr.Seq(array(_TYPECODE[element], good))
                except (OverflowError, TypeError):
                    return pr.Seq(array("d", [float(v) for v in good if abs(v) < 1e300]))
            if r > 0.97:
                return pr.Seq(rng.choice((b"\x01\x02", array("h", [1, 2]), array("i", [3]))))
            return pr.Seq([gen_value(rng, element, depth + 1) for _ in range(n)])
        _, registry, name = kind
        desc = registry.entries.get(name) if registry is not None else None
        if desc is None:
            return rng.choice((pr.Rec(name, []), pr.Var(name, "dot")))
        if isinstance(desc, pr.RecordType):
            fields = [gen_value(rng, kind_of(registry, f.kind), depth + 1) for f in desc.fields]
            if rng.random() < 0.03:
                fields = fields[:-1] if fields and rng.random() < 0.5 else fields + [pr.Str("")]
            return pr.Rec(name if rng.random() < 0.98 else "pt", fields)
        arms = desc.arms
        if depth >= _SHALLOW:
            arms = [a for a in arms if a.payload is None] or arms
        arm = rng.choice(arms)
        payload = None if arm.payload is None else gen_value(rng, kind_of(registry, arm.payload),
                                                             depth + 1)
        r = rng.random()
        if r < 0.02:
            return pr.Var(name, "nosuch", payload)
        if r < 0.04:
            return pr.Var(name, arm.name, None if payload is not None else pr.Str("extra"))
        return pr.Var(name, arm.name, payload)

    def kind_of(registry, kind):
        """A kind in the generator's terms: a tag, ("array", element, length or None)
        or ("named", registry, name)."""
        if isinstance(kind, str):
            kind = pr.parse_kind(kind)
        if isinstance(kind, pr.Primitive):
            return kind.tag.value
        if isinstance(kind, pr.Sequence):
            return ("array", kind_of(registry, kind.element), None)
        if isinstance(kind, pr.FixedArray):
            return ("array", kind_of(registry, kind.element), kind.length)
        return ("named", registry, kind.type_name)

    def hostile(rng, portable):
        words = [struct.pack(">I" if portable else "=I", rng.randint(0, 3))
                 if rng.random() < 0.5 else rng.randbytes(4) for _ in range(rng.randint(0, 10))]
        data = b"".join(words)
        return data[:rng.randint(0, len(data))]

    def do_pack(rng, encoding, value, kind, registry):
        prefix = rng.randbytes(rng.randint(0, 5))
        buf = pr.Buffer(encoding)
        buf.append(prefix)
        try:
            if rng.random() < 0.2:
                return pr.encode_value(value, encoding, kind, registry), None
            pr.pack(buf, value, kind, registry)
            return buf.data[len(prefix):], None
        except Exception as exc:
            return None, f"{failure(exc)} size={buf.size - len(prefix)}"

    def do_unpack(encoding, data, kind, registry):
        buf = pr.Buffer(encoding, data)
        try:
            text = repr(pr.unpack(buf, kind, registry))
        except Exception as exc:
            return f"{failure(exc)} at={buf.read_cursor}"
        if len(text) > 400:  # a large value: its hash keeps the line short
            text = f"{text[:200]}...sha1:{hashlib.sha1(text.encode()).hexdigest()}"
        return f"{text} at={buf.read_cursor}"

    def value_case(rng, encoding, registry, kind_text):
        """pack, then unpack the bytes as they are, cut, extended, bit-flipped and random."""
        as_object = rng.random() < 0.5
        kind = pr.parse_kind(kind_text) if as_object else kind_text
        value = gen_value(rng, kind_of(registry, kind_text))
        packed, failed = do_pack(rng, encoding, value, None if rng.random() < 0.1 else kind,
                                 registry)
        parts = [f"pack={failed or packed.hex()}"]
        data = packed or b""
        bit = rng.randrange(8 * len(data)) if data else 0
        flipped = bytearray(data)
        if data:
            flipped[bit // 8] ^= 1 << bit % 8
        cut = data[:rng.randint(0, max(0, len(data) - 1))]
        for label, payload in (("valid", data), ("cut", cut),
                               ("ext", data + rng.randbytes(rng.randint(1, 6))),
                               ("flip", bytes(flipped)),
                               ("rand", hostile(rng, encoding is pr.Encoding.PORTABLE))):
            parts.append(f"{label}={do_unpack(encoding, payload, kind, registry)}")
        return " ".join(parts)

    def staged(rng, source):
        """A registry holding a random part of ``source``, and the rest to register later."""
        descs = pr.parse_idl(source)
        rng.shuffle(descs)
        cut = rng.randint(0, len(descs))
        registry = pr.TypeRegistry()
        for desc in descs[:cut]:
            registry.register(desc)
        return registry, descs[cut:]

    def gen_idl(rng):
        names = rng.sample("pqrstu", rng.randint(1, 4))
        if rng.random() < 0.1:
            names.append(names[0])
        decls = []
        for name in names:
            refs = names + ["zz"]
            if rng.random() < 0.6:
                fields = " ".join(f"{field}: {gen_kind(rng, refs)};"
                                  for field in rng.choices("abcdef", k=rng.randint(0, 3)))
                decls.append(f"record {name} {{ {fields} }}")
            else:
                arms = " ".join(rng.choice((f"{arm};", f"{arm}({gen_kind(rng, refs)});"))
                                for arm in rng.sample("vwxy", rng.randint(1, 3)))
                decls.append(f"variant {name} {{ {arms} }}")
        text = "\n".join(decls)
        if rng.random() < 0.4:
            tokens = re.findall(r"\w+|[^\w\s]|\s+", text)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(tokens) + 1)
                op = rng.random()
                if op < 0.4 and i < len(tokens):
                    del tokens[i]
                elif op < 0.7:
                    tokens.insert(i, rng.choice(_IDL_NOISE))
                elif i < len(tokens):
                    tokens[i] = rng.choice(_IDL_NOISE)
            text = "".join(tokens)
        return text

    def idl_case(rng):
        text = gen_idl(rng)
        parts = [f"idl={text!r}"]
        try:
            descs = pr.parse_idl(text)
        except Exception as exc:
            parts.append(f"parse={failure(exc)}")
            descs = []
        else:
            parts.append(f"parse={pr.format_descriptors(descs)!r}")
        registry = pr.TypeRegistry()
        for desc in descs:
            registry.register(desc)
        parts.append(f"validate={[failure(p) for p in registry.validate()]}")
        kind_text = gen_kind(rng, [d.name for d in descs] + ["zz"])
        noisy = kind_text if rng.random() < 0.7 else kind_text[:rng.randint(0, len(kind_text))]
        try:
            parts.append(f"kind={pr.format_kind(pr.parse_kind(noisy))}")
        except Exception as exc:
            parts.append(f"kind={failure(exc)}")
        else:
            encoding = rng.choice((pr.Encoding.NATIVE, pr.Encoding.PORTABLE))
            parts.append(value_case(rng, encoding, registry, noisy))
        return " ".join(parts)

    encodings = (pr.Encoding.NATIVE, pr.Encoding.PORTABLE)
    out = sys.stdout
    for i in range(2 * cases):
        rng = random.Random(f"{seed}:{i}")
        encoding = encodings[i % 2]
        source = rng.choice(("none",) + tuple(_SOURCES))
        mode = rng.random()
        if source == "none":
            registry, later, label = None, [], "none"
        elif mode < 0.125:
            (registry, later), label = staged(rng, _SOURCES[source]), f"{source}/staged"
        elif mode < 0.375:  # a fresh registry: this case's kind compiles first
            registry, later = pr.TypeRegistry.from_idl(_SOURCES[source]), []
            label = f"{source}/fresh"
        else:
            registry, later, label = registries[source], [], source
        kind_text = gen_kind(rng, names[source] + ["ghost"] * (rng.random() < 0.2))
        line = f"{i} {encoding.value} {label} {kind_text} "
        line += value_case(rng, encoding, registry, kind_text)
        if later:
            for desc in later:
                registry.register(desc)
            line += f" then {value_case(rng, encoding, registry, kind_text)}"
        out.write(scrub(line) + "\n")
    for i in range(cases // 10):
        rng = random.Random(f"{seed}:idl:{i}")
        out.write(scrub(f"idl{i} {idl_case(rng)}") + "\n")
    out.flush()


def _spawn(tree: str, seed: int, cases: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(tree))
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--emit", os.path.abspath(tree),
         "--seed", str(seed), "--cases", str(cases)],
        env=env, stdout=subprocess.PIPE, text=True, encoding="utf-8", errors="backslashreplace")


def compare(old: str, new: str, seed: int, cases: int, out=sys.stdout) -> int:
    """Run both trees and print each differing case; return the number of differences."""
    procs = [_spawn(old, seed, cases), _spawn(new, seed, cases)]
    count = differences = 0
    try:
        for a, b in itertools.zip_longest(procs[0].stdout, procs[1].stdout):
            count += 1
            if a != b:
                differences += 1
                case = (a or b).split(" ", 1)[0]
                old_line, new_line = (line.rstrip() if line else "(missing)" for line in (a, b))
                out.write(f"case {case}:\n  old: {old_line}\n  new: {new_line}\n")
    finally:  # closed first: a child blocked on a full pipe would never end
        for p in procs:
            p.stdout.close()
        codes = [p.wait() for p in procs]
    for tree, code in zip((old, new), codes):
        if code != 0:
            raise SystemExit(f"{tree}: the case generator exited with status {code}")
    out.write(f"native={cases} portable={cases} idl={cases // 10}\n")
    out.write(f"cases={count} differences={differences}\n")
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("old", nargs="?", help="the first packrun source tree (holds packrun/)")
    parser.add_argument("new", nargs="?", help="the second packrun source tree")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, default=2000, help="value cases per encoding")
    parser.add_argument("--emit", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.emit:
            import packrun
            tree = os.path.realpath(args.emit) + os.sep
            if not os.path.realpath(packrun.__file__).startswith(tree):
                raise SystemExit(f"packrun was imported from {packrun.__file__}, not from {tree}")
            _emit(args.seed, args.cases)
            return 0
        if args.new is None:
            parser.error("give two source trees")
        return 1 if compare(args.old, args.new, args.seed, args.cases) else 0
    except BrokenPipeError:  # the reader stopped early, as `| head` does: the output ends here
        devnull = os.open(os.devnull, os.O_WRONLY)  # and the flush at exit writes nowhere
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
