"""Seeded inputs for the four benchmark workloads.

Every generator is a pure function of its seed and returns plain JSON data
(plus, for pingpong-mesh, a byte pool). Shares are stratified: a block holds
a fixed multiset of cases in a seeded order, so a run made of whole blocks
sees the same mix whatever the seed, and only the order, the payload bytes
and the values change. That keeps the spread between seeds small enough for
the benchmark's bounds.

The helpers below the generators turn that data into packrun values; rank
programs and the driver's probes share them, so both see the same inputs.
"""

from __future__ import annotations

import random
import string

from packrun import Prim, PrimTag, Rec, Seq, Str

# pingpong-mesh: (name, bytes, messages per block of 100). With these shares
# the median lies inside the 64 B class and p99 inside the 1 MiB class.
SIZE_CLASSES = (("64B", 64, 80), ("4KiB", 4096, 12), ("64KiB", 65536, 5), ("1MiB", 1 << 20, 3))
PINGPONG_BLOCKS = 20
POOL_BYTES = 3 << 20

# records-portable: a block holds every sample count 1..64 four times; exactly
# one of the four copies also carries the 1024-value seq<f64>.
RECORD_MAX_SAMPLES = 64
RECORD_COPIES = 4
RECORD_EXTRA = 1024
RECORD_MAX_TRACE = 8
RECORD_BLOCKS = 2
RECORDS_IDL = """
record sample { label: string; weight: f64; trace: seq<i32>; }
record batch { id: u32; samples: seq<sample>; extra: seq<f64>; }
"""

# farm-short: a block holds every argument length 0..16 sixteen times.
FARM_MAX_VALUES = 16
FARM_COPIES = 16
FARM_BLOCKS = 2
FARM_IDL = "record job { x: i64; values: seq<f64>; }"

# superstep-tagged: one cycle runs every K of this multiset once, in a seeded
# order. The large rounds put up to K-1 messages in the mailbox ahead of a match.
SUPERSTEP_K = (1, 4, 16, 48, 128, 320, 640, 1280, 2048)
SUPERSTEP_CYCLES = 2

PINGPONG_IDL = "record ping { id: u32; payload: seq<u8>; }"
SUPERSTEP_IDL = "record tagged { round: u32; tag: u32; value: i64; stamp: i64; }"


def _shuffled_block(rng: random.Random, cases: list) -> list:
    block = list(cases)
    rng.shuffle(block)
    return block


def pingpong(seed: int) -> tuple[dict, bytes]:
    rng = random.Random(f"pingpong-mesh/{seed}")
    pool = rng.randbytes(POOL_BYTES)
    cases = [size for _name, size, share in SIZE_CLASSES for _ in range(share)]
    sizes = [size for _ in range(PINGPONG_BLOCKS) for size in _shuffled_block(rng, cases)]
    offsets = [rng.randrange(POOL_BYTES - size + 1) for size in sizes]
    return {"block": len(cases), "sizes": sizes, "offsets": offsets}, pool


def _label(rng: random.Random) -> str:
    return "".join(rng.choices(string.ascii_letters + string.digits, k=rng.randint(4, 16)))


def records(seed: int) -> dict:
    rng = random.Random(f"records-portable/{seed}")
    cases = [(count, copy == 0) for count in range(1, RECORD_MAX_SAMPLES + 1)
             for copy in range(RECORD_COPIES)]
    batches = []
    for _ in range(RECORD_BLOCKS):
        for count, extra in _shuffled_block(rng, cases):
            samples = [[_label(rng), rng.uniform(-1e3, 1e3),
                         [rng.randint(-2**31, 2**31 - 1)
                          for _ in range(rng.randint(0, RECORD_MAX_TRACE))]]
                       for _ in range(count)]
            values = [rng.uniform(-1.0, 1.0) for _ in range(RECORD_EXTRA)] if extra else []
            batches.append([len(batches), samples, values])
    return {"block": len(cases), "batches": batches}


def farm(seed: int) -> dict:
    rng = random.Random(f"farm-short/{seed}")
    cases = [n for n in range(FARM_MAX_VALUES + 1) for _ in range(FARM_COPIES)]
    jobs = [[rng.randint(-2**40, 2**40), [rng.uniform(-1e6, 1e6) for _ in range(n)]]
            for _ in range(FARM_BLOCKS) for n in _shuffled_block(rng, cases)]
    return {"block": len(cases), "jobs": jobs}


def superstep(seed: int) -> dict:
    """Cycles of rounds; a round holds K and, per rank, its send order and values."""
    rng = random.Random(f"superstep-tagged/{seed}")
    rounds = []
    for _ in range(SUPERSTEP_CYCLES):
        for k in _shuffled_block(rng, list(SUPERSTEP_K)):
            order = [_shuffled_block(rng, list(range(1, k + 1))) for _rank in range(2)]
            values = [[rng.randint(-2**62, 2**62) for _ in range(k)] for _rank in range(2)]
            rounds.append({"k": k, "order": order, "values": values})
    return {"block": len(SUPERSTEP_K), "rounds": rounds}


def generate(workload: str, seed: int) -> tuple[dict, bytes | None]:
    """A workload's inputs and, for pingpong-mesh, its payload pool."""
    if workload == "pingpong-mesh":
        return pingpong(seed)
    return {"records-portable": records, "farm-short": farm, "superstep-tagged": superstep}[workload](seed), None


def depth_ahead(order: list[int]) -> list[int]:
    """Messages queued ahead of each match when tags 1..K are taken in order.

    ``order`` is the send order of the tags. With the whole round queued,
    the receive of tag t finds ahead of it every later tag sent before it.
    Returns one count per tag, index t-1. A Fenwick tree over send positions
    keeps this O(K log K).
    """
    k = len(order)
    position = [0] * (k + 1)
    for pos, tag in enumerate(order, 1):
        position[tag] = pos
    tree = [0] * (k + 1)
    ahead = [0] * k
    for tag in range(k, 0, -1):  # later tags first: count those sent earlier
        i, seen = position[tag], 0
        while i > 0:
            seen += tree[i]
            i -= i & -i
        ahead[tag - 1] = seen
        i = position[tag]
        while i <= k:
            tree[i] += 1
            i += i & -i
    return ahead


# ---------------------------------------------------------------------------
# packrun values built from the inputs (shared by ranks and probes)


def batch_value(entry) -> Rec:
    batch_id, samples, extra = entry
    return Rec("batch", (
        Prim(PrimTag.U32, batch_id),
        Seq([Rec("sample", (Str(label), Prim(PrimTag.F64, weight),
                            Seq([Prim(PrimTag.I32, v) for v in trace])))
             for label, weight, trace in samples]),
        Seq([Prim(PrimTag.F64, v) for v in extra]),
    ))


def f64_seq(values) -> Seq:
    return Seq([Prim(PrimTag.F64, v) for v in values])


def farm_oracle(x: int, values: list[float]) -> tuple[int, float]:
    """What the farm handler must reply for one job, computed serially."""
    return x * 3 + len(values), sum(values)
