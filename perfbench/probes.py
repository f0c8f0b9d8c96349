"""Inner-layer probes, run by the driver in the traced run only.

They time packrun's inner layers on the inputs a workload sends, so the
msgbuf spans of the traced sessions can be split without tracing inside
packrun: ``idl.parse_kind`` on the kind strings the workload's MsgBuf calls
parse, ``pack.encode_value``/``decode_value`` on one block of the workload's
messages (same values, kinds and encoding), and ``wire.encode_frame``/
``read_frame`` over a socketpair on the four pingpong size classes.
"""

from __future__ import annotations

import random
import socket
import threading

from packrun import Encoding, Prim, PrimTag, Seq, TypeRegistry, decode_value, encode_value, parse_kind
from packrun.wire import Envelope, encode_frame, read_frame

from perfbench import inputs
from perfbench.tracing import Tracer

PARSE_REPS = 200
WIRE_BYTES = 8 << 20  # bytes framed per size class, between 10 and 1000 frames


def _messages(workload: str, data: dict, pool: bytes | None) -> list[list[tuple]]:
    """One block of the workload's messages as (value, kind) parts."""
    u32 = lambda v: (Prim(PrimTag.U32, v), "u32")  # noqa: E731
    i64 = lambda v: (Prim(PrimTag.I64, v), "i64")  # noqa: E731
    if workload == "pingpong-mesh":
        return [[u32(i), (Seq(pool[off:off + size]), "seq<u8>")]
                for i, (size, off) in enumerate(zip(data["sizes"][:data["block"]], data["offsets"]))]
    if workload == "records-portable":
        return [[u32(i), (inputs.batch_value(entry), "batch")]
                for i, entry in enumerate(data["batches"][:data["block"]])]
    if workload == "farm-short":
        return [[i64(x), (inputs.f64_seq(values), "seq<f64>")]
                for x, values in data["jobs"][:data["block"]]]
    messages = []
    for index, rnd in enumerate(data["rounds"][:data["block"]]):
        for tag in rnd["order"][0]:
            messages.append([u32(index), u32(tag), i64(rnd["values"][0][tag - 1]), i64(0)])
    return messages


# kind strings the workload's MsgBuf calls parse on every put or take
KINDS = {
    "pingpong-mesh": ("u32", "seq<u8>"),
    "records-portable": ("u32", "batch"),
    "farm-short": ("i64", "seq<f64>", "f64"),
    "superstep-tagged": ("u32", "i64", "u64"),
}


def run(workload: str, data: dict, pool: bytes | None, idl: str, encoding: Encoding,
        seed: int) -> tuple[Tracer, int, list[str]]:
    """Run every probe; returns the spans, the encoded bytes of the block and
    a description of every output that failed its check."""
    tr = Tracer()
    failures = []
    for kind in KINDS[workload]:
        for _ in range(PARSE_REPS):
            with tr.span("idl.parse_kind"):
                parse_kind(kind)

    registry = TypeRegistry.from_idl(idl).check()
    encoded = 0
    for i, message in enumerate(_messages(workload, data, pool)):
        tr.req = i
        for value, kind in message:
            with tr.span("pack.encode"):
                raw = encode_value(value, encoding, kind, registry)
            with tr.span("pack.decode"):
                back = decode_value(raw, encoding, kind, registry)
            if back != value:
                failures.append(f"pack probe: message {i} changed in a round trip")
            encoded += len(raw)
    tr.req = -1

    rng = random.Random(f"wire/{seed}")
    for name, size, _share in inputs.SIZE_CLASSES:
        reps = max(10, min(1000, WIRE_BYTES // size))
        if not _probe_wire(tr, name, rng.randbytes(size), reps):
            failures.append(f"wire probe: a {name} frame read back differently")
    return tr, encoded, failures


def _probe_wire(tr: Tracer, name: str, payload: bytes, reps: int) -> bool:
    env = Envelope(0, 1, 0, 7, payload)
    for _ in range(reps):
        with tr.span("wire.encode_frame." + name):
            frame = encode_frame(env)
    reader, writer = socket.socketpair()
    reader.settimeout(30.0)  # a reply that never comes fails the run instead of hanging it
    sender = threading.Thread(target=lambda: [writer.sendall(frame) for _ in range(reps)])
    ok = True
    try:
        sender.start()
        for _ in range(reps):
            with tr.span("wire.read_frame." + name):
                got = read_frame(reader)
            ok = ok and got == env
        return ok
    finally:
        sender.join(30.0)
        reader.close()
        writer.close()
