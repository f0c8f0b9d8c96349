"""Wire-level plumbing of the socket mesh: the message envelope and its frame.

Frames are fixed little machines: magic ``MPB1``, version byte, kind byte
(data or control), then five big-endian u32 fields (source, destination,
communicator, tag, payload length) and the payload.

A frame costs no payload copy here on either side.  ``write_frame`` hands
the header and the caller's payload buffer to one ``sendmsg``;
``read_frame`` receives a payload of up to 16 MiB with ``MSG_WAITALL``
straight into the ``bytes`` object that becomes ``Envelope.payload``.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass

MAGIC = b"MPB1"
VERSION = 1

KIND_DATA = 0
KIND_CONTROL = 1

MAX_PAYLOAD = 2**31 - 1
_MAX_RECV = 16 << 20  # per recv: CPython allocates what it asks for before any byte arrives

_HEADER = struct.Struct(">4sBBIIIII")  # magic, version, kind, src, dest, comm_id, tag, len
HEADER_SIZE = _HEADER.size


class FrameError(Exception):
    """Raised when an incoming byte stream is not a valid frame."""


@dataclass(frozen=True)
class Envelope:
    """One routed message: world ranks, communicator, tag, raw payload."""

    src: int
    dest: int
    comm_id: int
    tag: int
    payload: bytes
    kind: int = KIND_DATA


def _header(src: int, dest: int, comm_id: int, tag: int, payload, kind: int) -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise FrameError(f"payload of {len(payload)} bytes exceeds the {MAX_PAYLOAD} maximum")
    return _HEADER.pack(MAGIC, VERSION, kind, src, dest, comm_id, tag, len(payload))


def encode_frame(env: Envelope) -> bytes:
    return _header(env.src, env.dest, env.comm_id, env.tag, env.payload, env.kind) + env.payload


def write_frame(sock: socket.socket, src: int, dest: int, comm_id: int, tag: int,
                payload, kind: int = KIND_DATA) -> None:
    """Send one frame, the bytes ``encode_frame`` would give, without copying ``payload``.

    ``payload`` is any bytes-like object; it is read in place, so it must
    not change until this returns.
    """
    header = _header(src, dest, comm_id, tag, payload, kind)
    sent = sock.sendmsg([header, payload])
    if sent < HEADER_SIZE:  # only a socket with a timeout, or a signal, stops short
        sock.sendall(header[sent:])
        sent = HEADER_SIZE
    if sent < HEADER_SIZE + len(payload):
        with memoryview(payload) as view:
            sock.sendall(view[sent - HEADER_SIZE:])


def decode_header(header: bytes) -> tuple[int, int, int, int, int, int]:
    magic, version, kind, src, dest, comm_id, tag, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FrameError(f"unsupported frame version {version}")
    if kind not in (KIND_DATA, KIND_CONTROL):
        raise FrameError(f"unknown frame kind {kind}")
    if length > MAX_PAYLOAD:
        raise FrameError(f"declared payload of {length} bytes exceeds the {MAX_PAYLOAD} maximum")
    return kind, src, dest, comm_id, tag, length


def recv_all(sock: socket.socket, n: int) -> bytes:
    """Read exactly n bytes, or b"" if the peer closed before the first byte.

    On a blocking socket ``MSG_WAITALL`` returns up to 16 MiB from one call,
    so n bytes up to that size are returned as that one object.  A larger
    n, a socket with a timeout (non-blocking underneath) or a stream that
    ends gives several reads, which are joined.
    """
    parts = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, _MAX_RECV), socket.MSG_WAITALL)
        if not chunk:
            if got:
                raise FrameError(f"connection closed mid-frame ({got} of {n} bytes)")
            return b""
        parts.append(chunk)
        got += len(chunk)
    return b"".join(parts)  # a single part is returned itself, not copied


def read_frame(sock: socket.socket) -> Envelope | None:
    """Read one frame; None on clean end of stream."""
    header = recv_all(sock, HEADER_SIZE)
    if not header:
        return None
    kind, src, dest, comm_id, tag, length = decode_header(header)
    payload = recv_all(sock, length)
    if len(payload) != length:
        raise FrameError("connection closed mid-payload")
    return Envelope(src, dest, comm_id, tag, payload, kind)
