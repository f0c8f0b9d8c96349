"""TCP socket-mesh backend: one OS process per rank, a full mesh of connections.

The launcher binds every rank's loopback listener before it starts any rank,
and hands each rank its own listener together with every rank's port (see
:mod:`packrun.launcher`).  The mesh is built with a fixed orientation: lower
ranks dial higher ranks, higher ranks accept.  A dial lands in the peer's
listen backlog even before the peer runs, so no start-up order can deadlock.
A dialing side introduces itself with a 9-byte hello, its rank and whether
it uses the portable encoding, so the acceptor knows which rank is on the
wire and refuses a rank claimed twice or a world that mixes encodings.  Once
its connections are up, a rank writes one byte to the descriptor the
launcher gave it for that.  One reader thread per peer connection feeds the
context's mailbox; writes are serialized per connection.

A send writes its frame straight from the sender's payload buffer with one
``sendmsg`` (no ``Envelope`` is built for it), and a reader receives each
payload into the ``bytes`` object the mailbox then holds, so the mesh adds
no payload copy on either side (see :mod:`packrun.wire`).
"""

from __future__ import annotations

import os
import socket
import struct
import threading
import time

from .transport import (
    InvalidRank,
    Mailbox,
    RankConflict,
    RendezvousTimeout,
    TransportContext,
    TransportError,
    WorldConfig,
)
from .wire import FrameError, read_frame, recv_all, write_frame

_HELLO = struct.Struct(">4sI?")  # magic, the dialer's rank, whether it is portable
_HELLO_MAGIC = b"HELO"
LOOPBACK = "127.0.0.1"  # every rank's listener is bound here


def _remaining(deadline: float, total: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RendezvousTimeout(total)
    return left


class _MeshBackend:
    """Routes envelopes onto per-peer sockets; owns the reader threads."""

    def __init__(self, rank: int, conns: dict[int, socket.socket], mailbox: Mailbox):
        self._rank = rank
        self._conns = conns
        self._mailbox = mailbox
        self._send_locks = {peer: threading.Lock() for peer in conns}
        for peer, conn in conns.items():
            threading.Thread(target=self._read_loop, args=(peer, conn),
                             daemon=True, name=f"mesh-read-{rank}<-{peer}").start()

    def _read_loop(self, peer: int, conn: socket.socket) -> None:
        try:
            while True:
                env = read_frame(conn)
                # a frame that misnames its sender or receiver ends the stream
                if env is None or env.src != peer or env.dest != self._rank:
                    return
                self._mailbox.put(env)
        except (FrameError, OSError):
            return  # peer gone or stream torn down mid-frame; pending recvs time out

    def post(self, src: int, dest: int, comm_id: int, tag: int, payload, kind: int) -> None:
        try:
            with self._send_locks[dest]:
                write_frame(self._conns[dest], src, dest, comm_id, tag, payload, kind)
        except OSError as exc:
            raise TransportError(f"connection to rank {dest} lost: {exc}") from exc

    def shutdown(self) -> None:
        for conn in self._conns.values():
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()


def _hello_from(conn: socket.socket, rank: int, hetero: bool, conns: dict) -> int:
    """The lower rank that ``conn`` introduces itself as; any other hello is refused."""
    hello = recv_all(conn, _HELLO.size)
    magic, peer, portable = _HELLO.unpack(hello)
    if magic != _HELLO_MAGIC or not 0 <= peer < rank:
        raise TransportError(f"unexpected mesh hello: {hello!r}")
    if peer in conns:
        raise RankConflict(peer)
    if portable != hetero:
        raise TransportError("mixed-encoding world: all ranks must agree on --hetero")
    return peer


def connect_mesh(config: WorldConfig) -> TransportContext:
    """Join the world described by ``config``: dial the higher ranks, accept the lower.

    ``config.listen_fd`` (this rank's listener) and ``config.ready_fd`` are
    taken over and closed on return, whether the mesh came up or not.  A rank
    outside ``config.ports`` raises InvalidRank; a missing listener raises
    TransportError.
    """
    rank, nprocs, hetero = config.my_rank_hint, len(config.ports), config.hetero
    total = config.timeout
    deadline = time.monotonic() + total
    conns: dict[int, socket.socket] = {}
    try:
        try:
            if config.listen_fd is None:
                raise TransportError("a mesh rank needs its listener")
            # closed once every peer is connected, so nobody else may dial in
            with socket.socket(fileno=config.listen_fd) as listener:
                if rank not in range(nprocs):
                    raise InvalidRank(rank)
                for q in range(rank + 1, nprocs):
                    conns[q] = conn = socket.create_connection(
                        (LOOPBACK, config.ports[q]), timeout=_remaining(deadline, total))
                    conn.sendall(_HELLO.pack(_HELLO_MAGIC, rank, hetero))
                for _ in range(rank):
                    listener.settimeout(_remaining(deadline, total))
                    conn, _addr = listener.accept()
                    try:
                        conn.settimeout(_remaining(deadline, total))
                        conns[_hello_from(conn, rank, hetero, conns)] = conn
                    except BaseException:
                        conn.close()
                        raise
            for conn in conns.values():
                conn.settimeout(None)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if config.ready_fd is not None:
                os.write(config.ready_fd, b"\x01")
        except socket.timeout:
            raise RendezvousTimeout(total) from None
        except (OSError, struct.error, FrameError) as exc:
            raise TransportError(f"mesh establishment failed: {exc}") from exc
    except BaseException:
        for conn in conns.values():
            conn.close()
        raise
    finally:
        if config.ready_fd is not None:
            os.close(config.ready_fd)

    mailbox = Mailbox()
    backend = _MeshBackend(rank, conns, mailbox)
    return TransportContext(rank, nprocs, backend, mailbox, hetero)
