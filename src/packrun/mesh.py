"""TCP socket-mesh backend: one OS process per rank, full mesh after rendezvous.

Each rank binds an ephemeral listening socket, registers (rank, address,
encoding) with the launcher's coordinator, and receives the full address
table once everyone has checked in.  The mesh is then built with a fixed
orientation: lower ranks dial higher ranks, higher ranks accept.  A dialing
side introduces itself with an 8-byte hello so the acceptor knows which rank
is on the wire.  One reader thread per peer connection feeds the context's
mailbox; writes are serialized per connection.

The coordinator itself also lives here; the launcher runs it in-process.  It
rejects duplicate rank claims and worlds whose members disagree on the
encoding (a heterogeneous world must be portable everywhere).
"""

from __future__ import annotations

import logging
import socket
import struct
import threading
import time

from .transport import (
    Mailbox,
    RankConflict,
    RendezvousTimeout,
    TransportContext,
    TransportError,
    WorldConfig,
)
from .wire import Envelope, FrameError, encode_frame, read_frame, recv_json, send_json

_log = logging.getLogger(__name__)

_HELLO = struct.Struct(">4sI")
_HELLO_MAGIC = b"HELO"
_HOST = "127.0.0.1"  # every listener, coordinator and rank alike, binds loopback


def _parse_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise TransportError(f"bad rendezvous address {address!r} (expected host:port)")
    return host, int(port)


def _remaining(deadline: float, total: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RendezvousTimeout(total)
    return left


class _MeshBackend:
    """Routes envelopes onto per-peer sockets; owns the reader threads."""

    def __init__(self, rank: int, conns: dict[int, socket.socket], mailbox: Mailbox):
        self._conns = conns
        self._mailbox = mailbox
        self._send_locks = {peer: threading.Lock() for peer in conns}
        self._closed = False
        for peer, conn in conns.items():
            threading.Thread(target=self._read_loop, args=(peer, conn),
                             daemon=True, name=f"mesh-read-{rank}<-{peer}").start()

    def _read_loop(self, peer: int, conn: socket.socket) -> None:
        try:
            while True:
                env = read_frame(conn)
                if env is None:
                    return
                self._mailbox.put(env)
        except (FrameError, OSError):
            return  # peer gone or stream torn down mid-frame; pending recvs time out

    def post(self, env: Envelope) -> None:
        conn = self._conns.get(env.dest)
        if conn is None:
            raise TransportError(f"no connection to rank {env.dest}")
        frame = encode_frame(env)
        try:
            with self._send_locks[env.dest]:
                conn.sendall(frame)
        except OSError as exc:
            raise TransportError(f"connection to rank {env.dest} lost: {exc}") from exc

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns.values():
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()


def connect_mesh(config: WorldConfig) -> TransportContext:
    """Join the world described by ``config``: register, learn peers, build the mesh."""
    if config.rendezvous is None or config.my_rank_hint is None:
        raise TransportError("socket mesh needs a rendezvous address and a rank")
    rank, nprocs = config.my_rank_hint, config.nprocs
    total = config.timeout
    deadline = time.monotonic() + total

    listener = socket.create_server((_HOST, 0), backlog=max(nprocs, 1))
    conns: dict[int, socket.socket] = {}
    try:
        my_host, my_port = listener.getsockname()
        try:
            with socket.create_connection(_parse_address(config.rendezvous),
                                          timeout=_remaining(deadline, total)) as coord:
                coord.settimeout(_remaining(deadline, total))
                send_json(coord, {"op": "register", "rank": rank, "host": my_host,
                                  "port": my_port,
                                  "encoding": "portable" if config.hetero else "native"})
                reply = recv_json(coord)
        except socket.timeout:
            raise RendezvousTimeout(total) from None
        except OSError as exc:
            raise TransportError(f"cannot reach coordinator at {config.rendezvous}: {exc}") from exc

        if reply is None:
            raise TransportError("coordinator closed the connection before sending the table")
        if reply.get("op") == "error":
            reason = reply.get("reason", "rendezvous failed")
            if reason == "rank-conflict":
                raise RankConflict(rank)
            raise TransportError(reason)
        if reply.get("op") != "table" or len(reply.get("peers", ())) != nprocs:
            raise TransportError(f"malformed rendezvous table: {reply!r}")
        peers = reply["peers"]
        hetero = bool(reply.get("hetero", config.hetero))

        try:
            # Lower rank dials higher rank; TCP lets every dial complete against
            # the peer's backlog, so a plain dial-then-accept order cannot deadlock.
            for q in range(rank + 1, nprocs):
                host, port = peers[q]
                conn = socket.create_connection((host, port), timeout=_remaining(deadline, total))
                conn.sendall(_HELLO.pack(_HELLO_MAGIC, rank))
                conns[q] = conn
            for _ in range(rank):
                listener.settimeout(_remaining(deadline, total))
                conn, _addr = listener.accept()
                conn.settimeout(_remaining(deadline, total))
                hello = conn.recv(_HELLO.size, socket.MSG_WAITALL)
                magic, peer = _HELLO.unpack(hello)
                if magic != _HELLO_MAGIC or not 0 <= peer < rank or peer in conns:
                    conn.close()
                    raise TransportError(f"unexpected mesh hello from {_addr}: {hello!r}")
                conns[peer] = conn
            for conn in conns.values():
                conn.settimeout(None)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except socket.timeout:
            raise RendezvousTimeout(total) from None
        except (OSError, struct.error) as exc:
            raise TransportError(f"mesh establishment failed: {exc}") from exc
    except BaseException:
        for conn in conns.values():
            conn.close()
        raise
    finally:
        listener.close()  # once every peer is connected, nobody else may dial in

    mailbox = Mailbox()
    backend = _MeshBackend(rank, conns, mailbox)
    return TransportContext(rank, nprocs, backend, mailbox, hetero)


# ---------------------------------------------------------------------------
# Coordinator (runs inside the launcher)


class Coordinator:
    """Collects (rank, address) registrations and broadcasts the table.

    Bind happens in the constructor so the launcher can pass the address to
    children before starting to accept.  ``run`` blocks until all ranks have
    registered or the deadline passes; on conflict or mixed encodings every
    connected rank gets an error message before the exception is raised.
    """

    def __init__(self, nprocs: int, timeout: float = 10.0):
        self.nprocs = nprocs
        self.timeout = timeout
        self._listener = socket.create_server((_HOST, 0), backlog=max(nprocs, 1))
        self.host, self.port = self._listener.getsockname()
        self.address = f"{self.host}:{self.port}"
        self.registered: list[int] = []  # arrival order, for logs and tests

    def run(self) -> dict[int, tuple[str, int]]:
        deadline = time.monotonic() + self.timeout
        table: dict[int, tuple[str, int]] = {}
        conns: dict[int, socket.socket] = {}
        encodings: dict[int, str] = {}
        try:
            while len(table) < self.nprocs:
                self._listener.settimeout(_remaining(deadline, self.timeout))
                try:
                    conn, _addr = self._listener.accept()
                except socket.timeout:
                    raise RendezvousTimeout(self.timeout) from None
                conn.settimeout(_remaining(deadline, self.timeout))
                try:
                    msg = recv_json(conn)
                except (FrameError, OSError):
                    conn.close()
                    continue
                if (not isinstance(msg, dict) or msg.get("op") != "register"
                        or not isinstance(msg.get("rank"), int)):
                    send_json(conn, {"op": "error", "reason": "malformed registration"})
                    conn.close()
                    continue
                rank = msg["rank"]
                if not 0 <= rank < self.nprocs:
                    send_json(conn, {"op": "error", "reason": f"rank {rank} out of range"})
                    conn.close()
                    continue
                if rank in table:
                    send_json(conn, {"op": "error", "reason": "rank-conflict"})
                    conn.close()
                    self._fail_all(conns, "rank-conflict")
                    raise RankConflict(rank)
                table[rank] = (msg["host"], int(msg["port"]))
                encodings[rank] = msg.get("encoding", "native")
                conns[rank] = conn
                self.registered.append(rank)
                _log.info("registered rank %d at %s:%d (%d of %d)",
                          rank, msg["host"], int(msg["port"]),
                          len(table), self.nprocs)
            if len(set(encodings.values())) > 1:
                self._fail_all(conns, "mixed-encoding world (heterogeneous flag must match)")
                raise TransportError("mixed-encoding world: all ranks must agree on --hetero")
            peers = [list(table[r]) for r in range(self.nprocs)]
            hetero = encodings[0] == "portable" if encodings else False
            for rank, conn in conns.items():
                try:
                    send_json(conn, {"op": "table", "peers": peers, "hetero": hetero})
                except OSError:
                    pass
                conn.close()
            conns.clear()
            _log.info("rendezvous complete: %d ranks", self.nprocs)
            return table
        finally:
            self._fail_all(conns, "rendezvous aborted")
            self._listener.close()

    def _fail_all(self, conns: dict[int, socket.socket], reason: str) -> None:
        for conn in conns.values():
            try:
                send_json(conn, {"op": "error", "reason": reason})
            except OSError:
                pass
            conn.close()
        conns.clear()

    def close(self) -> None:
        self._listener.close()
