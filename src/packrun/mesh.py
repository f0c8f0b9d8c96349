"""TCP socket-mesh backend: one OS process per rank, a full mesh of connections.

The launcher connects every pair of ranks before it starts any of them
(:func:`connected_pairs`), and each rank adopts its ends of those connections
(:func:`connect_mesh`).  No rank listens on a port, dials or accepts.

A rank keeps no reader thread: a thread that waits in the mailbox reads the
sockets for the whole rank (see :class:`packrun.transport.Mailbox`).
Writes are serialized per connection.  A frame the socket cannot take at once
is finished with a blocking ``sendall`` while a helper thread reads, so, as
MPI's standard-mode send may, it waits for a receiver busy outside packrun.

A send writes its frame from the sender's payload buffer, or the pieces of a
``Segments`` payload, with one ``sendmsg`` (no ``Envelope`` is built), and a
reader receives each payload into the ``bytes`` object the mailbox then holds,
so the mesh adds no payload copy on either side (see :mod:`packrun.wire`).
"""

from __future__ import annotations

import os
import selectors
import socket
import threading
from contextlib import suppress

from .transport import InvalidRank, Mailbox, TransportContext, TransportError, WorldConfig
from .wire import FrameError, read_frame, write_frame

LOOPBACK = "127.0.0.1"  # every connection of the mesh is made here


def connected_pairs(nprocs: int, timeout: float) -> list:
    """One loopback TCP connection per pair of ranks: ``ends[r][q]`` is rank r's end to q.

    Each end is a blocking socket's descriptor with ``TCP_NODELAY`` set, and
    ``ends[r][r]`` is None.  The one listener keeps only its own dialer's
    connections, closing any other; ``timeout`` bounds each dial and accept.
    """
    ends = [[None] * nprocs for _ in range(nprocs)]
    try:
        with socket.create_server((LOOPBACK, 0)) as listener:
            listener.settimeout(timeout)
            address = listener.getsockname()
            for r in range(nprocs):
                for q in range(r + 1, nprocs):
                    with socket.create_connection(address, timeout=timeout) as dialer:
                        while True:
                            conn, peer = listener.accept()
                            if peer == dialer.getsockname():
                                break
                            conn.close()  # a stray dial, not ours
                        with conn:
                            for sock in dialer, conn:
                                sock.settimeout(None)  # a rank inherits the blocking mode
                                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                            ends[r][q], ends[q][r] = dialer.detach(), conn.detach()
    except BaseException:
        for fd in (fd for row in ends for fd in row if fd is not None):
            os.close(fd)
        raise
    return ends


class _MeshBackend:
    """Routes envelopes onto per-peer sockets, and reads them as the mailbox's reader."""

    def __init__(self, rank: int, conns: dict[int, socket.socket], mailbox: Mailbox):
        self._rank = rank
        self._conns = conns
        self._mailbox = mailbox
        self._send_locks = {peer: threading.Lock() for peer in conns}
        self._read_lock = threading.Lock()  # shutdown closes the sockets once no read is running
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector = selectors.PollSelector()  # holds no descriptor of its own
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        for peer, conn in conns.items():
            self._selector.register(conn, selectors.EVENT_READ, peer)
        mailbox.reader = self

    def read(self, timeout) -> None:
        """File one frame from each connection that is readable within ``timeout`` s."""
        with self._read_lock:
            if self._selector.get_map() is None:
                return  # shut down
            for key, _events in self._selector.select(timeout):
                if key.data is None:
                    self._wake_r.recv(4096)
                    continue
                try:
                    env = read_frame(key.fileobj)
                except (FrameError, OSError):
                    env = None  # peer gone or stream torn down mid-frame; pending recvs time out
                # a frame that misnames its sender or receiver ends the stream
                if env is None or env.src != key.data or env.dest != self._rank:
                    self._selector.unregister(key.fileobj)
                else:
                    self._mailbox.put(env)

    def wake(self) -> None:
        self._wake_w.send(b"\0")  # ends the select of a read in progress

    def post(self, src: int, dest: int, comm_id: int, tag: int, payload, kind: int) -> None:
        try:
            with self._send_locks[dest]:
                write_frame(self._conns[dest], src, dest, comm_id, tag, payload, kind,
                            self._mailbox.reading)
        except OSError as exc:
            raise TransportError(f"connection to rank {dest} lost: {exc}") from exc

    def shutdown(self) -> None:
        socks = [*self._conns.values(), self._wake_r, self._wake_w]
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # ends a select or read in progress
            except OSError:
                pass
        with self._read_lock:
            self._selector.close()
            for sock in socks:
                sock.close()


def connect_mesh(config: WorldConfig) -> TransportContext:
    """Join the world by adopting ``config.fds``, this rank's connection ends by peer rank.

    Every descriptor in ``config.fds`` is closed if joining fails.
    ``config.ready_fd`` gets one byte once the connections are adopted, and is
    closed on return.  A rank outside ``config.fds`` raises InvalidRank; a
    missing or unusable connection raises TransportError.
    """
    rank, fds = config.my_rank_hint, config.fds
    conns: dict[int, socket.socket] = {}
    try:
        if rank not in range(len(fds)):
            raise InvalidRank(rank)
        for peer, fd in enumerate(fds):
            if peer != rank:
                if fd is None:
                    raise TransportError(f"no connection to rank {peer}")
                conns[peer] = socket.socket(fileno=fd)
        if config.ready_fd is not None:
            os.write(config.ready_fd, b"\x01")
        mailbox = Mailbox()
        backend = _MeshBackend(rank, conns, mailbox)
    except BaseException as exc:
        for peer, fd in enumerate(fds):
            if peer in conns:
                conns[peer].close()
            elif fd is not None:
                with suppress(OSError):
                    os.close(fd)
        if isinstance(exc, OSError):
            raise TransportError(f"mesh establishment failed: {exc}") from exc
        raise
    finally:
        if config.ready_fd is not None:
            os.close(config.ready_fd)
    return TransportContext(rank, len(fds), backend, mailbox, config.hetero)
