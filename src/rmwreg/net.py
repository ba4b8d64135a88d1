"""Real-socket deployment: one replica hosts one acceptor plus one proposer;
clients speak the same framed canonical encoding as the peers.

Each replica runs one thread, a `selectors` loop that owns both state
machines, so the message-at-a-time discipline of the protocol core carries
over unchanged. Every socket is non-blocking and has an input buffer, which
`codec.unframe` drains, and an output buffer, flushed once per turn of the
loop. Proposer timers wait in a heap of `(deadline, seq, token)`, and
messages a replica sends to itself go through a local deque.

TCP provides the reliable FIFO links RMW mode needs. A replica sends to each
peer over one outbound connection, which it opens without blocking and
re-opens after a growing pause when the connect fails or the peer hangs up.
What is sent to a peer that is down is lost; the protocol's retries cover it.
"""
from __future__ import annotations

import errno
import heapq
import itertools
import random
import selectors
import socket
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from . import codec
from .core import EMPTY, PROPOSER_BASE, Config, UpdateCommand, Value
from .kv import KvFacade, decode_command
from .messages import (
    Ack,
    ClientReply,
    ClientRequest,
    Learned,
    Nack,
    PaxosPrep,
    Prepare,
    ReqKind,
    Status,
    Vote,
    Voted,
)
from .acceptor import Acceptor
from .proposer import Proposer, Reply, Send, SetTimer

TICK_SECONDS = 0.05  # wall-clock length of one protocol timer tick
CONNECT_TIMEOUT_S = 2.0  # a peer connect still pending this long has failed
RECONNECT_MIN_S = 0.05  # pauses before reconnecting to a peer double from here
RECONNECT_MAX_S = 1.0
RECV_BYTES = 65536

READ = selectors.EVENT_READ
WRITE = selectors.EVENT_WRITE


def proposer_pid(index: int) -> int:
    return PROPOSER_BASE + index


class _Conn:
    """One non-blocking socket with its buffers and the selector events it
    waits for. `peer` is the replica an outbound connection leads to, None
    for an accepted one."""

    __slots__ = ("sock", "peer", "inbuf", "outbuf", "events", "connecting", "closed")

    def __init__(self, sock: socket.socket, peer: Optional[int], events: int):
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # the loop batches writes
        self.sock = sock
        self.peer = peer
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.events = events
        self.connecting = peer is not None
        self.closed = False


class Replica:
    """Replica `index` of a group whose peers listen on `addresses`."""

    def __init__(self, index: int, addresses: List[Tuple[str, int]], config: Config):
        if config.n_acceptors != len(addresses):
            raise ValueError("address list must cover every replica")
        if not 0 <= index < len(addresses):
            raise ValueError(f"replica index {index} is outside a group of {len(addresses)}")
        self.index = index
        self.addresses = addresses
        self.config = config
        self.acceptor = Acceptor(index, config)
        self.proposer = Proposer(proposer_pid(index), config, random.Random(index))
        self.local: Deque = deque()  # messages to this replica's own roles
        self.timers: List[tuple] = []  # heap of (deadline, seq, token)
        self.timer_seq = itertools.count()
        self.accepted: Dict[socket.socket, _Conn] = {}  # from clients and peers
        self.peers: Dict[int, _Conn] = {}  # outbound connections by replica
        self.reconnect: Dict[int, Tuple[float, float]] = {}  # replica -> (not before, pause)
        self.dirty: Set[_Conn] = set()  # connections with output queued this turn
        self.stopping = False
        self.listener: Optional[socket.socket] = None
        self.thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Binds the listener, then runs the loop on a thread of its own."""
        self.listener = socket.create_server(self.addresses[self.index])
        self.listener.setblocking(False)
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.listener, READ)
        # stop() writes a byte here to end a select() that would wait on.
        self.waker, self.wake_end = socket.socketpair()
        self.selector.register(self.waker, READ)
        self.thread = threading.Thread(
            target=self._run, daemon=True, name=f"replica-{self.index}")
        self.thread.start()

    def stop(self) -> None:
        self.stopping = True
        if self.thread is None:
            return
        try:
            self.wake_end.send(b"\0")
        except OSError:
            pass  # the loop has ended and closed it
        self.thread.join()

    def _run(self) -> None:
        try:
            while not self.stopping:
                timeout = None
                if self.timers:
                    timeout = max(0.0, self.timers[0][0] - time.monotonic())
                for key, events in self.selector.select(timeout):
                    if key.data is not None:
                        self._on_ready(key.data, events)
                    elif key.fileobj is self.listener:
                        self._accept()
                self._fire_timers()
                while self.local:
                    self._dispatch(self.local.popleft(), None)
                for conn in self.dirty:
                    if not conn.connecting and not conn.closed:
                        self._write(conn)
                self.dirty.clear()
        finally:
            for conn in [*self.accepted.values(), *self.peers.values()]:
                conn.sock.close()
            for sock in (self.listener, self.waker, self.wake_end):
                sock.close()
            self.selector.close()

    def _fire_timers(self) -> None:
        now = time.monotonic()
        while self.timers and self.timers[0][0] <= now:
            token = heapq.heappop(self.timers)[2]
            if isinstance(token, _Conn):  # a peer connect's deadline
                if token.connecting and not token.closed:
                    self._close(token)
            else:
                self._apply_effects(self.proposer.on_timer(token))

    def _set_timer(self, seconds: float, token) -> None:
        heapq.heappush(self.timers, (time.monotonic() + seconds, next(self.timer_seq), token))

    # -- socket plumbing -------------------------------------------------------

    def _accept(self) -> None:
        try:
            sock, _ = self.listener.accept()
        except OSError:
            return
        conn = _Conn(sock, None, READ)
        self.accepted[sock] = conn
        self.selector.register(sock, READ, conn)

    def _on_ready(self, conn: _Conn, events: int) -> None:
        if conn.connecting:
            if conn.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR):
                self._close(conn)
                return
            conn.connecting = False
            self.reconnect.pop(conn.peer, None)
            self._write(conn)
            return
        if events & READ:
            self._read(conn)
        if events & WRITE and not conn.closed:
            self._write(conn)

    def _read(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._close(conn)
            return
        conn.inbuf += data
        try:
            for msg in codec.unframe(conn.inbuf):
                self._dispatch(msg, conn.sock)
        except codec.CodecError:
            self._close(conn)

    def _write(self, conn: _Conn) -> None:
        if conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
            except BlockingIOError:
                sent = 0
            except OSError:
                self._close(conn)
                return
            del conn.outbuf[:sent]
        events = READ | WRITE if conn.outbuf else READ
        if events != conn.events:
            conn.events = events
            self.selector.modify(conn.sock, events, conn)

    def _close(self, conn: _Conn) -> None:
        conn.closed = True
        self.selector.unregister(conn.sock)
        conn.sock.close()
        if conn.peer is None:
            del self.accepted[conn.sock]
            return
        # A failed connect or a dead peer: what was queued for it is lost.
        del self.peers[conn.peer]
        self._back_off(conn.peer)

    def _back_off(self, target: int) -> None:
        _, last = self.reconnect.get(target, (0.0, 0.0))
        pause = min(max(2 * last, RECONNECT_MIN_S), RECONNECT_MAX_S)
        self.reconnect[target] = (time.monotonic() + pause, pause)

    def _connect(self, target: int) -> Optional[_Conn]:
        not_before, _ = self.reconnect.get(target, (0.0, 0.0))
        if time.monotonic() < not_before:
            return None
        host, port = self.addresses[target]
        try:
            family, kind, proto, _, address = socket.getaddrinfo(
                host, port, type=socket.SOCK_STREAM)[0]
            sock = socket.socket(family, kind, proto)
        except OSError:  # an unresolvable name, or no descriptor left
            self._back_off(target)
            return None
        conn = _Conn(sock, target, READ | WRITE)
        self.peers[target] = conn
        self.selector.register(conn.sock, READ | WRITE, conn)
        if conn.sock.connect_ex(address) not in (0, errno.EINPROGRESS):
            self._close(conn)
            return None
        # Otherwise the outcome shows when the socket turns ready.
        self._set_timer(CONNECT_TIMEOUT_S, conn)
        return conn

    def _queue(self, conn: _Conn, data: bytes) -> None:
        conn.outbuf += data
        self.dirty.add(conn)

    def _replica_of(self, pid: int) -> int:
        return pid - PROPOSER_BASE if pid >= PROPOSER_BASE else pid

    def _send_peer(self, pid: int, msg) -> None:
        target = self._replica_of(pid)
        if target == self.index:
            self.local.append(msg)
            return
        conn = self.peers.get(target) or self._connect(target)
        if conn is not None:  # None while a reconnect waits: the message is lost
            self._queue(conn, codec.frame(msg))

    # -- protocol -------------------------------------------------------------

    def _dispatch(self, msg, conn: Optional[socket.socket]) -> None:
        if isinstance(msg, ClientRequest):
            self._handle_client(msg, conn)
        elif isinstance(msg, (Ack, Nack, Voted, Learned)):
            self._apply_effects(self.proposer.on_message(msg))
        elif isinstance(msg, (Prepare, PaxosPrep, Vote)):
            for dst, out in self.acceptor.handle(msg):
                self._send_peer(dst, out)

    def _handle_client(self, req: ClientRequest, conn) -> None:
        cmd: Optional[UpdateCommand] = None
        if req.kind is ReqKind.WRITE:
            try:
                cmd = decode_command(req.command)
            except Exception as exc:
                reply = ClientReply(Status.ERROR, Value(str(exc).encode()), req.client_seq)
                self._reply(conn, reply)
                return
        effects = self.proposer.submit(req.key, req.kind, cmd, conn, req.client_seq)
        self._apply_effects(effects)

    def _apply_effects(self, effects) -> None:
        for eff in effects:
            if isinstance(eff, Send):
                self._send_peer(eff.dst, eff.msg)
            elif isinstance(eff, Reply):
                self._reply(eff.client, ClientReply(eff.status, eff.value, eff.client_seq))
            elif isinstance(eff, SetTimer):
                self._set_timer(eff.delay * TICK_SECONDS, eff.token)

    def _reply(self, conn, reply: ClientReply) -> None:
        client = self.accepted.get(conn)
        if client is not None:  # else the client went away; nothing to do
            self._queue(client, codec.frame(reply))


class NetClient:
    """Blocking client against one replica; presents the KvFacade submit
    contract. Reconnects and retries on connection loss."""

    def __init__(self, address: Tuple[str, int], retries: int = 3, timeout: float = 10.0):
        self.address = address
        self.retries = retries
        self.timeout = timeout
        self.sock: Optional[socket.socket] = None
        self.seq = 0

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def _connect(self) -> socket.socket:
        if self.sock is None:
            self.sock = socket.create_connection(self.address, timeout=self.timeout)
        return self.sock

    def submit(self, key: bytes, kind: ReqKind, cmd: Optional[UpdateCommand]):
        payload = cmd.encode() if cmd is not None else b""
        seq = self.seq
        self.seq += 1
        request = ClientRequest(key, kind, payload, seq)
        for _ in range(self.retries + 1):
            try:
                sock = self._connect()
                sock.sendall(codec.frame(request))
                while True:
                    reply = codec.read_frame(sock)
                    if reply is None:
                        raise codec.CodecError("server closed the connection")
                    if isinstance(reply, ClientReply) and reply.client_seq == seq:
                        return reply.status, reply.value
            except (OSError, codec.CodecError):
                self.close()
        return Status.UNAVAILABLE, EMPTY

    def facade(self, mode) -> KvFacade:
        return KvFacade(self.submit, mode)
