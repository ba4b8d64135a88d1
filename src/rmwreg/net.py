"""Real-socket deployment: one replica hosts one acceptor plus one proposer;
clients speak the same framed canonical encoding as the peers.

Every replica started in one process runs on one shared thread, a
`selectors` loop that owns all their state machines, so the
message-at-a-time discipline of the protocol core carries over unchanged.
The first `start()` creates the loop and the last `stop()` ends it;
`rmwreg serve` runs one replica per process. Replicas in one process still
reach each other over TCP and the codec, like peers in other processes.

A peer message of a type in `ACCEPTOR_MESSAGES` goes to the acceptor and
any other to the proposer; the effects both return go through one
`_apply_effects`. Every socket is non-blocking and has an input buffer,
which `codec.unframe` drains, and an output buffer, flushed once per turn of
the loop; a connection that leaves more than `OUTBUF_MAX` bytes unsent, or
announces a frame longer than that, is closed. The timers of every replica
wait in one heap of `(deadline, seq, replica, token)`, and messages a
replica sends to itself go through its own deque. A timer whose firing
would do nothing, such as one of a request that has finished, is dropped
from the top of the heap before the loop waits, so it never wakes the loop.

TCP provides the reliable FIFO links RMW mode needs. A replica sends to each
peer over one outbound connection, which it opens without blocking and
re-opens after a growing pause when the connect fails, the peer hangs up or
the peer stops reading. What is sent to a peer that is down is lost; the
protocol's retries cover it.

`NetClient` reads whole segments into a buffer of its own and drains the
complete frames from it, so a reply costs one `recv`.
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
from selectors import EVENT_READ, EVENT_WRITE
from typing import Deque, Dict, List, Optional, Set, Tuple

from . import codec
from .core import EMPTY, PROPOSER_BASE, Config, UpdateCommand, Value
from .kv import KvFacade, decode_command
from .messages import (ERROR, UNAVAILABLE, WRITE, ClientReply, ClientRequest, Reply, ReqKind, Send,
                       SetTimer)
from .acceptor import ACCEPTOR_MESSAGES, Acceptor
from .proposer import Proposer

TICK_SECONDS = 0.05  # wall-clock length of one protocol timer tick
CONNECT_TIMEOUT_S = 2.0  # a peer connect still pending this long has failed
RECONNECT_MIN_S = 0.05  # pauses before reconnecting to a peer double from here
RECONNECT_MAX_S = 1.0
RECV_BYTES = 65536
# Unsent bytes after which a connection is closed: a client or peer that
# stops reading. A healthy run leaves a few hundred bytes per turn.
OUTBUF_MAX = 4 << 20


class _Conn:
    """One non-blocking socket with its buffers and the selector events it
    waits for. `owner` is the replica it belongs to, and `peer` the replica
    an outbound connection leads to, None for an accepted one."""

    __slots__ = ("sock", "owner", "peer", "inbuf", "outbuf", "events", "connecting", "closed")

    def __init__(self, sock: socket.socket, owner: "Replica", peer: Optional[int], events: int):
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # the loop batches writes
        self.sock = sock
        self.owner = owner
        self.peer = peer
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.events = events
        self.connecting = peer is not None
        self.closed = False


_lock = threading.Lock()  # guards `_loop` and the fields of a loop marked as under it
_loop: Optional["_Loop"] = None  # the loop new replicas join; None while none runs


class _Loop:
    """The thread every started replica in this process runs on. Only this
    thread touches the selector and the replicas' sockets: `start()` and
    `stop()` queue a replica to join or leave and wake it. It ends once no
    replica is left, or when an exception escapes a handler; either way it
    closes the sockets of every replica still on it and releases their
    `stop()`."""

    def __init__(self):
        self.selector = selectors.DefaultSelector()
        # start() and stop() write a byte here to end a select() that would wait on.
        self.waker, self.wake_end = socket.socketpair()
        self.wake_end.setblocking(False)
        self.selector.register(self.waker, EVENT_READ)
        self.timers: List[tuple] = []  # heap of (deadline, seq, replica, token)
        self.timer_seq = itertools.count()
        self.replicas: List[Replica] = []  # those whose listener is registered
        self.members: Set[Replica] = set()  # every replica a stop() may wait on; under _lock
        self.joining: List[Replica] = []  # under _lock
        self.leaving: List[Replica] = []  # under _lock
        self.thread = threading.Thread(target=self._run, daemon=True, name="replica-loop")

    def wake(self) -> None:
        """Called under `_lock`, while this is the running loop, so that the
        thread has not closed the waker."""
        try:
            self.wake_end.send(b"\0")
        except BlockingIOError:
            pass  # the buffer is full of wake-ups the thread has yet to read

    def _run(self) -> None:
        timers = self.timers
        try:
            while True:
                while timers and not timers[0][2]._timer_live(timers[0][3]):
                    heapq.heappop(timers)
                timeout = None
                if timers:
                    timeout = max(0.0, timers[0][0] - time.monotonic())
                woken = False
                for key, events in self.selector.select(timeout):
                    data = key.data
                    if type(data) is _Conn:
                        data.owner._on_ready(data, events)
                    elif data is None:
                        woken = True
                    else:  # a replica's listener
                        data._accept()
                # After the events: a replica that leaves must not get one.
                if woken and not self._join_and_leave():
                    return
                self._fire_timers()
                for replica in self.replicas:
                    replica._flush()
        finally:
            self._end()

    def _join_and_leave(self) -> bool:
        """Puts the replicas that started on the loop and takes off those
        that stop; returns False, no longer taking new replicas, when none
        is left."""
        global _loop
        self.waker.recv(4096)
        with _lock:
            joining, self.joining = self.joining, []
            leaving, self.leaving = self.leaving, []
        for replica in joining:
            replica._attach()
        for replica in leaving:
            replica._detach()
        with _lock:
            for replica in leaving:
                self.members.discard(replica)
                replica.stopped.set()
            if self.members:
                return True
            _loop = None
            return False

    def _fire_timers(self) -> None:
        now = time.monotonic()
        timers = self.timers
        while timers and timers[0][0] <= now:
            _, _, replica, token = heapq.heappop(timers)
            if replica.on_loop:
                replica._on_timer(token)

    def _end(self) -> None:
        global _loop
        with _lock:
            if _loop is self:  # an exception ended the loop
                _loop = None
            members, self.members = self.members, set()
        for replica in members:
            replica.on_loop = False
            for sock in replica._sockets():
                sock.close()
        self.selector.close()
        self.waker.close()
        self.wake_end.close()
        for replica in members:
            replica.stopped.set()


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
        self.proposer = Proposer(PROPOSER_BASE + index, config, random.Random(index))
        self.local: Deque = deque()  # messages to this replica's own roles
        self.accepted: Dict[socket.socket, _Conn] = {}  # from clients and peers
        self.peers: Dict[int, _Conn] = {}  # outbound connections by replica
        self.reconnect: Dict[int, Tuple[float, float]] = {}  # replica -> (not before, pause)
        self.dirty: Set[_Conn] = set()  # connections with output queued this turn
        self.listener: Optional[socket.socket] = None
        self.loop: Optional[_Loop] = None
        self.on_loop = False  # its listener is registered; loop thread only
        self.stopping = False  # under _lock
        self.stopped = threading.Event()  # set once its sockets are closed

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Binds the listener, then puts this replica on the process's loop
        thread, which the first replica to start creates."""
        global _loop
        self.listener = socket.create_server(self.addresses[self.index])
        self.listener.setblocking(False)
        with _lock:
            if _loop is None:
                loop = _Loop()
                loop.thread.start()
                _loop = loop
            self.loop = _loop
            _loop.members.add(self)
            _loop.joining.append(self)
            _loop.wake()

    def stop(self) -> None:
        """Takes this replica off the loop; returns once its sockets are
        closed, and the loop thread has ended if this was the last replica."""
        loop = self.loop
        if loop is None:
            return
        with _lock:
            if _loop is loop and not self.stopping:
                self.stopping = True
                loop.leaving.append(self)
                loop.wake()
        self.stopped.wait()
        if _loop is not loop:  # the loop takes no more replicas, so it is ending
            loop.thread.join()

    def _attach(self) -> None:
        self.on_loop = True
        self.loop.selector.register(self.listener, EVENT_READ, self)
        self.loop.replicas.append(self)

    def _detach(self) -> None:
        self.on_loop = False
        self.loop.replicas.remove(self)
        for sock in self._sockets():
            self.loop.selector.unregister(sock)
            sock.close()

    def _sockets(self) -> List[socket.socket]:
        return [self.listener, *self.accepted, *(conn.sock for conn in self.peers.values())]

    def _flush(self) -> None:
        """Ends a turn of the loop: handles the messages this replica sent
        itself, then writes what the turn queued."""
        while self.local:
            self._dispatch(self.local.popleft(), None)
        for conn in self.dirty:
            if not conn.connecting and not conn.closed:
                self._write(conn)
        self.dirty.clear()

    def _timer_live(self, token) -> bool:
        if not self.on_loop:
            return False
        if type(token) is _Conn:  # a peer connect's deadline
            return token.connecting and not token.closed
        return self.proposer.timer_live(token)

    def _on_timer(self, token) -> None:
        if type(token) is not _Conn:
            self._apply_effects(self.proposer.on_timer(token))
        elif self._timer_live(token):
            self._close(token)

    def _set_timer(self, seconds: float, token) -> None:
        loop = self.loop
        heapq.heappush(loop.timers, (time.monotonic() + seconds, next(loop.timer_seq), self, token))

    # -- socket plumbing -------------------------------------------------------

    def _accept(self) -> None:
        try:
            sock, _ = self.listener.accept()
        except OSError:
            return
        conn = _Conn(sock, self, None, EVENT_READ)
        self.accepted[sock] = conn
        self.loop.selector.register(sock, EVENT_READ, conn)

    def _on_ready(self, conn: _Conn, events: int) -> None:
        if conn.connecting:
            if conn.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR):
                self._close(conn)
                return
            conn.connecting = False
            self.reconnect.pop(conn.peer, None)
            self._write(conn)
            return
        if events & EVENT_READ:
            self._read(conn)
        if events & EVENT_WRITE and not conn.closed:
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
            # `_write` gives up on a connection with more than OUTBUF_MAX
            # bytes unsent, so a frame that announces a longer body is
            # refused at its header, before the body piles up here.
            for msg in codec.unframe(conn.inbuf, OUTBUF_MAX):
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
            if len(conn.outbuf) > OUTBUF_MAX:  # it has stopped reading
                self._close(conn)
                return
        events = EVENT_READ | EVENT_WRITE if conn.outbuf else EVENT_READ
        if events != conn.events:
            conn.events = events
            self.loop.selector.modify(conn.sock, events, conn)

    def _close(self, conn: _Conn) -> None:
        conn.closed = True
        self.loop.selector.unregister(conn.sock)
        conn.sock.close()
        if conn.peer is None:
            del self.accepted[conn.sock]
            return
        # A failed connect, a dead peer or one that stopped reading: what
        # was queued for it is lost.
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
        conn = _Conn(sock, self, target, EVENT_READ | EVENT_WRITE)
        self.peers[target] = conn
        self.loop.selector.register(conn.sock, EVENT_READ | EVENT_WRITE, conn)
        if conn.sock.connect_ex(address) not in (0, errno.EINPROGRESS):
            self._close(conn)
            return None
        # Otherwise the outcome shows when the socket turns ready.
        self._set_timer(CONNECT_TIMEOUT_S, conn)
        return conn

    def _queue(self, conn: _Conn, data: bytes) -> None:
        conn.outbuf += data
        self.dirty.add(conn)

    def _send_peer(self, pid: int, msg) -> None:
        target = pid - PROPOSER_BASE if pid >= PROPOSER_BASE else pid
        if target == self.index:
            self.local.append(msg)
            return
        if not 0 <= target < len(self.addresses):
            # A pid outside the group, from a peer with a longer replica
            # list or from any client connection: dropped, as in `sim.World`.
            return
        conn = self.peers.get(target) or self._connect(target)
        if conn is not None:  # None while a reconnect waits: the message is lost
            self._queue(conn, codec.frame(msg))

    # -- protocol -------------------------------------------------------------

    def _dispatch(self, msg, conn: Optional[socket.socket]) -> None:
        kind = type(msg)
        if kind is ClientRequest:
            self._handle_client(msg, conn)
        elif kind in ACCEPTOR_MESSAGES:
            self._apply_effects(self.acceptor.handle(msg))
        else:  # the proposer ignores a type it does not handle
            self._apply_effects(self.proposer.on_message(msg))

    def _handle_client(self, req: ClientRequest, conn) -> None:
        cmd: Optional[UpdateCommand] = None
        if req.kind is WRITE:
            try:
                cmd = decode_command(req.command)
            except Exception as exc:
                reply = ClientReply(ERROR, Value(str(exc).encode()), req.client_seq)
                self._reply(conn, reply)
                return
        effects = self.proposer.submit(req.key, req.kind, cmd, conn, req.client_seq)
        self._apply_effects(effects)

    def _apply_effects(self, effects) -> None:
        """Carry out what either role returned."""
        for eff in effects:
            kind = type(eff)
            if kind is Send:
                self._send_peer(eff.dst, eff.msg)
            elif kind is Reply:
                self._reply(eff.client, ClientReply(eff.status, eff.value, eff.client_seq))
            elif kind is SetTimer:
                self._set_timer(eff.delay * TICK_SECONDS, eff.token)

    def _reply(self, conn, reply: ClientReply) -> None:
        client = self.accepted.get(conn)
        if client is not None:  # else the client went away; nothing to do
            self._queue(client, codec.frame(reply))


class NetClient:
    """Blocking client against one replica; presents the KvFacade submit
    contract. Reconnects and retries on connection loss, except that a
    command that is not idempotent is sent at most once: once its bytes may
    have reached the replica, a failure returns UNAVAILABLE, its outcome
    unknown, as a resend could apply it twice."""

    def __init__(self, address: Tuple[str, int], retries: int = 3, timeout: float = 10.0):
        self.address = address
        self.retries = retries
        self.timeout = timeout
        self.sock: Optional[socket.socket] = None
        self.inbuf = bytearray()  # what the replica sent that is not yet read
        self.seq = 0

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self.inbuf.clear()

    def _connect(self) -> socket.socket:
        if self.sock is None:
            self.sock = socket.create_connection(self.address, timeout=self.timeout)
            # A request is one small write, then a wait for its reply.
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self.sock

    def submit(self, key: bytes, kind: ReqKind, cmd: Optional[UpdateCommand]):
        payload = cmd.encode() if cmd is not None else b""
        seq = self.seq
        self.seq += 1
        request = ClientRequest(key, kind, payload, seq)
        resend = cmd is None or cmd.idempotent
        for _ in range(self.retries + 1):
            sent = False
            try:
                sock = self._connect()
                sent = True
                sock.sendall(codec.frame(request))
                while True:
                    for reply in codec.unframe(self.inbuf):
                        if type(reply) is ClientReply and reply.client_seq == seq:
                            return reply.status, reply.value
                    data = sock.recv(RECV_BYTES)
                    if not data:
                        raise codec.CodecError("server closed the connection")
                    self.inbuf += data
            except (OSError, codec.CodecError):
                self.close()
                if sent and not resend:
                    break
        return UNAVAILABLE, EMPTY

    def facade(self, mode) -> KvFacade:
        return KvFacade(self.submit, mode)
