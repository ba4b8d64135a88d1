"""Real-socket deployment: one replica process hosts one acceptor plus one
proposer; clients speak the same framed canonical encoding as the peers.

Each replica runs a single worker thread that owns both state machines, so
the message-at-a-time discipline of the protocol core carries over
unchanged; reader threads only move frames into the worker's inbox. TCP
provides the reliable FIFO links RMW mode needs.
"""
from __future__ import annotations

import queue
import random
import socket
import threading
from typing import Dict, List, Optional, Tuple

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


def proposer_pid(index: int) -> int:
    return PROPOSER_BASE + index


class Replica:
    """Replica `index` of a group whose peers listen on `addresses`."""

    def __init__(self, index: int, addresses: List[Tuple[str, int]], config: Config):
        if config.n_acceptors != len(addresses):
            raise ValueError("address list must cover every replica")
        self.index = index
        self.addresses = addresses
        self.config = config
        self.acceptor = Acceptor(index, config)
        self.proposer = Proposer(proposer_pid(index), config, random.Random(index))
        self.inbox: "queue.Queue" = queue.Queue()
        self.peers: Dict[int, socket.socket] = {}
        self.peer_lock = threading.Lock()
        self.stop_event = threading.Event()
        self.listener: Optional[socket.socket] = None
        self.threads: List[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        host, port = self.addresses[self.index]
        self.listener = socket.create_server((host, port), reuse_port=False)
        self.listener.settimeout(0.2)
        self._spawn(self._accept_loop)
        self._spawn(self._work_loop)

    def stop(self) -> None:
        self.stop_event.set()
        self.inbox.put(("stop",))
        if self.listener is not None:
            self.listener.close()
        with self.peer_lock:
            for sock in self.peers.values():
                sock.close()
            self.peers.clear()
        for t in self.threads:
            t.join(timeout=2)

    def _spawn(self, fn, *args) -> None:
        t = threading.Thread(target=fn, args=args, daemon=True)
        t.start()
        self.threads.append(t)

    # -- socket plumbing -------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self.stop_event.is_set():
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self._spawn(self._read_loop, conn)

    def _read_loop(self, conn: socket.socket) -> None:
        try:
            while not self.stop_event.is_set():
                msg = codec.read_frame(conn)
                if msg is None:
                    return
                self.inbox.put(("msg", msg, conn))
        except (codec.CodecError, OSError):
            return
        finally:
            conn.close()

    def _replica_of(self, pid: int) -> int:
        return pid - PROPOSER_BASE if pid >= PROPOSER_BASE else pid

    def _send_peer(self, pid: int, msg) -> None:
        target = self._replica_of(pid)
        if target == self.index:
            self.inbox.put(("msg", msg, None))
            return
        data = codec.frame(msg)
        with self.peer_lock:
            sock = self.peers.get(target)
            try:
                if sock is None:
                    sock = socket.create_connection(self.addresses[target], timeout=2)
                    self.peers[target] = sock
                sock.sendall(data)
            except OSError:
                # Crashed peer: behave like a lost message, retries cover it.
                self.peers.pop(target, None)
                if sock is not None:
                    sock.close()

    # -- worker ---------------------------------------------------------------

    def _work_loop(self) -> None:
        while True:
            item = self.inbox.get()
            if item[0] == "stop":
                return
            if item[0] == "timer":
                self._apply_effects(self.proposer.on_timer(item[1]))
                continue
            _, msg, conn = item
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
                timer = threading.Timer(
                    eff.delay * TICK_SECONDS, self.inbox.put, (("timer", eff.token),)
                )
                timer.daemon = True
                timer.start()

    def _reply(self, conn, reply: ClientReply) -> None:
        if conn is None:
            return
        try:
            conn.sendall(codec.frame(reply))
        except OSError:
            pass  # client went away; nothing to do


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
