import select
import socket
import sys
import threading
import time

import pytest

from rmwreg import codec, kv, net
from rmwreg.core import EMPTY, ROUND_ZERO, Config, Mode, ReqID, Value
from rmwreg.messages import ClientReply, ClientRequest, Prepare, ReqKind, Status, Ticket, Vote
from rmwreg.net import NetClient, Replica
from rmwreg.proposer import Proposer


def free_addresses(n):
    socks = [socket.create_server(("127.0.0.1", 0)) for _ in range(n)]
    addrs = [("127.0.0.1", s.getsockname()[1]) for s in socks]
    for s in socks:
        s.close()
    return addrs


def read_message(sock, buf):
    """The next message framed on `sock`, None when the peer hangs up at a
    frame boundary. `buf` keeps what was read past the message."""
    while (msg := next(codec.unframe(buf), None)) is None:
        data = sock.recv(65536)
        if not data:
            if buf:
                raise codec.CodecError("connection closed mid-frame")
            return None
        buf += data
    return msg


def start_group(addrs, indexes=(0, 1, 2)):
    config = Config(n_acceptors=len(addrs), register_mode=Mode.RMW)
    replicas = [Replica(i, addrs, config) for i in indexes]
    for r in replicas:
        r.start()
    return replicas


def timed_stop(replica):
    t0 = time.perf_counter()
    replica.stop()
    return time.perf_counter() - t0


@pytest.fixture
def group():
    addrs = free_addresses(3)
    replicas = start_group(addrs)
    yield addrs, replicas
    for r in replicas:
        r.stop()


def test_put_get_round_trip(group):
    addrs, _ = group
    client = NetClient(addrs[0])
    f = client.facade(Mode.RMW)
    assert f.get(b"k") is None
    assert f.put(b"k", {"n": 1}) == {"n": 1}
    assert f.get(b"k") == {"n": 1}
    client.close()


def test_any_replica_serves_requests(group):
    addrs, _ = group
    writer = NetClient(addrs[0])
    try:
        writer.facade(Mode.RMW).put(b"k", 10)
    finally:
        writer.close()
    for i in (1, 2):
        reader = NetClient(addrs[i])
        try:
            assert reader.facade(Mode.RMW).get(b"k") == 10
        finally:
            reader.close()


def test_updates_apply_exactly_once_sequentially(group):
    addrs, _ = group
    client = NetClient(addrs[1])
    try:
        f = client.facade(Mode.RMW)
        for i in range(10):
            f.update(b"log", kv.AppendCmd(f"t{i}"))
        assert f.get(b"log") == [f"t{i}" for i in range(10)]
    finally:
        client.close()


def test_kill_one_replica_operations_continue(group):
    addrs, replicas = group
    client = NetClient(addrs[0])
    try:
        f = client.facade(Mode.RMW)
        f.put(b"k", 1)
        replicas[2].stop()
        time.sleep(0.1)
        assert f.update(b"k", kv.AddCmd(1)) == ("done", 2)
        assert f.get(b"k") == 2
    finally:
        client.close()


def test_every_message_type_has_one_route():
    # A replica hands a peer message to the acceptor when its type is in
    # ACCEPTOR_MESSAGES, and to the proposer otherwise; the proposer drops a
    # type it has no handler for. So a new type must join one of the two.
    from rmwreg.acceptor import ACCEPTOR_MESSAGES
    from rmwreg.proposer import _HANDLERS as proposer_handlers

    to_proposer = frozenset(proposer_handlers)
    client = {ClientRequest, ClientReply}
    assert not ACCEPTOR_MESSAGES & to_proposer
    assert not (ACCEPTOR_MESSAGES | to_proposer) & client
    assert ACCEPTOR_MESSAGES | to_proposer | client == {
        cls for cls, _ in codec.MESSAGES.values()}


def test_mismatched_group_size_rejected():
    addrs = free_addresses(2)
    with pytest.raises(ValueError):
        Replica(0, addrs, Config(n_acceptors=3))
    for index in (-1, 2):
        with pytest.raises(ValueError, match="outside a group"):
            Replica(index, addrs, Config(n_acceptors=2))


def test_malformed_command_gets_error_reply(group):
    from rmwreg import codec
    from rmwreg.messages import ClientReply, ClientRequest, ReqKind, Status

    addrs, _ = group
    sock = socket.create_connection(addrs[0], timeout=5)
    sock.sendall(codec.frame(ClientRequest(b"k", ReqKind.WRITE, b"not json", 0)))
    reply = read_message(sock, bytearray())
    assert isinstance(reply, ClientReply)
    assert reply.status is Status.ERROR
    sock.close()


def test_bad_enum_frame_closes_only_that_connection(group, monkeypatch):
    from rmwreg import codec
    from rmwreg.messages import ClientRequest, ReqKind

    crashes = []
    monkeypatch.setattr(threading, "excepthook", crashes.append)
    addrs, _ = group
    blob = bytearray(codec.frame(ClientRequest(b"k", ReqKind.READ, b"", 0)))
    blob[4 + 1 + 4 + 1] = 7  # frame length, tag, key length, key: then the kind byte
    threads = threading.active_count()
    sock = socket.create_connection(addrs[0], timeout=5)
    sock.sendall(bytes(blob))
    assert read_message(sock, bytearray()) is None  # the replica hung up
    sock.close()
    client = NetClient(addrs[0])
    assert client.facade(Mode.RMW).put(b"k", 3) == 3
    client.close()
    # The replica hung up, so it had handled the bad frame: no thread died
    # on it and none was left behind.
    assert crashes == []
    assert threading.active_count() == threads


def test_oversized_frame_header_closes_only_that_connection(group):
    """A header that announces a body longer than OUTBUF_MAX is refused
    before the body is sent, so a replica never buffers it (up to 4 GiB)."""
    addrs, _ = group
    sock = socket.create_connection(addrs[0], timeout=5)
    try:
        sock.sendall(codec._LENGTH.pack(net.OUTBUF_MAX + 1))
        assert read_message(sock, bytearray()) is None  # the replica hung up
    finally:
        sock.close()
    client = NetClient(addrs[0])
    try:
        assert client.facade(Mode.RMW).put(b"k", 3) == 3
    finally:
        client.close()


def test_threads_and_request_tables_stay_bounded():
    before = threading.active_count()
    addrs = free_addresses(3)
    replicas = start_group(addrs)
    clients = [NetClient(a) for a in addrs]
    try:
        facades = [c.facade(Mode.RMW) for c in clients]
        adds = {}
        for i in range(300):  # serial ops, through each replica in turn on its own keys
            f, key = facades[i % 3], b"c%d.k%d" % (i % 3, i % 5)
            if i % 2:
                assert f.update(key, kv.AddCmd(1)) == ("done", adds.get(key, 0) + 1)
                adds[key] = adds.get(key, 0) + 1
            else:
                assert f.get(key) == adds.get(key)
        assert threading.active_count() == before + 1  # one loop for the group
        for r in replicas:
            assert r.proposer.requests == {}
    finally:
        for c in clients:
            c.close()
        stop_times = [timed_stop(r) for r in replicas]
    assert max(stop_times) < 0.5
    assert threading.active_count() == before  # the last stop() ended the loop


def hung_address():
    """A listener that never accepts, with its backlog already full, so that
    a connect to it hangs; returns its address and the sockets to close."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(0)
    held = [listener]
    for _ in range(8):
        filler = socket.socket()
        filler.setblocking(False)
        filler.connect_ex(listener.getsockname())
        held.append(filler)
        if not select.select([], [filler], [], 0.3)[1]:
            return listener.getsockname(), held  # this connect hangs
    pytest.fail("connects to a listener with a full backlog did not hang")


def test_hung_peer_connect_does_not_stall_the_others():
    hung, held = hung_address()
    addrs = free_addresses(2) + [hung]
    replicas = start_group(addrs, indexes=(0, 1))  # replica 2 never answers
    client = NetClient(addrs[0])
    try:
        f = client.facade(Mode.RMW)
        for i in range(10):
            t0 = time.perf_counter()
            assert f.update(b"k", kv.AddCmd(1)) == ("done", i + 1)
            assert f.get(b"k") == i + 1
            assert time.perf_counter() - t0 < 0.5  # well inside the 2 s connect timeout
    finally:
        client.close()
        stop_times = [timed_stop(r) for r in replicas]
        for sock in held:
            sock.close()
    assert max(stop_times) < 0.5


def test_pending_peer_connect_is_redialled_after_its_timeout(monkeypatch):
    """A peer connect still pending at `CONNECT_TIMEOUT_S` is closed, and
    the peer is dialled again once the backoff has passed."""
    monkeypatch.setattr(net, "CONNECT_TIMEOUT_S", 0.1)
    dials = []
    connect = Replica._connect

    def counting_connect(self, target):
        conn = connect(self, target)
        if conn is not None and (self.index, target) == (0, 2):
            dials.append(time.monotonic())
        return conn

    monkeypatch.setattr(Replica, "_connect", counting_connect)
    hung, held = hung_address()
    addrs = free_addresses(2) + [hung]
    replicas = start_group(addrs, indexes=(0, 1))  # replica 2 never answers
    client = NetClient(addrs[0])
    try:
        f = client.facade(Mode.RMW)
        deadline = time.monotonic() + 5
        while len(dials) < 2 and time.monotonic() < deadline:
            f.update(b"k", kv.AddCmd(1))
            time.sleep(0.02)
    finally:
        client.close()
        for r in replicas:
            r.stop()
        for sock in held:
            sock.close()
    assert len(dials) >= 2
    assert dials[1] - dials[0] >= 0.1


def fake_replica(handlers):
    """A stand-in replica that accepts one client and answers its first
    `len(handlers)` requests, the i-th by `handlers[i](request, conn)`,
    then hangs up. Returns its address and its thread."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn = None
        try:
            conn, _ = listener.accept()
            buf = bytearray()
            pending = list(handlers)
            while pending:
                data = conn.recv(65536)
                if not data:
                    return
                buf += data
                for request in codec.unframe(buf):
                    pending.pop(0)(request, conn)
        finally:
            if conn is not None:
                conn.close()
            listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname(), thread


def reply_to(request, value=b"v", seq=None):
    seq = request.client_seq if seq is None else seq
    return codec.frame(ClientReply(Status.DONE, Value(value), seq))


def test_client_skips_a_stale_reply_in_the_same_segment():
    address, thread = fake_replica([
        lambda req, conn: conn.sendall(reply_to(req, b"first")),
        # An old reply and the awaited one arrive in one segment.
        lambda req, conn: conn.sendall(reply_to(req, b"stale", seq=req.client_seq - 1)
                                       + reply_to(req, b"second")),
        lambda req, conn: conn.sendall(reply_to(req, b"third")),
    ])
    client = NetClient(address, retries=0, timeout=5)
    try:
        assert client.submit(b"k", ReqKind.READ, None) == (Status.DONE, Value(b"first"))
        assert client.submit(b"k", ReqKind.READ, None) == (Status.DONE, Value(b"second"))
        assert client.submit(b"k", ReqKind.READ, None) == (Status.DONE, Value(b"third"))
    finally:
        client.close()
    thread.join(5)
    assert not thread.is_alive()


def test_client_reads_a_reply_sent_one_byte_at_a_time():
    def trickle(req, conn):
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for byte in reply_to(req, b"slow"):
            conn.sendall(bytes((byte,)))
            time.sleep(0.002)

    address, thread = fake_replica([trickle])
    client = NetClient(address, retries=0, timeout=5)
    try:
        assert client.submit(b"k", ReqKind.READ, None) == (Status.DONE, Value(b"slow"))
    finally:
        client.close()
    thread.join(5)
    assert not thread.is_alive()


def test_client_gives_up_when_the_replica_hangs_up_mid_frame():
    address, thread = fake_replica([lambda req, conn: conn.sendall(reply_to(req)[:-3])])
    client = NetClient(address, retries=0, timeout=5)
    try:
        assert client.submit(b"k", ReqKind.READ, None) == (Status.UNAVAILABLE, EMPTY)
        assert client.inbuf == bytearray()
    finally:
        client.close()
    thread.join(5)
    assert not thread.is_alive()


def test_client_never_resends_a_command_that_is_not_idempotent():
    """A replica that reads each request and hangs up unanswered may have
    applied it: an add is sent once and its outcome reported unknown, while
    a set, which may apply twice, is still retried."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    commands = []
    done = threading.Event()

    def serve():
        with listener:
            while not done.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                with conn:
                    conn.settimeout(5)
                    if (request := read_message(conn, bytearray())) is not None:
                        commands.append(kv.decode_command(request.command))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    client = NetClient(listener.getsockname(), retries=3, timeout=5)
    try:
        assert client.submit(b"k", ReqKind.WRITE, kv.AddCmd(1)) == (Status.UNAVAILABLE, EMPTY)
        assert commands == [kv.AddCmd(1)]
        assert client.submit(b"k", ReqKind.WRITE, kv.SetCmd(2)) == (Status.UNAVAILABLE, EMPTY)
        assert commands == [kv.AddCmd(1)] + [kv.SetCmd(2)] * 4
    finally:
        client.close()
        done.set()
    thread.join(5)
    assert not thread.is_alive()


def idle_timer_calls(monkeypatch):
    """Wraps `Proposer.on_timer`; returns the list of tokens it was called
    with and did nothing for. A live request or retry timer restarts its
    request, and a batch timer is armed only with something to flush."""
    idle = []
    on_timer = Proposer.on_timer

    def counted(self, token):
        effects = on_timer(self, token)
        if not effects:
            idle.append(token)
        return effects

    monkeypatch.setattr(Proposer, "on_timer", counted)
    return idle


def test_finished_requests_timers_do_not_fire(group, monkeypatch):
    monkeypatch.setattr(net, "TICK_SECONDS", 0.002)  # request timeouts of 120-180 ms
    idle = idle_timer_calls(monkeypatch)
    addrs, _ = group
    client = NetClient(addrs[0])
    try:
        f = client.facade(Mode.RMW)
        for i in range(10):
            f.update(b"k", kv.AddCmd(1))
            assert f.get(b"k") == i + 1
    finally:
        client.close()
    time.sleep(0.5)  # every request's timer is due by now
    assert idle == []


def test_live_timer_still_restarts_a_request(group, monkeypatch):
    monkeypatch.setattr(net, "TICK_SECONDS", 0.002)
    addrs, replicas = group
    replicas[1].stop()
    replicas[2].stop()  # no quorum is left
    client = NetClient(addrs[0], retries=0, timeout=0.5)
    try:
        assert client.submit(b"k", ReqKind.READ, None) == (Status.UNAVAILABLE, EMPTY)
    finally:
        client.close()
    assert replicas[0].proposer.stats.restarts >= 1


@pytest.mark.parametrize("stray", [
    # a Prepare from a pid outside the group: its Ack has nowhere to go
    Prepare(b"x", 7, ReqKind.WRITE, Ticket(0, 0)),
    # a Vote naming a previous writer outside the group: so has its Learned
    Vote(b"x", 7, ROUND_ZERO, Value(b'"v"'), None, ReqID(999, 0), Ticket(0, 0)),
], ids=["prepare", "vote"])
def test_message_for_a_pid_outside_the_group_is_dropped(group, monkeypatch, stray):
    crashes = []
    monkeypatch.setattr(threading, "excepthook", crashes.append)
    addrs, _ = group
    sock = socket.create_connection(addrs[0], timeout=5)
    try:
        # The read is handled after the stray frame, on the same connection.
        sock.sendall(codec.frame(stray) + codec.frame(ClientRequest(b"r", ReqKind.READ, b"", 0)))
        reply = read_message(sock, bytearray())
    finally:
        sock.close()
    assert crashes == []
    assert isinstance(reply, ClientReply) and reply.status is Status.EMPTY


def test_command_that_fails_to_apply_leaves_the_replica_serving(group):
    addrs, _ = group
    client = NetClient(addrs[0], retries=0, timeout=5)
    try:
        f = client.facade(Mode.RMW)
        assert f.put(b"k", "abc") == "abc"
        with pytest.raises(kv.CommandError, match="add requires a numeric register"):
            f.update(b"k", kv.AddCmd(1))
        assert f.get(b"k") == "abc"
        assert f.update(b"k", kv.SetCmd(2)) == ("done", 2)
    finally:
        client.close()


def test_loop_that_dies_closes_every_replica_and_releases_stop(group, monkeypatch):
    crashes = []
    monkeypatch.setattr(threading, "excepthook", crashes.append)

    def explode(*args):
        raise RuntimeError("handler bug")

    monkeypatch.setattr(Proposer, "submit", explode)
    addrs, replicas = group
    sock = socket.create_connection(addrs[1], timeout=5)
    try:
        sock.sendall(codec.frame(ClientRequest(b"k", ReqKind.READ, b"", 0)))
        assert read_message(sock, bytearray()) is None  # the loop closed it
    finally:
        sock.close()
    stop_times = [timed_stop(r) for r in replicas]
    assert max(stop_times) < 0.5
    # The exception reached the hook, as a crash of any thread does.
    [crash] = crashes
    assert crash.exc_type is RuntimeError and crash.thread.name == "replica-loop"
    for address in addrs:  # every replica's listener is closed
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=5).close()


def test_stop_twice_or_before_start_returns_at_once():
    addrs = free_addresses(3)
    Replica(0, addrs, Config(n_acceptors=3)).stop()
    [replica] = start_group(addrs, indexes=(0,))
    assert timed_stop(replica) < 0.5
    assert timed_stop(replica) < 0.05


def test_replica_started_after_the_last_stop_gets_a_new_loop():
    before = threading.active_count()
    for _ in range(2):
        addrs = free_addresses(3)
        replicas = start_group(addrs)
        client = NetClient(addrs[0], retries=0, timeout=5)
        try:
            f = client.facade(Mode.RMW)
            assert f.update(b"k", kv.AddCmd(1)) == ("done", 1)
        finally:
            client.close()
            for r in replicas:
                r.stop()
        assert threading.active_count() == before


def test_replicas_joining_and_leaving_from_many_threads():
    # Each worker starts and stops one-replica groups on the shared loop while
    # the others do; a lost join leaves its client unanswered and a lost
    # leave leaves its stop() waiting.
    before = threading.active_count()
    config = Config(n_acceptors=1, register_mode=Mode.RMW)
    failures = []

    def churn(worker):
        try:
            for i in range(25):
                addrs = free_addresses(1)
                replica = Replica(0, addrs, config)
                replica.start()
                client = NetClient(addrs[0], retries=0, timeout=2)
                try:
                    assert client.facade(Mode.RMW).put(b"k", [worker, i]) == [worker, i]
                finally:
                    client.close()
                    replica.stop()
        except BaseException as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=churn, args=(w,)) for w in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(20)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert failures == []
    assert threading.active_count() == before


def test_client_that_never_reads_is_closed(group, monkeypatch):
    monkeypatch.setattr(net, "OUTBUF_MAX", 1 << 16)
    addrs, _ = group
    client = NetClient(addrs[0], retries=0, timeout=5)
    hog = socket.socket()
    try:
        f = client.facade(Mode.RMW)
        big = "x" * 20000
        f.put(b"big", big)
        hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        hog.settimeout(5)
        hog.connect(addrs[0])
        request = codec.frame(ClientRequest(b"big", ReqKind.READ, b"", 0))
        deadline = time.monotonic() + 5
        with pytest.raises(OSError):  # the replica hung up on it
            while time.monotonic() < deadline:
                hog.sendall(request)
                assert f.get(b"big") == big  # the other client is served
        assert f.update(b"k", kv.AddCmd(1)) == ("done", 1)
    finally:
        hog.close()
        client.close()
