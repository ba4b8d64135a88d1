import select
import socket
import threading
import time

import pytest

from rmwreg import kv
from rmwreg.core import Config, Mode
from rmwreg.net import NetClient, Replica


def free_addresses(n):
    socks = [socket.create_server(("127.0.0.1", 0)) for _ in range(n)]
    addrs = [("127.0.0.1", s.getsockname()[1]) for s in socks]
    for s in socks:
        s.close()
    return addrs


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
    reply = codec.read_frame(sock)
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
    assert codec.read_frame(sock) is None  # the replica hung up
    sock.close()
    client = NetClient(addrs[0])
    assert client.facade(Mode.RMW).put(b"k", 3) == 3
    client.close()
    # The replica hung up, so it had handled the bad frame: no thread died
    # on it and none was left behind.
    assert crashes == []
    assert threading.active_count() == threads


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
        assert threading.active_count() <= before + len(replicas)  # one loop each
        for r in replicas:
            assert r.proposer.requests == {}
            assert r.proposer.learned == {}
    finally:
        for c in clients:
            c.close()
        stop_times = [timed_stop(r) for r in replicas]
    assert max(stop_times) < 0.5


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
