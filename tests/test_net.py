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


@pytest.fixture
def group():
    addrs = free_addresses(3)
    config = Config(n_acceptors=3, register_mode=Mode.RMW)
    replicas = [Replica(i, addrs, config) for i in range(3)]
    for r in replicas:
        r.start()
    time.sleep(0.2)
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
    writer = NetClient(addrs[0]).facade(Mode.RMW)
    writer.put(b"k", 10)
    for i in (1, 2):
        reader = NetClient(addrs[i])
        assert reader.facade(Mode.RMW).get(b"k") == 10
        reader.close()


def test_updates_apply_exactly_once_sequentially(group):
    addrs, _ = group
    f = NetClient(addrs[1]).facade(Mode.RMW)
    for i in range(10):
        f.update(b"log", kv.AppendCmd(f"t{i}"))
    assert f.get(b"log") == [f"t{i}" for i in range(10)]


def test_kill_one_replica_operations_continue(group):
    addrs, replicas = group
    f = NetClient(addrs[0]).facade(Mode.RMW)
    f.put(b"k", 1)
    replicas[2].stop()
    time.sleep(0.1)
    assert f.update(b"k", kv.AddCmd(1)) == ("done", 2)
    assert f.get(b"k") == 2


def test_mismatched_group_size_rejected():
    addrs = free_addresses(2)
    with pytest.raises(ValueError):
        Replica(0, addrs, Config(n_acceptors=3))


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
    addrs, replicas = group
    blob = bytearray(codec.frame(ClientRequest(b"k", ReqKind.READ, b"", 0)))
    blob[4 + 1 + 4 + 1] = 7  # frame length, tag, key length, key: then the kind byte
    sock = socket.create_connection(addrs[0], timeout=5)
    sock.sendall(bytes(blob))
    assert codec.read_frame(sock) is None  # the replica hung up
    sock.close()
    for t in replicas[0].threads[2:]:  # the reader threads, after accept and work
        t.join(timeout=5)
        assert not t.is_alive()
    assert crashes == []
    client = NetClient(addrs[0])
    assert client.facade(Mode.RMW).put(b"k", 3) == 3
    client.close()
