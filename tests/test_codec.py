import hashlib
import random
import socket

import pytest
from hypothesis import given, strategies as st

from rmwreg import codec
from rmwreg.core import EMPTY, ReqID, ROUND_ZERO, Round, Value
from rmwreg.messages import (
    Ack,
    ClientReply,
    ClientRequest,
    Learned,
    Nack,
    PaxosPrep,
    Prepare,
    ReqKind,
    Status,
    Ticket,
    Vote,
    Voted,
)

from test_net import read_message

rounds = st.builds(Round, st.integers(min_value=0, max_value=2**32 - 1),
                   st.one_of(st.none(), st.integers(min_value=0, max_value=2**64 - 1)))
reqs = st.one_of(st.none(), st.builds(ReqID, st.integers(min_value=0, max_value=2**64 - 1),
                                      st.integers(min_value=0, max_value=2**64 - 1)))
values = st.one_of(st.just(EMPTY), st.builds(Value, st.binary(max_size=64)))
tickets = st.builds(Ticket, st.integers(min_value=0, max_value=2**64 - 1),
                    st.integers(min_value=0, max_value=2**32 - 1))
keys = st.binary(max_size=16)
pids = st.integers(min_value=0, max_value=2**64 - 1)
kinds = st.sampled_from(list(ReqKind))

messages = st.one_of(
    st.builds(Prepare, keys, pids, kinds, tickets),
    st.builds(PaxosPrep, keys, pids, rounds, tickets),
    st.builds(Vote, keys, pids, rounds, values, reqs, reqs, tickets),
    st.builds(Ack, keys, pids, tickets, rounds, values, rounds, reqs, st.booleans()),
    st.builds(Voted, keys, pids, tickets, rounds, values),
    st.builds(Nack, keys, pids, tickets, rounds),
    st.builds(Learned, keys, pids, st.builds(ReqID, pids, pids)),
    st.builds(ClientRequest, keys, kinds, st.binary(max_size=64),
              st.integers(min_value=0, max_value=2**64 - 1)),
    st.builds(ClientReply, st.sampled_from(list(Status)), values,
              st.integers(min_value=0, max_value=2**64 - 1)),
)


# Exact wire bytes of one instance of each message type. The wire format is
# shared by peers of different builds, so these bytes must never change.
GOLDEN_HEX = [
    (Prepare(b"k", 7, ReqKind.WRITE, Ticket(1, 2)),
     "01000000016b000000000000000701000000000000000100000002"),
    (PaxosPrep(b"key", 1001, Round(3, None), Ticket(4, 1)),
     "02000000036b657900000000000003e90000000300000000000000000400000001"),
    (Vote(b"k", 1002, Round(5, 1002), Value(b"v1"), ReqID(1002, 3), None, Ticket(9, 0)),
     "03000000016b00000000000003ea000000050100000000000003ea000000000276310100000000"
     "000003ea000000000000000300000000000000000900000000"),
    (Ack(b"k", 2, Ticket(9, 1), Round(6, 1001), EMPTY, ROUND_ZERO, None, True),
     "04000000016b0000000000000002000000000000000900000001000000060100000000000003e9"
     "010000000000000000000001"),
    (Voted(b"k", 0, Ticket(9, 0), Round(5, 1002), Value(b"v1")),
     "05000000016b0000000000000000000000000000000900000000000000050100000000000003ea"
     "00000000027631"),
    (Nack(b"", 1, Ticket(0, 0), Round(2**32 - 1, 2**64 - 1)),
     "06000000000000000000000001000000000000000000000000ffffffff01ffffffffffffffff"),
    (Learned(b"k", 1, ReqID(1002, 3)),
     "07000000016b00000000000000010100000000000003ea0000000000000003"),
    (ClientRequest(b"k", ReqKind.READ, b"", 17),
     "08000000016b00000000000000000000000011"),
    (ClientReply(Status.ALREADY_CHOSEN, Value(b"x"), 17),
     "09030000000001780000000000000011"),
]


@pytest.mark.parametrize("msg,hexed", GOLDEN_HEX, ids=[type(m).__name__ for m, _ in GOLDEN_HEX])
def test_golden_wire_bytes(msg, hexed):
    assert codec.encode(msg).hex() == hexed
    assert codec.decode(bytes.fromhex(hexed)) == msg


@given(messages)
def test_round_trip(msg):
    assert codec.decode(codec.encode(msg)) == msg


@given(messages)
def test_encoding_is_canonical(msg):
    assert codec.encode(msg) == codec.encode(msg)


@given(messages, st.data())
def test_truncation_raises(msg, data):
    blob = codec.encode(msg)
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    with pytest.raises(codec.CodecError):
        codec.decode(blob[:cut])


@given(messages, st.binary(min_size=1, max_size=8))
def test_trailing_bytes_raise(msg, junk):
    with pytest.raises(codec.CodecError):
        codec.decode(codec.encode(msg) + junk)


@given(messages, st.data())
def test_mutated_encoding_is_rejected_or_canonical(msg, data):
    blob = bytearray(codec.encode(msg))
    pos = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    blob[pos] = data.draw(st.integers(min_value=0, max_value=255))
    try:
        decoded = codec.decode(bytes(blob))
    except codec.CodecError:
        return
    assert codec.encode(decoded) == bytes(blob)


def _set_byte(msg, offset, byte):
    blob = bytearray(codec.encode(msg))
    blob[offset] = byte
    return bytes(blob)


@pytest.mark.parametrize("blob", [
    pytest.param(_set_byte(Prepare(b"k", 7, ReqKind.WRITE, Ticket(1, 2)), 1 + 4 + 1 + 8, 2),
                 id="Prepare.kind"),
    pytest.param(_set_byte(ClientRequest(b"k", ReqKind.READ, b"", 0), 1 + 4 + 1, 0xFF),
                 id="ClientRequest.kind"),
    pytest.param(_set_byte(ClientReply(Status.DONE, EMPTY, 0), 1, 6), id="ClientReply.status"),
    pytest.param(_set_byte(PaxosPrep(b"", 1, Round(3, 1), Ticket(0, 0)), 1 + 4 + 8 + 4, 5),
                 id="PaxosPrep.round.id-flag"),
    pytest.param(_set_byte(Ack(b"", 1, Ticket(0, 0), ROUND_ZERO, EMPTY, ROUND_ZERO, None, True),
                           -1, 9), id="Ack.incremented"),
    pytest.param(_set_byte(Learned(b"", 1, ReqID(1, 2)), 1 + 4 + 8, 2), id="Learned.req-flag"),
    pytest.param(_set_byte(Voted(b"", 1, Ticket(0, 0), ROUND_ZERO, EMPTY), -5, 3),
                 id="Voted.value.empty"),
])
def test_bad_enum_and_flag_bytes_raise_codec_error(blob):
    with pytest.raises(codec.CodecError):
        codec.decode(blob)


def test_unknown_tag():
    with pytest.raises(codec.CodecError):
        codec.decode(b"\xff")


def test_empty_value_with_payload_rejected():
    blob = codec.encode(Nack(b"k", 1, Ticket(0, 0), ROUND_ZERO))
    # hand-build a Voted whose value claims empty but carries bytes
    bad = bytes([5]) + codec.encode(Voted(b"k", 1, Ticket(0, 0), ROUND_ZERO, Value(b"x")))[1:]
    bad = bytearray(bad)
    # flip the empty flag inside the value (last value field of Voted)
    idx = len(bad) - 4 - 1 - 1  # payload(1) + len(4) + flag(1) from the end
    bad[idx] = 1
    with pytest.raises(codec.CodecError):
        codec.decode(bytes(bad))
    assert codec.decode(blob) is not None  # sanity: baseline still valid


def test_framing_over_socketpair():
    a, b = socket.socketpair()
    msgs = [
        Prepare(b"k", 7, ReqKind.WRITE, Ticket(1, 2)),
        Vote(b"k", 7, Round(3, 7), Value(b"v"), ReqID(7, 0), None, Ticket(1, 2)),
        ClientReply(Status.DONE, Value(b"v"), 9),
    ]
    for m in msgs:
        a.sendall(codec.frame(m))
    buf = bytearray()
    got = [read_message(b, buf) for _ in msgs]
    assert got == msgs
    a.close()
    assert read_message(b, buf) is None  # clean EOF
    b.close()


def _corpus(n, seed):
    """`n` messages cycling through all nine types, their fields drawn from
    `random.Random(seed)` and reaching each field's extremes."""
    rng = random.Random(seed)

    def uint(bits):
        return rng.choice((0, 2**bits - 1, rng.getrandbits(bits), rng.randrange(16)))

    def blob():
        return rng.randbytes(rng.choice((0, 1, rng.randrange(48))))

    def round_():
        return Round(uint(32), rng.choice((None, uint(64))))

    def value():
        return EMPTY if rng.random() < 0.2 else Value(blob())

    def reqid():
        return ReqID(uint(64), uint(64))

    def opt_req():
        return None if rng.random() < 0.3 else reqid()

    def ticket():
        return Ticket(uint(64), uint(32))

    builders = (
        lambda: Prepare(blob(), uint(64), rng.choice(list(ReqKind)), ticket()),
        lambda: PaxosPrep(blob(), uint(64), round_(), ticket()),
        lambda: Vote(blob(), uint(64), round_(), value(), opt_req(), opt_req(), ticket()),
        lambda: Ack(blob(), uint(64), ticket(), round_(), value(), round_(), opt_req(),
                    rng.random() < 0.5),
        lambda: Voted(blob(), uint(64), ticket(), round_(), value()),
        lambda: Nack(blob(), uint(64), ticket(), round_()),
        lambda: Learned(blob(), uint(64), reqid()),
        lambda: ClientRequest(blob(), rng.choice(list(ReqKind)), blob(), uint(64)),
        lambda: ClientReply(rng.choice(list(Status)), value(), uint(64)),
    )
    return [builders[i % len(builders)]() for i in range(n)]


# sha256 over the encodings of `_corpus(5000, seed=9)`, each preceded by its
# 4-byte length. Like GOLDEN_HEX, this must never change.
CORPUS_SHA256 = "cf9c9022d7fd8ba061f86ca625a59aaa59bf5a13d7ca6964e2b729abf05a23ed"


def test_seeded_corpus_wire_digest():
    digest = hashlib.sha256()
    for msg in _corpus(5000, seed=9):
        blob = codec.encode(msg)
        assert codec.decode(blob) == msg
        digest.update(len(blob).to_bytes(4, "big") + blob)
    assert digest.hexdigest() == CORPUS_SHA256
