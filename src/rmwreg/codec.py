"""Canonical binary encoding of protocol types and messages.

Big-endian integers, length-prefixed variable fields. The socket demo frames
each message with a 4-byte big-endian length prefix; simulator traces carry
messages as hex (see `rmwreg.trace`).

The field kinds below are the only place a type's wire and JSON form is
stated, and `MESSAGES` the only place a message's fields and their wire order
are. Two entries deliberately depart from the dataclass declarations, and
stay because encoded bytes are shared between builds: `Value` puts its empty
flag before its payload, and `Learned.req`, though always set, carries the
presence byte of an optional request id.

Decoding is canonical: input that decodes re-encodes to the same bytes, and
any other input raises `CodecError`.
"""
from __future__ import annotations

import dataclasses
import struct
from operator import attrgetter, index
from typing import Any, Callable, NamedTuple, Tuple

from .core import ReqID, Round, Value
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
    Ticket,
    Vote,
    Voted,
)


class CodecError(Exception):
    """Malformed or truncated encoding."""


class Kind(NamedTuple):
    """One field type's wire form, `put(v) -> bytes` and
    `take(data, pos) -> (v, next_pos)`, and its JSON form. `fmt` is the
    struct code of a fixed-width integer. Kinds used only in JSON, such as
    `MESSAGE`, have no wire form."""

    put: Callable[[Any], bytes]
    take: Callable[[bytes, int], Tuple[Any, int]]
    to_json: Callable[[Any], Any] = lambda v: v
    from_json: Callable[[Any], Any] = lambda j: j
    fmt: str = ""


def _int(fmt: str) -> Kind:
    s = struct.Struct(">" + fmt)

    def take(data, pos):
        return s.unpack_from(data, pos)[0], pos + s.size

    return Kind(s.pack, take, from_json=index, fmt=fmt)  # index() rejects a non-integer


def _flag(data: bytes, pos: int) -> bool:
    # A flag byte other than 0 or 1 would not re-encode to itself.
    if data[pos] > 1:
        raise CodecError(f"flag byte {data[pos]} at offset {pos}")
    return data[pos] == 1


def _take_bytes(data, pos):
    n, pos = U32.take(data, pos)
    if pos + n > len(data):
        raise CodecError(f"truncated encoding at byte {pos}")
    return data[pos : pos + n], pos + n


U32 = _int("I")
U64 = _int("Q")
FLAG = Kind(lambda v: b"\x01" if v else b"\x00", lambda data, pos: (_flag(data, pos), pos + 1))
BYTES = Kind(lambda v: U32.put(len(v)) + v, _take_bytes, bytes.hex, bytes.fromhex)


def enum(cls) -> Kind:
    """One byte holding the member's value; JSON is the value."""
    return Kind(
        lambda v: bytes((v.value,)),
        lambda data, pos: (cls(data[pos]), pos + 1),
        lambda v: v.value,
        cls,
    )


def optional(kind: Kind) -> Kind:
    """A presence flag byte, then `kind` when present; JSON null when absent."""
    return Kind(
        lambda v: b"\x00" if v is None else b"\x01" + kind.put(v),
        lambda data, pos: kind.take(data, pos + 1) if _flag(data, pos) else (None, pos + 1),
        lambda v: None if v is None else kind.to_json(v),
        lambda j: None if j is None else kind.from_json(j),
    )


def record(cls, fields, json_list: bool = False) -> Kind:
    """A dataclass as two or more `(name, kind)` fields in wire order, which
    name every declared field. JSON is an object keyed by field name, or with
    `json_list` a list in wire order."""
    get = attrgetter(*(name for name, _ in fields))
    declared = [f.name for f in dataclasses.fields(cls)]
    slots = [declared.index(name) for name, _ in fields]  # constructor positions
    if all(kind.fmt for _, kind in fields) and slots == sorted(slots):
        # Only fixed-width integers, in declaration order: one struct call.
        fixed = struct.Struct(">" + "".join(kind.fmt for _, kind in fields))

        def put(v):
            return fixed.pack(*get(v))

        def take(data, pos):
            return cls(*fixed.unpack_from(data, pos)), pos + fixed.size

    else:
        puts = tuple(kind.put for _, kind in fields)
        steps = tuple(zip(slots, (kind.take for _, kind in fields)))

        def put(v):
            return b"".join([put_field(x) for put_field, x in zip(puts, get(v))])

        def take(data, pos):
            vals = [None] * len(steps)
            for slot, take_field in steps:
                vals[slot], pos = take_field(data, pos)
            return cls(*vals), pos

    def to_json(v):
        out = {name: kind.to_json(x) for (name, kind), x in zip(fields, get(v))}
        return list(out.values()) if json_list else out

    def from_json(j):
        if json_list:
            j = dict(zip((name for name, _ in fields), j, strict=True))
        return cls(**{name: kind.from_json(j[name]) for name, kind in fields})

    return Kind(put, take, to_json, from_json)


ROUND = record(Round, (("n", U32), ("id", optional(U64))), json_list=True)
OPT_REQ = optional(record(ReqID, (("pid", U64), ("seq", U64)), json_list=True))
VALUE = record(Value, (("empty", FLAG), ("payload", BYTES)))  # flag first, see above
TICKET = record(Ticket, (("request", U64), ("instance", U32)))
REQ_KIND = enum(ReqKind)
STATUS = enum(Status)
_ADDRESSED = (("key", BYTES), ("src", U64))

# tag -> (message type, its fields in wire order)
MESSAGES = {
    1: (Prepare, _ADDRESSED + (("kind", REQ_KIND), ("ticket", TICKET))),
    2: (PaxosPrep, _ADDRESSED + (("round", ROUND), ("ticket", TICKET))),
    3: (Vote, _ADDRESSED + (("round", ROUND), ("value", VALUE), ("req_cur", OPT_REQ),
                            ("req_prev", OPT_REQ), ("ticket", TICKET))),
    4: (Ack, _ADDRESSED + (("ticket", TICKET), ("r_ack", ROUND), ("val", VALUE),
                           ("r_voted", ROUND), ("req", OPT_REQ), ("incremented", FLAG))),
    5: (Voted, _ADDRESSED + (("ticket", TICKET), ("round", ROUND), ("value", VALUE))),
    6: (Nack, _ADDRESSED + (("ticket", TICKET), ("r_ack", ROUND))),
    7: (Learned, _ADDRESSED + (("req", OPT_REQ),)),  # presence byte, see above
    8: (ClientRequest, (("key", BYTES), ("kind", REQ_KIND), ("command", BYTES),
                        ("client_seq", U64))),
    9: (ClientReply, (("status", STATUS), ("value", VALUE), ("client_seq", U64))),
}
_BY_TAG = {tag: record(cls, fields) for tag, (cls, fields) in MESSAGES.items()}
_BY_CLASS = {cls: (tag, _BY_TAG[tag]) for tag, (cls, _) in MESSAGES.items()}


def encode(msg) -> bytes:
    try:
        tag, kind = _BY_CLASS[type(msg)]
    except KeyError:
        raise CodecError(f"cannot encode {type(msg).__name__}") from None
    return bytes((tag,)) + kind.put(msg)


def decode(data: bytes):
    if not data:
        raise CodecError("empty encoding")
    kind = _BY_TAG.get(data[0])
    if kind is None:
        raise CodecError(f"unknown message tag {data[0]}")
    try:
        msg, pos = kind.take(data, 1)
    except (IndexError, ValueError, struct.error) as exc:
        raise CodecError(f"malformed encoding: {exc}") from exc
    if pos != len(data):
        raise CodecError(f"trailing bytes at offset {pos}")
    return msg


# JSON form of a whole message: its canonical encoding in hex.
MESSAGE = Kind(None, None, lambda m: encode(m).hex(), lambda j: decode(bytes.fromhex(j)))


# ---------------------------------------------------------------------------
# socket framing: 4-byte big-endian length prefix + canonical encoding


def frame(msg) -> bytes:
    body = encode(msg)
    return U32.put(len(body)) + body


def unframe(buf: bytearray):
    """Yield the message in each complete frame at the front of `buf`,
    deleting the frame's bytes before it is decoded; a partial frame stays."""
    while len(buf) >= 4:
        end = 4 + U32.take(buf, 0)[0]
        if len(buf) < end:
            return
        body = bytes(buf[4:end])
        del buf[:end]
        yield decode(body)


def read_frame(sock):
    """Read one framed message from a socket; None on clean EOF."""
    header = _read_exact(sock, 4)
    if header is None:
        return None
    body = _read_exact(sock, U32.take(header, 0)[0])
    if body is None:
        raise CodecError("connection closed mid-frame")
    return decode(body)


def _read_exact(sock, n: int):
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise CodecError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
