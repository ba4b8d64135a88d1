"""Canonical binary encoding of protocol types and messages.

Big-endian integers, length-prefixed variable fields. The socket demo frames
each message with a 4-byte big-endian length prefix; simulator traces carry
messages as hex (see `rmwreg.trace`).

The field kinds below are the only place a type's wire and JSON form is
stated, and `MESSAGES` the only place a message's fields and their wire order
are. Two entries deliberately depart from the declared field order, and
stay because encoded bytes are shared between builds: `Value` puts its empty
flag before its payload, and `Learned.req`, though always set, carries the
presence byte of an optional request id.

When the module loads, each message's flat layout is compiled from
`MESSAGES` into one encoder and one decoder, whose source is generated the
way `namedtuple` generates a class: fixed-width fields that are adjacent on
the wire, those of nested records included, share one `struct` call, and
flag and presence bytes are checked inline.

Decoding is canonical: input that decodes re-encodes to the same bytes, and
any other input raises `CodecError`.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import struct
from operator import attrgetter, index
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

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


# The canonical JSON form of kv payloads, commands, set members and trace
# records: sorted keys and no spaces. json.dumps with these arguments would
# build a new encoder on every call.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class Kind(NamedTuple):
    """One field type's wire layout, which `_compile` reads, and its JSON
    form. The layout is `("int", struct code)`, `("flag",)`, `("bytes",)`,
    `("enum", {byte: member})`, `("optional", kind)` or
    `("record", cls, fields)`. Kinds used only in JSON, such as `MESSAGE`,
    have none."""

    wire: tuple = ()
    to_json: Callable[[Any], Any] = lambda v: v
    from_json: Callable[[Any], Any] = lambda j: j


U32 = Kind(("int", "I"), from_json=index)  # index() rejects a non-integer
U64 = Kind(("int", "Q"), from_json=index)
FLAG = Kind(("flag",))  # one byte, 0 or 1
BYTES = Kind(("bytes",), bytes.hex, bytes.fromhex)  # U32 length, then the bytes


def enum(cls) -> Kind:
    """One byte holding the member's value; JSON is the value."""
    return Kind(("enum", {m.value: m for m in cls}), lambda v: v.value, cls)


def optional(kind: Kind) -> Kind:
    """A presence flag byte, then `kind` when present; JSON null when absent."""
    return Kind(
        ("optional", kind),
        lambda v: None if v is None else kind.to_json(v),
        lambda j: None if j is None else kind.from_json(j),
    )


def field_names(cls) -> Tuple[str, ...]:
    """The fields of a record type in the order its constructor takes them:
    a namedtuple's `_fields`, or a dataclass's fields."""
    return getattr(cls, "_fields", None) or tuple(f.name for f in dataclasses.fields(cls))


def record(cls, fields, json_list: bool = False) -> Kind:
    """A dataclass or namedtuple as two or more `(name, kind)` fields in
    wire order, which name every declared field once. JSON is an object
    keyed by field name, or with `json_list` a list in wire order."""
    fields = tuple(fields)
    names = [name for name, _ in fields]
    if sorted(names) != sorted(field_names(cls)):
        raise ValueError(f"{cls.__name__}: {names} do not name each field once")
    get = attrgetter(*names)

    def to_json(v):
        out = {name: kind.to_json(x) for (name, kind), x in zip(fields, get(v))}
        return list(out.values()) if json_list else out

    def from_json(j):
        if json_list:
            j = dict(zip(names, j, strict=True))
        return cls(**{name: kind.from_json(j[name]) for name, kind in fields})

    return Kind(("record", cls, fields), to_json, from_json)


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


# ---------------------------------------------------------------------------
# layout compiler


class _Source:
    """Generated code under construction: the objects it names, its lines,
    and the run of adjacent fixed-width fields not yet packed or unpacked,
    as `(struct code, expression or target)` pairs. A nested block shares
    its parent's names."""

    def __init__(self, env: Dict[str, Any], count=None):
        self.env = env
        self.count = itertools.count() if count is None else count
        self.lines: List[str] = []
        self.run: List[Tuple[str, str]] = []
        self.checks: List[str] = []  # statements due once the run is unpacked

    def name(self, obj) -> str:
        """The generated code's name for `obj`."""
        name = f"_{len(self.env)}"
        self.env[name] = obj
        return name

    def fresh(self) -> str:
        """A new local variable."""
        return f"v{next(self.count)}"

    def pack(self, parts: List[str]) -> None:
        """Appends to `parts` an expression that packs the run."""
        if self.run:
            fixed = struct.Struct(">" + "".join(code for code, _ in self.run))
            items = ", ".join(item for _, item in self.run)
            parts.append(f"{self.name(fixed)}.pack({items})")
            self.run = []

    def unpack(self) -> None:
        """Emits the statements that unpack the run, then its checks."""
        if len(self.run) == 1 and self.run[0][0] == "B":  # a lone byte needs no struct
            self.lines += [f"{self.run[0][1]} = data[pos]", "pos += 1"]
        elif self.run:
            fixed = struct.Struct(">" + "".join(code for code, _ in self.run))
            targets = ", ".join(target for _, target in self.run)
            self.lines += [f"{targets}, = {self.name(fixed)}.unpack_from(data, pos)",
                           f"pos += {fixed.size}"]
        self.lines += self.checks
        self.run, self.checks = [], []


def _put(src: _Source, parts: List[str], kind: Kind, expr: str) -> None:
    """Appends to `parts` the expressions whose bytes encode `expr`."""
    form = kind.wire[0]
    if form == "int":
        src.run.append((kind.wire[1], expr))
    elif form == "flag":
        src.run.append(("B", f"1 if {expr} else 0"))
    elif form == "enum":
        src.run.append(("B", f"{expr}._value_"))
    elif form == "bytes":
        src.run.append(("I", f"len({expr})"))
        src.pack(parts)
        parts.append(expr)
    elif form == "record":
        for name, field_kind in kind.wire[2]:
            _put(src, parts, field_kind, f"{expr}.{name}")
    else:  # optional
        src.pack(parts)
        var = src.fresh()
        inner: List[str] = []
        src.run.append(("B", "1"))
        _put(src, inner, kind.wire[1], var)
        src.pack(inner)
        parts.append(f"(b'\\x00' if ({var} := {expr}) is None else {_joined(inner)})")


def _joined(parts: List[str]) -> str:
    return parts[0] if len(parts) == 1 else f"b''.join(({', '.join(parts)},))"


def _take(src: _Source, kind: Kind, path: str) -> str:
    """Emits the code that decodes `kind` at `pos`; returns an expression
    for the value, valid once the run is unpacked."""
    form = kind.wire[0]
    if form in ("int", "flag", "enum"):
        var = src.fresh()
        src.run.append((kind.wire[1] if form == "int" else "B", var))
        if form == "flag":
            # A flag byte other than 0 or 1 would not re-encode to itself.
            src.checks.append(f"if {var} > 1: raise CodecError('flag byte %d in {path}' % {var})")
            return f"{var} == 1"
        return f"{src.name(kind.wire[1])}[{var}]" if form == "enum" else var
    if form == "bytes":
        size = src.fresh()
        src.run.append(("I", size))
        src.unpack()
        var = src.fresh()
        src.lines += [
            f"end = pos + {size}",
            "if end > len(data): raise CodecError('truncated encoding at byte %d' % pos)",
            f"{var} = data[pos:end]",
            "pos = end",
        ]
        return var
    if form == "record":
        cls, fields = kind.wire[1], kind.wire[2]
        values = {name: _take(src, field_kind, f"{path}.{name}") for name, field_kind in fields}
        args = ", ".join(values[name] for name in field_names(cls))
        return f"{src.name(cls)}({args})"
    # optional
    flag = src.fresh()
    src.run.append(("B", flag))
    src.unpack()
    var = src.fresh()
    inner = _Source(src.env, src.count)
    value = _take(inner, kind.wire[1], path)
    inner.unpack()
    src.lines += [
        f"if {flag} == 0:",
        f"    {var} = None",
        f"elif {flag} == 1:",
        *("    " + line for line in inner.lines),
        f"    {var} = {value}",
        f"else: raise CodecError('presence byte %d in {path}' % {flag})",
    ]
    return var


def _compile(tag: int, cls, fields) -> Tuple[Callable, Callable]:
    """The encoder `msg -> bytes` and decoder `(data, pos) -> (msg, next
    pos)` of one message type, the decoder starting after the tag."""
    env: Dict[str, Any] = {"CodecError": CodecError}
    kind = record(cls, fields)
    src = _Source(env)
    parts: List[str] = []
    src.run.append(("B", str(tag)))
    _put(src, parts, kind, "m")
    src.pack(parts)
    value = _take(src, kind, cls.__name__)
    src.unpack()
    code = "\n".join([
        f"def encode_{cls.__name__}(m):",
        f"    return {_joined(parts)}",
        f"def decode_{cls.__name__}(data, pos):",
        *("    " + line for line in src.lines),
        f"    return {value}, pos",
    ])
    exec(compile(code, f"<codec {cls.__name__}>", "exec"), env)
    return env[f"encode_{cls.__name__}"], env[f"decode_{cls.__name__}"]


_COMPILED = {tag: (cls, *_compile(tag, cls, fields)) for tag, (cls, fields) in MESSAGES.items()}
_ENCODERS = {cls: put for cls, put, _ in _COMPILED.values()}
_DECODERS = {tag: take for tag, (_, _, take) in _COMPILED.items()}


def encode(msg) -> bytes:
    put = _ENCODERS.get(type(msg))
    if put is None:
        raise CodecError(f"cannot encode {type(msg).__name__}")
    return put(msg)


def decode(data: bytes):
    if not data:
        raise CodecError("empty encoding")
    take = _DECODERS.get(data[0])
    if take is None:
        raise CodecError(f"unknown message tag {data[0]}")
    try:
        msg, pos = take(data, 1)
    except (IndexError, KeyError, ValueError, struct.error) as exc:
        # Truncation, a bad enum byte, or an empty Value with a payload.
        raise CodecError(f"malformed encoding: {exc!r}") from exc
    if pos != len(data):
        raise CodecError(f"trailing bytes at offset {pos}")
    return msg


# JSON form of a whole message: its canonical encoding in hex.
MESSAGE = Kind((), lambda m: encode(m).hex(), lambda j: decode(bytes.fromhex(j)))


# ---------------------------------------------------------------------------
# socket framing: 4-byte big-endian length prefix + canonical encoding

_LENGTH = struct.Struct(">I")


def frame(msg) -> bytes:
    body = encode(msg)
    return _LENGTH.pack(len(body)) + body


def unframe(buf: bytearray, limit: int = 1 << 32):
    """Yield the message in each complete frame at the front of `buf`,
    deleting the frame's bytes before it is decoded; a partial frame stays.
    Raises CodecError at a header that announces a body longer than `limit`
    bytes, before the body arrives."""
    while len(buf) >= 4:
        size = _LENGTH.unpack_from(buf)[0]
        if size > limit:
            raise CodecError(f"frame of {size} bytes exceeds {limit}")
        end = 4 + size
        if len(buf) < end:
            return
        body = bytes(buf[4:end])
        del buf[:end]
        yield decode(body)

