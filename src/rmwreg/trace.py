"""Simulator trace events and their newline-delimited JSON form.

`EVENTS` is the only place an event's record form is stated. Its fields
use the codec's field kinds, so a message inside a `send` record is its
canonical encoding in hex.

A trace file holds one JSON record per line, with sorted keys and no
spaces, and every line ends in `\n`. Reading also accepts `\r\n` line
ends and skips blank lines. A record that does not parse is reported by
the offset of its line in bytes from the start of the file.

Writing and reading stream: `write_trace` writes each record as soon as
it is encoded, and `read_trace` parses the file one line at a time, so
neither holds the whole text besides the events.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass, fields
from typing import BinaryIO, Iterable, List, Optional, Sequence

from . import codec
from .acceptor import AcceptorState
from .core import ProcessId, Value
from .messages import ReqKind, Status


@dataclass(slots=True)
class ClientInvokeEv:
    tick: int
    client: int
    op_index: int
    key: bytes
    op: ReqKind
    token: Optional[str]


@dataclass(slots=True)
class ClientResponseEv:
    tick: int
    client: int
    op_index: int
    key: bytes
    status: Status
    value: Value
    depth: int


@dataclass(slots=True)
class SendEv:
    idx: int
    tick: int
    src: ProcessId
    dst: ProcessId
    msg: object
    depth: int


@dataclass(slots=True)
class DeliverEv:
    tick: int
    send_idx: int


@dataclass(slots=True)
class DropEv:
    tick: int
    send_idx: int
    reason: str  # "loss" | "crashed"


@dataclass(slots=True)
class DuplicateEv:
    tick: int
    send_idx: int


@dataclass(slots=True)
class CrashEv:
    tick: int
    pid: ProcessId


@dataclass(slots=True)
class RecoverEv:
    tick: int
    pid: ProcessId


@dataclass(slots=True)
class StateSnapshotEv:
    tick: int
    pid: ProcessId
    key: bytes
    state: AcceptorState


# ---------------------------------------------------------------------------
# record form

_STATE = codec.record(AcceptorState, (("r_ack", codec.ROUND), ("val", codec.VALUE),
                                      ("r_voted", codec.ROUND), ("req", codec.OPT_REQ)))
_TEXT = codec.Kind(None, None)  # a string or None, its own JSON form

# record "kind" name -> (event type, the kinds of its fields that are not
# integers)
EVENTS = {
    "send": (SendEv, {"msg": codec.MESSAGE}),
    "deliver": (DeliverEv, {}),
    "drop": (DropEv, {"reason": _TEXT}),
    "duplicate": (DuplicateEv, {}),
    "crash": (CrashEv, {}),
    "recover": (RecoverEv, {}),
    "snapshot": (StateSnapshotEv, {"key": codec.BYTES, "state": _STATE}),
    "invoke": (ClientInvokeEv, {"key": codec.BYTES, "op": codec.REQ_KIND, "token": _TEXT}),
    "response": (
        ClientResponseEv,
        {"key": codec.BYTES, "status": codec.STATUS, "value": codec.VALUE},
    ),
}
_BY_NAME = {
    name: codec.record(cls, [(f.name, kinds.get(f.name, codec.U64)) for f in fields(cls)])
    for name, (cls, kinds) in EVENTS.items()
}
_BY_CLASS = {cls: (name, _BY_NAME[name]) for name, (cls, _) in EVENTS.items()}


def event_to_record(ev) -> dict:
    if type(ev) not in _BY_CLASS:
        raise TypeError(f"unknown trace event {ev!r}")
    name, kind = _BY_CLASS[type(ev)]
    return {"kind": name, **kind.to_json(ev)}


def event_from_record(rec: dict):
    kind = _BY_NAME.get(rec["kind"])
    if kind is None:
        raise ValueError(f"unknown trace record kind {rec['kind']!r}")
    return kind.from_json(rec)


# json.dumps with these arguments would build a new encoder on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def write_trace(trace: Iterable[object], fp: BinaryIO) -> None:
    """Writes `trace` to the binary file `fp`, one record per line."""
    encode = _ENCODER.encode
    for ev in trace:
        fp.write((encode(event_to_record(ev)) + "\n").encode())


def read_trace(fp: BinaryIO) -> List[object]:
    """Parses every record of the binary file `fp`; raises ValueError with
    the byte offset of the first line that is not a valid record."""
    events = []
    offset = 0
    for line in fp:
        if line.strip():
            try:
                events.append(event_from_record(json.loads(line)))
            except (KeyError, TypeError, ValueError, codec.CodecError) as exc:
                raise ValueError(f"corrupt trace at byte offset {offset}: {exc}") from exc
        offset += len(line)
    return events


def trace_to_jsonl(trace: Sequence[object]) -> bytes:
    """The bytes `write_trace` writes for `trace`."""
    buf = io.BytesIO()
    write_trace(trace, buf)
    return buf.getvalue()


def trace_from_jsonl(data: bytes) -> List[object]:
    """`read_trace` over the bytes `data`."""
    return read_trace(io.BytesIO(data))
