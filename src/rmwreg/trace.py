"""Simulator trace events, the `Trace` view over them, and their
newline-delimited JSON form.

An event has two forms. The row form is what `sim.World` keeps: an exact
tuple `(kind, *fields)`, where `kind` is the event's name in `EVENTS` and
the fields follow its record class's field order, as in
`("deliver", tick, send_idx)`. A row of ints and strings holds nothing the
cyclic collector must walk, so after one collection it is untracked. The
record form is one of the slotted classes below, built from a row only
when a reader asks for it.

`Trace` is a read-only sequence view over a list of rows: its length is
the list's, and iterating, indexing and slicing build records. It compares
equal to any sequence of equal records. Code on the fuzz path reads the
rows themselves (`rows_of`): the trace audit and `write_trace` build no
record.

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

import collections.abc
import io
import json
from dataclasses import dataclass, fields
from operator import attrgetter, eq
from typing import BinaryIO, Iterable, Iterator, List, Optional, Sequence

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
_TEXT = codec.Kind()  # a string or None, its own JSON form

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
_FIELDS = {  # kind name -> its (field name, codec kind) pairs, in row order
    name: tuple((f.name, kinds.get(f.name, codec.U64)) for f in fields(cls))
    for name, (cls, kinds) in EVENTS.items()
}
_BY_NAME = {name: codec.record(cls, _FIELDS[name]) for name, (cls, _) in EVENTS.items()}
_ROW_OF = {  # event type -> (its kind name, the getter of its fields in row order)
    cls: (name, attrgetter(*(f for f, _ in _FIELDS[name]))) for name, (cls, _) in EVENTS.items()
}


def row_of(ev) -> tuple:
    """The row of the record `ev`."""
    spec = _ROW_OF.get(type(ev))
    if spec is None:
        raise TypeError(f"unknown trace event {ev!r}")
    name, get = spec
    return (name, *get(ev))


def record_of(row: tuple):
    """The record of the row `row`."""
    return EVENTS[row[0]][0](*row[1:])


def rows_of(trace: Iterable[object]) -> Iterable[tuple]:
    """The rows of a `Trace` itself, or those of any other iterable of
    records, built one at a time."""
    if type(trace) is Trace:
        return trace.rows
    return map(row_of, trace)


class Trace(collections.abc.Sequence):
    """A read-only view over the rows `World` appends to: `len` is the
    list's, and iterating, indexing and slicing build records. Equal to any
    sequence of equal records, in either operand order."""

    __slots__ = ("rows",)

    def __init__(self, rows: List[tuple]):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [record_of(row) for row in self.rows[i]]
        return record_of(self.rows[i])

    def __iter__(self) -> Iterator[object]:
        return map(record_of, self.rows)

    def __eq__(self, other) -> bool:
        if type(other) is Trace:
            return self.rows == other.rows
        if isinstance(other, collections.abc.Sequence):
            return len(other) == len(self.rows) and all(map(eq, self, other))
        return NotImplemented


def _row_to_json(row: tuple) -> dict:
    name = row[0]
    rec = {"kind": name}
    for (field, kind), x in zip(_FIELDS[name], row[1:]):
        rec[field] = kind.to_json(x)
    return rec


def event_from_record(rec: dict):
    kind = _BY_NAME.get(rec["kind"])
    if kind is None:
        raise ValueError(f"unknown trace record kind {rec['kind']!r}")
    return kind.from_json(rec)


def write_trace(trace: Iterable[object], fp: BinaryIO) -> None:
    """Writes `trace`, a `Trace` or records, to the binary file `fp`, one
    record per line."""
    encode = codec.canonical_json
    for row in rows_of(trace):
        fp.write((encode(_row_to_json(row)) + "\n").encode())


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
