"""Protocol message types exchanged between proposers and acceptors, plus
the client-facing request/reply contract.

Every acceptor-bound message carries the register key (so one acceptor can
host many independent registers) and a `ticket` identifying the proposer's
request attempt, echoed back in replies so stale replies can be dropped.

The nine messages are slotted records, not frozen dataclasses: one is built
per send, and a frozen `__init__` stores each field through
`object.__setattr__`, about four times the cost. They are unhashable and are
never reassigned after construction;
`tests/test_sim.py::test_records_are_never_reassigned` checks that. `Ticket`
stays a frozen value: it is built once per attempt and shared by the
attempt's messages.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .core import ProcessId, ReqID, Round, Value


@dataclass(frozen=True)
class Ticket:
    """(request, instance) pair; instance counts protocol restarts."""

    request: int
    instance: int


class ReqKind(enum.Enum):
    READ = 0
    WRITE = 1


# ---------------------------------------------------------------------------
# proposer -> acceptor


@dataclass(slots=True)
class Prepare:
    """Round-less phase-1 message; acceptors assign the round themselves."""

    key: bytes
    src: ProcessId
    kind: ReqKind
    ticket: Ticket


@dataclass(slots=True)
class PaxosPrep:
    """Explicit-round phase-1 message used after a failed round-less attempt."""

    key: bytes
    src: ProcessId
    round: Round
    ticket: Ticket


@dataclass(slots=True)
class Vote:
    """Phase-2 proposal. req_cur identifies this proposal's write request;
    req_prev names the previously chosen successor (triggers LEARNED)."""

    key: bytes
    src: ProcessId
    round: Round
    value: Value
    req_cur: Optional[ReqID]
    req_prev: Optional[ReqID]
    ticket: Ticket


# ---------------------------------------------------------------------------
# acceptor -> proposer


@dataclass(slots=True)
class Ack:
    """Phase-1 reply carrying the full acceptor state."""

    key: bytes
    src: ProcessId
    ticket: Ticket
    r_ack: Round
    val: Value
    r_voted: Round
    req: Optional[ReqID]
    incremented: bool


@dataclass(slots=True)
class Nack:
    """Stale prepare or vote; carries the acceptor's current promise."""

    key: bytes
    src: ProcessId
    ticket: Ticket
    r_ack: Round


@dataclass(slots=True)
class Voted:
    """Positive phase-2 reply. Value is echoed for trace auditing; the
    protocol itself only needs the round."""

    key: bytes
    src: ProcessId
    ticket: Ticket
    round: Round
    value: Value


@dataclass(slots=True)
class Learned:
    """Notifies the owner of `req` that its proposal was chosen."""

    key: bytes
    src: ProcessId
    req: ReqID


# ---------------------------------------------------------------------------
# client-facing wire contract (socket demo; mirrored by the in-process API)


class Status(enum.Enum):
    DONE = 0
    EMPTY = 1
    NOOP = 2
    ALREADY_CHOSEN = 3
    UNAVAILABLE = 4
    ERROR = 5


@dataclass(slots=True)
class ClientRequest:
    key: bytes
    kind: ReqKind
    command: bytes  # encoded KvCommand; empty for reads
    client_seq: int


@dataclass(slots=True)
class ClientReply:
    status: Status
    value: Value
    client_seq: int


Message = object  # any of the dataclasses above
