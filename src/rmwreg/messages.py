"""Protocol message types exchanged between proposers and acceptors, the
client-facing request/reply contract, and the effects both state machines
return.

Every acceptor-bound message carries the register key (so one acceptor can
host many independent registers) and a `ticket` identifying the proposer's
request attempt, echoed back in replies so stale replies can be dropped.

The nine messages are slotted records, not frozen dataclasses: one is built
per send, and a frozen `__init__` stores each field through
`object.__setattr__`, about four times the cost. They are unhashable and are
never reassigned after construction;
`tests/test_sim.py::test_records_are_never_reassigned` checks that. `Ticket`
is a value, like `core.Round`: a frozen `namedtuple`, hashed and compared as
the plain tuple of its fields, so a `Ticket(1, 2)` equals `(1, 2)` and a
`Round(1, 2)` (see `rmwreg.core`). One is built per attempt and shared by
the attempt's messages.

Effects are descriptions, not actions: `Send` a message, `Reply` to a
client, `SetTimer` for a wakeup. The acceptor returns only `Send`s; the
transport (simulator or socket replica) carries out all three. They are
slotted records too.

`ReqKind` and `Status` (like `core.Mode`) stay enums: the traces and the
golden history digest pin their reprs. But on Python 3.10 and 3.11 the enum
metaclass defines `__getattr__`, which sends every member lookup such as
`ReqKind.READ` through the slow attribute hook: 107 ns on 3.11.7, where a
module global costs 9 ns, and a simulated read made 13 of them. So the
simulator, proposer, acceptor, quorum, checker and socket modules, and the
`cli` functions a fuzz seed calls, bind the members they use to private
module constants at import (`_READ = ReqKind.READ`) and load no enum class
in a function (`tests/test_sim.py::test_hot_paths_load_no_enum_class`). From
3.12 the metaclass has no `__getattr__`, and the lookup costs 27-29 ns.
"""
from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Union

from .core import FrozenTuple, ProcessId, ReqID, Round, Value


class Ticket(FrozenTuple, namedtuple("Ticket", "request instance")):
    """(request, instance): the proposer's request id, and how many times
    that request restarted."""

    __slots__ = ()


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


# ---------------------------------------------------------------------------
# effects


@dataclass(slots=True)
class Send:
    dst: ProcessId
    msg: object


@dataclass(slots=True)
class Reply:
    client: object
    status: Status
    value: Value
    client_seq: int


@dataclass(slots=True)
class SetTimer:
    delay: int
    token: tuple


Effect = Union[Send, Reply, SetTimer]
