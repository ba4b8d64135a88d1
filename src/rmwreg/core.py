"""Shared protocol types: rounds, request ids, register values, update
commands, and deployment configuration.

Everything here is an immutable value; instances can be shared freely
between state machines and execution contexts.

`Round`, `ReqID` and `Value` (and `messages.Ticket`) are dict keys and set
members on every protocol step, so they are `namedtuple`s: hashing,
equality and field reads are the tuple's own, done in C, and a value hashes
as the plain tuple of its fields. `FrozenTuple`, first among their bases,
makes assigning a field raise `FrozenInstanceError`, and `<` and the other
orderings raise `TypeError`, as for a frozen dataclass. Nothing calls the
namedtuple's `_make` or `_replace`, which would skip `Value`'s check.
The per-message paths build a `Round` or `Ticket` with
`tuple.__new__(cls, fields)`, where `fields` is the tuple of both fields:
the proposer's tickets and retry and next rounds, and the acceptor's
promised rounds. That is what the namedtuple's generated `__new__` does,
minus its Python frame; neither type defines a `__new__` of its own, so no
check is skipped. `Value`, which has one, is always called.
Equality is the tuple's, so a `Round(3, 7)` equals a `ReqID(3, 7)` and the
plain tuple `(3, 7)`. No dict or set may therefore mix these types, or them
and plain tuples, as keys.
"""
from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import FrozenInstanceError, dataclass
from typing import Callable, FrozenSet, Optional

# Opaque process identifier. Total order is only used for deterministic
# tie-breaking in tests and trace output; the protocol needs equality plus
# the partial order on rounds.
ProcessId = int

# Proposer pids are PROPOSER_BASE + i, so they never collide with acceptor
# pids 0..n-1; replica i hosts acceptor i and proposer PROPOSER_BASE + i.
PROPOSER_BASE = 1000


def _unordered(op: str):
    def compare(self, other):
        raise TypeError(f"'{op}' not supported between instances of "
                        f"{type(self).__name__!r} and {type(other).__name__!r}")
    return compare


class FrozenTuple(tuple):
    """Listed before the `namedtuple` in each value type's bases, it adds
    what a frozen dataclass has and a namedtuple lacks: assigning a field
    raises `FrozenInstanceError`, and ordering raises `TypeError`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    __lt__ = _unordered("<")
    __le__ = _unordered("<=")
    __gt__ = _unordered(">")
    __ge__ = _unordered(">=")


class Round(FrozenTuple, namedtuple("Round", "n id", defaults=(None,))):
    """Proposal round (n, id): the round number and its owning proposer.
    Rounds with equal n but different id cannot be ordered. The id is None
    only in the initial round."""

    __slots__ = ()


ROUND_ZERO = Round(0, None)


def round_sort_key(r: Round) -> tuple:
    # None sorts below every ProcessId so max() never selects the initial
    # round spuriously.
    return (r.n, -1 if r.id is None else r.id)


class ReqID(FrozenTuple, namedtuple("ReqID", "pid seq")):
    """Per-write unique identifier: the owning proposer's pid plus a
    counter of that owner's.

    The counter must survive proposer recoveries; (pid, seq) pairs are
    never reused.
    """

    __slots__ = ()


class Value(FrozenTuple, namedtuple("Value", "payload empty")):
    """Register value: opaque payload bytes plus an explicit empty flag,
    true only for the distinguished empty value, which carries no payload.

    The distinguished empty value is not the same as an empty payload.
    """

    __slots__ = ()

    def __new__(cls, payload: bytes = b"", empty: bool = False):
        if empty and payload:
            raise ValueError("empty value carries no payload")
        return tuple.__new__(cls, (payload, empty))


EMPTY = Value(b"", True)


class CommandError(Exception):
    """Raised when an update command cannot be decoded or applied."""


class UpdateCommand:
    """Deterministic value transformation.

    apply() returns the new Value, or None when the command has no effect
    on the given value (e.g. a failed compare-and-swap).
    """

    def apply(self, value: Value) -> Optional[Value]:
        raise NotImplementedError


@dataclass(frozen=True)
class FnCommand(UpdateCommand):
    """In-process command wrapping an arbitrary deterministic function."""

    fn: Callable[[Value], Optional[Value]]
    label: str = "fn"

    def apply(self, value: Value) -> Optional[Value]:
        return self.fn(value)


def apply_command(cmd: UpdateCommand, value: Value) -> Optional[Value]:
    """Apply `cmd` to `value`; None signals a no-op. Never mutates `value`."""
    result = cmd.apply(value)
    if result is not None and not isinstance(result, Value):
        raise CommandError(f"command produced {type(result).__name__}, not a Value")
    return result


def randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """`randrange(n)` of the generator whose `getrandbits` is given, for
    n >= 1, taking the same bits: `random.Random._randbelow`'s rejection
    loop, without `randint`'s and `randrange`'s argument handling on the way
    to it. Seeded runs draw their picks, delays and backoffs with it, so a
    seed gives the trace that `randrange`/`randint` calls would.

    n == 1 still draws, as `randrange(1)` does; skipping that draw would
    shift every later one. `World.step` does skip it: a one-entry bucket is
    picked without calling this. n < 1 would loop forever. The hottest
    draws repeat this loop inline: `World`'s picks and delays, and the
    proposer's request-timer jitter (`Proposer._arm_timer`).
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class Mode(enum.Enum):
    """The register a group offers. WRITE_ONCE is the SEQUENCE register
    whose writes are set-if-empty: its value is the first decision, and a
    writer hears DONE when its literal is that value, ALREADY_CHOSEN
    otherwise. RMW adds exactly-once updates."""

    WRITE_ONCE = "write-once"
    SEQUENCE = "sequence"
    RMW = "rmw"


# Bound once, as `messages` binds its enums' members (see there).
WRITE_ONCE, SEQUENCE, RMW = Mode.WRITE_ONCE, Mode.SEQUENCE, Mode.RMW


# Protocol fault hooks, used only to validate the checker suite. Each name
# disables one safety-relevant step in the proposer or acceptor.
MUT_VOTE_BELOW_PROMISE = "vote_below_promise"
MUT_SUB_QUORUM = "propose_without_quorum"
MUT_SKIP_WRITE_THROUGH = "skip_write_through"
MUT_REUSE_ROUND = "reuse_round"
MUT_DROP_LEARNED = "drop_learned"
ALL_MUTATIONS = frozenset(
    {
        MUT_VOTE_BELOW_PROMISE,
        MUT_SUB_QUORUM,
        MUT_SKIP_WRITE_THROUGH,
        MUT_REUSE_ROUND,
        MUT_DROP_LEARNED,
    }
)


@dataclass(frozen=True)
class Config:
    """Deployment configuration for one register group.

    n_acceptors must be 2F+1 for the intended tolerance F; quorums are
    majorities. RMW mode additionally requires the reliable FIFO transport
    contract.
    """

    n_acceptors: int
    register_mode: Mode = Mode.RMW
    read_retry_limit: int = 2
    batch_interval: int = 0  # in simulator ticks; 0 disables batching
    mutations: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        if self.n_acceptors < 1:
            raise ValueError("need at least one acceptor")
        if self.read_retry_limit < 0:
            raise ValueError("read retry limit must be non-negative")
        if self.batch_interval < 0:
            raise ValueError("batch interval must be non-negative")
        unknown = set(self.mutations) - ALL_MUTATIONS
        if unknown:
            raise ValueError(f"unknown mutations: {sorted(unknown)}")
