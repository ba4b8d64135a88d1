"""Shared protocol types: rounds, request ids, register values, update
commands, and deployment configuration.

Everything here is an immutable value; instances can be shared freely
between state machines and execution contexts.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, Optional

# Opaque process identifier. Total order is only used for deterministic
# tie-breaking in tests and trace output; the protocol needs equality plus
# the partial order on rounds.
ProcessId = int

# Proposer pids are PROPOSER_BASE + i, so they never collide with acceptor
# pids 0..n-1; replica i hosts acceptor i and proposer PROPOSER_BASE + i.
PROPOSER_BASE = 1000


class Ordering(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class Round:
    """Proposal round (n, id). Rounds with equal n but different id cannot
    be ordered. The id is None only in the initial round."""

    n: int
    id: Optional[ProcessId] = None


ROUND_ZERO = Round(0, None)


def round_compare(r1: Round, r2: Round) -> Ordering:
    """Partial order on rounds: ordered by n, equal only on identical pairs."""
    if r1.n < r2.n:
        return Ordering.LESS
    if r1.n > r2.n:
        return Ordering.GREATER
    if r1.id == r2.id:
        return Ordering.EQUAL
    return Ordering.INCOMPARABLE


def round_less(r1: Round, r2: Round) -> bool:
    return r1.n < r2.n


def round_sort_key(r: Round) -> tuple:
    # None sorts below every ProcessId so max() never selects the initial
    # round spuriously.
    return (r.n, -1 if r.id is None else r.id)


def next_explicit_round(observed: Iterable[Round], proposer: ProcessId) -> Round:
    """Round strictly above everything observed so far, owned by `proposer`."""
    rounds = list(observed)
    if not rounds:
        raise ValueError("need at least one observed round")
    return Round(max(r.n for r in rounds) + 1, proposer)


@dataclass(frozen=True)
class ReqID:
    """Per-write unique identifier: owner pid plus a locally unique counter.

    The counter must survive proposer recoveries; (pid, seq) pairs are
    never reused.
    """

    pid: ProcessId
    seq: int


@dataclass(frozen=True)
class Value:
    """Register value: opaque payload bytes plus an explicit empty flag.

    The distinguished empty value is not the same as an empty payload.
    """

    payload: bytes = b""
    empty: bool = False

    def __post_init__(self) -> None:
        if self.empty and self.payload:
            raise ValueError("empty value carries no payload")


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


class Mode(enum.Enum):
    WRITE_ONCE = "write-once"
    SEQUENCE = "sequence"
    RMW = "rmw"


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
    fast_writes: bool = True
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

    @property
    def f_tolerated(self) -> int:
        return (self.n_acceptors - 1) // 2
