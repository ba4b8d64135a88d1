"""Phase-1 reply collection and classification.

A quorum view is a set of phase-1 replies from distinct acceptors. `cons`
and `max_by` are the two reply-set reductions everything else is built on;
`classify` turns a view into one of the phase-1 outcomes the proposer
dispatches on. The outcomes are slotted records, like the messages: one is
built per classification, and none is reassigned after construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple, Union

from .core import (
    ROUND_ZERO,
    ProcessId,
    ReqID,
    Round,
    Value,
    next_explicit_round,
    round_sort_key,
)
from .messages import Ack, ReqKind

AckReply = Ack


class ConfigurationError(Exception):
    pass


def quorum_size(n: int) -> int:
    """Majority quorum: floor(n/2) + 1."""
    if n < 1:
        raise ConfigurationError("need at least one acceptor")
    return n // 2 + 1


class Inconsistent:
    """Distinguished marker returned by cons() on disagreeing replies."""

    _instance: Optional["Inconsistent"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Inconsistent"


INCONSISTENT = Inconsistent()


@dataclass
class QuorumView:
    """Minimal quorum of phase-1 replies, one per acceptor. Late replies may
    be merged in and classification re-run."""

    required: int
    replies: dict = field(default_factory=dict)  # ProcessId -> AckReply

    def add(self, reply: AckReply) -> None:
        self.replies[reply.src] = reply

    def __len__(self) -> int:
        return len(self.replies)

    @property
    def complete(self) -> bool:
        return len(self.replies) >= self.required


def cons(view: QuorumView, selector: str):
    """Common value of the selected field across all replies, or the
    Inconsistent marker. Precondition: at least one reply."""
    if not view.replies:
        raise ValueError("cons over empty view")
    replies = iter(view.replies.values())
    first = getattr(next(replies), selector)
    for r in replies:
        if getattr(r, selector) != first:
            return INCONSISTENT
    return first


def max_by(view: QuorumView, key_selector: str, value_selector: str):
    """Value of `value_selector` from the reply with the largest round in
    `key_selector`. Ties among incomparable maximal rounds are broken by the
    largest sender pid, which is value-irrelevant in reachable states but
    keeps simulation replayable."""
    if not view.replies:
        raise ValueError("max_by over empty view")
    best = max(
        view.replies.values(),
        key=lambda r: (round_sort_key(getattr(r, key_selector)), r.src),
    )
    return getattr(best, value_selector)


# ---------------------------------------------------------------------------
# phase-1 outcomes


@dataclass(slots=True)
class ValueChosen:
    value: Value
    r_voted: Round


@dataclass(slots=True)
class EmptyConfirmed:
    pass


@dataclass(slots=True)
class Fresh:
    pass


@dataclass(slots=True)
class MustWriteThrough:
    value: Value
    r_voted: Round
    req: Optional[ReqID]


@dataclass(slots=True)
class ReadyToPropose:
    round: Round
    mode: Union[Fresh, MustWriteThrough]


@dataclass(slots=True)
class Retry:
    next_round: Round


Phase1Outcome = Union[ValueChosen, EmptyConfirmed, ReadyToPropose, Retry]


def classify(view: QuorumView, request: ReqKind, proposer: ProcessId) -> Phase1Outcome:
    """Classify a complete quorum view into one phase-1 outcome.

    Pure function of (view, request, proposer); repeated calls agree.
    """
    if not view.complete:
        raise ValueError("classification needs a complete quorum view")

    c_voted = cons(view, "r_voted")
    if c_voted is not INCONSISTENT:
        if c_voted != ROUND_ZERO:
            # Consensus already reached; the value is identical across the
            # quorum whenever r_voted is (single proposal per round).
            c_val = cons(view, "val")
            if c_val is not INCONSISTENT:
                return ValueChosen(c_val, c_voted)
        elif request is ReqKind.READ:
            return EmptyConfirmed()

    if all(r.incremented for r in view.replies.values()):
        c_ack = cons(view, "r_ack")
        if c_ack is not INCONSISTENT:
            if c_voted is not INCONSISTENT and c_voted == ROUND_ZERO:
                return ReadyToPropose(c_ack, Fresh())
            return ReadyToPropose(
                c_ack,
                MustWriteThrough(
                    max_by(view, "r_voted", "val"),
                    max_by(view, "r_voted", "r_voted"),
                    max_by(view, "r_voted", "req"),
                ),
            )

    observed: List[Round] = []
    for r in view.replies.values():
        observed.append(r.r_ack)
        observed.append(r.r_voted)
    return Retry(next_explicit_round(observed, proposer))


# ---------------------------------------------------------------------------
# pooled read classification


def find_chosen_in_pool(
    pool: Iterable[AckReply], required: int
) -> Optional[Tuple[Value, Round, Optional[ReqID]]]:
    """Scan replies collected across read attempts for a consistent quorum
    of identical votes. Mixing attempts is safe: a quorum of acceptors that
    each reported voting (r, v) implies the proposal was chosen.

    Returns the (value, round, req) of the newest such vote, or None.
    """
    groups: dict = {}
    for r in pool:
        if r.r_voted == ROUND_ZERO:
            continue
        groups.setdefault((r.r_voted, r.val, r.req), set()).add(r.src)
    best = None
    for (r_voted, val, req), senders in groups.items():
        if len(senders) >= required:
            if best is None or round_sort_key(r_voted) > round_sort_key(best[1]):
                best = (val, r_voted, req)
    return best


def find_empty_in_pool(pool: Iterable[AckReply], required: int) -> bool:
    """True when a quorum of distinct acceptors reported never having voted.
    No value can have been chosen before the earliest of those replies."""
    unvoted = {r.src for r in pool if r.r_voted == ROUND_ZERO}
    return len(unvoted) >= required
