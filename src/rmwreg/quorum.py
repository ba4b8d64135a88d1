"""Phase-1 quorum classification.

`classify` looks once at a write's quorum of phase-1 replies, one per
acceptor, and says what the proposer does next: the previous consensus is
finished (`ValueChosen`: propose its successor), a promise is held
(`ReadyToPropose`: write the newest vote through, or propose afresh), or
the quorum is contended (None: retry with an explicit round). Reads pool
their replies across attempts instead (`find_chosen_in_pool`,
`find_empty_in_pool`). The outcomes are slotted records, like the
messages: one is built per classification, and none is reassigned after
construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Optional, Tuple, Union

from .core import ROUND_ZERO, ReqID, Round, Value, round_sort_key
from .messages import Ack


class ConfigurationError(Exception):
    pass


def quorum_size(n: int) -> int:
    """Majority quorum: floor(n/2) + 1."""
    if n < 1:
        raise ConfigurationError("need at least one acceptor")
    return n // 2 + 1


# ---------------------------------------------------------------------------
# phase-1 outcomes


@dataclass(slots=True)
class ValueChosen:
    """The quorum voted one value in one round: that consensus is finished.
    `req` is the quorum's common request id (None when the ids differ), and
    `successor` the common promise when every reply incremented it, so the
    next proposal may use it (None: retry with an explicit round)."""

    value: Value
    req: Optional[ReqID]
    successor: Optional[Round]


@dataclass(slots=True)
class ReadyToPropose:
    """Every reply incremented the same promise, `round`. `write_through` is
    the reply with the newest vote, whose unfinished consensus must be
    written through first, or None when the quorum never voted."""

    round: Round
    write_through: Optional[Ack]


def classify(replies: Collection[Ack]) -> Union[ValueChosen, ReadyToPropose, None]:
    """Classify a quorum of a write's phase-1 replies, one per acceptor;
    None means retry with an explicit round.

    Pure function of the replies; repeated calls agree. Reads finish from
    their reply pool instead (`find_chosen_in_pool`, `find_empty_in_pool`).
    """
    first = next(iter(replies))
    r_ack = first.r_ack
    successor = r_ack if all(r.incremented and r.r_ack == r_ack for r in replies) else None
    r_voted, val = first.r_voted, first.val
    if r_voted != ROUND_ZERO and all(r.r_voted == r_voted and r.val == val for r in replies):
        req = first.req
        return ValueChosen(val, req if all(r.req == req for r in replies) else None, successor)
    if successor is None:
        return None
    # `round_sort_key` orders incomparable rounds by owner id; equal newest
    # rounds go to the largest sender. Either choice is value-irrelevant in
    # reachable states (one value per round number), but keeps runs replayable.
    newest = max(replies, key=lambda r: (round_sort_key(r.r_voted), r.src))
    return ReadyToPropose(successor, None if newest.r_voted == ROUND_ZERO else newest)


# ---------------------------------------------------------------------------
# pooled read classification


def find_chosen_in_pool(
    pool: Iterable[Ack], required: int
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


def find_empty_in_pool(pool: Iterable[Ack], required: int) -> bool:
    """True when a quorum of distinct acceptors reported never having voted.
    No value can have been chosen before the earliest of those replies."""
    unvoted = {r.src for r in pool if r.r_voted == ROUND_ZERO}
    return len(unvoted) >= required
