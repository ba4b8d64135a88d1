"""Phase-1 quorum classification.

`classify` looks once at a write's quorum of phase-1 replies, one per
acceptor, and says what the proposer does next: the previous consensus is
finished (`ValueChosen`: propose its successor), a promise is held over an
unfinished vote (`ReadyToPropose`: write the newest vote through), or the
quorum is contended (None: retry with an explicit round). A quorum that
never voted holds the initial cell, which acts as the empty value decided
in round 0: with a common promise it is `ValueChosen` of `EMPTY`. The
outcomes are slotted records, like the messages: one is built per
classification, and none is reassigned after construction.

Reads pool their replies across attempts instead. A `ReadPool` classifies
each reply as it arrives, at a cost that does not grow with the pool:
whether the replies so far hold a quorum of one vote, or a quorum of
acceptors that never voted. `find_chosen_in_pool` and `find_empty_in_pool`
state the same answers as scans over the whole pool; they are the
reference the pool is tested against.
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
    """The quorum voted one value in one round, or never voted and holds a
    common promise: that consensus is finished. `req` is the quorum's
    common request id (None when the ids differ), and `successor` the
    common promise when every reply incremented it, so the next proposal
    may use it (None: retry with an explicit round)."""

    value: Value
    req: Optional[ReqID]
    successor: Optional[Round]


@dataclass(slots=True)
class ReadyToPropose:
    """Every reply incremented the same promise, `round`. `write_through` is
    the reply with the newest vote, whose unfinished consensus must be
    written through first."""

    round: Round
    write_through: Ack


def classify(replies: Collection[Ack]) -> Union[ValueChosen, ReadyToPropose, None]:
    """Classify a quorum of a write's phase-1 replies, one per acceptor;
    None means retry with an explicit round.

    Pure function of the replies; repeated calls agree. Reads finish from
    their reply pool instead (`ReadPool`).
    """
    first = next(iter(replies))
    r_ack = first.r_ack
    successor = r_ack if all(r.incremented and r.r_ack == r_ack for r in replies) else None
    r_voted, val = first.r_voted, first.val
    voted_alike = all(r.r_voted == r_voted and r.val == val for r in replies)
    if voted_alike and (r_voted != ROUND_ZERO or successor is not None):
        req = first.req
        return ValueChosen(val, req if all(r.req == req for r in replies) else None, successor)
    if successor is None:
        return None
    # `round_sort_key` orders incomparable rounds by owner id; equal newest
    # rounds go to the largest sender. Either choice is value-irrelevant in
    # reachable states (one value per round number), but keeps runs replayable.
    newest = max(replies, key=lambda r: (round_sort_key(r.r_voted), r.src))
    return ReadyToPropose(successor, newest)


# ---------------------------------------------------------------------------
# pooled read classification


class ReadPool:
    """A read's replies across all its attempts, classified as each arrives.
    After every `add`, `chosen` is what `find_chosen_in_pool` returns and
    `empty` what `find_empty_in_pool` returns for the replies added so far.

    `groups` maps each vote `(r_voted, val, req)` to its position among the
    groups, in the order first seen, and the set of its senders; `unvoted`
    holds the senders that reported never voting. `chosen` only changes when
    a group reaches `required` senders, so each reply costs the same however
    many came before it.
    """

    __slots__ = ("required", "groups", "unvoted", "chosen", "_rank")

    def __init__(self, required: int):
        self.required = required
        self.groups: dict = {}
        self.unvoted: set = set()
        self.chosen: Optional[Tuple[Value, Round, Optional[ReqID]]] = None
        self._rank: tuple = ()  # `chosen`'s (round_sort_key, -position)

    def add(self, ack: Ack) -> None:
        r_voted = ack.r_voted
        if r_voted == ROUND_ZERO:
            self.unvoted.add(ack.src)
            return
        vote = (r_voted, ack.val, ack.req)
        group = self.groups.get(vote)
        if group is None:
            group = self.groups[vote] = (len(self.groups), set())
        senders = group[1]
        senders.add(ack.src)
        if len(senders) == self.required:
            # The newest round wins; of equally new groups, the first seen,
            # as in `find_chosen_in_pool`, even when it reaches quorum later.
            rank = (round_sort_key(r_voted), -group[0])
            if rank > self._rank:
                self.chosen = (ack.val, r_voted, ack.req)
                self._rank = rank

    @property
    def empty(self) -> bool:
        return len(self.unvoted) >= self.required


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
