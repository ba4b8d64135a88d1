"""Reference definitions the tests check the library against. Nothing in
`rmwreg` calls them.

`round_compare` is the partial order on rounds as the paper states it; the
acceptor's promise and vote checks, the quorum classification and the
trace audit compare rounds on their fields directly and are tested against
it. `count_message_delays` reads a request's message-delay count off a
simulator trace.
"""
from __future__ import annotations

import enum
from typing import Sequence

from rmwreg.core import Round
from rmwreg.trace import ClientResponseEv


class Ordering(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def round_compare(r1: Round, r2: Round) -> Ordering:
    """Partial order on rounds: ordered by n, equal only on identical pairs."""
    if r1.n < r2.n:
        return Ordering.LESS
    if r1.n > r2.n:
        return Ordering.GREATER
    if r1.id == r2.id:
        return Ordering.EQUAL
    return Ordering.INCOMPARABLE


def count_message_delays(trace: Sequence[object], client: int, op_index: int) -> int:
    """Length of the longest causal message chain between a request's
    invocation and its response."""
    for ev in trace:
        if isinstance(ev, ClientResponseEv) and ev.client == client and ev.op_index == op_index:
            return ev.depth
    raise ValueError(f"request {client}/{op_index} did not complete in this trace")
