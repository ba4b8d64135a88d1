"""Acceptor state machine: the fixed, in-place distributed storage cell.

One acceptor hosts any number of independent register cells keyed by name,
each created on first touch with the initial state ((0,nil), empty, (0,nil),
nil). The machine processes exactly one message at a time; distinct
acceptors share nothing.

Stale prepares and votes produce explicit Nacks carrying the current
promise so proposers can retry without waiting for a timeout. Every vote
also promises the voter the next round, so its next write may skip phase 1.

Like the proposer, it returns effects, here only `messages.Send`, for the
transport to carry out. A transport routes the types in `ACCEPTOR_MESSAGES`
here and every other protocol message to the proposer.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from .core import (
    EMPTY,
    MUT_VOTE_BELOW_PROMISE,
    Config,
    ProcessId,
    ReqID,
    Round,
    ROUND_ZERO,
    Value,
)
from .messages import Ack, Learned, Nack, PaxosPrep, Prepare, ReqKind, Send, Vote, Voted


@dataclass(slots=True)
class AcceptorState:
    """(r_ack, val, r_voted, req): everything an acceptor stores per register.

    r_ack never decreases; (val, r_voted, req) change only together, when a
    vote is cast. A cell is replaced, never reassigned field by field: it is
    a slotted record like the messages, and `INITIAL_STATE` is shared.
    """

    r_ack: Round = ROUND_ZERO
    val: Value = EMPTY
    r_voted: Round = ROUND_ZERO
    req: Optional[ReqID] = None


INITIAL_STATE = AcceptorState()

# Builds a `Round` from the tuple of its fields without the namedtuple's
# Python `__new__` (see `rmwreg.core`).
_tuple_new = tuple.__new__

# Enum members bound once: on Python 3.10 and 3.11 each `ReqKind.READ`-style
# lookup in a function takes the enum metaclass's slow `__getattr__` hook
# (see `rmwreg.messages`).
_READ = ReqKind.READ


class Acceptor:
    def __init__(self, pid: ProcessId, config: Config):
        self.pid = pid
        self.config = config
        self.cells: Dict[bytes, AcceptorState] = {}

    # -- state access -------------------------------------------------------

    def cell(self, key: bytes) -> AcceptorState:
        return self.cells.get(key, INITIAL_STATE)

    def state_hash(self) -> str:
        """Digest over all cells; used to verify reads leave no trace."""
        h = hashlib.sha256()
        for key in sorted(self.cells):
            h.update(key)
            h.update(repr(self.cells[key]).encode())
        return h.hexdigest()

    def snapshot(self) -> Dict[bytes, AcceptorState]:
        return dict(self.cells)

    def restore(self, cells: Dict[bytes, AcceptorState]) -> None:
        self.cells = dict(cells)

    # -- message handling ---------------------------------------------------

    def handle(self, msg) -> List[Send]:
        handler = _HANDLERS.get(type(msg))
        return handler(self, msg) if handler is not None else []

    def handle_prepare(self, msg: Prepare) -> List[Send]:
        key = msg.key
        state = self.cells.get(key, INITIAL_STATE)
        if msg.kind is _READ:
            # Reads leave the cell untouched so they cannot interfere with
            # concurrent requests.
            return [Send(msg.src, Ack(key, self.pid, msg.ticket, state.r_ack, state.val,
                                      state.r_voted, state.req, False))]
        state = AcceptorState(
            _tuple_new(Round, (state.r_ack.n + 1, msg.src)), state.val, state.r_voted, state.req
        )
        self.cells[key] = state
        return [Send(msg.src, self._ack(key, msg.ticket, state, True))]

    # The two handlers below test `core.round_compare`'s LESS and EQUAL
    # directly on the fields: LESS is `n <`, EQUAL is equality of the
    # (n, id) tuples.

    def handle_prepare_explicit(self, msg: PaxosPrep) -> List[Send]:
        key = msg.key
        state = self.cells.get(key, INITIAL_STATE)
        if state.r_ack.n < msg.round.n:
            state = AcceptorState(msg.round, state.val, state.r_voted, state.req)
            self.cells[key] = state
            return [Send(msg.src, self._ack(key, msg.ticket, state, True))]
        # Incomparable rounds are rejected too: acknowledging them would
        # allow two proposals to share a round number.
        return [Send(msg.src, Nack(key, self.pid, msg.ticket, state.r_ack))]

    def handle_vote(self, msg: Vote) -> List[Send]:
        key = msg.key
        state = self.cells.get(key, INITIAL_STATE)
        rnd = msg.round
        if rnd != state.r_ack and MUT_VOTE_BELOW_PROMISE not in self.config.mutations:
            return [Send(msg.src, Nack(key, self.pid, msg.ticket, state.r_ack))]

        assert not rnd.n < state.r_ack.n or (
            MUT_VOTE_BELOW_PROMISE in self.config.mutations
        ), "acceptor must never vote below its promise"

        # Behave as if a Prepare from the same proposer arrived right after
        # voting, so it may skip phase 1 next time.
        self.cells[key] = AcceptorState(
            _tuple_new(Round, (rnd.n + 1, rnd.id)), msg.value, rnd, msg.req_cur
        )
        out = [Send(msg.src, Voted(key, self.pid, msg.ticket, rnd, msg.value))]
        if msg.req_prev is not None:
            out.append(Send(msg.req_prev.pid, Learned(key, self.pid, msg.req_prev)))
        return out

    def _ack(self, key: bytes, ticket, state: AcceptorState, incremented: bool) -> Ack:
        return Ack(key, self.pid, ticket, state.r_ack, state.val, state.r_voted, state.req,
                   incremented)


# message type -> the Acceptor method that handles it; other types are ignored
_HANDLERS = {
    Prepare: Acceptor.handle_prepare,
    PaxosPrep: Acceptor.handle_prepare_explicit,
    Vote: Acceptor.handle_vote,
}
ACCEPTOR_MESSAGES = frozenset(_HANDLERS)
