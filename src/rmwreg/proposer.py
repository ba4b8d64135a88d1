"""Proposer/learner state machine for all three register modes.

The proposer drives the two-phase protocol for each admitted client
request and acts as that request's sole learner. It is a logical
single-threaded machine: callers feed it one message (or timer, or request
admission) at a time and apply the returned effects.

Every mode takes one path, the sequence register's: a write-once register
is the sequence register whose writes are `SetIfEmpty` commands, so its
value is the sequence's first decision.

Effects are descriptions, not actions: `Send` messages, `Reply` to a
client, `SetTimer` for a wakeup. They live in `rmwreg.messages`, beside the
acceptor's `Send`s, and the transport (simulator or socket replica)
interprets both machines' effects in one loop.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .core import (
    EMPTY,
    MUT_DROP_LEARNED,
    MUT_REUSE_ROUND,
    MUT_SKIP_WRITE_THROUGH,
    MUT_SUB_QUORUM,
    RMW,
    WRITE_ONCE,
    CommandError,
    Config,
    ProcessId,
    ReqID,
    Round,
    UpdateCommand,
    Value,
    apply_command,
    randbelow,
    round_sort_key,
)
from .messages import (  # the effects are re-exported for callers of this module
    ALREADY_CHOSEN,
    DONE,
    ERROR,
    NOOP,
    READ,
    STATUS_EMPTY,
    WRITE,
    Ack,
    Effect,
    Learned,
    Nack,
    PaxosPrep,
    Prepare,
    Reply,
    ReqKind,
    Send,
    SetTimer,
    Status,
    Ticket,
    Vote,
    Voted,
)
from .quorum import ReadPool, ValueChosen, classify, quorum_size
# Unused here, but bench/spans.py times the pool scans as bound in this module.
from .quorum import find_chosen_in_pool, find_empty_in_pool  # noqa: F401

REQUEST_TIMEOUT_TICKS = 60
# The request timer's jitter is randint(0, REQUEST_TIMEOUT_TICKS // 2): a
# `core.randbelow` of this span, drawn inline in `_arm_timer`.
_JITTER_SPAN = REQUEST_TIMEOUT_TICKS // 2 + 1
_JITTER_BITS = _JITTER_SPAN.bit_length()
# At most this many fast-write tokens are kept; past it the oldest, in dict
# order, is dropped, which costs only its key's next write the fast path.
# Far above the key count of any simulated world or benchmark workload.
FAST_TOKENS_MAX = 4096

# Builds a `Ticket` or `Round` from the tuple of its fields without the
# namedtuple's Python `__new__` (see `rmwreg.core`).
_tuple_new = tuple.__new__

# Like the messages and effects, `FastToken` is a slotted record built on
# the hot path: unhashable, and never reassigned after construction
# (`tests/test_sim.py::test_records_are_never_reassigned`).


@dataclass(slots=True)
class FastToken:
    """Phase-1 skip: the round the acceptors pre-promised when they voted
    for this proposer's last chosen proposal on the key, plus that chosen
    base value and its ReqID. Invalidated by any Nack."""

    round: Round
    base: Value
    base_req: Optional[ReqID]


@dataclass(frozen=True)
class SetIfEmpty(UpdateCommand):
    """A write-once write: its `literal` on the empty register, a no-op on
    any other value. `_apply_commands` answers the no-op DONE when the
    value it met is the literal, and ALREADY_CHOSEN otherwise."""

    literal: Value

    def apply(self, value: Value) -> Optional[Value]:
        return self.literal if value.empty else None


# (command, client, client_seq, held reply) of a client still owed an
# answer; a read's command is None, and only `_apply_commands` holds a reply.
Waiting = Tuple[Optional[UpdateCommand], object, int, Optional[Reply]]


@dataclass(slots=True)
class Request:
    """One admitted request, for one client or a batch of them, and its
    protocol attempt state. A read is one with `kind` READ, escalated or
    not. `waiting` holds the clients not yet answered, in admission order;
    each answer takes its entry out, so no client is answered twice and no
    answered command is applied again. An entry's held reply is the NOOP or
    ERROR of a command that met a value its batch made: `_finish` sends it
    once the proposal is chosen, and the next apply replaces it. An instance
    is in phase 1 until it proposes (`proposal` set); an evicted request has
    nobody waiting.

    A read's `read_pool` holds its replies of every attempt, classified as
    they arrive; it is built on the read's first Ack. `voters` is built when
    an instance proposes, and only counted while it has a `proposal`; it
    stays set after, so it is not None once some instance of the request
    reached phase 2."""

    rid: int
    key: bytes
    kind: ReqKind
    waiting: List[Waiting]
    reqid: Optional[ReqID] = None

    instance: int = 0
    acks: Dict[ProcessId, Ack] = field(default_factory=dict)
    read_pool: Optional[ReadPool] = None  # reads: replies across attempts
    top_n: int = 0  # largest round number this instance's Acks and Nacks showed
    proposal: Optional[Vote] = None  # the phase-2 message of this instance
    writethrough: bool = False  # the proposal consolidates someone's value
    voters: Optional[set] = None  # acceptors that voted `proposal`
    retry_count: int = 0
    prev_rounds: Optional[tuple] = None
    escalated: bool = False  # read forced onto the write path
    learned: bool = False  # an RMW write's LEARNED notice arrived
    backoff: int = 0


@dataclass
class ProposerStats:
    write_throughs: int = 0
    fast_writes: int = 0
    restarts: int = 0
    read_retries: int = 0
    read_escalations: int = 0  # reads forced onto the write-through path


class Proposer:
    def __init__(self, pid: ProcessId, config: Config, rng: random.Random):
        self.pid = pid
        self.config = config
        self.rng = rng
        self.requests: Dict[int, Request] = {}  # open requests; done ones are evicted
        self.next_rid = 0
        self.next_seq = 0  # ReqID counter; never reused, survives recovery
        self.fast: Dict[bytes, FastToken] = {}
        # Requests held for the batch timer, which runs while this is non-empty.
        self.batched: Dict[Tuple[ReqKind, bytes], List[Waiting]] = {}
        self.stats = ProposerStats()
        self.quorum = 1 if MUT_SUB_QUORUM in config.mutations else quorum_size(config.n_acceptors)

    # -- admission ------------------------------------------------------------

    def submit(
        self,
        key: bytes,
        kind: ReqKind,
        cmd: Optional[UpdateCommand],
        client: object,
        client_seq: int,
    ) -> List[Effect]:
        """Admit one client request. Writes carry an update command; a
        write-once write is admitted as `SetIfEmpty` of the literal it gives
        on the empty register, or answered now if it gives none."""
        if kind is WRITE and self.config.register_mode is WRITE_ONCE:
            try:
                literal = apply_command(cmd, EMPTY)
            except CommandError as exc:
                return [Reply(client, ERROR, Value(str(exc).encode()), client_seq)]
            if literal is None:
                return [Reply(client, NOOP, EMPTY, client_seq)]
            cmd = SetIfEmpty(literal)
        entry = (cmd, client, client_seq, None)
        if self.config.batch_interval > 0:
            timer = [] if self.batched else [SetTimer(self.config.batch_interval, ("batch",))]
            self.batched.setdefault((kind, key), []).append(entry)
            return timer
        return self._start(self._new_request(key, kind, [entry]))

    def _new_request(self, key, kind, waiting) -> Request:
        """The request takes ownership of the `waiting` list."""
        rid = self.next_rid
        self.next_rid += 1
        req = Request(rid, key, kind, waiting)
        # Request ids drive the exactly-once machinery, which exists only in
        # RMW mode; the other modes never emit LEARNED.
        if kind is WRITE and self.config.register_mode is RMW:
            req.reqid = ReqID(self.pid, self.next_seq)
            self.next_seq += 1
        self.requests[rid] = req
        return req

    def _start(self, req: Request) -> List[Effect]:
        if req.kind is WRITE:
            token = self.fast.get(req.key)
            if token is not None:
                return self._fast_write(req, token)
        return self._broadcast_prepare(req)

    def _broadcast_prepare(self, req: Request) -> List[Effect]:
        kind = WRITE if (req.kind is WRITE or req.escalated) else READ
        ticket = _tuple_new(Ticket, (req.rid, req.instance))
        return self._broadcast(req, Prepare(req.key, self.pid, kind, ticket))

    def _broadcast(self, req: Request, msg) -> List[Effect]:
        """Send a phase-1 message to every acceptor and arm `req`'s timer.
        Acceptors are addressed 0..N-1; the transport maps pids to endpoints."""
        effects: List[Effect] = []
        for a in range(self.config.n_acceptors):
            effects.append(Send(a, msg))
        effects.append(self._arm_timer(req))
        return effects

    def _arm_timer(self, req: Request) -> SetTimer:
        getrandbits = self.rng.getrandbits  # randbelow(getrandbits, _JITTER_SPAN), inline
        jitter = getrandbits(_JITTER_BITS)
        while jitter >= _JITTER_SPAN:
            jitter = getrandbits(_JITTER_BITS)
        return SetTimer(REQUEST_TIMEOUT_TICKS + jitter, ("req", req.rid, req.instance))

    def _fast_write(self, req: Request, token: FastToken) -> List[Effect]:
        # A write-once token's base is chosen for good, so set-if-empty
        # writes that propose nothing leave it valid. Any other base may
        # have been overwritten by another proposer: the token is consumed,
        # and refreshed on success.
        set_if_empty = type(req.waiting[0][0]) is SetIfEmpty
        effects = self._propose_successor(req, token.round, token.base, token.base_req)
        if req.waiting or not set_if_empty:
            del self.fast[req.key]
            self.stats.fast_writes += 1
        if req.waiting:  # not answered NOOP or ERROR and evicted
            # This instance starts without a phase-1 broadcast, so it has no
            # timeout armed yet.
            effects.append(self._arm_timer(req))
        return effects

    # -- message handling -----------------------------------------------------

    def on_message(self, msg) -> List[Effect]:
        handler = _HANDLERS.get(type(msg))
        return handler(self, msg) if handler is not None else []

    def on_ack(self, ack: Ack) -> List[Effect]:
        req = self.requests.get(ack.ticket.request)
        if req is None:
            return []
        current = ack.ticket.instance == req.instance and req.proposal is None
        if req.kind is READ:
            pool = req.read_pool
            if pool is None:
                pool = req.read_pool = ReadPool(self.quorum)
            pool.add(ack)
            if not current:
                return self._evaluate_read(req, False)
            if not req.escalated:
                # No `top_n`: nothing nacks a round-less attempt, and
                # `_reset_instance` zeroes it before the read escalates.
                req.acks[ack.src] = ack
                return self._evaluate_read(req, True)
        elif not current:
            return []
        req.acks[ack.src] = ack
        req.top_n = max(req.top_n, ack.r_ack.n, ack.r_voted.n)
        if len(req.acks) >= self.quorum:
            return self._classify_and_dispatch(req)
        return []

    def on_nack(self, nack: Nack) -> List[Effect]:
        req = self.requests.get(nack.ticket.request)
        if req is None or nack.ticket.instance != req.instance:
            return []
        # Foreign round evidence: any outstanding fast-write grant is stale.
        self.fast.pop(nack.key, None)
        req.top_n = max(req.top_n, nack.r_ack.n)
        return self._retry_explicit(req)

    def on_voted(self, voted: Voted) -> List[Effect]:
        req = self.requests.get(voted.ticket.request)
        if (
            req is None
            or voted.ticket.instance != req.instance
            or req.proposal is None
            or voted.round != req.proposal.round
        ):
            return []
        req.voters.add(voted.src)
        if len(req.voters) < self.quorum:
            return []
        return self._proposal_chosen(req)

    def on_learned(self, learned: Learned) -> List[Effect]:
        if MUT_DROP_LEARNED in self.config.mutations:
            return []
        # Only record the fact. LEARNED does not say which of this request's
        # proposals was chosen, so the reply value has to come from a later
        # phase-1 quorum; `_settled` finishes the request from there.
        for req in self.requests.values():
            if req.reqid == learned.req:
                req.learned = True
                break
        return []

    def on_recover(self) -> List[Effect]:
        """Crash window ended; messages sent to this proposer meanwhile are
        gone. An RMW write that already proposed may have been absorbed by
        another proposer's write-through, and the Learned notice proving it
        may be among the lost messages, so retrying could apply the command
        twice. Such requests are abandoned: the client never hears back and
        must treat the outcome as unknown. That holds for a held NOOP or
        ERROR of the batch too, as the value it met may never be chosen.
        Fast-write grants predate the crash and are dropped as stale. The
        batch timer may have fired in the crash window, so whatever is
        batched starts now."""
        self.fast.clear()
        if self.config.register_mode is RMW:
            for req in list(self.requests.values()):
                if req.reqid is not None and req.voters is not None:
                    self._evict(req)
        return self._flush_batches()

    def timer_live(self, token: tuple) -> bool:
        """False when firing `token` would do nothing: its request has been
        evicted or has moved to another instance. A batch timer is live."""
        if token[0] == "batch":
            return True
        req = self.requests.get(token[1])
        return req is not None and req.instance == token[2]

    def on_timer(self, token: tuple) -> List[Effect]:
        if not self.timer_live(token):
            return []
        if token[0] == "batch":
            return self._flush_batches()
        req = self.requests[token[1]]
        if token[0] == "retry":
            # Backoff expired; run the deferred explicit-round phase 1.
            ticket = _tuple_new(Ticket, (req.rid, req.instance))
            prep = PaxosPrep(req.key, self.pid, token[3], ticket)
            return self._broadcast(req, prep)
        if req.kind is READ and not req.escalated and len(req.acks) >= self.quorum:
            # A quorum answered without agreeing and the rest stayed silent:
            # a read retry, counted against the budget, not a blind restart.
            return self._read_retry(req)
        # Messages may have been lost (or a quorum crashed); start over.
        self.stats.restarts += 1
        self._reset_instance(req)
        return self._broadcast_prepare(req)

    # -- read path --------------------------------------------------------------

    def _evaluate_read(self, req: Request, current: bool) -> List[Effect]:
        """Finish the read once its pool holds a consistent quorum. A quorum
        that disagrees is not enough to give up on the attempt: the rest of
        its replies are usually in flight and complete a consistent quorum.
        So the read waits for every acceptor's reply to the `current`
        attempt, bounded by the request timer (`on_timer`), before it
        retries; a reply to an earlier attempt only adds to the pool."""
        pool = req.read_pool
        if pool.chosen is not None:
            return self._finish(req, DONE, pool.chosen[0])
        if pool.empty:
            return self._finish(req, STATUS_EMPTY, EMPTY)
        if not current or len(req.acks) < self.config.n_acceptors:
            return []
        return self._read_retry(req)

    def _read_retry(self, req: Request) -> List[Effect]:
        """Contention management, once an attempt is over without agreement:
        every acceptor answered it, or the request timer fired after a
        quorum did. Retry round-less while the writer makes progress,
        escalate to a write-through once it looks crashed or the retry
        budget is spent."""
        acks = req.acks.values()
        rounds = tuple(sorted((round_sort_key(a.r_ack), round_sort_key(a.r_voted)) for a in acks))
        progressed = req.prev_rounds is None or rounds != req.prev_rounds
        if req.retry_count < self.config.read_retry_limit and progressed:
            req.prev_rounds = rounds
            req.retry_count += 1
            self.stats.read_retries += 1
        else:
            req.escalated = True
            self.stats.read_escalations += 1
        self._reset_instance(req)
        return self._broadcast_prepare(req)

    # -- write path ----------------------------------------------------------

    def _classify_and_dispatch(self, req: Request) -> List[Effect]:
        outcome = classify(req.acks.values())
        if outcome is None:
            return self._retry_explicit(req)
        if type(outcome) is ValueChosen:
            base, base_req, round = outcome.value, outcome.req, outcome.successor
        elif MUT_SKIP_WRITE_THROUGH in self.config.mutations:
            # The fault: the newest vote is ignored, as if nothing was chosen.
            base, base_req, round = EMPTY, None, outcome.round
        else:
            wt = outcome.write_through
            self.stats.write_throughs += 1
            return self._propose(req, outcome.round, wt.val, wt.req, None, writethrough=True)
        settled = self._settled(req, base, base_req)
        if settled is not None:
            return settled
        return self._propose_successor(req, round, base, base_req)

    def _settled(
        self, req: Request, chosen: Value, chosen_req: Optional[ReqID]
    ) -> Optional[List[Effect]]:
        """Finish `req` when the chosen value already answers it: an
        escalated read (EMPTY when the value is the empty one), or an RMW
        write whose command is in it. None: the request still has commands
        to apply."""
        if req.escalated:
            return self._finish(req, STATUS_EMPTY if chosen.empty else DONE, chosen)
        if req.reqid is not None and (chosen_req == req.reqid or req.learned):
            return self._finish(req, DONE, chosen)
        return None

    def _propose_successor(
        self, req: Request, round: Optional[Round], base: Value, base_req: Optional[ReqID]
    ) -> List[Effect]:
        """Apply the waiting commands to `base` and propose the result in
        `round`. With `round` None (`base` is chosen, but the quorum holds no
        common promise for the next round) the answers on `base` go out and
        the rest retry in an explicit round."""
        value, replies = self._apply_commands(req, base)
        if value is None:
            # Every command reduced to a no-op; phase 2 is unnecessary.
            self._evict(req)
            return replies
        if round is None:
            return replies + self._retry_explicit(req)
        return replies + self._propose(req, round, value, req.reqid, base_req)

    def _apply_commands(self, req: Request, base: Value):
        """Apply the waiting commands in admission order, each to the value
        the one before left. A command without effect is answered NOOP (a
        `SetIfEmpty` DONE when it met its own literal, else ALREADY_CHOSEN)
        and one that fails ERROR, against the value it met. An answer on
        `base` is returned and its entry leaves `waiting`; one on a value of
        this batch is held in its entry until the proposal is chosen, and a
        new attempt applies the command again. Returns the value to propose
        (None when no command changed anything) and the answers on `base`."""
        current = base
        value = None
        replies: List[Effect] = []
        kept: List[Waiting] = []
        for cmd, client, seq, _ in req.waiting:
            try:
                result = apply_command(cmd, current)
            except CommandError as exc:
                reply = Reply(client, ERROR, Value(str(exc).encode()), seq)
            else:
                if result is not None:
                    kept.append((cmd, client, seq, None))
                    current = value = result
                    continue
                status = NOOP
                if type(cmd) is SetIfEmpty:
                    status = DONE if cmd.literal == current else ALREADY_CHOSEN
                reply = Reply(client, status, current, seq)
            if value is None:
                replies.append(reply)
            else:
                kept.append((cmd, client, seq, reply))
        req.waiting = kept
        return value, replies

    def _propose(
        self,
        req: Request,
        round: Round,
        value: Value,
        req_cur: Optional[ReqID],
        req_prev: Optional[ReqID],
        writethrough: bool = False,
    ) -> List[Effect]:
        req.voters = set()
        req.writethrough = writethrough
        ticket = _tuple_new(Ticket, (req.rid, req.instance))
        vote = req.proposal = Vote(req.key, self.pid, round, value, req_cur, req_prev, ticket)
        return [Send(a, vote) for a in range(self.config.n_acceptors)]

    def _proposal_chosen(self, req: Request) -> List[Effect]:
        prop = req.proposal
        chosen = prop.value
        # The acceptors that voted pre-promised the next round to this
        # proposer (`Acceptor.handle_vote`).
        next_round = prop.round
        if MUT_REUSE_ROUND not in self.config.mutations:
            next_round = _tuple_new(Round, (next_round.n + 1, next_round.id))
        fast = self.fast
        token = fast[req.key] = FastToken(next_round, chosen, prop.req_cur)
        if len(fast) > FAST_TOKENS_MAX:
            del fast[next(iter(fast))]
        settled = self._settled(req, chosen, prop.req_cur)
        if settled is not None:
            return settled
        if not req.writethrough:  # a sequence register's own proposal
            return self._finish(req, DONE, chosen)
        # A write-through only consolidates someone's unfinished consensus;
        # the client's own command still has to be processed.
        return self._fast_write(req, token)

    def _retry_explicit(self, req: Request) -> List[Effect]:
        # The next round tops every round this instance saw or proposed in;
        # it waits out the backoff in the retry timer's token.
        top_n = req.top_n if req.proposal is None else max(req.top_n, req.proposal.round.n)
        next_round = _tuple_new(Round, (top_n + 1, self.pid))
        self._reset_instance(req)
        # Retrying immediately lets duelling proposers invalidate each other
        # forever; a randomized, growing pause lets one of them finish.
        req.backoff = min(max(2 * req.backoff, 4), REQUEST_TIMEOUT_TICKS)
        delay = 1 + randbelow(self.rng.getrandbits, req.backoff)  # randint(1, req.backoff)
        return [SetTimer(delay, ("retry", req.rid, req.instance, next_round))]

    # -- completion ----------------------------------------------------------

    def _reset_instance(self, req: Request) -> None:
        req.instance += 1
        req.acks = {}
        req.proposal = None
        req.top_n = 0

    def _finish(self, req: Request, status: Status, value: Value) -> List[Effect]:
        """Answer every client still waiting on `req`, each with its held
        reply if it has one, and retire it."""
        waiting = req.waiting
        if len(waiting) == 1:
            # A held reply follows a command that changed the value, so a
            # lone client has none.
            _, client, seq, _ = waiting[0]
            effects = [Reply(client, status, value, seq)]
        else:
            effects = [held or Reply(client, status, value, seq)
                       for _, client, seq, held in waiting]
        self._evict(req)
        return effects

    def _evict(self, req: Request) -> None:
        # Late replies, timers and LEARNED notices for an evicted request
        # find nothing and are ignored, and nobody waits on it any more.
        req.waiting = []
        self.requests.pop(req.rid, None)

    # -- batching --------------------------------------------------------------

    def _flush_batches(self) -> List[Effect]:
        """Start one request per batched (kind, key), in arrival order."""
        effects: List[Effect] = []
        batched, self.batched = self.batched, {}
        for (kind, key), waiting in batched.items():
            effects.extend(self._start(self._new_request(key, kind, waiting)))
        return effects


# message type -> the Proposer method that handles it; other types are ignored
_HANDLERS = {
    Ack: Proposer.on_ack,
    Voted: Proposer.on_voted,
    Nack: Proposer.on_nack,
    Learned: Proposer.on_learned,
}
