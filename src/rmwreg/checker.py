"""Safety validation over client histories and simulator traces.

Histories are checked against the consensus properties (write-once
register), the consensus-sequence properties plus exactly-once (sequence
and RMW registers), and a brute-force linearizability oracle for small
write-once histories. Traces are audited for the protocol invariants that
underpin those properties.

Sequence checking relies on the append-log test payload: every update
appends its own unique token, so the update sequence of a value can be
read directly off the payload (a JSON list of strings). When the reads
form a prefix chain, as in every correct history, the sequence properties
are checked by sorted sweeps over the reads and updates, each distinct read
value compared once with the next longer one. Any other history falls back
to comparing every pair of reads, which is also the reference the sweeps
are tested against.

The trace audit is one walk over the trace, after the run: it keeps per
key the votes, proposals and latest acceptor cells seen so far, and checks
each response and state change as it comes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .acceptor import INITIAL_STATE, AcceptorState
from .core import Value
from .messages import ReqKind, Status, Vote, Voted
from .quorum import quorum_size
from .trace import ClientResponseEv, SendEv, StateSnapshotEv

MAX_LINEARIZE_OPS = 12

# Enum members bound once: on Python 3.10 and 3.11 each `ReqKind.READ`-style
# lookup in a function takes the enum metaclass's slow `__getattr__` hook
# (see `rmwreg.messages`).
_READ = ReqKind.READ
_WRITE = ReqKind.WRITE
_DONE = Status.DONE
_STATUS_EMPTY = Status.EMPTY
_ALREADY_CHOSEN = Status.ALREADY_CHOSEN


@dataclass(slots=True)
class HistoryEvent:
    kind: str  # "invoke" | "respond"
    client: int
    op_index: int
    op: ReqKind
    key: bytes
    token: Optional[str] = None  # unique write token (append-log payload)
    value: Optional[Value] = None  # written value (invoke) or result (respond)
    status: Optional[Status] = None
    tick: int = 0


@dataclass(frozen=True)
class Violation:
    prop: str
    detail: str


@dataclass
class Verdict:
    violations: List[Violation] = field(default_factory=list)
    checkable: bool = True

    @property
    def ok(self) -> bool:
        return self.checkable and not self.violations

    def flag(self, prop: str, detail: str) -> None:
        self.violations.append(Violation(prop, detail))

    def merge(self, other: "Verdict") -> None:
        self.violations.extend(other.violations)
        self.checkable = self.checkable and other.checkable


# ---------------------------------------------------------------------------
# operation extraction


@dataclass
class _Op:
    client: int
    op_index: int
    kind: ReqKind
    arg: Optional[Value]
    token: Optional[str]
    inv: int  # history position of the invocation
    resp: Optional[int] = None
    status: Optional[Status] = None
    result: Optional[Value] = None


def _ops_of(history: Sequence[HistoryEvent]) -> List[_Op]:
    ops: Dict[Tuple[int, int], _Op] = {}
    for pos, ev in enumerate(history):
        ident = (ev.client, ev.op_index)
        if ev.kind == "invoke":
            ops[ident] = _Op(ev.client, ev.op_index, ev.op, ev.value, ev.token, pos)
        else:
            op = ops.get(ident)
            if op is None or op.resp is not None:
                raise ValueError(f"respond without matching invoke: {ev}")
            op.resp = pos
            op.status = ev.status
            op.result = ev.value
    return list(ops.values())


# ---------------------------------------------------------------------------
# write-once register


def check_write_once(history: Sequence[HistoryEvent]) -> Verdict:
    """Consensus safety plus bounded linearizability for write-once mode."""
    verdict = Verdict()
    ops = _ops_of(history)

    proposed = {op.arg for op in ops if op.kind is _WRITE and op.arg is not None}
    learned: List[Tuple[int, Value]] = []  # (history position, value)
    for op in ops:
        if op.resp is None:
            continue
        if op.status is _DONE and op.kind is _READ:
            learned.append((op.resp, op.result))
        elif op.status is _DONE and op.kind is _WRITE:
            learned.append((op.resp, op.arg))
        elif op.status is _ALREADY_CHOSEN:
            learned.append((op.resp, op.result))

    for _, v in learned:
        if v not in proposed:
            verdict.flag("C-Nontriviality", f"learned value {v!r} was never proposed")

    values = {v for _, v in learned}
    if len(values) > 1:
        verdict.flag("C-Consistency", f"distinct learned values: {values!r}")

    if learned:
        first_learn = min(pos for pos, _ in learned)
        for op in ops:
            if (
                op.kind is _READ
                and op.status is _STATUS_EMPTY
                and op.inv > first_learn
            ):
                verdict.flag(
                    "C-Stability",
                    f"read by client {op.client} returned empty after a value was learned",
                )

    if len(ops) > MAX_LINEARIZE_OPS:
        raise ValueError(
            f"exhaustive linearizability is capped at {MAX_LINEARIZE_OPS} operations; "
            "use the sequence checks instead"
        )
    if not _linearizable_write_once(ops):
        verdict.flag("Linearizability", "no legal sequential witness exists")
    return verdict


def _linearizable_write_once(ops: List[_Op]) -> bool:
    """Exhaustive witness search against the sequential write-once register.

    Incomplete operations may take effect or be dropped; completed
    operations must match the sequential semantics at their linearization
    point and respect real-time precedence.
    """
    items = list(ops)
    n = len(items)
    seen = set()

    def expected(op: _Op, state: Optional[Value]):
        if op.kind is _READ:
            if state is None:
                return _STATUS_EMPTY, None, None
            return _DONE, state, state
        if state is None or state == op.arg:
            return _DONE, None, op.arg
        return _ALREADY_CHOSEN, state, state

    def matches(op: _Op, state: Optional[Value]):
        """(True, state') when the op can linearize here, else (False, None)."""
        status, result, state_after = expected(op, state)
        if op.resp is None:
            return True, state_after  # pending: any effect is allowed
        if op.status is not status:
            return False, None
        if result is not None and op.result != result:
            return False, None
        return True, state_after

    def search(remaining: frozenset, state: Optional[Value]) -> bool:
        if all(items[i].resp is None for i in remaining):
            return True  # pending ops may simply never take effect
        key = (remaining, state)
        if key in seen:
            return False
        seen.add(key)
        resp_bound = min(
            (items[i].resp for i in remaining if items[i].resp is not None),
            default=None,
        )
        for i in remaining:
            op = items[i]
            # An op can be next only if nothing remaining finished before it
            # was invoked.
            if resp_bound is not None and op.inv > resp_bound:
                continue
            ok, state_after = matches(op, state)
            if not ok:
                continue
            if search(remaining - {i}, state_after):
                return True
            if op.resp is None:
                # Pending op may also be dropped entirely.
                if search(remaining - {i}, state):
                    return True
        return False

    try:
        return search(frozenset(range(n)), None)
    finally:
        # `search` calls itself through its closure cell: a reference cycle
        # that would keep this call's ops, memo and closures for the
        # cyclic collector.
        del search


# ---------------------------------------------------------------------------
# consensus sequence register (append-log payload)


def sequence_of(value: Optional[Value]) -> Optional[List[str]]:
    """Recover the update sequence from an append-log payload."""
    if value is None or value.empty:
        return []
    try:
        decoded = json.loads(value.payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(decoded, list) or not all(isinstance(x, str) for x in decoded):
        return None
    return decoded


def _is_prefix(a: List[str], b: List[str]) -> bool:
    return len(a) <= len(b) and b[: len(a)] == a


def _read_sequences(ops, verdict: Verdict):
    """Yields (read, its update sequence) for each answered read, in order.
    Reads of one value share one decoded list, which no caller changes. At a
    read whose value is not an append-log payload, marks `verdict` not
    checkable and stops."""
    empty: List[str] = []
    decoded: Dict[Optional[Value], Optional[List[str]]] = {}
    for op in ops:
        if op.kind is _READ and op.resp is not None:
            if op.status is _STATUS_EMPTY:
                yield op, empty
            elif op.status is _DONE:
                value = op.result
                if value in decoded:
                    seq = decoded[value]
                else:
                    seq = decoded[value] = sequence_of(value)
                if seq is None:
                    verdict.checkable = False
                    verdict.flag("NotCheckable", "read value is not an append-log payload")
                    return
                yield op, seq


def check_sequence(history: Sequence[HistoryEvent]) -> Verdict:
    """CS-Nontriviality/Stability/Consistency/Update-Visibility/Update-Stability.

    When the reads form a prefix chain, as CS-Consistency asserts, sorted
    sweeps check all five (`_sweep_sequence`); otherwise every pair of reads
    is compared (`_pairwise_sequence`, the reference)."""
    verdict = Verdict()
    ops = _ops_of(history)
    reads = list(_read_sequences(ops, verdict))
    if verdict.checkable and not _sweep_sequence(ops, reads, verdict):
        _pairwise_sequence(ops, reads, verdict)
    return verdict


def _best_before(done, asked):
    """Yields (op, item, best) for each (op, item) of `asked`, in invocation
    order. `best` is the (score, x) with the highest score among the
    (op, score, x) of `done` whose op responded before `op` was invoked, or
    (-1, None) when none did."""
    done = sorted(done, key=lambda d: d[0].resp)
    best = (-1, None)
    i = 0
    for op, item in sorted(asked, key=lambda a: a[0].inv):
        while i < len(done) and done[i][0].resp < op.inv:
            if done[i][1] > best[0]:
                best = done[i][1:]
            i += 1
        yield op, item, best


def _sweep_sequence(ops, reads, verdict: Verdict) -> bool:
    """The five properties by sorted sweeps, if every read is a prefix of the
    longest read `S`. A read is then known by its length, and a token by its
    positions in `S`. Returns False, having flagged nothing, when the reads
    form no such chain."""
    chain = sorted({id(seq): seq for _, seq in reads}.values(), key=len)
    for shorter, longer in zip(chain, chain[1:]):
        if longer[: len(shorter)] != shorter:
            return False
    longest = chain[-1] if chain else []
    first: Dict[str, int] = {}
    last: Dict[str, int] = {}
    for pos, token in enumerate(longest):
        first.setdefault(token, pos)
        last[token] = pos

    submitted = {op.token for op in ops if op.kind is _WRITE and op.token}
    stray_at = min((pos for token, pos in first.items() if token not in submitted),
                   default=len(longest))
    for op, seq in reads:
        if len(seq) > stray_at:
            verdict.flag(
                "CS-Nontriviality", f"read returned unsubmitted updates {sorted(set(seq) - submitted)}"
            )

    # CS-Consistency holds on a chain. CS-Stability: no read is longer than
    # one invoked after it responded.
    for op, seq, (longer, earlier) in _best_before(
        [(op, len(seq), seq) for op, seq in reads], reads
    ):
        if longer > len(seq):
            verdict.flag(
                "CS-Stability", f"earlier read {earlier} is not a prefix of later read {seq}"
            )

    # CS-Update-Visibility: a read holds the first position in `S` of every
    # update completed before it was invoked (a token missing from `S` sits at
    # its end).
    completed = [op for op in ops if op.kind is _WRITE and op.status is _DONE]
    for op, seq, (pos, token) in _best_before(
        [(w, first.get(w.token, len(longest)), w.token) for w in completed], reads
    ):
        if pos >= len(seq):
            verdict.flag(
                "CS-Update-Visibility", f"completed update {token} missing from later read {seq}"
            )

    # CS-Update-Stability: every read is a prefix of `S`, so an update that
    # appears before the last copy of an earlier update in some read does so
    # in `S`.
    for w2, _, (pos, token) in _best_before(
        [(w, last.get(w.token, -1), w.token) for w in completed],
        [(w, None) for w in completed],
    ):
        if w2.token in first and pos > first[w2.token]:
            verdict.flag(
                "CS-Update-Stability", f"{w2.token} appears before the last {token} in {longest}"
            )
    return True


def _pairwise_sequence(ops, reads, verdict: Verdict) -> None:
    """The five properties by comparing every pair of reads, and every read
    with every pair of completed updates."""
    submitted = {op.token for op in ops if op.kind is _WRITE and op.token}
    for op, seq in reads:
        stray = set(seq) - submitted
        if stray:
            verdict.flag(
                "CS-Nontriviality", f"read returned unsubmitted updates {sorted(stray)}"
            )

    for i, (op1, s1) in enumerate(reads):
        for op2, s2 in reads[i + 1 :]:
            if not (_is_prefix(s1, s2) or _is_prefix(s2, s1)):
                verdict.flag(
                    "CS-Consistency",
                    f"incomparable sequences {s1} / {s2} "
                    f"(clients {op1.client}, {op2.client})",
                )

    for op1, s1 in reads:
        for op2, s2 in reads:
            if op1.resp is not None and op2.resp is not None and op1.resp < op2.inv:
                if not _is_prefix(s1, s2):
                    verdict.flag(
                        "CS-Stability",
                        f"earlier read {s1} is not a prefix of later read {s2}",
                    )

    completed = [
        op for op in ops if op.kind is _WRITE and op.status is _DONE
    ]
    for w in completed:
        for op, seq in reads:
            if op.inv > w.resp and seq.count(w.token) < 1:
                verdict.flag(
                    "CS-Update-Visibility",
                    f"completed update {w.token} missing from later read {seq}",
                )

    for w1 in completed:
        for w2 in completed:
            if w1.resp < w2.inv:
                for op, seq in reads:
                    if w1.token in seq and w2.token in seq:
                        last_w1 = len(seq) - 1 - seq[::-1].index(w1.token)
                        first_w2 = seq.index(w2.token)
                        if last_w1 > first_w2:
                            verdict.flag(
                                "CS-Update-Stability",
                                f"{w2.token} appears before the last {w1.token} in {seq}",
                            )


def check_exactly_once(history: Sequence[HistoryEvent]) -> Verdict:
    """RMW strengthening: no update token may appear twice in a read value."""
    verdict = Verdict()
    for _, seq in _read_sequences(_ops_of(history), verdict):
        counts: Dict[str, int] = {}
        for token in seq:
            counts[token] = counts.get(token, 0) + 1
        for token, count in counts.items():
            if count > 1:
                verdict.flag("exactly-once", f"update {token} applied {count} times in {seq}")
    return verdict


# ---------------------------------------------------------------------------
# trace audits (Propositions 1-3 plus acceptor invariants)


def audit_propositions(trace, n_acceptors: int) -> Verdict:
    """Audit a simulator trace for the protocol invariants, in one walk.

    P1: every learned value had a voting quorum by the time it was learned.
    P2: once a value is chosen in a round, every later-round proposal in the
        same consensus epoch carries that value.
    P3: at most one proposal is issued per round number.
    Plus: acceptor promises are monotone and votes never go below them. Each
    cell starts from `acceptor.INITIAL_STATE`, so its first change is checked
    too.

    A `(key, round, value)` is chosen at the send of its quorum-th distinct
    voter's first `Voted`; a response that comes later in the trace may
    learn it. Violations are listed P1, P2, P3, then the acceptor invariants.
    """
    quorum = quorum_size(n_acceptors)
    p1: List[Violation] = []
    cells: List[Violation] = []

    # proposals: (key, round, value, req) seen in a Vote
    proposals: set = set()
    # proposal count per (key, round number), for P3
    by_number: Dict[tuple, int] = {}
    # (round, value) of each proposal, and of each chosen value, per
    # (key, epoch); the epoch of a value is the length of its update
    # sequence, so only append-log payloads have one
    proposed_in: Dict[tuple, List[tuple]] = {}
    chosen_in: Dict[tuple, List[tuple]] = {}
    epochs: Dict[Value, Optional[int]] = {}
    # distinct voters per (key, round, value)
    voters_of: Dict[tuple, set] = {}
    learnable: set = set()  # (key, value) chosen so far
    last: Dict[tuple, AcceptorState] = {}  # (pid, key) -> its latest snapshot

    def epoch(value) -> Optional[int]:
        if value not in epochs:
            seq = sequence_of(value)
            epochs[value] = len(seq) if seq is not None else None
        return epochs[value]

    # No trace event or message class is subclassed, so `type()` decides
    # exactly, at less cost than `isinstance`.
    for idx, ev in enumerate(trace):
        kind = type(ev)
        if kind is SendEv:
            msg = ev.msg
            mkind = type(msg)
            if mkind is Voted:
                ident = (msg.key, msg.round, msg.value)
                voters = voters_of.get(ident)
                if voters is None:
                    voters = voters_of[ident] = set()
                elif msg.src in voters:
                    continue
                voters.add(msg.src)
                if len(voters) == quorum:
                    learnable.add((msg.key, msg.value))
                    ep = epoch(msg.value)
                    if ep is not None:
                        chosen_in.setdefault((msg.key, ep), []).append((msg.round, msg.value))
            elif mkind is Vote:
                ident = (msg.key, msg.round, msg.value, msg.req_cur)
                if ident in proposals:
                    continue
                proposals.add(ident)
                number = (msg.key, msg.round.n)
                by_number[number] = by_number.get(number, 0) + 1
                ep = epoch(msg.value)
                if ep is not None:
                    proposed_in.setdefault((msg.key, ep), []).append((msg.round, msg.value))
        elif kind is StateSnapshotEv:
            cell = (ev.pid, ev.key)
            prev = last.get(cell, INITIAL_STATE)
            state = last[cell] = ev.state
            promised, r_ack = prev.r_ack, state.r_ack
            # r_ack may only grow: to a higher number, or stay the same round.
            if promised.n >= r_ack.n and promised != r_ack:
                cells.append(Violation(
                    "promise-monotonicity",
                    f"acceptor {ev.pid} r_ack went from {promised} to {r_ack}",
                ))
            # A vote was cast; it must match the promise in force. A cell that
            # kept its vote mostly keeps the same `Round` object too.
            voted = state.r_voted
            if voted is not prev.r_voted and voted != prev.r_voted and voted != promised:
                cells.append(Violation(
                    "vote-safety",
                    f"acceptor {ev.pid} voted in {voted} while promised {promised}",
                ))
        elif kind is ClientResponseEv:
            if (
                ev.status in (_DONE, _ALREADY_CHOSEN)
                and not ev.value.empty
                and (ev.key, ev.value) not in learnable
            ):
                p1.append(Violation(
                    "P1", f"value {ev.value!r} learned at event {idx} without a prior voting quorum"
                ))

    verdict = Verdict(p1)
    for group, props in proposed_in.items():
        chosen = chosen_in.get(group, ())
        distinct = {value for _, value in chosen}
        if len(distinct) > 1:
            verdict.flag("P2", f"two values chosen in one epoch: {distinct!r}")
        for rnd_c, val_c in chosen:
            for rnd_p, val_p in props:
                if rnd_p.n > rnd_c.n and val_p != val_c:
                    verdict.flag(
                        "P2",
                        f"proposal in round {rnd_p} carries {val_p!r} after "
                        f"{val_c!r} was chosen in round {rnd_c}",
                    )
    for (key, n), count in by_number.items():
        if count > 1:
            verdict.flag("P3", f"{count} distinct proposals share round number {n}")
    verdict.violations.extend(cells)
    return verdict
