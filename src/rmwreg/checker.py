"""Safety validation over client histories and simulator traces.

Histories are checked against the consensus properties (write-once
register), the consensus-sequence properties plus exactly-once (sequence
and RMW registers), and a brute-force linearizability oracle for small
write-once histories. Traces are audited for the protocol invariants that
underpin those properties.

Sequence checking relies on the append-log test payload: every update
appends its own unique token, so the update sequence of a value can be
read directly off the payload (a JSON list of strings).
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .core import ROUND_ZERO, Ordering, Round, Value, round_compare
from .messages import ReqKind, Status, Vote, Voted
from .quorum import quorum_size
from .trace import ClientResponseEv, SendEv, StateSnapshotEv

MAX_LINEARIZE_OPS = 12


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

    proposed = {op.arg for op in ops if op.kind is ReqKind.WRITE and op.arg is not None}
    learned: List[Tuple[int, Value]] = []  # (history position, value)
    for op in ops:
        if op.resp is None:
            continue
        if op.status is Status.DONE and op.kind is ReqKind.READ:
            learned.append((op.resp, op.result))
        elif op.status is Status.DONE and op.kind is ReqKind.WRITE:
            learned.append((op.resp, op.arg))
        elif op.status is Status.ALREADY_CHOSEN:
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
                op.kind is ReqKind.READ
                and op.status is Status.EMPTY
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
        if op.kind is ReqKind.READ:
            if state is None:
                return Status.EMPTY, None, None
            return Status.DONE, state, state
        if state is None or state == op.arg:
            return Status.DONE, None, op.arg
        return Status.ALREADY_CHOSEN, state, state

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

    return search(frozenset(range(n)), None)


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


def check_sequence(history: Sequence[HistoryEvent]) -> Verdict:
    """CS-Nontriviality/Stability/Consistency/Update-Visibility/Update-Stability."""
    verdict = Verdict()
    ops = _ops_of(history)

    reads = []
    for op in ops:
        if op.kind is ReqKind.READ and op.resp is not None:
            if op.status is Status.EMPTY:
                reads.append((op, []))
            elif op.status is Status.DONE:
                seq = sequence_of(op.result)
                if seq is None:
                    verdict.checkable = False
                    verdict.flag("NotCheckable", "read value is not an append-log payload")
                    return verdict
                reads.append((op, seq))

    submitted = {op.token for op in ops if op.kind is ReqKind.WRITE and op.token}
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
        op for op in ops if op.kind is ReqKind.WRITE and op.status is Status.DONE
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
    return verdict


def check_exactly_once(history: Sequence[HistoryEvent]) -> Verdict:
    """RMW strengthening: no update token may appear twice in a read value."""
    verdict = Verdict()
    ops = _ops_of(history)
    for op in ops:
        if op.kind is ReqKind.READ and op.status is Status.DONE:
            seq = sequence_of(op.result)
            if seq is None:
                verdict.checkable = False
                verdict.flag("NotCheckable", "read value is not an append-log payload")
                return verdict
            counts: Dict[str, int] = {}
            for token in seq:
                counts[token] = counts.get(token, 0) + 1
            for token, count in counts.items():
                if count > 1:
                    verdict.flag(
                        "exactly-once", f"update {token} applied {count} times in {seq}"
                    )
    return verdict


# ---------------------------------------------------------------------------
# trace audits (Propositions 1-3 plus acceptor invariants)


def audit_propositions(trace, n_acceptors: int) -> Verdict:
    """Audit a simulator trace for the protocol invariants.

    P1: every learned value had a voting quorum by the time it was learned.
    P2: once a value is chosen in a round, every later-round proposal in the
        same consensus epoch carries that value.
    P3: at most one proposal is issued per round number.
    Plus: acceptor promises are monotone and votes never go below them.
    """
    verdict = Verdict()
    quorum = quorum_size(n_acceptors)

    # proposals: (key, round, value, req) -> first send index
    proposals: Dict[tuple, int] = {}
    # votes: (key, round, value) -> {acceptor -> first send index}
    votes: Dict[tuple, Dict[int, int]] = {}
    responses: List[Tuple[int, object]] = []
    snapshots: Dict[tuple, list] = {}

    # No trace event or message class is subclassed, so `type()` decides
    # exactly, at less cost than `isinstance`.
    for idx, ev in enumerate(trace):
        kind = type(ev)
        if kind is SendEv:
            msg = ev.msg
            if type(msg) is Vote:
                ident = (msg.key, msg.round, msg.value, msg.req_cur)
                proposals.setdefault(ident, idx)
            elif type(msg) is Voted:
                voters = votes.setdefault((msg.key, msg.round, msg.value), {})
                voters.setdefault(msg.src, idx)
        elif kind is ClientResponseEv:
            responses.append((idx, ev))
        elif kind is StateSnapshotEv:
            snapshots.setdefault((ev.pid, ev.key), []).append((idx, ev.state))

    # chosen: (key, round, value) -> trace index at which a quorum had voted
    chosen: Dict[tuple, int] = {}
    for (key, rnd, value), voters in votes.items():
        if len(voters) >= quorum:
            chosen[(key, rnd, value)] = sorted(voters.values())[quorum - 1]

    # P1 with time bound: a learned value must be chosen before it is learned.
    chosen_values: Dict[bytes, List[Tuple[object, int]]] = {}
    for (key, rnd, value), at in chosen.items():
        chosen_values.setdefault(key, []).append((value, at))
    for idx, ev in responses:
        if ev.status in (Status.DONE, Status.ALREADY_CHOSEN) and not ev.value.empty:
            ok = any(
                value == ev.value and at <= idx
                for value, at in chosen_values.get(ev.key, [])
            )
            if not ok:
                verdict.flag(
                    "P1",
                    f"value {ev.value!r} learned at event {idx} without a prior voting quorum",
                )

    # P2 per epoch; the epoch of a proposal is the length of its update
    # sequence. Only the append-log payload exposes epochs, so other
    # payloads are left to the history-level checks. Each value's payload is
    # decoded once.
    epochs: Dict[Value, Optional[int]] = {}

    def epoch(value) -> Optional[int]:
        if value not in epochs:
            seq = sequence_of(value)
            epochs[value] = len(seq) if seq is not None else None
        return epochs[value]

    by_epoch: Dict[tuple, List[tuple]] = {}
    for (key, rnd, value, req), at in proposals.items():
        ep = epoch(value)
        if ep is not None:
            by_epoch.setdefault((key, ep), []).append((rnd, value, at))
    for (key, ep), props in by_epoch.items():
        epoch_chosen = [
            (rnd, value, at)
            for (k, rnd, value), at in chosen.items()
            if k == key and epoch(value) == ep
        ]
        distinct = {value for _, value, _ in epoch_chosen}
        if len(distinct) > 1:
            verdict.flag("P2", f"two values chosen in one epoch: {distinct!r}")
        for rnd_c, val_c, _ in epoch_chosen:
            for rnd_p, val_p, _ in props:
                if rnd_p.n > rnd_c.n and val_p != val_c:
                    verdict.flag(
                        "P2",
                        f"proposal in round {rnd_p} carries {val_p!r} after "
                        f"{val_c!r} was chosen in round {rnd_c}",
                    )

    # P3: at most one proposal per round number.
    by_number: Dict[tuple, set] = {}
    for (key, rnd, value, req), _ in proposals.items():
        by_number.setdefault((key, rnd.n), set()).add((rnd, value, req))
    for (key, n), props in by_number.items():
        if len(props) > 1:
            verdict.flag("P3", f"{len(props)} distinct proposals share round number {n}")

    # Acceptor invariants from state snapshots.
    for (pid, key), snaps in snapshots.items():
        prev = None
        for idx, state in snaps:
            if prev is not None:
                cmp = round_compare(prev.r_ack, state.r_ack)
                if cmp not in (Ordering.LESS, Ordering.EQUAL):
                    verdict.flag(
                        "promise-monotonicity",
                        f"acceptor {pid} r_ack went from {prev.r_ack} to {state.r_ack}",
                    )
                if state.r_voted != prev.r_voted:
                    # A vote was cast; it must match the promise in force.
                    if round_compare(state.r_voted, prev.r_ack) is not Ordering.EQUAL:
                        verdict.flag(
                            "vote-safety",
                            f"acceptor {pid} voted in {state.r_voted} while promised {prev.r_ack}",
                        )
            prev = state
    return verdict
