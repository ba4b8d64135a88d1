"""Safety validation over client histories and simulator traces.

Histories are checked against the consensus properties plus
linearizability (write-once register) and the consensus-sequence
properties plus exactly-once (sequence and RMW registers). Traces are
audited for the protocol invariants that underpin those properties.

Write-once linearizability has a closed form, checked in one walk over the
operations (`check_write_once`).

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
from .messages import (ALREADY_CHOSEN, DONE, READ, STATUS_EMPTY, WRITE, ReqKind, Status, Vote,
                       Voted)
from .quorum import quorum_size
from .trace import rows_of

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

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def checkable(self) -> bool:
        """False when a check met a history it cannot read."""
        return all(v.prop != "NotCheckable" for v in self.violations)

    def flag(self, prop: str, detail: str) -> None:
        self.violations.append(Violation(prop, detail))

    def merge(self, other: "Verdict") -> None:
        self.violations.extend(other.violations)


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
    """Consensus safety plus linearizability for write-once mode, in one walk.

    An answer carries a value when it is a DONE read (its result), a DONE
    write (its literal) or ALREADY_CHOSEN (its result). A history is
    linearizable if and only if (a) every completed op got a status the
    sequential register can give: a read DONE or EMPTY, a write DONE, or a
    write ALREADY_CHOSEN with a result other than its literal; (b) the
    answers carry at most one value `v`; and (c) if they do, some write of
    `v`, pending or not, was invoked, as was every EMPTY read, before the
    first response carrying `v`.

    Only if: in a witness the register is empty until the first write that
    takes effect, of some `v`, and holds `v` after it, so every EMPTY read
    comes before that write and every value-carrying answer after it. If:
    pending ops may be dropped, so with no value carried the EMPTY reads
    replay in any real-time order. Otherwise the write of (c) is pending or
    answered DONE, since by (a) and (b) a write answered ALREADY_CHOSEN
    carries `v` and so has another literal. Put it at a point `t` between
    the invokes and the response of (c), each EMPTY read just after its
    invoke, and each other answer just after the later of its invoke and
    `t`; every op falls inside its own interval, and the state never changes
    after `t`. A write's literal is taken to be a value: the proposer answers
    ERROR to a write whose command yields none on the empty register.
    """
    verdict = Verdict()
    proposed = set()
    writes: List[Tuple[int, Value]] = []  # (invoke, literal)
    learned: List[Tuple[int, Value]] = []  # (history position, value)
    empty_reads: List[_Op] = []
    legal = True  # (a)
    for op in _ops_of(history):
        kind, status = op.kind, op.status
        if kind is WRITE and op.arg is not None:
            proposed.add(op.arg)
            writes.append((op.inv, op.arg))
        if op.resp is None:
            continue
        if status is DONE:
            learned.append((op.resp, op.result if kind is READ else op.arg))
        elif status is ALREADY_CHOSEN:
            learned.append((op.resp, op.result))
            legal = legal and kind is WRITE and op.result != op.arg
        elif status is STATUS_EMPTY and kind is READ:
            empty_reads.append(op)
        else:
            legal = False

    for _, v in learned:
        if v not in proposed:
            verdict.flag("C-Nontriviality", f"learned value {v!r} was never proposed")

    values = {v for _, v in learned}
    if len(values) > 1:
        verdict.flag("C-Consistency", f"distinct learned values: {values!r}")

    if learned:
        first_learn = min(pos for pos, _ in learned)
        for op in empty_reads:
            if op.inv > first_learn:
                verdict.flag(
                    "C-Stability",
                    f"read by client {op.client} returned empty after a value was learned",
                )
        if legal and len(values) == 1:  # (b), then (c)
            (v,) = values
            last_empty = max((op.inv for op in empty_reads), default=-1)
            legal = any(arg == v and max(inv, last_empty) < first_learn for inv, arg in writes)
        else:
            legal = False
    if not legal:
        verdict.flag("Linearizability", "no legal sequential witness exists")
    return verdict


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
    read whose value is not an append-log payload, flags `verdict`
    NotCheckable and stops."""
    empty: List[str] = []
    decoded: Dict[Optional[Value], Optional[List[str]]] = {}
    for op in ops:
        if op.kind is READ and op.resp is not None:
            if op.status is STATUS_EMPTY:
                yield op, empty
            elif op.status is DONE:
                value = op.result
                if value in decoded:
                    seq = decoded[value]
                else:
                    seq = decoded[value] = sequence_of(value)
                if seq is None:
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

    submitted = {op.token for op in ops if op.kind is WRITE and op.token}
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
    completed = [op for op in ops if op.kind is WRITE and op.status is DONE]
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
    submitted = {op.token for op in ops if op.kind is WRITE and op.token}
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
        op for op in ops if op.kind is WRITE and op.status is DONE
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

    # The rows of a `Trace` are read as they are; a list of records is
    # turned into rows as the walk goes. No message class is subclassed, so
    # `type()` decides exactly, at less cost than `isinstance`.
    for idx, row in enumerate(rows_of(trace)):
        kind = row[0]
        if kind == "send":
            msg = row[5]  # ("send", idx, tick, src, dst, msg, depth)
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
        elif kind == "snapshot":
            _, _, pid, key, state = row
            cell = (pid, key)
            prev = last.get(cell, INITIAL_STATE)
            last[cell] = state
            promised, r_ack = prev.r_ack, state.r_ack
            # r_ack may only grow: to a higher number, or stay the same round.
            if promised.n >= r_ack.n and promised != r_ack:
                cells.append(Violation(
                    "promise-monotonicity",
                    f"acceptor {pid} r_ack went from {promised} to {r_ack}",
                ))
            # A vote was cast; it must match the promise in force. A cell that
            # kept its vote mostly keeps the same `Round` object too.
            voted = state.r_voted
            if voted is not prev.r_voted and voted != prev.r_voted and voted != promised:
                cells.append(Violation(
                    "vote-safety",
                    f"acceptor {pid} voted in {voted} while promised {promised}",
                ))
        elif kind == "response":
            _, _, _, _, key, status, value, _ = row
            if (status in (DONE, ALREADY_CHOSEN) and not value.empty
                    and (key, value) not in learnable):
                p1.append(Violation(
                    "P1", f"value {value!r} learned at event {idx} without a prior voting quorum"
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
