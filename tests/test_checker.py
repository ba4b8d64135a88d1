import itertools
import json
from collections import Counter
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmwreg import checker, kv
from rmwreg.acceptor import INITIAL_STATE, AcceptorState
from rmwreg.checker import HistoryEvent, check_exactly_once, check_sequence, check_write_once, sequence_of
from rmwreg.core import EMPTY, Config, Mode, ReqID, Round, Value
from rmwreg.messages import ReqKind, Status, Vote, Voted
from rmwreg.quorum import quorum_size
from rmwreg.sim import (ClientScript, OpSpec, PROPOSER_BASE, SimConfig, random_crash_plan,
                        run_workload)
from rmwreg.trace import ClientResponseEv, SendEv, StateSnapshotEv
from reference import Ordering, round_compare


def seq_value(*tokens):
    return Value(json.dumps(list(tokens)).encode())


def hist(*events):
    out = []
    tick = 0
    for ev in events:
        kind, client, idx, op = ev[:4]
        extra = ev[4] if len(ev) > 4 else {}
        out.append(HistoryEvent(kind=kind, client=client, op_index=idx, op=op,
                                key=b"r", tick=tick, **extra))
        tick += 1
    return out


def w_inv(client, idx, token=None, value=None):
    return ("invoke", client, idx, ReqKind.WRITE, {"token": token, "value": value})


def w_resp(client, idx, status=Status.DONE, value=None):
    return ("respond", client, idx, ReqKind.WRITE, {"status": status, "value": value})


def r_inv(client, idx):
    return ("invoke", client, idx, ReqKind.READ, {})


def r_resp(client, idx, status, value=None):
    return ("respond", client, idx, ReqKind.READ, {"status": status, "value": value})


# ---------------------------------------------------------------------------
# sequence_of


def test_sequence_of():
    assert sequence_of(seq_value("a", "b")) == ["a", "b"]
    assert sequence_of(EMPTY) == []
    assert sequence_of(None) == []
    assert sequence_of(Value(b"not json")) is None
    assert sequence_of(Value(b"[1, 2]")) is None


# ---------------------------------------------------------------------------
# write-once


def test_write_once_clean_history_passes():
    v = Value(b'"x"')
    h = hist(
        w_inv(0, 0, value=v), w_resp(0, 0, Status.DONE, v),
        r_inv(1, 0), r_resp(1, 0, Status.DONE, v),
    )
    assert check_write_once(h).ok


def test_write_once_consistency_violation():
    va, vb = Value(b'"a"'), Value(b'"b"')
    h = hist(
        w_inv(0, 0, value=va), w_resp(0, 0, Status.DONE, va),
        w_inv(1, 0, value=vb), w_resp(1, 0, Status.DONE, vb),
    )
    verdict = check_write_once(h)
    assert any(v.prop == "C-Consistency" for v in verdict.violations)


def test_write_once_nontriviality_violation():
    ghost = Value(b'"ghost"')
    h = hist(r_inv(0, 0), r_resp(0, 0, Status.DONE, ghost))
    verdict = check_write_once(h)
    assert any(v.prop == "C-Nontriviality" for v in verdict.violations)


def test_write_once_stability_violation():
    v = Value(b'"x"')
    h = hist(
        w_inv(0, 0, value=v), w_resp(0, 0, Status.DONE, v),
        r_inv(1, 0), r_resp(1, 0, Status.EMPTY),
    )
    verdict = check_write_once(h)
    assert any(v.prop == "C-Stability" for v in verdict.violations)


def test_write_once_linearizability_catches_stale_read_between_writes():
    """A read that overlaps nothing and returns empty after a completed
    write has no witness even though C-Stability flags it too."""
    v = Value(b'"x"')
    h = hist(
        w_inv(0, 0, value=v), w_resp(0, 0, Status.DONE, v),
        r_inv(1, 0), r_resp(1, 0, Status.EMPTY),
    )
    assert "Linearizability" in {v.prop for v in check_write_once(h).violations}


def test_write_once_read_of_a_value_not_yet_written_is_not_linearizable():
    """The value was proposed, so C-Nontriviality holds, but only by a write
    invoked right after the read returned it."""
    v = Value(b'"x"')
    h = hist(
        r_inv(1, 0), r_resp(1, 0, Status.DONE, v),
        w_inv(0, 0, value=v), w_resp(0, 0, Status.DONE, v),
    )
    assert [v.prop for v in check_write_once(h).violations] == ["Linearizability"]


def test_write_once_concurrent_empty_read_is_linearizable():
    v = Value(b'"x"')
    h = hist(
        r_inv(1, 0),
        w_inv(0, 0, value=v),
        w_resp(0, 0, Status.DONE, v),
        r_resp(1, 0, Status.EMPTY),  # overlaps the write: may order before it
    )
    assert check_write_once(h).ok


def test_write_once_pending_write_may_take_effect():
    v = Value(b'"x"')
    h = hist(
        w_inv(0, 0, value=v),  # never responds
        r_inv(1, 0), r_resp(1, 0, Status.DONE, v),
    )
    assert check_write_once(h).ok


def test_write_once_search_leaves_no_reference_cycle(cyclic_garbage):
    """The witness search is a recursive closure; once it returns, its ops,
    memo and closures must be freed by reference counting alone."""
    v = Value(b'"x"')
    h = hist(
        w_inv(0, 0, value=v), r_inv(1, 0),
        w_resp(0, 0, Status.DONE, v), r_resp(1, 0, Status.DONE, v),
    )
    assert cyclic_garbage(lambda: check_write_once(h)) == 0


def test_long_write_once_history_is_checked():
    """No op count is too many: a 20-op history whose last read returns
    empty after a completed write is flagged, not refused."""
    v = Value(b'"x"')
    events = [w_inv(0, 0, value=v), w_resp(0, 0, Status.DONE, v)]
    for i in range(1, 19):
        events += [r_inv(i, 0), r_resp(i, 0, Status.DONE, v)]
    events += [r_inv(19, 0), r_resp(19, 0, Status.EMPTY)]
    verdict = check_write_once(hist(*events))
    assert [v.prop for v in verdict.violations] == ["C-Stability", "Linearizability"]


# ---------------------------------------------------------------------------
# write-once: the one walk against a brute-force witness search


LITERALS = tuple(Value(f'"{c}"'.encode()) for c in "abc")


@st.composite
def write_once_histories(draw):
    """Up to six ops of one key at random real times, writing one to three
    literals. Each op mostly gets the answer a sequential register gives at
    a random point inside its interval, so about two thirds of the histories
    have a witness; an op may instead get any status with any literal or
    None as result, or stay pending."""
    literals = LITERALS[: draw(st.integers(1, 3))]
    ops = []
    for c in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from((ReqKind.READ, ReqKind.WRITE)))
        arg = draw(st.sampled_from(literals)) if kind is ReqKind.WRITE else None
        inv = draw(st.integers(0, 30))
        resp = inv + draw(st.integers(1, 8))
        ops.append((draw(st.integers(inv, resp - 1)) + 0.5, c, kind, arg, inv, resp))
    timed = []  # (time, invoke 0 or respond 1, client, event)
    state = None
    for _, c, kind, arg, inv, resp in sorted(ops):
        if kind is ReqKind.READ:
            status, result = (Status.EMPTY, None) if state is None else (Status.DONE, state)
        elif state is None or state == arg:
            status, result, state = Status.DONE, arg, arg
        else:
            status, result = Status.ALREADY_CHOSEN, state
        timed.append((inv, 0, c, HistoryEvent("invoke", c, 0, kind, b"r", value=arg)))
        shape = draw(st.integers(0, 5))
        if shape == 0:
            continue  # pending
        if shape == 1:
            status = draw(st.sampled_from(tuple(Status)))
            result = draw(st.sampled_from(literals + (None,)))
        timed.append((resp, 1, c, HistoryEvent(
            "respond", c, 0, kind, b"r", value=result, status=status)))
    return [ev for _, _, _, ev in sorted(timed, key=lambda t: t[:3])]


def replays(order) -> bool:
    """Whether `order` answers as a sequential write-once register would."""
    state = None
    for op in order:
        if op.kind is ReqKind.READ:
            status, result = (Status.EMPTY, None) if state is None else (Status.DONE, state)
        elif state is None or state == op.arg:
            status, result, state = Status.DONE, None, op.arg
        else:
            status, result = Status.ALREADY_CHOSEN, state
        if op.resp is not None and (
            op.status is not status or (result is not None and op.result != result)
        ):
            return False
    return True


def has_witness(history) -> bool:
    """Some order of the completed ops plus any subset of the pending ones
    respects real time and replays on the sequential register."""
    ops = checker._ops_of(history)
    done = [op for op in ops if op.resp is not None]
    pending = [op for op in ops if op.resp is None]
    for k in range(len(pending) + 1):
        for extra in itertools.combinations(pending, k):
            for order in itertools.permutations(done + list(extra)):
                if all(later.resp is None or later.resp > op.inv
                       for i, op in enumerate(order) for later in order[i + 1 :]) \
                        and replays(order):
                    return True
    return False


@settings(deadline=None)
@given(write_once_histories())
def test_write_once_walk_agrees_with_a_brute_force_witness_search(history):
    flagged = "Linearizability" in {v.prop for v in check_write_once(history).violations}
    assert flagged == (not has_witness(history))


# ---------------------------------------------------------------------------
# sequence register


def test_sequence_clean():
    h = hist(
        w_inv(0, 0, token="a"), w_resp(0, 0, Status.DONE, seq_value("a")),
        r_inv(1, 0), r_resp(1, 0, Status.DONE, seq_value("a")),
        w_inv(0, 1, token="b"), w_resp(0, 1, Status.DONE, seq_value("a", "b")),
        r_inv(1, 1), r_resp(1, 1, Status.DONE, seq_value("a", "b")),
    )
    assert check_sequence(h).ok
    assert check_exactly_once(h).ok


def test_sequence_consistency_violation():
    h = hist(
        w_inv(0, 0, token="a"), w_resp(0, 0, Status.DONE, seq_value("a")),
        w_inv(1, 0, token="b"), w_resp(1, 0, Status.DONE, seq_value("b")),
        r_inv(2, 0), r_resp(2, 0, Status.DONE, seq_value("a")),
        r_inv(2, 1), r_resp(2, 1, Status.DONE, seq_value("b")),
    )
    verdict = check_sequence(h)
    assert any(v.prop == "CS-Consistency" for v in verdict.violations)


def test_sequence_stability_violation():
    h = hist(
        r_inv(0, 0), r_resp(0, 0, Status.DONE, seq_value("a", "b")),
        r_inv(0, 1), r_resp(0, 1, Status.DONE, seq_value("a")),
    )
    verdict = check_sequence(h)
    assert any(v.prop == "CS-Stability" for v in verdict.violations)


def test_sequence_nontriviality_violation():
    h = hist(r_inv(0, 0), r_resp(0, 0, Status.DONE, seq_value("ghost")))
    verdict = check_sequence(h)
    assert any(v.prop == "CS-Nontriviality" for v in verdict.violations)


def test_sequence_update_visibility_violation():
    h = hist(
        w_inv(0, 0, token="a"), w_resp(0, 0, Status.DONE, seq_value("a")),
        r_inv(1, 0), r_resp(1, 0, Status.DONE, seq_value()),
    )
    verdict = check_sequence(h)
    assert any(v.prop == "CS-Update-Visibility" for v in verdict.violations)


def test_sequence_update_stability_violation():
    h = hist(
        w_inv(0, 0, token="a"), w_resp(0, 0, Status.DONE, seq_value("a")),
        w_inv(0, 1, token="b"), w_resp(0, 1, Status.DONE, seq_value("a", "b")),
        r_inv(1, 0), r_resp(1, 0, Status.DONE, seq_value("a", "b", "a")),
    )
    verdict = check_sequence(h)
    assert any(v.prop == "CS-Update-Stability" for v in verdict.violations)


def test_sequence_duplicate_allowed_but_exactly_once_flags_it():
    h = hist(
        w_inv(0, 0, token="a"), w_resp(0, 0, Status.DONE, seq_value("a", "a")),
        r_inv(1, 0), r_resp(1, 0, Status.DONE, seq_value("a", "a")),
    )
    assert check_sequence(h).ok  # at-least-once is legal for the sequence register
    verdict = check_exactly_once(h)
    assert any(v.prop == "exactly-once" for v in verdict.violations)


def test_non_append_payload_marks_not_checkable():
    h = hist(r_inv(0, 0), r_resp(0, 0, Status.DONE, Value(b"opaque")))
    verdict = check_sequence(h)
    assert not verdict.checkable


# ---------------------------------------------------------------------------
# sequence register: the sorted sweeps against the pairwise reference


def pairwise_verdict(history):
    """`check_sequence` with every pair of reads compared, as it does when
    the reads form no prefix chain."""
    verdict = checker.Verdict()
    ops = checker._ops_of(history)
    reads = list(checker._read_sequences(ops, verdict))
    if verdict.checkable:
        checker._pairwise_sequence(ops, reads, verdict)
    return verdict


TOKENS = ("t0", "t1", "t2", "t3", "t4")


@st.composite
def sequence_histories(draw):
    """Up to five writes and six reads of one key at random real times.

    The reads mostly return prefixes of one sequence: the written tokens, in
    invocation order or in any order, after up to three edits (a token
    dropped, applied again at the end or swapped with its successor, or a
    stray token put in). Some reads return any sequence of tokens or a
    reordering of that sequence instead, so the reads form no chain; others
    return EMPTY, stay pending, or return a value that is not an append log.
    Writes may answer NOOP, stay pending, or carry no token.
    """
    timed = []  # (time, invoke 0 or respond 1, client, event)

    def op(client, kind, token, inv, status, value=None):
        timed.append((inv, 0, client, HistoryEvent("invoke", client, 0, kind, b"r", token)))
        if status is not None:
            resp = inv + draw(st.integers(1, 10))
            timed.append((resp, 1, client, HistoryEvent(
                "respond", client, 0, kind, b"r", token, value, status)))

    written = []
    n_writes = draw(st.integers(0, len(TOKENS)))
    for c in range(n_writes):
        token = TOKENS[c] if draw(st.integers(0, 9)) else None
        inv = draw(st.integers(0, 40))
        op(c, ReqKind.WRITE, token, inv,
           draw(st.sampled_from((Status.DONE, Status.DONE, Status.DONE, Status.NOOP, None))))
        if token is not None:
            written.append((inv, token))

    base = [token for _, token in sorted(written)]
    if draw(st.integers(0, 2)) == 0:
        base = list(draw(st.permutations(base)))
    edits = st.tuples(st.sampled_from(("drop", "again", "swap", "stray")), st.integers(0, 9))
    for edit, at in draw(st.lists(edits, max_size=3)):
        if edit == "stray":
            base.insert(at % (len(base) + 1), "stray")
        elif base:
            i = at % len(base)
            if edit == "drop":
                del base[i]
            elif edit == "again":
                base.append(base[i])
            else:
                j = (i + 1) % len(base)
                base[i], base[j] = base[j], base[i]

    for c in range(n_writes, n_writes + draw(st.integers(0, 6))):
        inv = draw(st.integers(0, 40))
        shape = draw(st.integers(0, 39))
        if shape == 0:
            op(c, ReqKind.READ, None, inv, Status.DONE, Value(b"opaque"))
        elif shape <= 2:
            op(c, ReqKind.READ, None, inv, None)
        elif shape <= 4:
            op(c, ReqKind.READ, None, inv, Status.EMPTY)
        else:
            if shape <= 7:
                seq = draw(st.lists(st.sampled_from(TOKENS + ("stray",)), max_size=6))
            elif shape <= 10:
                seq = list(draw(st.permutations(base)))
            else:
                seq = base[: draw(st.integers(0, len(base)))]
            op(c, ReqKind.READ, None, inv, Status.DONE, seq_value(*seq))

    history = []
    for tick, (_, _, _, ev) in enumerate(sorted(timed, key=lambda t: t[:3])):
        ev.tick = tick
        history.append(ev)
    return history


@settings(deadline=None)
@given(sequence_histories())
def test_sequence_sweeps_agree_with_the_pairwise_reference(history):
    fast, reference = check_sequence(history), pairwise_verdict(history)
    assert fast.ok == reference.ok
    assert fast.checkable == reference.checkable
    assert {v.prop for v in fast.violations} == {v.prop for v in reference.violations}


def test_storm_histories_take_the_sweeps(monkeypatch):
    """The golden storm worlds' reads form a prefix chain, so their check
    never compares reads pairwise."""
    from test_sim import storm_runs

    def refuse(*args):
        raise AssertionError("the reads of a storm world fell back to the pairwise comparison")

    monkeypatch.setattr(checker, "_pairwise_sequence", refuse)
    for res in storm_runs():
        assert check_sequence(res.history()).ok


def test_incomparable_reads_take_the_pairwise_reference(monkeypatch):
    calls = []
    pairwise = checker._pairwise_sequence

    def counted(*args):
        calls.append(args)
        pairwise(*args)

    monkeypatch.setattr(checker, "_pairwise_sequence", counted)
    h = hist(
        w_inv(0, 0, token="a"), w_resp(0, 0, Status.DONE, seq_value("a")),
        w_inv(1, 0, token="b"), w_resp(1, 0, Status.DONE, seq_value("b")),
        r_inv(2, 0), r_resp(2, 0, Status.DONE, seq_value("a")),
        r_inv(2, 1), r_resp(2, 1, Status.DONE, seq_value("b")),
    )
    verdict = check_sequence(h)
    assert len(calls) == 1
    assert "CS-Consistency" in {v.prop for v in verdict.violations}


# ---------------------------------------------------------------------------
# cross-validation: the write-once oracle agrees with the consensus checks


def test_oracle_cross_validation_on_simulated_histories():
    from rmwreg.cli import default_scripts
    for seed in range(40):
        cfg = Config(n_acceptors=3, register_mode=Mode.WRITE_ONCE)
        sim = SimConfig(seed=seed, fifo=False, drop=0.2, dup=0.05, max_delay=10)
        res = run_workload(cfg, sim, default_scripts(Mode.WRITE_ONCE))
        for history in res.histories.values():
            verdict = check_write_once(history)
            assert verdict.ok, (seed, verdict.violations)


# ---------------------------------------------------------------------------
# trace audits


def _run(mode=Mode.RMW, seed=0, mutations=frozenset(), fifo=True, drop=0.0):
    cfg = Config(n_acceptors=3, register_mode=mode, mutations=mutations)
    sim = SimConfig(seed=seed, fifo=fifo, drop=drop, max_delay=8, max_steps=60000)
    scripts = [ClientScript(client=c, proposer=PROPOSER_BASE + c, ops=(
        OpSpec(ReqKind.WRITE, make_cmd=kv.append_token),
        OpSpec(ReqKind.READ),
        OpSpec(ReqKind.WRITE, make_cmd=kv.append_token),
    )) for c in range(3)]
    return run_workload(cfg, sim, scripts)


def test_audit_clean_trace():
    res = _run()
    assert checker.audit_propositions(res.trace, 3).ok


def test_audit_catches_vote_below_promise():
    from rmwreg.core import MUT_VOTE_BELOW_PROMISE
    res = _run(mode=Mode.SEQUENCE, fifo=False, drop=0.1,
               mutations=frozenset({MUT_VOTE_BELOW_PROMISE}))
    verdict = checker.audit_propositions(res.trace, 3)
    props = {v.prop for v in verdict.violations}
    assert props & {"vote-safety", "promise-monotonicity", "P2"}


def test_audit_catches_round_reuse():
    from rmwreg.core import MUT_REUSE_ROUND
    for seed in range(50):
        res = _run(seed=seed, mutations=frozenset({MUT_REUSE_ROUND}))
        verdict = checker.audit_propositions(res.trace, 3)
        if any(v.prop == "P3" for v in verdict.violations):
            return
    pytest.fail("round reuse never produced a P3 violation")


def test_audit_checks_a_cells_first_state_change():
    """A cell starts from `INITIAL_STATE`, so a first snapshot that votes in
    a round never promised breaks vote safety."""
    voted = AcceptorState(Round(3, 1000), seq_value("a"), Round(3, 1000), ReqID(1000, 0))
    verdict = checker.audit_propositions([StateSnapshotEv(1, 0, b"r", voted)], 3)
    assert [v.prop for v in verdict.violations] == ["vote-safety"]
    promised = AcceptorState(r_ack=Round(3, 1000))
    trace = [StateSnapshotEv(1, 0, b"r", promised), StateSnapshotEv(2, 0, b"r", voted)]
    assert checker.audit_propositions(trace, 3).ok


def reference_audit(trace, n_acceptors: int) -> checker.Verdict:
    """The two-pass audit that `audit_propositions` replaced, kept as its
    reference, except that each cell starts from `INITIAL_STATE` as there."""
    verdict = checker.Verdict()
    quorum = quorum_size(n_acceptors)
    proposals: Dict[tuple, int] = {}
    votes: Dict[tuple, Dict[int, int]] = {}
    responses: List[tuple] = []
    snapshots: Dict[tuple, list] = {}
    for idx, ev in enumerate(trace):
        if isinstance(ev, SendEv):
            msg = ev.msg
            if isinstance(msg, Vote):
                proposals.setdefault((msg.key, msg.round, msg.value, msg.req_cur), idx)
            elif isinstance(msg, Voted):
                votes.setdefault((msg.key, msg.round, msg.value), {}).setdefault(msg.src, idx)
        elif isinstance(ev, ClientResponseEv):
            responses.append((idx, ev))
        elif isinstance(ev, StateSnapshotEv):
            snapshots.setdefault((ev.pid, ev.key), []).append((idx, ev.state))

    chosen: Dict[tuple, int] = {}
    for ident, voters in votes.items():
        if len(voters) >= quorum:
            chosen[ident] = sorted(voters.values())[quorum - 1]

    for idx, ev in responses:
        if ev.status in (Status.DONE, Status.ALREADY_CHOSEN) and not ev.value.empty:
            if not any(key == ev.key and value == ev.value and at <= idx
                       for (key, _, value), at in chosen.items()):
                verdict.flag(
                    "P1",
                    f"value {ev.value!r} learned at event {idx} without a prior voting quorum",
                )

    def epoch(value):
        seq = sequence_of(value)
        return len(seq) if seq is not None else None

    by_epoch: Dict[tuple, list] = {}
    for (key, rnd, value, _), _ in proposals.items():
        if epoch(value) is not None:
            by_epoch.setdefault((key, epoch(value)), []).append((rnd, value))
    for (key, ep), props in by_epoch.items():
        epoch_chosen = [(rnd, value) for (k, rnd, value) in chosen
                        if k == key and epoch(value) == ep]
        distinct = {value for _, value in epoch_chosen}
        if len(distinct) > 1:
            verdict.flag("P2", f"two values chosen in one epoch: {distinct!r}")
        for rnd_c, val_c in epoch_chosen:
            for rnd_p, val_p in props:
                if rnd_p.n > rnd_c.n and val_p != val_c:
                    verdict.flag(
                        "P2",
                        f"proposal in round {rnd_p} carries {val_p!r} after "
                        f"{val_c!r} was chosen in round {rnd_c}",
                    )

    by_number: Dict[tuple, set] = {}
    for (key, rnd, value, req) in proposals:
        by_number.setdefault((key, rnd.n), set()).add((rnd, value, req))
    for (key, n), props in by_number.items():
        if len(props) > 1:
            verdict.flag("P3", f"{len(props)} distinct proposals share round number {n}")

    for (pid, key), snaps in snapshots.items():
        prev = INITIAL_STATE
        for _, state in snaps:
            if round_compare(prev.r_ack, state.r_ack) not in (Ordering.LESS, Ordering.EQUAL):
                verdict.flag(
                    "promise-monotonicity",
                    f"acceptor {pid} r_ack went from {prev.r_ack} to {state.r_ack}",
                )
            if state.r_voted != prev.r_voted:
                if round_compare(state.r_voted, prev.r_ack) is not Ordering.EQUAL:
                    verdict.flag(
                        "vote-safety",
                        f"acceptor {pid} voted in {state.r_voted} while promised {prev.r_ack}",
                    )
            prev = state
    return verdict


def assert_audits_agree(trace, n_acceptors: int) -> checker.Verdict:
    """Same `ok`, and the same violations; only the detail that prints a set
    of values may differ, in the order the set prints."""
    audit = checker.audit_propositions(trace, n_acceptors)
    reference = reference_audit(trace, n_acceptors)
    assert audit.ok == reference.ok

    def violations(verdict):
        return Counter(
            (v.prop, "a set" if v.detail.startswith("two values chosen") else v.detail)
            for v in verdict.violations
        )

    assert violations(audit) == violations(reference)
    return reference


def test_audit_agrees_with_the_reference_on_fuzz_seeds():
    """The four arms of the mixed fuzz campaign: write-once on lossy links
    with N = 3 and 5, sequence and RMW on FIFO links, 2-4 duelling proposers
    and seed-derived crash plans."""
    from rmwreg.cli import default_scripts

    arms = (
        (Mode.WRITE_ONCE, 3, dict(fifo=False, drop=0.05, dup=0.02)),
        (Mode.WRITE_ONCE, 5, dict(fifo=False, drop=0.05, dup=0.02)),
        (Mode.SEQUENCE, 3, dict(fifo=True)),
        (Mode.RMW, 3, dict(fifo=True)),
    )
    for mode, n, links in arms:
        for seed in range(60):
            scripts = default_scripts(mode, 2 + seed % 3)
            crashable = [] if mode is Mode.WRITE_ONCE else [s.proposer for s in scripts]
            plan = random_crash_plan(seed, n, (n - 1) // 2, 200, crashable)
            sim = SimConfig(seed=seed, max_delay=10, crash_plan=plan, **links)
            res = run_workload(Config(n_acceptors=n, register_mode=mode), sim, scripts)
            assert assert_audits_agree(res.trace, n).ok, (mode, n, seed)


def test_audit_agrees_with_the_reference_on_mutated_runs():
    """Criterion 9's run of every mutation; all but the dropped `Learned`
    break an invariant the audit sees."""
    from test_acceptance import MUTATION_PLANS, run_mutated

    flagged = Counter()
    for mutation, mode, unreliable in MUTATION_PLANS:
        for seed in range(60):
            res = run_mutated(mutation, mode, unreliable, seed)
            flagged.update(v.prop for v in assert_audits_agree(res.trace, 3).violations)
    assert set(flagged) == {"P1", "P2", "P3", "promise-monotonicity", "vote-safety"}
