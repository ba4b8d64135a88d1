import pytest
from hypothesis import given, strategies as st

from rmwreg.core import (
    EMPTY,
    Ordering,
    ReqID,
    ROUND_ZERO,
    Round,
    Value,
    next_explicit_round,
    round_compare,
)
from rmwreg.messages import Ack, Ticket
from rmwreg.quorum import (
    ConfigurationError,
    Fresh,
    INCONSISTENT,
    MustWriteThrough,
    QuorumView,
    ReadyToPropose,
    Retry,
    ValueChosen,
    classify,
    cons,
    find_chosen_in_pool,
    find_empty_in_pool,
    max_by,
    quorum_size,
)

TICKET = Ticket(0, 0)


def ack(src, r_ack=ROUND_ZERO, val=EMPTY, r_voted=ROUND_ZERO, req=None, incremented=True):
    return Ack(b"k", src, TICKET, r_ack, val, r_voted, req, incremented)


def view(*replies):
    v = QuorumView(required=len(replies))
    for r in replies:
        v.add(r)
    return v


def test_quorum_size():
    assert quorum_size(7) == 4
    assert quorum_size(1) == 1
    assert quorum_size(5) == 3
    assert quorum_size(3) == 2
    with pytest.raises(ConfigurationError):
        quorum_size(0)


def test_cons():
    r = Round(2, 7)
    assert cons(view(ack(0, r_voted=r), ack(1, r_voted=r), ack(2, r_voted=r)), "r_voted") == r
    mixed = view(ack(0, r_voted=Round(1, 1)), ack(1, r_voted=Round(2, 2)))
    assert cons(mixed, "r_voted") is INCONSISTENT
    assert cons(view(ack(0)), "r_voted") == ROUND_ZERO
    with pytest.raises(ValueError):
        cons(QuorumView(required=1), "r_voted")


def test_max_by():
    v1, v3 = Value(b"v1"), Value(b"v3")
    assert max_by(view(ack(0, r_voted=Round(1, 1), val=v1),
                       ack(1, r_voted=Round(3, 2), val=v3)), "r_voted", "val") == v3
    same = Round(2, 1)
    vv = Value(b"v")
    assert max_by(view(ack(0, r_voted=same, val=vv), ack(1, r_voted=same, val=vv)),
                  "r_voted", "val") == vv
    with pytest.raises(ValueError):
        max_by(QuorumView(required=1), "r_voted", "val")


def test_max_by_incomparable_tie_breaks_by_sender():
    vx, vy = Value(b"vx"), Value(b"vy")
    v = view(ack(3, r_voted=Round(2, 1), val=vx), ack(5, r_voted=Round(2, 2), val=vy))
    assert max_by(v, "r_voted", "val") == vy  # sender 5 wins


def test_max_by_tie_value_irrelevant_in_reachable_states():
    """Exhaustive small-model check: when every round number carries at most
    one proposal (single vote value per round number, the invariant the
    protocol maintains), both tie-break choices return the same value."""
    values = {0: Value(b"a"), 1: Value(b"b")}
    for n1 in range(3):
        for n2 in range(3):
            for id1 in range(2):
                for id2 in range(2):
                    r1, r2 = Round(n1, id1), Round(n2, id2)
                    # one proposal per round number: value determined by n
                    a1 = ack(0, r_voted=r1, val=values[0] if n1 == 0 else values[1])
                    a2 = ack(1, r_voted=r2, val=values[0] if n2 == 0 else values[1])
                    if round_compare(r1, r2) is Ordering.INCOMPARABLE:
                        assert a1.val == a2.val  # n1 == n2 forces equal values
                    got = max_by(view(a1, a2), "r_voted", "val")
                    best_n = max(n1, n2)
                    assert got == (values[0] if best_n == 0 else values[1])


# ---------------------------------------------------------------------------
# classify: spec-level examples


def test_classify_value_chosen():
    r, v = Round(4, 2), Value(b"x")
    out = classify(view(ack(0, r_voted=r, val=v), ack(1, r_voted=r, val=v),
                        ack(2, r_voted=r, val=v)), proposer=9)
    assert out == ValueChosen(v, r)


def test_classify_unvoted_quorum_retries_when_nothing_incremented():
    replies = [ack(i, incremented=False) for i in range(3)]
    out = classify(view(*replies), 9)
    assert isinstance(out, Retry)


def test_classify_fresh_ready():
    r = Round(6, 9)
    out = classify(view(*[ack(i, r_ack=r) for i in range(3)]), 9)
    assert out == ReadyToPropose(r, Fresh())


def test_classify_write_through():
    r_ack = Round(6, 9)
    voted = Round(5, 4)
    v1 = Value(b"v1")
    req = ReqID(4, 0)
    out = classify(
        view(ack(0, r_ack=r_ack),
             ack(1, r_ack=r_ack, r_voted=voted, val=v1, req=req),
             ack(2, r_ack=r_ack)),
        proposer=9)
    assert out == ReadyToPropose(r_ack, MustWriteThrough(v1, voted, req))


def test_classify_retry_dominates_observations():
    out = classify(
        view(ack(0, r_ack=Round(3, 1)), ack(1, r_ack=Round(5, 2)),
             ack(2, r_ack=Round(4, 3), r_voted=Round(4, 3))),
        proposer=9)
    assert isinstance(out, Retry)
    assert out.next_round == Round(6, 9)


def test_classify_requires_complete_view():
    v = QuorumView(required=3)
    v.add(ack(0))
    with pytest.raises(ValueError):
        classify(v, 9)


# ---------------------------------------------------------------------------
# brute-force reference classifier


def _reference_classify(replies, proposer):
    """Independent restatement of the phase-1 cases, written against the
    field semantics rather than the production control flow."""
    voted_rounds = {r.r_voted for r in replies}
    vals = {r.val for r in replies}
    if len(voted_rounds) == 1 and len(vals) == 1:
        (rv,), (val,) = voted_rounds, vals
        if rv != ROUND_ZERO:
            return ValueChosen(val, rv)
    acks = {r.r_ack for r in replies}
    if all(r.incremented for r in replies) and len(acks) == 1:
        (ra,) = acks
        if voted_rounds == {ROUND_ZERO}:
            return ReadyToPropose(ra, Fresh())
        best = max(replies, key=lambda r: ((r.r_voted.n,
                                            -1 if r.r_voted.id is None else r.r_voted.id),
                                           r.src))
        return ReadyToPropose(ra, MustWriteThrough(best.val, best.r_voted, best.req))
    seen = [r.r_ack for r in replies] + [r.r_voted for r in replies]
    return Retry(next_explicit_round(seen, proposer))


small_rounds = st.builds(
    Round, st.integers(min_value=0, max_value=3),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2)))

ack_strategy = st.builds(
    lambda src, ra, rv, val, inc: ack(
        src, r_ack=ra, r_voted=rv,
        val=Value(val) if rv != ROUND_ZERO else EMPTY,
        req=None, incremented=inc),
    st.integers(), small_rounds, small_rounds,
    st.sampled_from([b"a", b"b"]), st.booleans())


@given(st.lists(ack_strategy, min_size=1, max_size=5,
                unique_by=lambda a: a.src))
def test_classify_matches_reference(replies):
    got = classify(view(*replies), proposer=99)
    want = _reference_classify(replies, proposer=99)
    assert got == want


# ---------------------------------------------------------------------------
# pooled read classification


def test_find_chosen_in_pool_mixes_attempts():
    r, v = Round(3, 1), Value(b"v")
    pool = [ack(0, r_voted=r, val=v), ack(1), ack(1, r_voted=r, val=v), ack(0, r_voted=r, val=v)]
    assert find_chosen_in_pool(pool, 2) == (v, r, None)
    assert find_chosen_in_pool(pool, 3) is None


def test_find_chosen_in_pool_prefers_newest():
    r1, r2 = Round(3, 1), Round(5, 2)
    v1, v2 = Value(b"v1"), Value(b"v2")
    pool = [ack(0, r_voted=r1, val=v1), ack(1, r_voted=r1, val=v1),
            ack(2, r_voted=r2, val=v2), ack(3, r_voted=r2, val=v2)]
    assert find_chosen_in_pool(pool, 2) == (v2, r2, None)


def test_find_empty_in_pool_counts_distinct_senders():
    pool = [ack(0), ack(0), ack(1, r_voted=Round(1, 1), val=Value(b"v"))]
    assert not find_empty_in_pool(pool, 2)
    pool.append(ack(2))
    assert find_empty_in_pool(pool, 2)
