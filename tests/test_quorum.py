import pytest
from hypothesis import given, strategies as st

from rmwreg.core import EMPTY, Ordering, ReqID, ROUND_ZERO, Round, Value, round_compare
from rmwreg.messages import Ack, Ticket
from rmwreg.quorum import (
    ConfigurationError,
    ReadyToPropose,
    ValueChosen,
    classify,
    find_chosen_in_pool,
    find_empty_in_pool,
    quorum_size,
)

TICKET = Ticket(0, 0)


def ack(src, r_ack=ROUND_ZERO, val=EMPTY, r_voted=ROUND_ZERO, req=None, incremented=True):
    return Ack(b"k", src, TICKET, r_ack, val, r_voted, req, incremented)


def test_quorum_size():
    assert quorum_size(7) == 4
    assert quorum_size(1) == 1
    assert quorum_size(5) == 3
    assert quorum_size(3) == 2
    with pytest.raises(ConfigurationError):
        quorum_size(0)


# ---------------------------------------------------------------------------
# classify: spec-level examples


def test_classify_value_chosen():
    r, v, req, r_ack = Round(4, 2), Value(b"x"), ReqID(2, 0), Round(5, 9)
    out = classify([ack(i, r_ack=r_ack, r_voted=r, val=v, req=req) for i in range(3)])
    assert out == ValueChosen(v, req, r_ack)


def test_classify_value_chosen_under_differing_request_ids():
    r, v, r_ack = Round(4, 2), Value(b"x"), Round(5, 9)
    out = classify([ack(0, r_ack=r_ack, r_voted=r, val=v, req=ReqID(2, 0)),
                    ack(1, r_ack=r_ack, r_voted=r, val=v, req=ReqID(2, 1))])
    assert out == ValueChosen(v, None, r_ack)


def test_classify_value_chosen_without_a_successor():
    """One reply that did not increment its promise leaves no round to
    propose the successor in; so does a quorum whose promises differ."""
    r, v, req, r_ack = Round(4, 2), Value(b"x"), ReqID(2, 0), Round(5, 9)
    out = classify([ack(0, r_ack=r_ack, r_voted=r, val=v, req=req),
                    ack(1, r_ack=r_ack, r_voted=r, val=v, req=req, incremented=False)])
    assert out == ValueChosen(v, req, None)
    out = classify([ack(0, r_ack=r_ack, r_voted=r, val=v, req=req),
                    ack(1, r_ack=Round(6, 9), r_voted=r, val=v, req=req)])
    assert out == ValueChosen(v, req, None)


def test_classify_unvoted_quorum_retries_when_nothing_incremented():
    assert classify([ack(i, incremented=False) for i in range(3)]) is None


def test_classify_fresh_ready():
    r = Round(6, 9)
    assert classify([ack(i, r_ack=r) for i in range(3)]) == ReadyToPropose(r, None)


def test_classify_write_through():
    r_ack = Round(6, 9)
    voted = ack(1, r_ack=r_ack, r_voted=Round(5, 4), val=Value(b"v1"), req=ReqID(4, 0))
    out = classify([ack(0, r_ack=r_ack), voted, ack(2, r_ack=r_ack)])
    assert out == ReadyToPropose(r_ack, voted)


def test_classify_write_through_takes_the_newest_vote():
    r_ack = Round(6, 9)
    old = ack(0, r_ack=r_ack, r_voted=Round(1, 1), val=Value(b"v1"))
    newest = ack(1, r_ack=r_ack, r_voted=Round(3, 2), val=Value(b"v3"))
    assert classify([old, newest]).write_through is newest
    assert classify([newest, old]).write_through is newest


def test_max_by_incomparable_tie_breaks_by_sender():
    """The write-through takes the newest vote, max by round; of equally
    new votes it takes the largest sender's. Two values in one round are
    unreachable, but the choice keeps runs replayable. Incomparable rounds
    are ordered by their owner's id."""
    r_ack, r = Round(6, 9), Round(2, 1)
    vx = ack(3, r_ack=r_ack, r_voted=r, val=Value(b"vx"))
    vy = ack(5, r_ack=r_ack, r_voted=r, val=Value(b"vy"))
    assert classify([vx, vy]).write_through is vy  # sender 5 wins
    assert classify([vy, vx]).write_through is vy
    vz = ack(1, r_ack=r_ack, r_voted=Round(2, 2), val=Value(b"vz"))
    assert classify([vx, vy, vz]).write_through is vz


def test_max_by_tie_value_irrelevant_in_reachable_states():
    """Exhaustive small-model check: when every round number carries at most
    one proposal (single vote value per round number, the invariant the
    protocol maintains), both tie-break choices write the same value
    through."""
    values = {0: Value(b"a"), 1: Value(b"b")}
    r_ack = Round(9, 9)
    for n1 in range(3):
        for n2 in range(3):
            for id1 in range(2):
                for id2 in range(2):
                    r1, r2 = Round(n1, id1), Round(n2, id2)
                    if r1 == r2:
                        continue  # one vote across the quorum: a chosen value
                    # one proposal per round number: value determined by n
                    a1 = ack(0, r_ack=r_ack, r_voted=r1, val=values[0] if n1 == 0 else values[1])
                    a2 = ack(1, r_ack=r_ack, r_voted=r2, val=values[0] if n2 == 0 else values[1])
                    if round_compare(r1, r2) is Ordering.INCOMPARABLE:
                        assert a1.val == a2.val  # n1 == n2 forces equal values
                    got = classify([a1, a2]).write_through.val
                    best_n = max(n1, n2)
                    assert got == (values[0] if best_n == 0 else values[1])


def test_classify_retry_dominates_observations():
    """A quorum without a common promise retries; the explicit round it
    retries with tops every round seen (tests/test_proposer.py,
    `test_explicit_retry_round_tops_every_round_seen`)."""
    assert classify([ack(0, r_ack=Round(3, 1)), ack(1, r_ack=Round(5, 2)),
                     ack(2, r_ack=Round(4, 3), r_voted=Round(4, 3))]) is None


# ---------------------------------------------------------------------------
# brute-force reference classifier


def _reference_classify(replies):
    """Independent restatement of the phase-1 cases, written against the
    field semantics rather than the production control flow."""
    voted_rounds = {r.r_voted for r in replies}
    vals = {r.val for r in replies}
    reqs = {r.req for r in replies}
    acks = {r.r_ack for r in replies}
    successor = None
    if all(r.incremented for r in replies) and len(acks) == 1:
        (successor,) = acks
    if len(voted_rounds) == 1 and len(vals) == 1:
        (rv,), (val,) = voted_rounds, vals
        if rv != ROUND_ZERO:
            return ValueChosen(val, reqs.pop() if len(reqs) == 1 else None, successor)
    if successor is None:
        return None
    if voted_rounds == {ROUND_ZERO}:
        return ReadyToPropose(successor, None)
    best = max(replies, key=lambda r: ((r.r_voted.n,
                                        -1 if r.r_voted.id is None else r.r_voted.id),
                                       r.src))
    return ReadyToPropose(successor, best)


small_rounds = st.builds(
    Round, st.integers(min_value=0, max_value=3),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2)))

ack_strategy = st.builds(
    lambda src, ra, rv, val, req, inc: ack(
        src, r_ack=ra, r_voted=rv,
        val=Value(val) if rv != ROUND_ZERO else EMPTY,
        req=req, incremented=inc),
    st.integers(), small_rounds, small_rounds,
    st.sampled_from([b"a", b"b"]),
    st.sampled_from([None, ReqID(1, 0), ReqID(2, 0)]),
    st.booleans())


@given(st.lists(ack_strategy, min_size=1, max_size=5,
                unique_by=lambda a: a.src))
def test_classify_matches_reference(replies):
    assert classify(replies) == _reference_classify(replies)


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
