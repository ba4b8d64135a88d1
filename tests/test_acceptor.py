import random

import pytest
from hypothesis import given, strategies as st

from rmwreg.acceptor import Acceptor, AcceptorState, INITIAL_STATE
from rmwreg.core import (
    EMPTY,
    MUT_VOTE_BELOW_PROMISE,
    Config,
    ReqID,
    ROUND_ZERO,
    Round,
    Value,
)
from rmwreg.messages import (
    Ack,
    Learned,
    Nack,
    PaxosPrep,
    Prepare,
    ReqKind,
    Send,
    Ticket,
    Vote,
    Voted,
)
from reference import Ordering, round_compare

KEY = b"k"
T = Ticket(0, 0)


def msgs(out):
    """The message of each `Send` the acceptor returned, in order."""
    return [sent.msg for sent in out]


def make(mutations=frozenset()):
    return Acceptor(0, Config(n_acceptors=3, mutations=mutations))


def test_initial_state():
    a = make()
    assert a.cell(KEY) == AcceptorState(ROUND_ZERO, EMPTY, ROUND_ZERO, None)
    assert a.cell(KEY) is INITIAL_STATE


def test_prepare_write_increments_and_takes_ownership():
    a = make()
    a.cells[KEY] = AcceptorState(r_ack=Round(5, 7))
    [sent] = a.handle(Prepare(KEY, 9, ReqKind.WRITE, T))
    reply = sent.msg
    assert sent.dst == 9
    assert reply.r_ack == Round(6, 9)
    assert reply.incremented
    assert a.cell(KEY).r_ack == Round(6, 9)


def test_prepare_fresh_write():
    a = make()
    [reply] = msgs(a.handle(Prepare(KEY, 3, ReqKind.WRITE, T)))
    assert reply.r_ack == Round(1, 3)


def test_prepare_read_leaves_state_untouched():
    a = make()
    a.cells[KEY] = AcceptorState(r_ack=Round(5, 7), val=Value(b"v"), r_voted=Round(5, 7))
    before = a.cell(KEY)
    [reply] = msgs(a.handle(Prepare(KEY, 9, ReqKind.READ, T)))
    assert a.cell(KEY) == before
    assert not reply.incremented
    assert reply.val == Value(b"v")


def test_prepare_explicit_higher_accepted():
    a = make()
    a.cells[KEY] = AcceptorState(r_ack=Round(3, 1))
    [reply] = msgs(a.handle(PaxosPrep(KEY, 3, Round(6, 3), T)))
    assert isinstance(reply, Ack)
    assert a.cell(KEY).r_ack == Round(6, 3)


def test_prepare_explicit_stale_and_incomparable_nacked():
    a = make()
    a.cells[KEY] = AcceptorState(r_ack=Round(6, 3))
    [stale] = msgs(a.handle(PaxosPrep(KEY, 2, Round(4, 2), T)))
    assert isinstance(stale, Nack) and stale.r_ack == Round(6, 3)
    [incomp] = msgs(a.handle(PaxosPrep(KEY, 4, Round(6, 4), T)))
    assert isinstance(incomp, Nack)
    assert a.cell(KEY).r_ack == Round(6, 3)


def test_vote_at_promise_with_fast_writes():
    a = make()
    a.cells[KEY] = AcceptorState(r_ack=Round(6, 9))
    v = Value(b"v")
    out = a.handle(Vote(KEY, 9, Round(6, 9), v, None, None, T))
    assert out == [Send(9, Voted(KEY, 0, T, Round(6, 9), v))]
    state = a.cell(KEY)
    assert state == AcceptorState(Round(7, 9), v, Round(6, 9), None)


def test_vote_below_or_incomparable_promise_nacked():
    a = make()
    a.cells[KEY] = AcceptorState(r_ack=Round(8, 2))
    [reply] = msgs(a.handle(Vote(KEY, 1, Round(6, 1), Value(b"v"), None, None, T)))
    assert isinstance(reply, Nack) and reply.r_ack == Round(8, 2)
    [reply2] = msgs(a.handle(Vote(KEY, 1, Round(8, 1), Value(b"v"), None, None, T)))
    assert isinstance(reply2, Nack)
    assert a.cell(KEY).r_voted == ROUND_ZERO


def test_vote_emits_learned_to_previous_owner():
    a = make()
    a.cells[KEY] = AcceptorState(r_ack=Round(6, 9))
    prev = ReqID(1004, 7)
    cur = ReqID(1009, 1)
    out = a.handle(Vote(KEY, 9, Round(6, 9), Value(b"v"), cur, prev, T))
    assert Send(prev.pid, Learned(KEY, 0, prev)) in out
    assert a.cell(KEY).req == cur


def test_vote_mutation_accepts_below_promise():
    a = make(mutations=frozenset({MUT_VOTE_BELOW_PROMISE}))
    a.cells[KEY] = AcceptorState(r_ack=Round(8, 2))
    [reply] = msgs(a.handle(Vote(KEY, 1, Round(6, 1), Value(b"v"), None, None, T)))
    assert isinstance(reply, Voted)


def test_keys_are_independent():
    a = make()
    a.handle(Prepare(b"a", 1, ReqKind.WRITE, T))
    assert a.cell(b"b") == INITIAL_STATE
    assert a.cell(b"a").r_ack == Round(1, 1)


def test_promise_monotone_under_random_messages():
    rng = random.Random(5)
    a = make()
    prev = a.cell(KEY).r_ack
    for _ in range(500):
        roll = rng.random()
        rnd = Round(rng.randint(0, 10), rng.randint(0, 3))
        if roll < 0.4:
            a.handle(Prepare(KEY, rng.randint(0, 3), rng.choice(list(ReqKind)), T))
        elif roll < 0.7:
            a.handle(PaxosPrep(KEY, rnd.id, rnd, T))
        else:
            a.handle(Vote(KEY, rnd.id, rnd, Value(b"v"), None, None, T))
        cur = a.cell(KEY).r_ack
        assert cur.n >= prev.n
        prev = cur


def test_crash_recovery_is_omission():
    """Restoring a copy of the cells across a message gap must equal simply
    never delivering those messages."""
    rng = random.Random(11)
    msgs = []
    for i in range(60):
        rnd = Round(rng.randint(0, 6), rng.randint(0, 2))
        msgs.append(rng.choice([
            Prepare(KEY, rng.randint(0, 3), rng.choice(list(ReqKind)), T),
            PaxosPrep(KEY, rnd.id, rnd, T),
            Vote(KEY, rnd.id, rnd, Value(bytes([i])), None, None, T),
        ]))
    crashed, witness = make(), make()
    for i, m in enumerate(msgs):
        if 20 <= i < 40:
            continue  # lost while down
        witness.handle(m)
    snap = None
    for i, m in enumerate(msgs):
        if i == 20:
            snap = dict(crashed.cells)
        if i == 40:
            crashed.cells = dict(snap)
        if 20 <= i < 40:
            crashed.handle(m)  # processed, then wiped by restore
        else:
            crashed.handle(m)
    assert crashed.cell(KEY) == witness.cell(KEY)
    assert dict(crashed.cells) == dict(witness.cells)


# ---------------------------------------------------------------------------
# the promise and vote checks against a reference built on round_compare

# Few round numbers and ids, so equal and incomparable pairs are common;
# id None stands for the initial round's owner.
rounds = st.builds(Round, st.integers(min_value=0, max_value=3),
                   st.one_of(st.none(), st.integers(min_value=0, max_value=2)))
req_ids = st.one_of(st.none(), st.builds(ReqID, st.integers(min_value=1000, max_value=1001),
                                         st.integers(min_value=0, max_value=2)))
cells = st.one_of(st.none(), st.builds(
    AcceptorState, rounds, st.sampled_from([EMPTY, Value(b"a"), Value(b"b")]), rounds, req_ids))


def reference_prepare_explicit(pid, state, msg):
    if round_compare(state.r_ack, msg.round) is Ordering.LESS:
        state = AcceptorState(msg.round, state.val, state.r_voted, state.req)
        return [Send(msg.src, Ack(msg.key, pid, msg.ticket, state.r_ack, state.val,
                                  state.r_voted, state.req, True))], state
    return [Send(msg.src, Nack(msg.key, pid, msg.ticket, state.r_ack))], state


def reference_vote(pid, state, msg, vote_below_promise):
    if round_compare(msg.round, state.r_ack) is not Ordering.EQUAL and not vote_below_promise:
        return [Send(msg.src, Nack(msg.key, pid, msg.ticket, state.r_ack))], state
    r_ack = Round(msg.round.n + 1, msg.round.id)  # the voter's pre-promised next round
    out = [Send(msg.src, Voted(msg.key, pid, msg.ticket, msg.round, msg.value))]
    if msg.req_prev is not None:
        out.append(Send(msg.req_prev.pid, Learned(msg.key, pid, msg.req_prev)))
    return out, AcceptorState(r_ack, msg.value, msg.round, msg.req_cur)


@given(cells, rounds, req_ids, req_ids, st.booleans(), st.booleans())
def test_promise_and_vote_checks_match_round_compare(cell, rnd, req_cur, req_prev,
                                                     vote_below_promise, vote):
    mutations = frozenset({MUT_VOTE_BELOW_PROMISE}) if vote_below_promise else frozenset()
    a = make(mutations=mutations)
    if cell is not None:
        a.cells[KEY] = cell
    before = a.cell(KEY)
    src = 1001 if rnd.id is None else rnd.id
    if vote:
        msg = Vote(KEY, src, rnd, Value(b"v"), req_cur, req_prev, T)
        expected = reference_vote(a.pid, before, msg, vote_below_promise)
    else:
        msg = PaxosPrep(KEY, src, rnd, T)
        expected = reference_prepare_explicit(a.pid, before, msg)
    assert (a.handle(msg), a.cell(KEY)) == expected


@given(cells, st.integers(min_value=1000, max_value=1003),
       st.builds(Ticket, st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)))
def test_read_prepare_answers_from_the_cell_and_keeps_it(cell, src, ticket):
    """Any READ `Prepare` on any cell gets one `Ack` of the cell's fields,
    not incremented, and leaves `cells` holding the same cell object; a key
    never touched stays absent."""
    a = make()
    if cell is not None:
        a.cells[KEY] = cell
    state = a.cell(KEY)
    out = a.handle(Prepare(KEY, src, ReqKind.READ, ticket))
    assert out == [Send(src, Ack(KEY, a.pid, ticket, state.r_ack, state.val, state.r_voted,
                                 state.req, False))]
    assert a.cells.get(KEY) is cell
