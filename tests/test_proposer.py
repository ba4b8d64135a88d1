"""Proposer flows driven through a synchronous loopback network: effects
are applied immediately and in order, so each test controls exactly which
messages exist."""
import random
from collections import deque

from hypothesis import given, strategies as st

from rmwreg.acceptor import Acceptor, AcceptorState
from rmwreg.core import EMPTY, CommandError, Config, FnCommand, Mode, Round, Value
from rmwreg.kv import AddCmd, CasCmd, SetCmd, append_token, from_payload, to_payload
from rmwreg.core import ReqID
from rmwreg.messages import (
    Ack, Learned, Nack, PaxosPrep, Prepare, ReqKind, Status, Ticket, Vote, Voted,
)
from rmwreg.proposer import FastToken, Proposer, Reply, Send, SetTimer
from rmwreg.quorum import find_chosen_in_pool, find_empty_in_pool, quorum_size


class Loopback:
    def __init__(self, config, pid=1000, seed=0):
        self.config = config
        self.acceptors = {i: Acceptor(i, config) for i in range(config.n_acceptors)}
        self.proposer = Proposer(pid, config, random.Random(seed))
        self.replies = []
        self.sent = []
        self.timers = []
        self.queue = deque()
        self.silent = set()  # acceptors that receive nothing: messages to them are lost

    def _absorb(self, effects):
        for eff in effects:
            if isinstance(eff, Send):
                self.sent.append(eff)
                self.queue.append(eff)
            elif isinstance(eff, Reply):
                self.replies.append(eff)
            elif isinstance(eff, SetTimer):
                self.timers.append(eff)

    def deliver(self, send):
        """Hand `send`'s message to its destination and absorb the effects;
        a message to a silent acceptor is lost."""
        if send.dst in self.silent:
            return
        if send.dst in self.acceptors:
            self._absorb(self.acceptors[send.dst].handle(send.msg))
        else:
            self._absorb(self.proposer.on_message(send.msg))

    def pump(self):
        while self.queue:
            self.deliver(self.queue.popleft())

    def submit(self, key, kind, cmd=None, client=0, seq=0):
        self._absorb(self.proposer.submit(key, kind, cmd, client, seq))
        self.pump()

    def fire_timers(self):
        timers, self.timers = self.timers, []
        for t in timers:
            self._absorb(self.proposer.on_timer(t.token))
        self.pump()


def appender(token):
    return append_token(token)


def test_solo_write_then_read():
    net = Loopback(Config(n_acceptors=3, register_mode=Mode.RMW))
    net.submit(b"k", ReqKind.WRITE, appender("a"), seq=0)
    assert net.replies[-1].status is Status.DONE
    assert net.replies[-1].value == Value(b'["a"]')
    net.submit(b"k", ReqKind.READ, seq=1)
    assert net.replies[-1].status is Status.DONE
    assert net.replies[-1].value == Value(b'["a"]')


def test_read_on_fresh_register_is_empty():
    net = Loopback(Config(n_acceptors=3, register_mode=Mode.RMW))
    net.submit(b"k", ReqKind.READ)
    assert net.replies[-1].status is Status.EMPTY


def test_fast_write_skips_phase_one():
    net = Loopback(Config(n_acceptors=3, register_mode=Mode.RMW))
    net.submit(b"k", ReqKind.WRITE, appender("a"), seq=0)
    prepares_before = sum(isinstance(s.msg, (Prepare, PaxosPrep)) for s in net.sent)
    net.submit(b"k", ReqKind.WRITE, appender("b"), seq=1)
    prepares_after = sum(isinstance(s.msg, (Prepare, PaxosPrep)) for s in net.sent)
    assert prepares_after == prepares_before  # no phase 1 for the second write
    assert net.replies[-1].value == Value(b'["a","b"]')
    assert net.proposer.stats.fast_writes == 1


def test_noop_command_answered_without_protocol():
    net = Loopback(Config(n_acceptors=3, register_mode=Mode.RMW))
    net.submit(b"k", ReqKind.WRITE, SetCmd(5), seq=0)
    sent_before = len(net.sent)
    # cas-style no-op: command returns None on the current value
    net.submit(b"k", ReqKind.WRITE, FnCommand(lambda v: None), seq=1)
    assert net.replies[-1].status is Status.NOOP
    # one phase (vote) would add sends; a fast-write no-op adds none
    assert len(net.sent) == sent_before


def test_write_once_already_chosen():
    """The first write is chosen in 12 messages and leaves a fast-write
    token. Each later write is a no-op on the token's chosen base: it is
    answered without a message, DONE on the same literal, and keeps the
    token."""
    net = Loopback(Config(n_acceptors=3, register_mode=Mode.WRITE_ONCE))
    sent = []
    for seq, literal in enumerate(["first", "second", "first", "third"]):
        before = len(net.sent)
        net.submit(b"k", ReqKind.WRITE, SetCmd(literal), seq=seq)
        sent.append(len(net.sent) - before)
    assert sent == [12, 0, 0, 0]
    assert [r.status for r in net.replies] == [
        Status.DONE, Status.ALREADY_CHOSEN, Status.DONE, Status.ALREADY_CHOSEN]
    assert {r.value for r in net.replies} == {Value(b'"first"')}
    assert net.proposer.stats.fast_writes == 0


def test_rmw_fast_write_that_proposes_nothing_uses_up_its_token():
    """An RMW token's base may be stale: here another proposer sets 7 after
    the token was granted on 0. A cas(7 -> 8) is a no-op on the token's 0,
    sends nothing and uses the token up, so the same cas again runs phase 1,
    meets 7 and is chosen."""
    net = Loopback(Config(n_acceptors=3, register_mode=Mode.RMW))
    net.submit(b"k", ReqKind.WRITE, SetCmd(0), seq=0)
    for a in net.acceptors.values():
        a.handle(PaxosPrep(b"k", 2000, Round(9, 2000), Ticket(0, 0)))
        a.handle(Vote(b"k", 2000, Round(9, 2000), Value(b"7"), None, None, Ticket(0, 0)))
    before = len(net.sent)
    net.submit(b"k", ReqKind.WRITE, CasCmd(7, 8), seq=1)
    assert len(net.sent) == before and b"k" not in net.proposer.fast
    assert net.proposer.stats.fast_writes == 1
    net.submit(b"k", ReqKind.WRITE, CasCmd(7, 8), seq=2)
    assert any(isinstance(s.msg, Prepare) for s in net.sent[before:])
    assert net.replies[-1].status is Status.DONE and net.replies[-1].value == Value(b"8")
    assert {a.cell(b"k").val for a in net.acceptors.values()} == {Value(b"8")}


def test_write_once_noop_guard():
    net = Loopback(Config(n_acceptors=3, register_mode=Mode.WRITE_ONCE))
    net.submit(b"k", ReqKind.WRITE, FnCommand(lambda v: None), seq=0)
    assert net.replies[-1].status is Status.NOOP
    assert net.sent == []


def test_nack_triggers_explicit_round_retry():
    cfg = Config(n_acceptors=3, register_mode=Mode.RMW)
    net = Loopback(cfg)
    # Another proposer steals the promise between phases by raising r_ack.
    net._absorb(net.proposer.submit(b"k", ReqKind.WRITE, appender("a"), 0, 0))
    # Deliver prepares and their acks, but hold the resulting votes.
    while net.queue and not isinstance(net.queue[0].msg, Vote):
        net.deliver(net.queue.popleft())
    for a in net.acceptors.values():
        a.handle(PaxosPrep(b"k", 2000, Round(9, 2000), Ticket(0, 0)))
    net.pump()  # held votes are now stale and get nacked
    net.fire_timers()  # nack defers the retry behind a backoff timer
    # The proposer's vote got nacked; it must have retried with an explicit
    # round above 9 and finished.
    assert net.replies and net.replies[-1].status is Status.DONE
    explicit = [s.msg for s in net.sent if isinstance(s.msg, PaxosPrep)]
    assert explicit and all(p.round.n > 9 for p in explicit)


# Few round numbers and ids, so ties and foreign rounds are common.
retry_rounds = st.builds(Round, st.integers(min_value=0, max_value=6),
                         st.sampled_from([None, 0, 1, 1000, 1001]))


@given(st.lists(st.tuples(retry_rounds, retry_rounds), max_size=2), retry_rounds,
       st.one_of(st.none(), retry_rounds))
def test_explicit_retry_round_tops_every_round_seen(acks, nack_round, own_round):
    """A write that is nacked retries, after its backoff, in round
    (n + 1, pid), where n is the highest round number the instance saw in an
    Ack (`r_ack` and `r_voted`) or Nack, or proposed in itself. An instance
    that proposed at once (`own_round`, a fast write) already left phase 1,
    so the Acks it gets are stale and do not count."""
    pid = 1000
    p = Proposer(pid, Config(n_acceptors=5, register_mode=Mode.RMW), random.Random(0))
    if own_round is not None:
        p.fast[b"k"] = FastToken(own_round, EMPTY, None)
    [msg, *_] = [e.msg for e in p.submit(b"k", ReqKind.WRITE, SetCmd(1), 0, 0)
                 if isinstance(e, Send)]
    assert type(msg) is (Prepare if own_round is None else Vote)
    ticket = msg.ticket
    seen = [nack_round.n]
    for src, (r_ack, r_voted) in enumerate(acks):  # fewer than a quorum of 3
        assert p.on_message(Ack(b"k", src, ticket, r_ack, EMPTY, r_voted, None, True)) == []
        if own_round is None:
            seen += [r_ack.n, r_voted.n]
    if own_round is not None:
        seen.append(own_round.n)
    [timer] = p.on_message(Nack(b"k", 4, ticket, nack_round))
    expected = Round(max(seen) + 1, pid)
    assert timer.token == ("retry", ticket.request, ticket.instance + 1, expected)
    prep = PaxosPrep(b"k", pid, expected, Ticket(ticket.request, ticket.instance + 1))
    assert [e.msg for e in p.on_timer(timer.token) if isinstance(e, Send)] == [prep] * 5


def test_read_escalates_after_retry_budget():
    cfg = Config(n_acceptors=3, register_mode=Mode.RMW, read_retry_limit=1)
    net = Loopback(cfg)
    net.submit(b"k", ReqKind.WRITE, appender("a"), seq=0)
    # Poison one acceptor so phase-1 replies never agree: acceptor 0 holds a
    # higher promise from a phantom writer that never proposes.

    net.acceptors[0].handle(Prepare(b"k", 2000, ReqKind.WRITE, Ticket(0, 0)))
    net.submit(b"k", ReqKind.READ, seq=1)
    # The pooled votes still form a consistent quorum (acceptors 1 and 2
    # agree), so the read finishes without escalation.
    assert net.replies[-1].status is Status.DONE
    assert net.proposer.stats.write_throughs == 0


def test_read_write_through_consolidates_partial_write():
    cfg = Config(n_acceptors=3, register_mode=Mode.RMW, read_retry_limit=0)
    net = Loopback(cfg)

    # Two phantom writers each got a single vote in: no value is chosen and
    # no unvoted quorum exists, so the read cannot settle from replies alone.
    net.acceptors[0].handle(Prepare(b"k", 2000, ReqKind.WRITE, Ticket(0, 0)))
    net.acceptors[0].handle(
        Vote(b"k", 2000, Round(1, 2000), Value(b'["x"]'), None, None, Ticket(0, 0)))
    net.acceptors[1].handle(Prepare(b"k", 2001, ReqKind.WRITE, Ticket(0, 0)))
    net.acceptors[1].handle(Prepare(b"k", 2001, ReqKind.WRITE, Ticket(0, 0)))
    net.acceptors[1].handle(
        Vote(b"k", 2001, Round(2, 2001), Value(b'["x","y"]'), None, None, Ticket(0, 0)))
    net.submit(b"k", ReqKind.READ, seq=0)
    for _ in range(5):  # escalation may route retries through backoff timers
        if net.replies:
            break
        net.fire_timers()
    # The read escalated and wrote through the newest partial value.
    assert net.replies[-1].status is Status.DONE
    assert net.replies[-1].value == Value(b'["x","y"]')
    assert net.proposer.stats.write_throughs == 1
    voted = {a.cell(b"k").val for a in net.acceptors.values()}
    assert voted == {Value(b'["x","y"]')}


def _split_vote(net):
    """After ["a"] is chosen on every acceptor, acceptor 0 alone votes a
    phantom writer's ["a","x"] in a higher round: a read's first two replies
    disagree, and the other two form a consistent quorum for ["a"]."""
    net.submit(b"k", ReqKind.WRITE, appender("a"), seq=0)
    net.acceptors[0].handle(Prepare(b"k", 2000, ReqKind.WRITE, Ticket(0, 0)))
    phantom = net.acceptors[0].cell(b"k").r_ack
    net.acceptors[0].handle(
        Vote(b"k", 2000, phantom, Value(b'["a","x"]'), None, None, Ticket(0, 0)))


def _prepares(net):
    return sum(isinstance(s.msg, Prepare) for s in net.sent)


def test_read_finishes_on_the_late_reply_of_its_first_attempt():
    net = Loopback(Config(n_acceptors=3, register_mode=Mode.RMW))
    _split_vote(net)
    prepares = _prepares(net)
    net.submit(b"k", ReqKind.READ, seq=1)
    assert (net.replies[-1].status, net.replies[-1].value) == (Status.DONE, Value(b'["a"]'))
    assert _prepares(net) - prepares == 3  # one broadcast, no retry
    assert net.proposer.stats.read_retries == 0


def test_read_with_a_silent_acceptor_retries_when_its_timer_fires():
    net = Loopback(Config(n_acceptors=3, register_mode=Mode.RMW, read_retry_limit=1))
    _split_vote(net)
    net.silent.add(2)
    prepares = _prepares(net)
    net.submit(b"k", ReqKind.READ, seq=1)
    # A disagreeing quorum is in and the third reply never comes: the read
    # waits for its timer instead of broadcasting again.
    assert len(net.replies) == 1 and _prepares(net) - prepares == 3
    stats = net.proposer.stats
    assert (stats.read_retries, stats.restarts) == (0, 0)
    net.fire_timers()
    assert len(net.replies) == 1 and _prepares(net) - prepares == 6
    assert (stats.read_retries, stats.restarts, stats.read_escalations) == (1, 0, 0)
    for _ in range(5):  # the budget is spent: escalate and write through
        if len(net.replies) > 1:
            break
        net.fire_timers()
    assert (net.replies[-1].status, net.replies[-1].value) == (Status.DONE, Value(b'["a","x"]'))
    assert (stats.read_retries, stats.restarts, stats.read_escalations) == (1, 0, 1)
    assert stats.write_throughs == 1


def test_escalated_read_on_a_never_voted_quorum_answers_empty():
    """Acceptors 0 and 1 each hold a phantom vote, so the first attempt's
    quorum (0, 1, 2) is neither chosen nor empty. The escalated attempt then
    hears only never-voted acceptors: nothing was chosen, and the read
    answers EMPTY without proposing."""
    net = Loopback(Config(n_acceptors=5, register_mode=Mode.RMW, read_retry_limit=0))
    for a, (r_voted, val) in zip(net.acceptors.values(), (
            (Round(1, 2000), Value(b'["x"]')), (Round(2, 2001), Value(b'["y"]')))):
        a.cells[b"k"] = AcceptorState(r_voted, val, r_voted, None)
    net.silent = {3, 4}
    net.submit(b"k", ReqKind.READ, seq=0)
    assert net.replies == []
    net.silent = {0, 1}
    net.fire_timers()
    assert [(r.status, r.value) for r in net.replies] == [(Status.EMPTY, EMPTY)]
    assert net.proposer.stats.read_escalations == 1
    assert not [s for s in net.sent if isinstance(s.msg, Vote)]


# Votes an acceptor may hold: one value per round, as the protocol keeps it.
VOTES = (
    (Round(1, 1000), Value(b'"a"'), None),
    (Round(2, 1001), Value(b'"b"'), ReqID(1001, 0)),
    (Round(3, 1000), Value(b'"c"'), None),
)


def acceptors_holding(config, cells):
    """One acceptor per cell, holding the cell's vote (None: never voted)
    under the promise its vote left."""
    acceptors = [Acceptor(i, config) for i in range(config.n_acceptors)]
    for a, vote in zip(acceptors, cells):
        if vote is not None:
            r_voted, val, req = vote
            a.cells[b"k"] = AcceptorState(Round(r_voted.n + 1, r_voted.id), val, r_voted, req)
    return acceptors


@st.composite
def read_cases(draw):
    n = draw(st.sampled_from([3, 5]))
    cells = draw(st.lists(st.sampled_from((None,) + VOTES), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    heard = draw(st.integers(0, n))  # replies that arrive before the timer fires
    return n, cells, order, heard


@given(read_cases())
def test_read_outcome_follows_the_pool_and_waits_for_the_attempt(case):
    """Whatever the acceptors hold and whatever order their replies take,
    a read answers exactly when the replies it has seen hold a consistent
    quorum, with what `find_chosen_in_pool`/`find_empty_in_pool` find in
    them, and broadcasts again only once all N replies are in or its timer
    fires."""
    n, cells, order, heard = case
    config = Config(n_acceptors=n, register_mode=Mode.SEQUENCE)
    acceptors = acceptors_holding(config, cells)
    p = Proposer(1000, config, random.Random(0))
    q = quorum_size(n)
    effects = p.submit(b"k", ReqKind.READ, None, 0, 0)
    prepares = [e for e in effects if isinstance(e, Send)]
    [timer] = [e for e in effects if isinstance(e, SetTimer)]
    assert sorted(e.dst for e in prepares) == list(range(n))
    seen = []
    for i in order[:heard]:
        [sent] = acceptors[i].handle(prepares[0].msg)
        ack = sent.msg
        seen.append(ack)
        effects = p.on_message(ack)
        chosen = find_chosen_in_pool(seen, q)
        if chosen is not None:
            assert effects == [Reply(0, Status.DONE, chosen[0], 0)]
            return
        if find_empty_in_pool(seen, q):
            assert effects == [Reply(0, Status.EMPTY, EMPTY, 0)]
            return
        if len(seen) < n:
            assert effects == []
        else:  # the whole attempt disagrees: retry at once
            assert sorted(e.dst for e in effects if isinstance(e, Send)) == list(range(n))
            assert p.stats.read_retries == 1
            return
    effects = p.on_timer(timer.token)
    assert sorted(e.dst for e in effects if isinstance(e, Send)) == list(range(n))
    retried = heard >= q
    assert (p.stats.read_retries, p.stats.restarts) == (int(retried), int(not retried))


@st.composite
def contended_cells(draw):
    """Acceptor cells that hold neither a quorum of one vote nor a quorum
    that never voted."""
    n = draw(st.sampled_from([3, 5]))
    q = quorum_size(n)
    cells = draw(st.lists(st.sampled_from((None,) + VOTES), min_size=n, max_size=n)
                 .filter(lambda cs: all(cs.count(c) < q for c in (None,) + VOTES)))
    return n, cells


@given(contended_cells(), st.data())
def test_read_across_attempts_answers_from_every_reply_delivered(case, data):
    """Without a consistent quorum to find, a read retries once and then
    escalates, whatever order its messages take and whenever its timers fire,
    so replies of earlier attempts land late, out of instance. Each time the
    read judges its pool (every reply but the current instance's of an
    escalated read), it answers exactly when the replies delivered so far
    hold a consistent quorum, with what `find_chosen_in_pool`/
    `find_empty_in_pool` find in them. It answers once."""
    n, cells = case
    config = Config(n_acceptors=n, register_mode=Mode.SEQUENCE, read_retry_limit=1)
    acceptors = acceptors_holding(config, cells)
    p = Proposer(1000, config, random.Random(0))
    q = quorum_size(n)
    in_flight, timers, answers, seen = [], [], [], []

    def absorb(effects):
        for e in effects:
            if isinstance(e, Send):
                in_flight.append(e)
            elif isinstance(e, SetTimer):
                timers.append(e.token)
            else:
                answers.append(e)

    def deliver(send):
        msg = send.msg
        if send.dst < n:
            absorb(acceptors[send.dst].handle(msg))
            return
        req = p.requests.get(0)
        if req is None or type(msg) is not Ack:
            absorb(p.on_message(msg))
            return
        judged = (msg.ticket.instance != req.instance or req.proposal is not None
                  or not req.escalated)
        seen.append(msg)
        effects = p.on_message(msg)
        absorb(effects)
        if not judged:
            return
        replies = [e for e in effects if isinstance(e, Reply)]
        chosen = find_chosen_in_pool(seen, q)
        if chosen is not None:
            assert replies == [Reply(0, Status.DONE, chosen[0], 0)]
        elif find_empty_in_pool(seen, q):
            assert replies == [Reply(0, Status.EMPTY, EMPTY, 0)]
        else:
            assert replies == []

    absorb(p.submit(b"k", ReqKind.READ, None, 0, 0))
    for step in range(400):
        live = [t for t in timers if p.timer_live(t)]
        if not in_flight and not live:
            break
        if step < 60:  # any message or timer next
            pick = data.draw(st.integers(0, len(in_flight) + len(live) - 1))
        else:  # then drain: every message in order, a timer when none is left
            pick = 0
        if pick < len(in_flight):
            deliver(in_flight.pop(pick))
        else:
            token = live[pick - len(in_flight)]
            timers.remove(token)
            absorb(p.on_timer(token))
    assert len(answers) == 1 and answers[0].status is Status.DONE
    assert (p.stats.read_retries, p.stats.read_escalations) == (1, 1)


def test_timer_restart_completes_after_total_loss():
    cfg = Config(n_acceptors=3, register_mode=Mode.RMW)
    net = Loopback(cfg)
    net._absorb(net.proposer.submit(b"k", ReqKind.WRITE, appender("a"), 0, 0))
    net.queue.clear()  # every prepare lost
    assert not net.replies
    net.fire_timers()  # restart delivers normally
    assert net.replies[-1].status is Status.DONE


def test_batched_writes_form_one_proposal():
    cfg = Config(n_acceptors=3, register_mode=Mode.RMW, batch_interval=5)
    net = Loopback(cfg)
    for i in range(4):
        net._absorb(net.proposer.submit(b"k", ReqKind.WRITE, AddCmd(1), i, 0))
    assert net.queue == deque()  # nothing sent until the flush timer
    net.fire_timers()
    votes = [s.msg for s in net.sent if isinstance(s.msg, Vote)]
    assert len(votes) == 3  # one proposal broadcast to three acceptors
    assert len(net.replies) == 4
    assert all(r.status is Status.DONE for r in net.replies)
    assert net.replies[-1].value == Value(b"4")


def test_batched_reads_share_one_quorum():
    cfg = Config(n_acceptors=3, register_mode=Mode.RMW, batch_interval=5)
    net = Loopback(cfg)
    net._absorb(net.proposer.submit(b"k", ReqKind.WRITE, SetCmd(1), 0, 0))
    net.fire_timers()
    sent_before = len(net.sent)
    for i in range(5):
        net._absorb(net.proposer.submit(b"k", ReqKind.READ, None, 10 + i, 0))
    net.fire_timers()
    reads = [r for r in net.replies if r.client >= 10]
    assert len(reads) == 5
    assert {r.value for r in reads} == {Value(b"1")}
    assert len(net.sent) - sent_before == 6  # one prepare + one ack per acceptor


def test_batched_command_answered_noop_is_never_applied():
    """A batch of [B: cas(7 -> 8), A: add(1)] meets 0, so B is answered
    NOOP. Another proposer sets 7 before the batch's votes land, and the
    batch retries on 7: B's cas must stay out of it, or B's command takes
    effect after B was told it did not."""
    net = Loopback(Config(n_acceptors=3, register_mode=Mode.RMW, batch_interval=5))
    net._absorb(net.proposer.submit(b"k", ReqKind.WRITE, SetCmd(0), 0, 0))
    net.fire_timers()
    net.timers.clear()  # the request timer of the finished write
    net._absorb(net.proposer.submit(b"k", ReqKind.WRITE, CasCmd(7, 8), 1, 0))
    net._absorb(net.proposer.submit(b"k", ReqKind.WRITE, AddCmd(1), 2, 0))
    (batch,) = net.timers
    net.timers.clear()
    net._absorb(net.proposer.on_timer(batch.token))  # a fast write on 0; votes held
    assert [(r.client, r.status, r.value) for r in net.replies[1:]] == [
        (1, Status.NOOP, Value(b"0"))]
    for a in net.acceptors.values():
        a.handle(PaxosPrep(b"k", 2000, Round(9, 2000), Ticket(0, 0)))
        a.handle(Vote(b"k", 2000, Round(9, 2000), Value(b"7"), None, None, Ticket(0, 0)))
    net.pump()  # the held votes are nacked
    for _ in range(5):
        if len(net.replies) > 2:
            break
        net.fire_timers()
    assert [(r.client, r.status, r.value) for r in net.replies[1:]] == [
        (1, Status.NOOP, Value(b"0")), (2, Status.DONE, Value(b"8"))]
    assert {a.cell(b"k").val for a in net.acceptors.values()} == {Value(b"8")}


def test_batched_noop_is_answered_on_a_value_the_register_held():
    """A batch of [A: add(1), B: cas(0 -> 5)] on 0 proposes 1, and B's cas
    meets 1, which nothing has chosen. Another proposer sets 7 before the
    batch's votes land, and the batch retries on 7: the register goes
    0 -> 7 -> 8 and never holds 1, so B hears NOOP with 8, once A's value
    is chosen."""
    net = Loopback(Config(n_acceptors=3, register_mode=Mode.RMW, batch_interval=5))
    net._absorb(net.proposer.submit(b"k", ReqKind.WRITE, SetCmd(0), 0, 0))
    net.fire_timers()
    net.timers.clear()  # the request timer of the finished write
    net._absorb(net.proposer.submit(b"k", ReqKind.WRITE, AddCmd(1), 1, 0))
    net._absorb(net.proposer.submit(b"k", ReqKind.WRITE, CasCmd(0, 5), 2, 0))
    (batch,) = net.timers
    net.timers.clear()
    net._absorb(net.proposer.on_timer(batch.token))  # a fast write on 0; votes held
    assert len(net.replies) == 1
    for a in net.acceptors.values():
        a.handle(PaxosPrep(b"k", 2000, Round(9, 2000), Ticket(0, 0)))
        a.handle(Vote(b"k", 2000, Round(9, 2000), Value(b"7"), None, None, Ticket(0, 0)))
    net.pump()  # the held votes are nacked
    for _ in range(5):
        if len(net.replies) > 1:
            break
        net.fire_timers()
    assert [(r.client, r.status, r.value) for r in net.replies[1:]] == [
        (1, Status.DONE, Value(b"8")), (2, Status.NOOP, Value(b"8"))]
    assert {a.cell(b"k").val for a in net.acceptors.values()} == {Value(b"8")}


class Cluster:
    """Three acceptors and two batching proposers on reliable FIFO links.
    Each message waits in its (src, dst) link; `rng` picks the link that
    delivers next, and now and then a pending timer instead, any timer
    once no message is in flight. A message is lost with probability
    `loss`."""

    PROPOSERS = (1000, 1001)

    def __init__(self, rng, loss, mode=Mode.RMW):
        config = Config(n_acceptors=3, register_mode=mode, batch_interval=5)
        self.acceptors = {i: Acceptor(i, config) for i in range(3)}
        self.proposers = {pid: Proposer(pid, config, random.Random(pid))
                          for pid in self.PROPOSERS}
        self.rng = rng
        self.loss = loss
        self.links = {}
        self.timers = []
        self.replies = []

    def absorb(self, pid, effects):
        for eff in effects:
            if isinstance(eff, Send):
                if self.rng.random() >= self.loss:
                    self.links.setdefault((pid, eff.dst), deque()).append(eff.msg)
            elif isinstance(eff, Reply):
                self.replies.append(eff)
            else:
                self.timers.append((pid, eff.token))

    def step(self) -> bool:
        """Deliver one message or fire one timer; False once nothing is pending."""
        busy = [link for link, queue in self.links.items() if queue]
        if self.timers and (not busy or self.rng.random() < 0.05):
            pid, token = self.timers.pop(self.rng.randrange(len(self.timers)))
            self.absorb(pid, self.proposers[pid].on_timer(token))
        elif busy:
            link = busy[self.rng.randrange(len(busy))]
            msg = self.links[link].popleft()
            dst = link[1]
            if dst in self.acceptors:
                self.absorb(dst, self.acceptors[dst].handle(msg))
            else:
                self.absorb(dst, self.proposers[dst].on_message(msg))
        else:
            return False
        return True

    def chosen(self) -> Value:
        """The newest value a quorum of acceptors voted, EMPTY if none."""
        acks = [a.handle(Prepare(b"k", 0, ReqKind.READ, Ticket(0, 0)))[0].msg
                for a in self.acceptors.values()]
        found = find_chosen_in_pool(acks, quorum_size(3))
        return EMPTY if found is None else found[0]


def guarded_append(token, salt):
    """Append `token` to the list it meets, unless the list's length says
    otherwise: then it is a no-op, or it fails."""

    def apply(value):
        items = from_payload(value) or []
        rule = (len(items) + salt) % 4
        if rule == 0:
            return None
        if rule == 1:
            raise CommandError(f"{token} refuses {len(items)} items")
        return to_payload(items + [token])

    return FnCommand(apply, token)


def run_batches(commands, seed, loss, mode, token):
    """Submit `commands`, (proposer, salt) pairs, as `guarded_append`s of
    `token(i, salt)` with client `i % 3` and client seq `i`, interleaved at
    random with the cluster's deliveries until nothing is pending. Checks
    that each client is answered at most once, and exactly once when no
    message is lost; returns the cluster."""
    rng = random.Random(seed)
    net = Cluster(rng, loss, mode)
    pending = list(enumerate(commands))
    for _ in range(5000):
        if pending and rng.random() < 0.3:
            i, (pid, salt) = pending.pop(0)
            cmd = guarded_append(token(i, salt), salt)
            net.absorb(pid, net.proposers[pid].submit(b"k", ReqKind.WRITE, cmd, i % 3, i))
        elif not net.step() and not pending:
            break
    answered = [(r.client, r.client_seq) for r in net.replies]
    assert len(answered) == len(set(answered))
    if not loss:
        assert sorted(seq for _, seq in answered) == list(range(len(commands)))
    return net


batches = st.lists(st.tuples(st.sampled_from(Cluster.PROPOSERS), st.integers(0, 3)),
                   min_size=1, max_size=6)


@given(commands=batches, seed=st.integers(0, 2**32 - 1), loss=st.sampled_from([0.0, 0.1]))
def test_batched_clients_are_answered_once_and_applied_as_answered(commands, seed, loss):
    """Any RMW batches on two proposers, in any delivery order: each client
    is answered at most once, and exactly once when no message is lost.
    Then a command answered NOOP or ERROR left no trace in the final value,
    and one answered DONE appears in it exactly once; a NOOP's value, the
    one its command met, is a prefix of the final value."""
    net = run_batches(commands, seed, loss, Mode.RMW, lambda i, salt: f"t{i}")
    if loss:
        return
    final = net.chosen()
    items = from_payload(final) or []
    for r in net.replies:
        count = items.count(f"t{r.client_seq}")
        assert count == (1 if r.status is Status.DONE else 0), (r, final)
        if r.status is Status.NOOP:  # met a value the register held: a prefix
            met = from_payload(r.value) or []
            assert items[:len(met)] == met, (r, final)


@given(commands=batches, seed=st.integers(0, 2**32 - 1), loss=st.sampled_from([0.0, 0.1]))
def test_batched_write_once_writers_hear_the_chosen_literal(commands, seed, loss):
    """The write-once case of the property above. A writer's literal is one
    of two shared ones, or none, or its command fails. Each client is
    answered at most once, and when no message is lost exactly once: one
    literal is chosen if any was written, and each writer of a literal hears
    DONE exactly when its literal is the chosen one, ALREADY_CHOSEN
    otherwise, with the chosen value."""
    net = run_batches(commands, seed, loss, Mode.WRITE_ONCE, lambda i, salt: f"t{salt}")
    if loss:
        return
    final = net.chosen()
    # On the empty register salt 0 is a no-op and salt 1 fails; 2 and 3 are literals.
    literals = {to_payload([f"t{salt}"]) for _, salt in commands if salt >= 2}
    assert final in (literals or {EMPTY})
    for r in net.replies:
        salt = commands[r.client_seq][1]
        if salt < 2:
            assert r.status is (Status.NOOP if salt == 0 else Status.ERROR), r
            continue
        own = to_payload([f"t{salt}"]) == final
        assert (r.status, r.value) == (
            Status.DONE if own else Status.ALREADY_CHOSEN, final), (r, final)


def test_exactly_once_dedup_via_learned():
    """If the proposer already holds a LEARNED for its request, a retry must
    not re-propose the command."""
    cfg = Config(n_acceptors=3, register_mode=Mode.RMW)
    net = Loopback(cfg)
    net._absorb(net.proposer.submit(b"k", ReqKind.WRITE, appender("a"), 0, 0))
    net.pump()
    assert net.replies[-1].value == Value(b'["a"]')
    net._absorb(net.proposer.submit(b"k", ReqKind.WRITE, appender("b"), 0, 1))
    # Deliver the votes so the value is chosen at the acceptors, but drop
    # every reply: the proposer never hears about it directly.
    for eff in list(net.queue):
        if isinstance(eff.msg, Vote):
            net.acceptors[eff.dst].handle(eff.msg)
    net.queue.clear()


    reqid = net.proposer.requests[1].reqid
    net._absorb(net.proposer.on_message(Learned(b"k", 0, reqid)))
    net.fire_timers()  # restart: sees chosen value, must dedup
    assert net.replies[-1].status is Status.DONE
    final = net.replies[-1].value
    assert final == Value(b'["a","b"]')  # applied once, not twice


def test_finished_requests_are_evicted():
    net = Loopback(Config(n_acceptors=3, register_mode=Mode.RMW))
    net.submit(b"k", ReqKind.WRITE, appender("a"), seq=0)
    net.submit(b"k", ReqKind.READ, seq=1)
    assert [r.status for r in net.replies] == [Status.DONE, Status.DONE]
    assert net.proposer.requests == {}
    assert net.proposer.open_writes == {}


def test_late_messages_for_an_evicted_request_do_nothing():
    net = Loopback(Config(n_acceptors=3, register_mode=Mode.RMW))
    net.submit(b"k", ReqKind.WRITE, appender("a"), seq=0)
    net.submit(b"k", ReqKind.WRITE, appender("b"), seq=1)
    assert net.proposer.requests == {}
    to_proposer = [s.msg for s in net.sent if s.dst == net.proposer.pid]
    assert {type(m) for m in to_proposer} >= {Ack, Voted}
    for msg in to_proposer + [Learned(b"k", 0, ReqID(net.proposer.pid, 0)),
                              Learned(b"k", 1, ReqID(net.proposer.pid, 1))]:
        assert net.proposer.on_message(msg) == []
    for timer in net.timers:
        assert net.proposer.on_timer(timer.token) == []


def test_write_abandoned_on_recover_is_evicted():
    net = Loopback(Config(n_acceptors=3, register_mode=Mode.RMW))
    net._absorb(net.proposer.submit(b"k", ReqKind.WRITE, appender("a"), 0, 0))
    while net.queue and not isinstance(net.queue[0].msg, Vote):  # phase 1 only
        net.deliver(net.queue.popleft())
    assert net.queue and net.proposer.requests[0].proposed
    net.queue.clear()  # the votes are lost in the crash
    assert net.proposer.on_recover() == []
    assert net.proposer.requests == {}
    assert net.proposer.open_writes == {}
    assert net.proposer.on_message(Learned(b"k", 0, ReqID(net.proposer.pid, 0))) == []
    net.fire_timers()
    assert net.replies == [] and net.queue == deque()



def test_timer_live_only_for_the_current_instance_of_an_open_request():
    net = Loopback(Config(n_acceptors=3, register_mode=Mode.RMW))
    net._absorb(net.proposer.submit(b"k", ReqKind.WRITE, appender("a"), 0, 0))
    net.queue.clear()  # every prepare lost
    (first,) = [t.token for t in net.timers]
    net.timers.clear()
    assert net.proposer.timer_live(first)
    assert net.proposer.timer_live(("retry",) + first[1:])
    net._absorb(net.proposer.on_timer(first))  # restart on the next instance
    (second,) = [t.token for t in net.timers]
    assert second[1:] == (first[1], first[2] + 1)
    assert not net.proposer.timer_live(first)
    assert net.proposer.timer_live(second)
    assert net.proposer.on_timer(first) == []
    net.pump()  # the restarted instance completes
    assert net.replies[-1].status is Status.DONE
    assert not net.proposer.timer_live(second)
    assert net.proposer.timer_live(("batch",))


def test_command_that_fails_to_apply_gets_one_error_reply():
    """A failed command is answered like a no-op, with ERROR and the
    command's message, and leaves the register as it was."""
    net = Loopback(Config(n_acceptors=3, register_mode=Mode.RMW))
    net.submit(b"k", ReqKind.WRITE, SetCmd("abc"), seq=0)
    net.submit(b"k", ReqKind.WRITE, AddCmd(1), seq=1)
    assert [(r.status, r.client_seq) for r in net.replies] == [(Status.DONE, 0), (Status.ERROR, 1)]
    assert net.replies[1].value == Value(b"add requires a numeric register")
    assert not net.proposer.requests
    net.fire_timers()
    net.submit(b"k", ReqKind.READ, seq=2)
    assert len(net.replies) == 3
    assert (net.replies[2].status, net.replies[2].value) == (Status.DONE, Value(b'"abc"'))


def test_write_once_command_that_fails_gets_an_error_reply():
    def fail(value):
        raise CommandError("no literal")

    net = Loopback(Config(n_acceptors=3, register_mode=Mode.WRITE_ONCE))
    net.submit(b"k", ReqKind.WRITE, FnCommand(fail), seq=0)
    assert [(r.status, r.value) for r in net.replies] == [(Status.ERROR, Value(b"no literal"))]
    assert not net.sent
