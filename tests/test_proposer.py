"""Proposer flows driven through a synchronous loopback network: effects
are applied immediately and in order, so each test controls exactly which
messages exist."""
import random
from collections import deque

import pytest
from hypothesis import given, strategies as st

from rmwreg.acceptor import Acceptor, AcceptorState
from rmwreg.core import EMPTY, CommandError, Config, FnCommand, Mode, Round, Value
from rmwreg.kv import AddCmd, SetCmd, append_token
from rmwreg.core import ReqID
from rmwreg.messages import Ack, Learned, PaxosPrep, Prepare, ReqKind, Status, Ticket, Vote, Voted
from rmwreg.proposer import Proposer, Reply, Send, SetTimer
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

    def pump(self):
        while self.queue:
            eff = self.queue.popleft()
            if eff.dst in self.silent:
                continue
            if eff.dst in self.acceptors:
                for dst, out in self.acceptors[eff.dst].handle(eff.msg):
                    self._absorb([Send(dst, out)])
            else:
                self._absorb(self.proposer.on_message(eff.msg))

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


def test_no_fast_write_when_disabled():
    net = Loopback(Config(n_acceptors=3, register_mode=Mode.RMW, fast_writes=False))
    net.submit(b"k", ReqKind.WRITE, appender("a"), seq=0)
    net.submit(b"k", ReqKind.WRITE, appender("b"), seq=1)
    assert net.proposer.stats.fast_writes == 0
    assert net.replies[-1].value == Value(b'["a","b"]')


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
    cfg = Config(n_acceptors=3, register_mode=Mode.WRITE_ONCE)
    net = Loopback(cfg)
    net.submit(b"k", ReqKind.WRITE, SetCmd("first"), seq=0)
    assert net.replies[-1].status is Status.DONE
    net.submit(b"k", ReqKind.WRITE, SetCmd("second"), seq=1)
    assert net.replies[-1].status is Status.ALREADY_CHOSEN
    assert net.replies[-1].value == Value(b'"first"')
    # same literal as the chosen one reports DONE
    net.submit(b"k", ReqKind.WRITE, SetCmd("first"), seq=2)
    assert net.replies[-1].status is Status.DONE


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
    while net.queue and isinstance(net.queue[0].msg, Prepare):
        eff = net.queue.popleft()
        for dst, out in net.acceptors[eff.dst].handle(eff.msg):
            net._absorb([Send(dst, out)])
    while net.queue and not isinstance(net.queue[0].msg, Vote):
        net._absorb(net.proposer.on_message(net.queue.popleft().msg))
    for a in net.acceptors.values():
        a.handle(PaxosPrep(b"k", 2000, Round(9, 2000), Ticket(0, 0)))
    net.pump()  # held votes are now stale and get nacked
    net.fire_timers()  # nack defers the retry behind a backoff timer
    # The proposer's vote got nacked; it must have retried with an explicit
    # round above 9 and finished.
    assert net.replies and net.replies[-1].status is Status.DONE
    explicit = [s.msg for s in net.sent if isinstance(s.msg, PaxosPrep)]
    assert explicit and all(p.round.n > 9 for p in explicit)


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


# Votes an acceptor may hold: one value per round, as the protocol keeps it.
VOTES = (
    (Round(1, 1000), Value(b'"a"'), None),
    (Round(2, 1001), Value(b'"b"'), ReqID(1001, 0)),
    (Round(3, 1000), Value(b'"c"'), None),
)


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
    acceptors = [Acceptor(i, config) for i in range(n)]
    for a, vote in zip(acceptors, cells):
        if vote is not None:
            r_voted, val, req = vote
            a.cells[b"k"] = AcceptorState(Round(r_voted.n + 1, r_voted.id), val, r_voted, req)
    p = Proposer(1000, config, random.Random(0))
    q = quorum_size(n)
    effects = p.submit(b"k", ReqKind.READ, None, 0, 0)
    prepares = [e for e in effects if isinstance(e, Send)]
    [timer] = [e for e in effects if isinstance(e, SetTimer)]
    assert sorted(e.dst for e in prepares) == list(range(n))
    seen = []
    for i in order[:heard]:
        [(_, ack)] = acceptors[i].handle(prepares[0].msg)
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
    assert net.proposer.learned == {}


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
    assert net.proposer.learned == {}


def test_write_abandoned_on_recover_is_evicted():
    net = Loopback(Config(n_acceptors=3, register_mode=Mode.RMW))
    net._absorb(net.proposer.submit(b"k", ReqKind.WRITE, appender("a"), 0, 0))
    while net.queue and not isinstance(net.queue[0].msg, Vote):  # phase 1 only
        eff = net.queue.popleft()
        if eff.dst in net.acceptors:
            for dst, out in net.acceptors[eff.dst].handle(eff.msg):
                net._absorb([Send(dst, out)])
        else:
            net._absorb(net.proposer.on_message(eff.msg))
    assert net.queue and net.proposer.requests[0].proposed
    net.queue.clear()  # the votes are lost in the crash
    assert net.proposer.on_recover() == []
    assert net.proposer.requests == {}
    assert net.proposer.open_writes == {}
    assert net.proposer.on_message(Learned(b"k", 0, ReqID(net.proposer.pid, 0))) == []
    assert net.proposer.learned == {}
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


@pytest.mark.parametrize("fast_writes", [True, False])
def test_command_that_fails_to_apply_gets_one_error_reply(fast_writes):
    """A failed command is answered like a no-op, with ERROR and the
    command's message, and leaves the register as it was."""
    net = Loopback(Config(n_acceptors=3, register_mode=Mode.RMW, fast_writes=fast_writes))
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
