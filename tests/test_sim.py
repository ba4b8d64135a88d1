import dataclasses
import dis
import gc
import hashlib
import inspect
import random
import tracemalloc
import types

import pytest

from rmwreg import acceptor, checker, cli, kv, messages, net, proposer, quorum, sim, trace
from rmwreg.core import Config, Mode, ReqID, Round, Value, randbelow
from rmwreg.messages import ReqKind, Status, Ticket
from rmwreg.sim import (
    PROPOSER_BASE,
    ClientResponseEv,
    ClientScript,
    CrashEv,
    DeliverEv,
    DropEv,
    OpSpec,
    RecoverEv,
    SendEv,
    SimConfig,
    World,
    random_crash_plan,
    run_workload,
    trace_from_jsonl,
    trace_to_jsonl,
)
from rmwreg.trace import EVENTS, read_trace, write_trace
from reference import count_message_delays


# sha256 over trace_to_jsonl for the seed set in test_golden_trace_digest.
# Recorded traces must replay byte-identically, so a change to the
# simulator's schedule or to the trace format must not move this digest.
GOLDEN_TRACE_SHA256 = "b5fb59ec2798835aac4ea6b2f2f94584dff68830919608daff8a2445a68e338f"


def script(client, ops, **kw):
    return ClientScript(client=client, proposer=PROPOSER_BASE + client, ops=ops, **kw)


W = OpSpec(ReqKind.WRITE, make_cmd=kv.append_token)
R = OpSpec(ReqKind.READ)


def test_rmw_requires_fifo():
    with pytest.raises(ValueError):
        World(Config(n_acceptors=3, register_mode=Mode.RMW),
              SimConfig(seed=0, fifo=False), [script(0, (W,))])


def test_max_delay_below_one_rejected():
    cfg = Config(n_acceptors=3, register_mode=Mode.SEQUENCE)
    for max_delay in (0, -1):
        with pytest.raises(ValueError):
            World(cfg, SimConfig(seed=0, max_delay=max_delay), [script(0, (W,))])


def test_below_draws_the_randrange_stream():
    """`core.randbelow` on a world's generator must reproduce `randrange`
    draw for draw, and `1 + randbelow(d)` must equal `randint(1, d)`, with
    `random()` calls interleaved: this is why the golden digests survive
    the helper."""
    cfg = Config(n_acceptors=3, register_mode=Mode.SEQUENCE)
    for seed in range(4):
        world = World(cfg, SimConfig(seed=seed), [])
        ref = random.Random(seed)
        getrandbits = world.rng.getrandbits
        for i in range(3000):
            for n in (1, 2, 3, 5, 8, 10, 64, 96, 1000):
                assert randbelow(getrandbits, n) == ref.randrange(n)
            for d in (1, 5, 10):
                assert 1 + randbelow(getrandbits, d) == ref.randint(1, d)
            if i % 3 == 0:
                assert world.rng.random() == ref.random()
        assert world.rng.getstate() == ref.getstate()


def test_proposer_draws_the_randint_stream():
    """The proposer's timeout jitter must be `randint(0, 30)` and its retry
    backoff `randint(1, b)`, draw for draw, with the backoff bound b going
    4, 8, 16, 32, 60 and `random()` calls interleaved. `random`'s internals
    differ between versions; the stream they give may not."""
    cfg = Config(n_acceptors=3, register_mode=Mode.SEQUENCE)
    for seed in range(4):
        p = proposer.Proposer(1000, cfg, random.Random(seed))
        ref = random.Random(seed)
        req = p._new_request(b"k", ReqKind.WRITE, [(kv.AddCmd(1), 0, 0, None)])
        for i in range(400):
            timer = p._arm_timer(req)
            assert timer.delay == proposer.REQUEST_TIMEOUT_TICKS + ref.randint(0, 30)
            req.backoff = 0
            for b in (4, 8, 16, 32, 60):
                req.top_n = 1
                [timer] = p._retry_explicit(req)
                assert req.backoff == b
                assert timer.delay == ref.randint(1, b)
                if i % 3 == 0:
                    assert p.rng.random() == ref.random()
        assert p.rng.getstate() == ref.getstate()


def test_looping_client_without_ops_rejected():
    cfg = Config(n_acceptors=3, register_mode=Mode.SEQUENCE)
    with pytest.raises(ValueError, match="client 0 loops until tick 50 over an empty op list"):
        World(cfg, SimConfig(seed=0), [script(0, (), loop_until=50)])
    # Without loop_until an empty script just has nothing to issue.
    assert run_workload(cfg, SimConfig(seed=0), [script(0, ())]).trace == []


@pytest.mark.parametrize("field", ["drop", "dup"])
@pytest.mark.parametrize("p", [-0.1, 1.5])
def test_link_probabilities_outside_0_1_rejected(field, p):
    cfg = Config(n_acceptors=3, register_mode=Mode.SEQUENCE)
    with pytest.raises(ValueError, match=f"{field} must be a probability"):
        World(cfg, SimConfig(seed=0, fifo=False, **{field: p}), [script(0, (W,))])


def test_random_crash_plan_rejects_more_crashes_than_acceptors():
    for max_crashes in (4, -1):
        with pytest.raises(ValueError, match="max_crashes .* n_acceptors"):
            random_crash_plan(0, 3, max_crashes, 100)
    random_crash_plan(0, 3, 3, 100)  # as many crashes as acceptors is allowed


def test_identical_seed_gives_identical_trace():
    cfg = Config(n_acceptors=3, register_mode=Mode.SEQUENCE)
    sim = SimConfig(seed=42, fifo=False, drop=0.1, dup=0.05, max_delay=9,
                    crash_plan=((25, 1, "crash"), (120, 1, "recover")))
    scripts = [script(c, (W, R, W)) for c in range(3)]
    a = run_workload(cfg, sim, scripts)
    b = run_workload(cfg, sim, scripts)
    assert trace_to_jsonl(a.trace) == trace_to_jsonl(b.trace)


def test_different_seeds_diverge():
    cfg = Config(n_acceptors=3, register_mode=Mode.SEQUENCE)
    scripts = [script(c, (W, R)) for c in range(2)]
    a = run_workload(cfg, SimConfig(seed=1, fifo=False, drop=0.1), scripts)
    b = run_workload(cfg, SimConfig(seed=2, fifo=False, drop=0.1), scripts)
    assert trace_to_jsonl(a.trace) != trace_to_jsonl(b.trace)


def test_trace_serialization_round_trip():
    cfg = Config(n_acceptors=3, register_mode=Mode.RMW)
    res = run_workload(cfg, SimConfig(seed=5, fifo=True), [script(0, (W, R))])
    data = trace_to_jsonl(res.trace)
    assert trace_from_jsonl(data) == res.trace
    assert trace_from_jsonl(data.replace(b"\n", b"\r\n")) == res.trace
    with pytest.raises(ValueError):
        trace_from_jsonl(b'{"kind": "nonsense"}\n')


def every_kind_world():
    """A lossy write-once world with a crash and a recovery: its trace has
    rows of every `EVENTS` kind."""
    scripts = cli.default_scripts(Mode.WRITE_ONCE, 3)
    plan = random_crash_plan(0, 3, 1, 200, [s.proposer for s in scripts])
    sim = SimConfig(seed=0, fifo=False, drop=0.1, dup=0.1, max_delay=10, crash_plan=plan)
    return run_workload(Config(n_acceptors=3, register_mode=Mode.WRITE_ONCE), sim, scripts)


# The JSONL line of the first event of each kind in `every_kind_world`, as
# written when the trace still held one record object per event.
FIRST_OF_EACH_KIND = {
    "send": b'{"depth":1,"dst":0,"idx":0,"kind":"send",'
            b'"msg":"01000000017200000000000003e900000000000000000000000000","src":1001,"tick":0}',
    "deliver": b'{"kind":"deliver","send_idx":3,"tick":2}',
    "drop": b'{"kind":"drop","reason":"loss","send_idx":14,"tick":6}',
    "duplicate": b'{"kind":"duplicate","send_idx":0,"tick":0}',
    "crash": b'{"kind":"crash","pid":1,"tick":19}',
    "recover": b'{"kind":"recover","pid":1,"tick":41}',
    "snapshot": b'{"key":"72","kind":"snapshot","pid":1,"state":{"r_ack":[1,1000],'
                b'"r_voted":[0,null],"req":null,"val":{"empty":true,"payload":""}},"tick":12}',
    "invoke": b'{"client":1,"key":"72","kind":"invoke","op":0,"op_index":0,"tick":0,'
              b'"token":null}',
    "response": b'{"client":0,"depth":2,"key":"72","kind":"response","op_index":0,"status":1,'
                b'"tick":9,"value":{"empty":true,"payload":""}}',
}


def test_each_kind_of_row_writes_the_bytes_of_its_record():
    """A row is `(kind, *fields)` in its record class's field order: the
    record built from it writes the line the record form always wrote, as
    does the row itself, and the record's row is the row again."""
    first = {}
    for row in every_kind_world().trace.rows:
        first.setdefault(row[0], row)
    assert set(first) == set(EVENTS) == set(FIRST_OF_EACH_KIND)
    for name, row in first.items():
        record = trace.record_of(row)
        assert type(record) is EVENTS[name][0]
        assert trace.row_of(record) == row
        line = FIRST_OF_EACH_KIND[name] + b"\n"
        assert trace_to_jsonl([record]) == line
        assert trace_to_jsonl(trace.Trace([row])) == line


def test_trace_is_a_read_only_sequence_of_records():
    res = every_kind_world()
    rows = res.trace.rows
    records = [trace.record_of(row) for row in rows]
    view = res.trace
    assert isinstance(view, trace.Trace) and not hasattr(view, "append")
    assert len(view) == len(rows) > 100
    assert list(view) == records
    assert view[0] == records[0] and view[-1] == records[-1]
    assert view[3:9] == records[3:9] and view[::-50] == records[::-50]
    assert view == records and records == view
    assert view == tuple(records) and view == trace.Trace(list(rows))
    assert view != records[:-1] and records[1:] != view
    assert view != [*records[:-1], records[0]]
    assert (view == 7) is False
    with pytest.raises(TypeError):
        hash(view)
    assert trace.Trace([]) == [] and [] == trace.Trace([])


def test_storm_deliveries_are_untracked_by_the_collector():
    """A delivery's row holds a kind name and two ints: after a collection
    the collector no longer walks it, nor a drop's or a duplicate's."""
    res = next(storm_runs())
    gc.collect()
    rows = res.trace.rows
    delivers = [row for row in rows if row[0] == "deliver"]
    assert len(delivers) > len(rows) // 3
    assert not any(gc.is_tracked(row) for row in rows if row[0] in ("deliver", "drop"))


def test_fifo_links_deliver_in_order_without_loss():
    cfg = Config(n_acceptors=3, register_mode=Mode.RMW)
    res = run_workload(cfg, SimConfig(seed=3, fifo=True, max_delay=10),
                       [script(c, (W, W, R)) for c in range(2)])
    sends = {}
    delivered = []
    for ev in res.trace:
        if isinstance(ev, SendEv):
            sends[ev.idx] = ev
        elif isinstance(ev, DeliverEv):
            delivered.append(ev.send_idx)
        elif isinstance(ev, DropEv):
            assert ev.reason == "crashed"  # FIFO links never lose messages
    assert sorted(delivered) == sorted(sends)  # everything arrives exactly once
    per_pair = {}
    for idx in delivered:
        s = sends[idx]
        assert per_pair.get((s.src, s.dst), -1) < idx
        per_pair[(s.src, s.dst)] = idx


def test_unreliable_links_drop_and_duplicate():
    cfg = Config(n_acceptors=3, register_mode=Mode.SEQUENCE)
    res = run_workload(cfg, SimConfig(seed=8, fifo=False, drop=0.3, dup=0.2),
                       [script(c, (W, R, W, R)) for c in range(3)])
    kinds = {type(ev).__name__ for ev in res.trace}
    assert "DropEv" in kinds and "DuplicateEv" in kinds


def test_message_delays_2_4_2():
    cfg = Config(n_acceptors=3, register_mode=Mode.RMW)
    res = run_workload(cfg, SimConfig(seed=1, fifo=True),
                       [script(0, (W, R, W, R))])
    assert count_message_delays(res.trace, 0, 0) == 4  # first write
    assert count_message_delays(res.trace, 0, 1) == 2  # stable read
    assert count_message_delays(res.trace, 0, 2) == 2  # fast write
    assert count_message_delays(res.trace, 0, 3) == 2
    with pytest.raises(ValueError):
        count_message_delays(res.trace, 0, 99)


def test_contended_reads_finish_in_two_message_delays():
    """One appending writer and 64 readers on one key: a read whose first
    replies disagree finishes from the rest of its attempt, so at least 99%
    of the reads take the 2-delay path."""
    config = Config(n_acceptors=3, register_mode=Mode.SEQUENCE, read_retry_limit=2)
    scripts = [script(0, (W,), loop_until=200)]
    scripts += [script(c, (R,), loop_until=200) for c in range(1, 65)]
    res = run_workload(config, SimConfig(seed=0, fifo=True, max_delay=5), scripts)
    depths = [ev.depth for ev in res.trace
              if isinstance(ev, ClientResponseEv) and ev.client != 0]
    assert len(depths) > 1000
    assert sum(d <= 2 for d in depths) >= 0.99 * len(depths)


def test_crashed_acceptor_drops_messages_but_keeps_state():
    cfg = Config(n_acceptors=3, register_mode=Mode.RMW)
    sim = SimConfig(seed=4, fifo=True,
                    crash_plan=((40, 0, "crash"), (300, 0, "recover")))
    res = run_workload(cfg, sim, [script(0, (W, R, W, R), think=30)])
    drops = [ev for ev in res.trace if isinstance(ev, DropEv)]
    assert drops and all(d.reason == "crashed" for d in drops)
    assert all(e.status in (Status.DONE, Status.EMPTY)
               for e in res.history() if e.kind == "respond")


def test_crashed_proposer_leaves_request_pending():
    cfg = Config(n_acceptors=3, register_mode=Mode.RMW)
    sim = SimConfig(seed=4, fifo=True, crash_plan=((1, PROPOSER_BASE, "crash"),))
    res = run_workload(cfg, sim, [script(0, (W,), start_tick=5)])
    assert res.quiescent
    assert not [e for e in res.history() if e.kind == "respond"]


def test_crashed_proposer_admits_no_request():
    """A request handed to a crashed proposer through `World.submit`, as
    `SimDriver` does, is never admitted: no message leaves the proposer and
    no acceptor changes, although a fast write would send its Votes at once."""
    driver = kv.SimDriver(Config(n_acceptors=3, register_mode=Mode.RMW),
                          SimConfig(seed=1, crash_plan=((500, PROPOSER_BASE, "crash"),)))
    facade = driver.facade()
    facade.put(b"c", 0)
    world = driver.world
    while world.step():
        pass
    [crash] = [i for i, ev in enumerate(world.trace) if isinstance(ev, CrashEv)]
    cells = [dict(a.cells) for a in world.acceptors.values()]
    with pytest.raises(kv.Unavailable):
        facade.update(b"c", kv.AddCmd(5))
    assert not [ev for ev in world.trace[crash:] if isinstance(ev, SendEv)]
    assert [dict(a.cells) for a in world.acceptors.values()] == cells


def assert_crashed_processes_are_silent(trace):
    """No process sends between its crash and its recovery."""
    down = set()
    for ev in trace:
        if isinstance(ev, CrashEv):
            down.add(ev.pid)
        elif isinstance(ev, RecoverEv):
            down.discard(ev.pid)
        elif isinstance(ev, SendEv):
            assert ev.src not in down, ev


@pytest.mark.parametrize("mode", [Mode.SEQUENCE, Mode.RMW])
def test_recovered_proposer_starts_what_it_batched(mode):
    """The batch timer fires while the proposer is down and is dropped;
    recovery must start the batched write, or it and every later request of
    the client wait on a timer that no longer exists."""
    cfg = Config(n_acceptors=3, register_mode=mode, batch_interval=5)
    sim = SimConfig(seed=4, fifo=True, crash_plan=((2, PROPOSER_BASE, "crash"),
                                                   (10, PROPOSER_BASE, "recover")))
    res = run_workload(cfg, sim, [script(0, (W, R, W, R))])
    assert res.quiescent
    assert [e.kind for e in res.history()].count("respond") == 4
    proposer = res.world.proposers[PROPOSER_BASE]
    assert proposer.batched == {}
    assert proposer.requests == {}


def shared_proposer_scripts(mode):
    """`cli.default_scripts(mode, 3)` with clients 0 and 1 on one proposer,
    so that its batches hold two clients."""
    from rmwreg.cli import default_scripts

    return [dataclasses.replace(s, proposer=PROPOSER_BASE + (s.client == 2))
            for s in default_scripts(mode, 3)]


# (mode, links) of the batched fuzz and golden worlds; every link profile
# gets one random acceptor crash and maybe a proposer crash per seed.
BATCHED_ARMS = (
    (Mode.WRITE_ONCE, dict(fifo=False, drop=0.1, dup=0.05)),
    (Mode.WRITE_ONCE, dict(fifo=True)),
    (Mode.SEQUENCE, dict(fifo=True)),
    (Mode.RMW, dict(fifo=True)),
)


def batched_run(mode, links, seed):
    scripts = shared_proposer_scripts(mode)
    plan = random_crash_plan(seed, 3, 1, 200, [s.proposer for s in scripts])
    sim = SimConfig(seed=seed, max_delay=10, crash_plan=plan, **links)
    return run_workload(Config(n_acceptors=3, register_mode=mode, batch_interval=5), sim, scripts)


@pytest.mark.parametrize("mode, links", BATCHED_ARMS,
                         ids=["write-once-lossy", "write-once-fifo", "sequence", "rmw"])
def test_batched_shared_proposer_fuzz(mode, links):
    """A proposer that batches two clients' requests keeps every mode safe:
    a write-once writer whose literal was not chosen hears ALREADY_CHOSEN."""
    from rmwreg.cli import check_result

    bad = []
    for seed in range(500):
        verdict = check_result(mode, batched_run(mode, links, seed), 3)
        if not verdict.ok:
            bad.append((seed, verdict.violations[:2]))
    assert not bad, bad[:3]


def test_second_reply_to_one_op_is_an_error(monkeypatch):
    cfg = Config(n_acceptors=3, register_mode=Mode.RMW)
    world = World(cfg, SimConfig(seed=0), [script(0, ())])
    reply = messages.Reply(0, Status.DONE, Value(b"1"), 0)
    monkeypatch.setattr(world.proposers[PROPOSER_BASE], "submit", lambda *args: [reply, reply])
    with pytest.raises(RuntimeError, match="client 0 op 0 answered twice"):
        world.submit(0, b"r", ReqKind.WRITE, kv.AddCmd(1), 0)


def test_answered_ops_are_forgotten():
    cfg = Config(n_acceptors=3, register_mode=Mode.RMW)
    res = run_workload(cfg, SimConfig(seed=1), [script(c, (W, R, W, R)) for c in range(3)])
    assert [e.kind for e in res.history()].count("respond") == 12
    assert all(cs.ops_meta == {} for cs in res.world.clients.values())


def test_loop_until_generates_unique_tokens():
    cfg = Config(n_acceptors=3, register_mode=Mode.RMW)
    res = run_workload(cfg, SimConfig(seed=2, fifo=True),
                       [script(0, (W,), loop_until=300)])
    tokens = [e.token for e in res.history() if e.kind == "invoke"]
    assert len(tokens) > 3
    assert len(set(tokens)) == len(tokens)


def test_histories_are_per_key():
    cfg = Config(n_acceptors=3, register_mode=Mode.RMW)
    res = run_workload(cfg, SimConfig(seed=2, fifo=True), [
        script(0, (W, R), key=b"a"),
        script(1, (W, R), key=b"b"),
    ])
    assert set(res.histories) == {b"a", b"b"}
    assert all(e.key == b"a" for e in res.histories[b"a"])


def fuzz_arm_seeds():
    """One seed of each arm shape of the mixed fuzz campaign: write-once on
    3 and 5 lossy links, sequence and RMW on 3 FIFO links, 2-4 duelling
    proposers and a seed-derived crash plan, each checked as `rmwreg fuzz`
    checks it."""
    lossy = dict(fifo=False, drop=0.05, dup=0.02)
    arms = ((Mode.WRITE_ONCE, 3, lossy), (Mode.WRITE_ONCE, 5, lossy),
            (Mode.SEQUENCE, 3, dict(fifo=True)), (Mode.RMW, 3, dict(fifo=True)))
    for seed, (mode, n, links) in enumerate(arms, start=40):
        duellers = 2 + seed % 3
        if mode is Mode.WRITE_ONCE:
            scripts, crashable = cli.default_scripts(mode, duellers), ()
        else:
            scripts = [script(c, (W, R, W, R)) for c in range(duellers)]
            crashable = [s.proposer for s in scripts]
        plan = random_crash_plan(seed, n, (n - 1) // 2, 200, crashable)
        simcfg = SimConfig(seed=seed, max_delay=10, crash_plan=plan, **links)
        result = run_workload(Config(n_acceptors=n, register_mode=mode), simcfg, scripts)
        cli.check_result(mode, result, n)


def storm_world():
    config = Config(n_acceptors=3, register_mode=Mode.SEQUENCE, read_retry_limit=2)
    scripts = [script(0, (W,), loop_until=40)]
    scripts += [script(c, (R,), loop_until=40) for c in range(1, 17)]
    run_workload(config, SimConfig(seed=5, max_delay=5), scripts)


def sim_driver_session():
    facade = kv.SimDriver(Config(n_acceptors=3, register_mode=Mode.RMW),
                          SimConfig(seed=3, fifo=True)).facade()
    facade.put(b"k", 1)
    facade.update(b"k", kv.AddCmd(2))
    assert facade.get(b"k") == 3


@pytest.mark.parametrize("run", [fuzz_arm_seeds, storm_world, sim_driver_session],
                         ids=lambda run: run.__name__)
def test_simulated_run_leaves_no_cyclic_garbage(cyclic_garbage, run):
    """What a run allocates is freed by reference counting once it is
    dropped: the cyclic collector, which walks every object a run retains,
    has nothing to reclaim."""
    assert cyclic_garbage(run) == 0


def test_random_crash_plan_is_deterministic_and_bounded():
    p1 = random_crash_plan(9, 5, 2, 100, [PROPOSER_BASE])
    p2 = random_crash_plan(9, 5, 2, 100, [PROPOSER_BASE])
    assert p1 == p2
    crashed_acceptors = {pid for _, pid, act in p1 if act == "crash" and pid < PROPOSER_BASE}
    assert len(crashed_acceptors) <= 2


def golden_runs():
    """The worlds of `test_golden_trace_digest`: `cli.default_scripts` over
    every mode, with seed-derived crash plans."""
    from rmwreg.cli import default_scripts

    arms = (
        (Mode.WRITE_ONCE, 3, dict(fifo=False, drop=0.1, dup=0.05)),
        (Mode.WRITE_ONCE, 5, dict(fifo=False, drop=0.05, dup=0.05)),
        (Mode.SEQUENCE, 3, dict(fifo=True)),
        (Mode.RMW, 3, dict(fifo=True)),
    )
    for mode, n, links in arms:
        scripts = default_scripts(mode, 3)
        for seed in range(10):
            plan = random_crash_plan(seed, n, (n - 1) // 2, 200, [s.proposer for s in scripts])
            sim = SimConfig(seed=seed, max_delay=10, crash_plan=plan, **links)
            yield run_workload(Config(n_acceptors=n, register_mode=mode), sim, scripts)


def test_golden_trace_digest():
    digest = hashlib.sha256()
    for res in golden_runs():
        digest.update(trace_to_jsonl(res.trace))
        assert_crashed_processes_are_silent(res.trace)
    assert digest.hexdigest() == GOLDEN_TRACE_SHA256


# sha256 over trace_to_jsonl for the storm worlds in test_golden_storm_digest.
GOLDEN_STORM_SHA256 = "4aba86a6c1c2be3b3afb80205d8c1b1a7cff13cf9958404f76eb444843c0c957"


def storm_runs():
    """The worlds of `test_golden_storm_digest`: one appending writer and 64
    readers on one key, so hundreds of events fall due on the same tick and
    each pick chooses among many. The lossy arm lets duplicate deliveries
    land in those crowded ticks."""
    config = Config(n_acceptors=3, register_mode=Mode.SEQUENCE, read_retry_limit=2)
    scripts = [script(0, (W,), loop_until=60)]
    scripts += [script(c, (R,), loop_until=60) for c in range(1, 65)]
    arms = (
        dict(seed=0, fifo=True),
        dict(seed=1, fifo=True),
        dict(seed=0, fifo=False, drop=0.05, dup=0.05),
    )
    for links in arms:
        yield run_workload(config, SimConfig(max_delay=5, **links), scripts)


def test_golden_storm_digest():
    digest = hashlib.sha256()
    for res in storm_runs():
        assert res.quiescent
        digest.update(trace_to_jsonl(res.trace))
    assert digest.hexdigest() == GOLDEN_STORM_SHA256


# sha256 over the repr of every HistoryEvent of the golden and storm worlds.
GOLDEN_HISTORY_SHA256 = "ed4841e3cba10b14c27abd497e770b1930818fdd406f0eaad0720a21fcabeb84"


def test_golden_history_digest():
    """The client histories the checkers read, invokes and responds, of the
    worlds whose traces the two digests above pin: every entry, per key in
    the order the world recorded it."""
    digest = hashlib.sha256()
    for res in list(golden_runs()) + list(storm_runs()):
        for key, history in res.histories.items():
            digest.update(repr(key).encode())
            for ev in history:
                digest.update(repr(ev).encode())
    assert digest.hexdigest() == GOLDEN_HISTORY_SHA256


# sha256 over trace_to_jsonl for the batched worlds in test_golden_batched_digest.
GOLDEN_BATCHED_SHA256 = "65a2c81faa5288feec604dc32054d6383252993d0aaa5ef6c898714b75ee22b2"


def test_golden_batched_digest():
    """Batching's schedule: the batch timer, the order in which a flush
    starts its requests, and the replies a batch gives."""
    digest = hashlib.sha256()
    for mode, links in BATCHED_ARMS:
        for seed in range(10):
            digest.update(trace_to_jsonl(batched_run(mode, links, seed).trace))
    assert digest.hexdigest() == GOLDEN_BATCHED_SHA256


def test_trace_io_streams_in_bounded_memory(tmp_path):
    """Serializing a long trace holds the output and little else: no list
    of lines or joined copy beside it. The file round trip goes through the
    streaming writer and reader themselves."""
    config = Config(n_acceptors=3, register_mode=Mode.SEQUENCE, read_retry_limit=2)
    scripts = [script(0, (W,), loop_until=80)]
    scripts += [script(c, (R,), loop_until=80) for c in range(1, 65)]
    res = run_workload(config, SimConfig(seed=0, fifo=True, max_delay=5), scripts)
    assert len(res.trace) > 9000
    tracemalloc.start()
    try:
        data = trace_to_jsonl(res.trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data) > 1_000_000
    assert peak <= 1.5 * len(data), f"peak {peak} bytes for {len(data)} bytes of output"

    path = tmp_path / "storm.jsonl"
    with path.open("wb") as fp:
        write_trace(res.trace, fp)
    assert path.read_bytes() == data
    with path.open("rb") as fp:
        assert read_trace(fp) == res.trace


# Slotted, not frozen, because one is built per message, effect, acceptor
# write or history entry. They must still never be reassigned.
RECORDS = (
    messages.Prepare, messages.PaxosPrep, messages.Vote, messages.Ack,
    messages.Nack, messages.Voted, messages.Learned, messages.ClientRequest,
    messages.ClientReply, messages.Send, messages.Reply, messages.SetTimer,
    proposer.FastToken, acceptor.AcceptorState, checker.HistoryEvent,
    quorum.ValueChosen, quorum.ReadyToPropose,
)


def _write_once(self, name, value):
    try:
        getattr(self, name)
    except AttributeError:  # an empty slot: the record's own __init__
        object.__setattr__(self, name, value)
        return
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def test_records_are_never_reassigned():
    """Each record may set a field once, in its `__init__`. The golden
    digests and a loopback group run with that enforced, and nothing in them
    reassigns a field; a direct assignment trips the guard."""
    from rmwreg.net import NetClient
    from test_net import free_addresses, start_group

    for cls in RECORDS:
        assert "__slots__" in vars(cls) and "__setattr__" not in vars(cls), cls
    for frozen in (Round(1, 0), ReqID(0, 1), Value(b"x"), Ticket(0, 1)):
        hash(frozen)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(frozen, frozen._fields[0], None)
    try:
        for cls in RECORDS:
            cls.__setattr__ = _write_once
        for cls in RECORDS:
            record = cls(*(None for _ in dataclasses.fields(cls)))
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, dataclasses.fields(cls)[0].name, None)

        test_golden_trace_digest()
        test_golden_storm_digest()

        addrs = free_addresses(3)
        replicas = start_group(addrs)
        client = NetClient(addrs[1])
        try:
            facade = client.facade(Mode.RMW)
            for i in range(5):
                assert facade.update(b"k", kv.AddCmd(1)) == ("done", i + 1)
                assert facade.get(b"k") == i + 1
        finally:
            client.close()
            for r in replicas:
                r.stop()
    finally:
        for cls in RECORDS:
            if vars(cls).get("__setattr__") is _write_once:
                del cls.__setattr__


def _nested_code(code):
    """Every code object defined inside `code`, at any depth: functions,
    methods, closures, lambdas, comprehensions and class bodies."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const
            yield from _nested_code(const)


def test_hot_paths_load_no_enum_class():
    """On Python 3.10 and 3.11 the enum metaclass defines `__getattr__`, so a
    member lookup such as `ReqKind.READ` goes through the slow attribute
    hook (about 110 ns on 3.11, against 10 for a module global). The members
    are bound once, as names of `messages` and `core`, and the simulator,
    protocol, checker, socket and cli modules import the names they use. So
    no function of theirs loads an enum class (in `cli`, of the two
    functions every fuzz seed calls), and their module-level code loads none
    either: a load there would be a binding of their own."""
    modules = (sim, proposer, acceptor, quorum, checker, net, cli)
    tops = {module: module.__spec__.loader.get_code(module.__name__) for module in modules}
    bindings = {
        f"{code.co_filename} {code.co_name} loads {ins.argval}"
        for top in tops.values()
        for code in (top, *_nested_code(top))
        if not code.co_flags & inspect.CO_OPTIMIZED  # the module body or a class body
        for ins in dis.get_instructions(code)
        if ins.opname == "LOAD_NAME" and ins.argval in ("ReqKind", "Status", "Mode")
    }
    assert sorted(bindings) == []
    codes = []
    for module in modules[:-1]:
        codes += _nested_code(tops[module])
    for top in _nested_code(tops[cli]):
        if top.co_name in ("default_scripts", "check_result"):
            codes += [top, *_nested_code(top)]
    assert len(codes) > 100
    offenders = {
        f"{code.co_filename}:{code.co_firstlineno} {code.co_name} loads {ins.argval}"
        for code in codes
        if code.co_flags & inspect.CO_OPTIMIZED  # a function body, not a class body
        for ins in dis.get_instructions(code)
        if ins.opname.startswith("LOAD") and ins.opname != "LOAD_CONST"
        and ins.argval in ("ReqKind", "Status", "Mode")
    }
    assert sorted(offenders) == []
