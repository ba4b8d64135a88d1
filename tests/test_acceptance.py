"""End-to-end acceptance gate.

Each test exercises one advertised guarantee of the register suite against
the simulator at scale and prints a single pass/fail line (run with -s to
see them). Workload sizes follow the stated bounds; none of the checks is
statistical except the read-retry trend, which uses the stated tolerances.
"""
import itertools

from rmwreg import kv
from rmwreg.checker import check_exactly_once
from rmwreg.core import (
    ALL_MUTATIONS,
    MUT_DROP_LEARNED,
    MUT_REUSE_ROUND,
    MUT_SKIP_WRITE_THROUGH,
    MUT_SUB_QUORUM,
    MUT_VOTE_BELOW_PROMISE,
    Config,
    Mode,
)
from rmwreg.cli import check_result, default_scripts
from rmwreg.kv import SimDriver
from rmwreg.messages import ReqKind, Status
from rmwreg.sim import (
    PROPOSER_BASE,
    ClientResponseEv,
    ClientScript,
    OpSpec,
    SimConfig,
    count_message_delays,
    random_crash_plan,
    run_workload,
    trace_to_jsonl,
)

W = OpSpec(ReqKind.WRITE, make_cmd=kv.append_token)
R = OpSpec(ReqKind.READ)


def _verdict_line(n: int, ok: bool, detail: str) -> bool:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _append_scripts(n_clients: int, ops=(W, R, W, R)) -> list:
    return [ClientScript(client=c, proposer=PROPOSER_BASE + c, ops=ops)
            for c in range(n_clients)]


# (mutation, register mode, unreliable links?) for criterion 9, chosen so the
# weakened behavior is reachable
MUTATION_PLANS = (
    (MUT_VOTE_BELOW_PROMISE, Mode.SEQUENCE, True),
    (MUT_SUB_QUORUM, Mode.SEQUENCE, True),
    (MUT_SKIP_WRITE_THROUGH, Mode.SEQUENCE, True),
    (MUT_REUSE_ROUND, Mode.RMW, False),
    (MUT_DROP_LEARNED, Mode.RMW, False),
)


def run_mutated(mutation: str, mode: Mode, unreliable: bool, seed: int):
    """One seed of criterion 9's run for `mutation`."""
    config = Config(n_acceptors=3, register_mode=mode, mutations=frozenset({mutation}))
    sim = SimConfig(seed=seed, fifo=not unreliable,
                    drop=0.1 if unreliable else 0.0, max_delay=8)
    return run_workload(config, sim, _append_scripts(3))


def test_criterion_1_write_once_safety_fuzz():
    """10,000 unreliable-network seeds across N in {3, 5} with acceptor
    crashes and duelling proposers: the write-once register never violates
    nontriviality, stability, consistency, or linearizability, and every
    trace passes the audit of Propositions 1-3 and the acceptor invariants."""
    bad = []
    total = 0
    for n_acceptors in (3, 5):
        f = (n_acceptors - 1) // 2
        config = Config(n_acceptors=n_acceptors, register_mode=Mode.WRITE_ONCE)
        for seed in range(5000):
            duellers = 2 + seed % 3  # 2-4 concurrent proposers
            sim = SimConfig(
                seed=seed, fifo=False, drop=0.05, dup=0.02, max_delay=10,
                crash_plan=random_crash_plan(seed, n_acceptors, f, 200),
            )
            result = run_workload(config, sim, default_scripts(Mode.WRITE_ONCE, duellers))
            total += 1
            verdict = check_result(Mode.WRITE_ONCE, result, n_acceptors)
            if not verdict.ok:
                bad.append((n_acceptors, seed, verdict.violations))
    ok = _verdict_line(1, not bad, f"{total} write-once seeds, {len(bad)} violations")
    assert ok, bad[:3]


def test_criterion_2_sequence_and_rmw_safety_fuzz():
    """10,000 FIFO seeds split across sequence and RMW modes with duels,
    acceptor crashes, and proposer mid-request failures: zero violations of
    the sequence properties, zero exactly-once violations under RMW, and
    every trace passes the audit of Propositions 1-3 and the acceptor
    invariants."""
    bad = []
    total = 0
    for mode in (Mode.SEQUENCE, Mode.RMW):
        config = Config(n_acceptors=3, register_mode=mode)
        for seed in range(5000):
            duellers = 2 + seed % 3
            scripts = _append_scripts(duellers)
            sim = SimConfig(
                seed=seed, fifo=True, max_delay=10,
                crash_plan=random_crash_plan(
                    seed, 3, 1, 200, [s.proposer for s in scripts]),
            )
            result = run_workload(config, sim, scripts)
            total += 1
            verdict = check_result(mode, result, 3)
            if not verdict.ok:
                bad.append((mode, seed, verdict.violations))
    ok = _verdict_line(2, not bad, f"{total} sequence/RMW seeds, {len(bad)} violations")
    assert ok, bad[:3]


def test_criterion_3_duplicate_witness_fixed_by_rmw():
    """Without request deduplication the sequence register can apply one
    completed update twice; the very same schedule under RMW applies it
    exactly once."""
    witness_seed = None
    scripts = _append_scripts(3)
    for seed in range(5000):
        sim = SimConfig(seed=seed, fifo=True, max_delay=10)
        res = run_workload(Config(n_acceptors=3, register_mode=Mode.SEQUENCE), sim, scripts)
        duplicated = any(
            not check_exactly_once(h).ok for h in res.histories.values()
        )
        if duplicated:
            witness_seed = seed
            rmw = run_workload(Config(n_acceptors=3, register_mode=Mode.RMW), sim, scripts)
            fixed = all(check_exactly_once(h).ok for h in rmw.histories.values())
            break
    ok = _verdict_line(
        3, witness_seed is not None and fixed,
        f"duplicate witness at seed {witness_seed}, same schedule exactly-once under RMW",
    )
    assert ok


def test_criterion_4_message_delay_counts():
    """Fault-free solo proposer: the first write costs exactly 4 message
    delays, a stable read 2, and every later fast write 2."""
    config = Config(n_acceptors=3, register_mode=Mode.RMW)
    res = run_workload(config, SimConfig(seed=11, fifo=True),
                       [ClientScript(client=0, proposer=PROPOSER_BASE,
                                     ops=(W, R, W, W, R))])
    got = [count_message_delays(res.trace, 0, i) for i in range(5)]
    want = [4, 2, 2, 2, 2]
    ok = _verdict_line(4, got == want, f"delays {got} (want {want})")
    assert ok


def test_criterion_5_stable_reads_leave_no_trace():
    """1,000 reads of a chosen register leave every acceptor's cells
    untouched. Cells are replaced, never changed in place, so a shallow copy
    of `cells` is the state."""
    driver = SimDriver(Config(n_acceptors=3, register_mode=Mode.RMW),
                       SimConfig(seed=0, fifo=True, max_steps=10_000_000))
    facade = driver.facade()
    facade.put(b"r", 7)
    before = {pid: dict(a.cells) for pid, a in driver.world.acceptors.items()}
    for _ in range(1000):
        assert facade.get(b"r") == 7
    after = {pid: dict(a.cells) for pid, a in driver.world.acceptors.items()}
    ok = _verdict_line(5, before == after, "1000 stable reads, acceptor cells unchanged")
    assert ok


def test_criterion_6_quorum_fault_tolerance():
    """N = 5: any 2 crashed acceptors leave every request completable;
    3 crashed block all requests until one recovers."""
    config = Config(n_acceptors=5, register_mode=Mode.RMW)
    script = ClientScript(client=0, proposer=PROPOSER_BASE, ops=(W, R, W, R))
    incomplete = []
    for pair in itertools.combinations(range(5), 2):
        plan = tuple((0, pid, "crash") for pid in pair)
        res = run_workload(config, SimConfig(seed=1, fifo=True, crash_plan=plan,
                                             max_steps=500_000), [script])
        responses = [e for e in res.history() if e.kind == "respond"]
        if len(responses) != 4 or any(e.status is not Status.DONE for e in responses):
            incomplete.append(pair)

    recovery_tick = 2000
    plan3 = ((0, 0, "crash"), (0, 1, "crash"), (0, 2, "crash"),
             (recovery_tick, 0, "recover"))
    res = run_workload(config, SimConfig(seed=1, fifo=True, crash_plan=plan3,
                                         max_steps=500_000), [script])
    responses = [e for e in res.history() if e.kind == "respond"]
    blocked = all(e.tick >= recovery_tick for e in responses)
    completed_after = len(responses) == 4

    ok = _verdict_line(
        6, not incomplete and blocked and completed_after,
        f"all {5 * 4 // 2} 2-crash pairs complete 4/4; 3-crash run blocked until "
        f"tick {recovery_tick} then completed",
    )
    assert ok, (incomplete, blocked, completed_after)


def test_criterion_7_read_retry_trend():
    """1 writer + 64 readers over 5,000 ticks: disabling read retries forces
    at least 10x as many reads onto the write-through path as a single retry,
    while retry limits 2 and 10 land within 10% of each other."""
    def forced_write_throughs(retry_limit: int) -> int:
        total = 0
        for seed in (0, 1):
            config = Config(n_acceptors=3, register_mode=Mode.SEQUENCE,
                            read_retry_limit=retry_limit)
            scripts = [ClientScript(client=0, proposer=PROPOSER_BASE, ops=(W,),
                                    loop_until=5000)]
            scripts += [ClientScript(client=c, proposer=PROPOSER_BASE + c,
                                     ops=(R,), loop_until=5000)
                        for c in range(1, 65)]
            res = run_workload(config, SimConfig(seed=seed, fifo=True, max_delay=5,
                                                 max_steps=5_000_000), scripts)
            total += sum(p.stats.read_escalations for p in res.world.proposers.values())
        return total

    wt = {x: forced_write_throughs(x) for x in (0, 1, 2, 10)}
    big_gap = wt[0] >= 10 * max(wt[1], 1)
    close = abs(wt[2] - wt[10]) <= 0.1 * max(wt[2], wt[10], 1)
    ok = _verdict_line(7, big_gap and close,
                       f"reads escalated to write-through, by retry limit: {wt}")
    assert ok, wt


def test_criterion_8_counter_converges_exactly():
    """8 clients each apply add(1) 100 times under a fault schedule that
    always leaves a quorum alive: every request completes and the counter
    lands on exactly 800."""
    config = Config(n_acceptors=5, register_mode=Mode.RMW)
    scripts = [
        ClientScript(client=c, proposer=PROPOSER_BASE + c,
                     ops=tuple(OpSpec(ReqKind.WRITE, cmd=kv.AddCmd(1))
                               for _ in range(100)))
        for c in range(8)
    ]
    plan = ((50, 1, "crash"), (400, 1, "recover"),
            (300, 3, "crash"), (700, 3, "recover"))
    res = run_workload(config, SimConfig(seed=5, fifo=True, max_delay=8,
                                         crash_plan=plan, max_steps=5_000_000),
                       scripts)
    responses = [e for e in res.history() if e.kind == "respond"]
    all_done = (len(responses) == 800
                and all(e.status is Status.DONE for e in responses))

    # quiescent world: issue one final read through an existing proposer
    world = res.world
    world.submit(0, b"r", ReqKind.READ, None, 100)
    world.run()
    final = [ev for ev in world.trace
             if isinstance(ev, ClientResponseEv) and ev.client == 0 and ev.op_index == 100]
    value = kv.from_payload(final[0].value) if final else None

    ok = _verdict_line(8, all_done and value == 800,
                       f"{len(responses)}/800 updates done, final counter {value}")
    assert ok


def test_criterion_9_mutations_are_caught():
    """Each seeded protocol mutation is caught by the checker suite within
    1,000 seeds."""
    assert {m for m, _, _ in MUTATION_PLANS} == ALL_MUTATIONS
    caught_at = {}
    for mutation, mode, unreliable in MUTATION_PLANS:
        for seed in range(1000):
            res = run_mutated(mutation, mode, unreliable, seed)
            verdict = check_result(mode, res, 3)
            if not verdict.ok:
                caught_at[mutation] = seed
                break
    ok = _verdict_line(9, len(caught_at) == len(MUTATION_PLANS),
                       f"seeds to detection: {caught_at}")
    assert ok, caught_at


def test_criterion_10_counterexamples_replay_byte_identically():
    """A failing run reproduces byte for byte from (seed, config) alone, as
    does a clean faulty run."""
    cases = [
        (Config(n_acceptors=3, register_mode=Mode.SEQUENCE,
                mutations=frozenset({MUT_VOTE_BELOW_PROMISE})),
         SimConfig(seed=4, fifo=False, drop=0.15, dup=0.05, max_delay=9)),
        (Config(n_acceptors=5, register_mode=Mode.RMW),
         SimConfig(seed=9, fifo=True, max_delay=10,
                   crash_plan=((30, 2, "crash"), (200, 2, "recover")))),
    ]
    identical = True
    for config, sim in cases:
        scripts = _append_scripts(3)
        first = trace_to_jsonl(run_workload(config, sim, scripts).trace)
        second = trace_to_jsonl(run_workload(config, sim, scripts).trace)
        identical = identical and first == second and len(first) > 0
    ok = _verdict_line(10, identical, "replayed traces byte-identical in both cases")
    assert ok
