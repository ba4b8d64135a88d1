"""The benchmark's three workloads.

Each workload function takes the run seed, the measuring time in seconds
and an optional tracer, and returns an `Outcome`: what was attempted and
completed inside the timed window, the correctness problems found, and the
counts the per-layer metrics are derived from. Every input is derived from
the seed; the program only ever sees the generated inputs.
"""
from __future__ import annotations

import hashlib
import heapq
import json
import random
import socket
import statistics
import threading
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from rmwreg import checker, cli, kv, sim
from rmwreg.core import Config, Mode
from rmwreg.messages import ReqKind, Status
from rmwreg.net import NetClient, Replica

import spans

# Set-up is timed in rounds of a few set-ups, each set-up timed alone. A
# single set-up takes milliseconds, and the host's speed changes from one
# second to the next, so the rounds are spread over the run: a few before
# the timed window, then one every SETUP_EVERY_S of it (fuzz, storm), or
# LOOPBACK_SETUP_ROUNDS before and after it (loopback). One untimed round
# goes first: a fresh process's first thread starts are slow.
SETUP_ROUNDS = 8
SETUP_EVERY_S = 1.0

# The reference loop is timed between units of work throughout a run. A
# shared 2-vCPU host's speed drifts by +-20% over minutes, the same for the
# loop and for the program, so CPU time per op in reference loops, each op
# costed at the sample taken just after it, stays steady where CPU time per
# op in milliseconds does not.
REFERENCE_EVERY_S = 0.05  # of timed work between two samples of the loop

# `setup_s` is set-up CPU time at a fixed speed: the set-ups' median CPU
# time over the median CPU time of `setup_reference_loop` sampled after
# each round, times this nominal time of one loop (about its median on the
# host the bounds were set on).
REFERENCE_NOMINAL_S = 1e-3


def reference_loop() -> int:
    """A fixed mix of standard-library work (small objects, dicts, sorting,
    a heap, JSON) that no change to rmwreg can make faster or slower."""
    rng = random.Random(7)
    items = [{"k": f"key{i}", "v": rng.random(), "n": i} for i in range(300)]
    items.sort(key=lambda d: d["v"])
    index = {d["k"]: d for d in items}
    heap: list = []
    for i in range(300):
        heapq.heappush(heap, (index[f"key{(i * 7) % 300}"]["v"], i))
    total = sum(heapq.heappop(heap)[1] for _ in range(300))
    return total + len(json.dumps(items[:50]))


def setup_reference_loop() -> float:
    """Seeds random generators from strings: standard-library work whose
    wall time follows that of the workloads' set-up as the host's speed
    changes. Timed against building worlds through a minute of that drift,
    its elasticity was 1.0 where `reference_loop`'s was 0.5."""
    return sum(random.Random(f"{i}:setup").random() for i in range(100))


def _setup_reference_cpu(times: int = 3) -> float:
    samples = []
    for _ in range(times):
        c0 = time.thread_time()
        setup_reference_loop()
        samples.append(time.thread_time() - c0)
    return statistics.median(samples)


W = sim.OpSpec(ReqKind.WRITE, make_cmd=kv.append_token)
R = sim.OpSpec(ReqKind.READ)


def derive(seed: int, *labels) -> int:
    """A 48-bit number fixed by the run seed and the labels."""
    text = "/".join(str(x) for x in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:6], "big")


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile, as `statistics.quantiles(n=100)` cuts it."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


@dataclass
class Outcome:
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    completed: int = 0  # ops answered inside the timed window
    timed_s: float = 0.0  # wall time of the timed window
    cpu_s: float = 0.0  # process CPU time of the timed window
    latencies_ms: List[float] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)  # each set-up's process CPU time
    setup_reference_s: List[float] = field(default_factory=list)  # one per set-up round
    reference_s: List[float] = field(default_factory=list)  # CPU time of each reference loop
    # Answered ops, each weighted by the reference sample taken after it:
    # the cost unit follows the host's speed through the run.
    reference_ops: float = 0.0
    ops_at_reference: int = 0
    report: Dict[str, object] = field(default_factory=dict)  # printed, not bounded
    counts: Dict[str, float] = field(default_factory=dict)  # inputs of the per-layer metrics

    def time_setup(self, build: Callable[[], object], repeats: int) -> list:
        """Times one set-up round: `repeats` set-ups, each timed alone so one
        slow thread start moves one sample, then the set-up reference loop.
        (A thread start just after the loop ran slower, so the loop does not
        go first.) Returns what the builds returned.

        Process CPU time, not wall time: a group start is six thread starts,
        each waiting for a free CPU. With two busy processes beside it on
        two vCPUs, its wall time went from 1.3 to 24 ms, its CPU time from
        1.4 to 3.1 ms."""
        built = []
        for _ in range(repeats):
            c0 = time.process_time()
            built.append(build())
            self.setup_s.append(time.process_time() - c0)
        self.setup_reference_s.append(_setup_reference_cpu())
        return built

    def time_reference(self, times: int = 1) -> float:
        """Times the reference loop on this thread's CPU clock and weighs the
        ops answered since the last sample with it; returns the CPU time it
        took."""
        samples = []
        for _ in range(times):
            c0 = time.thread_time()
            reference_loop()
            samples.append(time.thread_time() - c0)
        self.reference_s += samples
        completed = self.completed
        self.reference_ops += (completed - self.ops_at_reference) * statistics.median(samples)
        self.ops_at_reference = completed
        return sum(samples)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


def _proposer_counts(out: Outcome, proposers) -> None:
    for p in proposers:
        out.count("proposer.restarts", p.stats.restarts)
        out.count("proposer.read_retries", p.stats.read_retries)
        out.count("proposer.read_escalations", p.stats.read_escalations)
        out.count("proposer.write_throughs", p.stats.write_throughs)
        out.count("proposer.fast_writes", p.stats.fast_writes)
        out.count("proposer.requests_held", len(p.requests))


def _trace_counts(out: Outcome, trace) -> List[int]:
    """Counts one simulator trace into `out`; returns the responses' delays."""
    depths = []
    for ev in trace:
        if isinstance(ev, sim.SendEv):
            out.count("sim.sends")
        elif isinstance(ev, sim.StateSnapshotEv):
            out.count("sim.snapshots")
        elif isinstance(ev, sim.ClientResponseEv):
            depths.append(ev.depth)
        elif isinstance(ev, sim.ClientInvokeEv) and ev.op is ReqKind.WRITE:
            out.count("proposer.write_submits")
    out.count("sim.trace_events", len(trace))
    return depths


def _sha256_of_traces(traces) -> str:
    digest = hashlib.sha256()
    for trace in traces:
        digest.update(sim.trace_to_jsonl(trace))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# fuzz_mixed: the campaign protocol developers run, seeds back to back


@dataclass(frozen=True)
class Arm:
    mode: Mode
    n: int
    fifo: bool
    drop: float = 0.0
    dup: float = 0.0


FUZZ_ARMS = (
    Arm(Mode.WRITE_ONCE, 3, fifo=False, drop=0.05, dup=0.02),
    Arm(Mode.WRITE_ONCE, 5, fifo=False, drop=0.05, dup=0.02),
    Arm(Mode.SEQUENCE, 3, fifo=True),
    Arm(Mode.RMW, 3, fifo=True),
)
FUZZ_HASHED_SEEDS = 8  # the first seeds of a run, whose traces are digested
FUZZ_SETUP_WORLDS = 64


def fuzz_case(base: int, i: int):
    """Inputs of the run's i-th seed: arms interleave, 2-4 duelling proposers,
    a crash plan derived from the simulator seed (the shape of the write-once
    and sequence/RMW safety campaigns)."""
    arm = FUZZ_ARMS[i % len(FUZZ_ARMS)]
    sim_seed = base + i
    duellers = 2 + sim_seed % 3
    if arm.mode is Mode.WRITE_ONCE:
        scripts = cli.default_scripts(Mode.WRITE_ONCE, duellers)
        crashable = ()
    else:
        scripts = [
            sim.ClientScript(client=c, proposer=sim.PROPOSER_BASE + c, ops=(W, R, W, R))
            for c in range(duellers)
        ]
        crashable = [s.proposer for s in scripts]
    plan = sim.random_crash_plan(sim_seed, arm.n, (arm.n - 1) // 2, 200, crashable)
    config = Config(n_acceptors=arm.n, register_mode=arm.mode)
    simcfg = sim.SimConfig(
        seed=sim_seed, fifo=arm.fifo, drop=arm.drop, dup=arm.dup, max_delay=10, crash_plan=plan
    )
    return arm, config, simcfg, scripts


def _run_seed(base: int, i: int):
    arm, config, simcfg, scripts = fuzz_case(base, i)
    result = sim.run_workload(config, simcfg, scripts)
    return arm, result, cli.check_result(arm.mode, result, arm.n)


def fuzz_mixed(seed: int, seconds: float, tracer: Optional[spans.Tracer]) -> Outcome:
    out = Outcome()
    base = derive(seed, "fuzz_mixed") % 10**9

    def build_first_worlds():
        for i in range(FUZZ_SETUP_WORLDS):
            _, config, simcfg, scripts = fuzz_case(base, i)
            sim.World(config, simcfg, scripts)

    build_first_worlds()  # untimed warm-up round
    for _ in range(SETUP_ROUNDS):
        out.time_setup(build_first_worlds, 1)

    kept = []
    depths: List[int] = []
    abandoned = 0
    seeds = 0
    out.time_reference(5)
    next_reference = REFERENCE_EVERY_S
    next_setup = SETUP_EVERY_S
    wall0 = time.perf_counter()
    with spans.active(tracer):
        while time.perf_counter() - wall0 < seconds:
            if out.timed_s >= next_reference:
                out.time_reference()
                next_reference += REFERENCE_EVERY_S
            if out.timed_s >= next_setup:
                with spans.paused(tracer):
                    out.time_setup(build_first_worlds, 1)
                next_setup += SETUP_EVERY_S
            c0, t0 = time.process_time(), time.perf_counter()
            arm, result, verdict = _run_seed(base, seeds)
            t1, c1 = time.perf_counter(), time.process_time()
            out.timed_s += t1 - t0
            out.cpu_s += c1 - c0
            out.latencies_ms.append((t1 - t0) * 1e3)
            if not verdict.ok:
                out.problem(f"seed {base + seeds} ({arm.mode.value}, N={arm.n}): "
                            + "; ".join(f"{v.prop}: {v.detail}" for v in verdict.violations[:3]))
            open_ops: Dict[int, int] = {}  # client -> ops invoked, not answered
            for history in result.histories.values():
                for ev in history:
                    if ev.kind == "invoke":
                        out.attempted += 1
                        open_ops[ev.client] = open_ops.get(ev.client, 0) + 1
                    else:
                        out.completed += 1
                        open_ops[ev.client] -= 1
            crashed = {pid for _, pid, what in result.world.sim.crash_plan if what == "crash"}
            for client, n in open_ops.items():
                if not n:
                    continue
                proposer = result.world.clients[client].script.proposer
                if result.quiescent and proposer in crashed:
                    abandoned += n  # its proposer crashed: the outcome is unknown
                    continue
                out.failed += n
                if result.quiescent:
                    out.problem(f"seed {base + seeds} ({arm.mode.value}, N={arm.n}): "
                                f"{n} ops of client {client} unanswered by live proposer {proposer}")
                # else the seed ran out of steps with the ops still open
            out.count("sim.steps", result.world.steps)
            depths += _trace_counts(out, result.trace)
            _proposer_counts(out, result.world.proposers.values())
            if seeds < FUZZ_HASHED_SEEDS:
                kept.append(result.trace)
            seeds += 1
    out.counts["traced_wall_s"] = time.perf_counter() - wall0
    out.time_reference(5)
    for i in range(len(kept), FUZZ_HASHED_SEEDS):
        kept.append(_run_seed(base, i)[1].trace)
    out.report["trace_sha256"] = _sha256_of_traces(kept)
    out.counts.update(ops=out.completed,
                      delays_p50=percentile(depths, 50), delays_p99=percentile(depths, 99))
    out.report.update(
        seeds=seeds,
        seed_range=f"{base}..{base + seeds - 1}",
        seeds_per_s=seeds / out.timed_s,
        steps_per_s=out.counts["sim.steps"] / out.timed_s,
        delays_p50=out.counts["delays_p50"],
        delays_p99=out.counts["delays_p99"],
        abandoned_ops=abandoned,
    )
    if tracer is not None:
        # The same seeds again, untraced: the tracing overhead, and rates
        # free of it.
        untraced = 0.0
        for i in range(seeds):
            t0 = time.perf_counter()
            _run_seed(base, i)
            untraced += time.perf_counter() - t0
        out.counts.update(traced_s=out.timed_s, untraced_s=untraced,
                          seeds_per_s=seeds / untraced,
                          steps_per_s=out.counts["sim.steps"] / untraced)
    return out


# ---------------------------------------------------------------------------
# read_storm: one appending writer, 64 readers, one key


STORM_READERS = 64
STORM_HORIZON = 200  # ticks each storm world's clients loop for


def storm_world(world_seed: int) -> sim.World:
    config = Config(n_acceptors=3, register_mode=Mode.SEQUENCE, read_retry_limit=2)
    scripts = [sim.ClientScript(client=0, proposer=sim.PROPOSER_BASE, ops=(W,),
                                loop_until=STORM_HORIZON)]
    scripts += [
        sim.ClientScript(client=c, proposer=sim.PROPOSER_BASE + c, ops=(R,),
                         loop_until=STORM_HORIZON)
        for c in range(1, STORM_READERS + 1)
    ]
    simcfg = sim.SimConfig(seed=world_seed, fifo=True, max_delay=5, max_steps=10**9)
    return sim.World(config, simcfg, scripts)


def _step(world: sim.World, ends: array, lens: array, budget_s: float, max_steps: int) -> bool:
    """Step `world` until it is idle, `budget_s` of stepping has passed, or it
    has made `max_steps` steps; records each step's end time and the trace
    length after it. True when the world went idle."""
    trace = world.trace
    t0 = time.perf_counter()
    while world.steps < max_steps:
        if not world.step():
            return True
        now = time.perf_counter()
        ends.append(now)
        lens.append(len(trace))
        if now - t0 >= budget_s:
            return False
    return False


def read_storm(seed: int, seconds: float, tracer: Optional[spans.Tracer]) -> Outcome:
    out = Outcome()

    def build_first_world():
        return storm_world(derive(seed, "read_storm", 0))

    build_first_world()  # untimed warm-up round
    for _ in range(SETUP_ROUNDS):
        world = out.time_setup(build_first_world, 4)[-1]

    depths: List[int] = []
    cut_steps: List[int] = []  # steps each world made inside the timed window
    k = 0
    out.time_reference(5)
    wall0 = time.perf_counter()
    with spans.active(tracer):
        while True:
            if k > 0:
                out.time_reference(3)
                with spans.paused(tracer):
                    out.time_setup(build_first_world, 4)
                world = storm_world(derive(seed, "read_storm", k))
            ends, lens = array("d"), array("q")
            # The first world always runs to its horizon, so its trace is
            # the same on every commit; later ones stop when time is up.
            budget = float("inf") if k == 0 else seconds - out.timed_s
            c0, t0 = time.process_time(), time.perf_counter()
            idle = _step(world, ends, lens, budget, 10**12)
            out.timed_s += time.perf_counter() - t0
            out.cpu_s += time.process_time() - c0
            cut_steps.append(world.steps)
            timed_len = lens[-1] if lens else 0
            if not idle:
                # Clients stop issuing; ops already in flight drain untimed.
                for state in world.clients.values():
                    state.finished = True
            world.run()
            _trace_counts(out, world.trace)
            depths += _storm_ops(out, world, ends, lens, timed_len)
            out.count("sim.steps", world.steps)
            _proposer_counts(out, world.proposers.values())
            if k == 0:
                with spans.paused(tracer):
                    out.report["trace_sha256"] = _sha256_of_traces([world.trace])
            verdict = checker.audit_propositions(world.trace, 3)
            if k == 0:
                # Quadratic in the reads, so only the first world's history,
                # which is the same on every commit, is checked this way.
                verdict.merge(checker.check_sequence(world.histories.get(b"r", [])))
            if not verdict.ok:
                out.problem(f"storm world {k}: " + "; ".join(
                    f"{v.prop}: {v.detail}" for v in verdict.violations[:3]))
            k += 1
            if not idle or out.timed_s >= seconds:
                break
            world = None
    out.counts["traced_wall_s"] = time.perf_counter() - wall0
    out.time_reference(5)
    timed_steps = sum(cut_steps)
    out.counts.update(ops=out.counts.pop("answered", 0),
                      delays_p50=percentile(depths, 50), delays_p99=percentile(depths, 99))
    out.report.update(
        worlds=k,
        timed_steps=timed_steps,
        steps_per_s=timed_steps / out.timed_s,
        delays_p50=out.counts["delays_p50"],
        delays_p99=out.counts["delays_p99"],
    )
    if tracer is not None:
        # The same worlds to the same step counts, untraced.
        untraced = 0.0
        for i, steps in enumerate(cut_steps):
            world = storm_world(derive(seed, "read_storm", i))
            t0 = time.perf_counter()
            _step(world, array("d"), array("q"), float("inf"), steps)
            untraced += time.perf_counter() - t0
        out.counts.update(traced_s=out.timed_s, untraced_s=untraced,
                          steps_per_s=timed_steps / untraced)
    return out


def _storm_ops(out: Outcome, world: sim.World, ends: array, lens: array, timed_len: int) -> List[int]:
    """Latency of each op answered in the timed window: wall time between
    the steps that invoked and answered it. Counts attempted and failed ops
    over the whole world, drained ops included. Returns the message delays
    of the ops answered in the timed window."""
    def wall(trace_index: int) -> float:
        return ends[bisect_left(lens, trace_index + 1)]

    invoked_at: Dict[tuple, int] = {}
    depths = []
    answered = set()
    for idx, ev in enumerate(world.trace):
        if isinstance(ev, sim.ClientInvokeEv):
            invoked_at[(ev.client, ev.op_index)] = idx
        elif isinstance(ev, sim.ClientResponseEv):
            op = (ev.client, ev.op_index)
            answered.add(op)
            out.count("answered")
            if idx < timed_len:
                out.completed += 1
                depths.append(ev.depth)
                out.latencies_ms.append((wall(idx) - wall(invoked_at[op])) * 1e3)
    out.attempted += len(invoked_at)
    missing = len(invoked_at) - len(answered)
    if missing:
        out.failed += missing
        out.problem(f"{missing} storm ops never answered after the world drained")
    return depths


# ---------------------------------------------------------------------------
# loopback_kv: three socket replicas in this process, two open-loop clients


LOOPBACK_RATE = 50.0  # ops/s offered by each connection
LOOPBACK_CONNECTIONS = 2
LOOPBACK_KEYS = 8  # per connection
THREAD_CAP = 600  # live threads above which the run aborts
LOOPBACK_SETUP_ROUNDS = 12  # before the window, and again after it
LOOPBACK_REFERENCE_EVERY_S = 0.5
SETTLE_S = 15.0  # how long replica and timer threads get to end after stop


def _free_addresses(n: int):
    socks = [socket.create_server(("127.0.0.1", 0)) for _ in range(n)]
    try:
        return [("127.0.0.1", s.getsockname()[1]) for s in socks]
    finally:
        for s in socks:
            s.close()


class _Group:
    """Three RMW replicas, started, and one client per sender, each for a
    different replica; clients connect on their first op."""

    def __init__(self):
        self.addresses = _free_addresses(3)
        config = Config(n_acceptors=3, register_mode=Mode.RMW)
        self.replicas = [Replica(i, self.addresses, config) for i in range(3)]
        self.clients = [NetClient(self.addresses[i], retries=0)
                        for i in range(LOOPBACK_CONNECTIONS)]
        try:
            for r in self.replicas:
                r.start()
        except BaseException:
            self.stop(concurrently=True)
            raise

    def warm(self) -> None:
        """One read per client, so connections exist before the timed ops."""
        for client in self.clients:
            status, _ = client.submit(b"warm", ReqKind.READ, None)
            if status is not Status.EMPTY:
                raise RuntimeError(f"warm-up read answered {status.name}")

    def stop(self, concurrently: bool = False) -> float:
        """Stops every replica; returns the seconds it took."""
        for client in self.clients:
            client.close()
        t0 = time.perf_counter()
        if concurrently:
            stoppers = [threading.Thread(target=r.stop) for r in self.replicas]
            for t in stoppers:
                t.start()
            for t in stoppers:
                t.join()
        else:
            for r in self.replicas:
                r.stop()
        return time.perf_counter() - t0


def _stop_all(groups: List[_Group]) -> None:
    stoppers = [threading.Thread(target=g.stop, args=(True,)) for g in groups]
    for t in stoppers:
        t.start()
    for t in stoppers:
        t.join()


def _plan(seed: int, conn: int, n_ops: int):
    rng = random.Random(derive(seed, "loopback_kv", "ops", conn))
    keys = [f"c{conn}.{derive(seed, 'loopback_kv', 'key', conn, j):012x}".encode()
            for j in range(LOOPBACK_KEYS)]
    return [(keys[rng.randrange(LOOPBACK_KEYS)], rng.random() < 0.5) for _ in range(n_ops)]


def _time_group_setup(out: Outcome) -> None:
    for _ in range(LOOPBACK_SETUP_ROUNDS):
        _stop_all(out.time_setup(_Group, 3))


def _loopback_pass(out: Outcome, seed: int, seconds: float, measure_setup: bool) -> None:
    if measure_setup:
        _stop_all([_Group() for _ in range(3)])  # untimed warm-up round
        _time_group_setup(out)
    group = _Group()
    try:
        group.warm()
    except BaseException:
        group.stop(concurrently=True)
        raise

    n_ops = int(LOOPBACK_RATE * seconds)
    plans = [_plan(seed, c, n_ops) for c in range(LOOPBACK_CONNECTIONS)]
    done_adds: Dict[bytes, int] = {}
    late_ms: List[float] = []
    statuses: Dict[str, int] = {}
    aborted = threading.Event()
    lock = threading.Lock()
    peak = [threading.active_count()]
    sent = [0] * LOOPBACK_CONNECTIONS
    finished_at = [0.0] * LOOPBACK_CONNECTIONS
    start = time.perf_counter() + 0.05

    def sender(conn: int) -> None:
        client = group.clients[conn]
        adds: Dict[bytes, int] = {}
        for i, (key, is_add) in enumerate(plans[conn]):
            if aborted.is_set():
                break
            due = start + i / LOOPBACK_RATE
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            issued = time.perf_counter()
            if is_add:
                status, value = client.submit(key, ReqKind.WRITE, kv.AddCmd(1))
            else:
                status, value = client.submit(key, ReqKind.READ, None)
            answered = time.perf_counter()
            sent[conn] += 1
            expect = adds.get(key, 0) + (1 if is_add and status is Status.DONE else 0)
            with lock:
                late_ms.append((issued - due) * 1e3)
                statuses[status.name] = statuses.get(status.name, 0) + 1
                if status in (Status.DONE, Status.EMPTY):
                    out.completed += 1
                    out.latencies_ms.append((answered - due) * 1e3)
                    got = kv.from_payload(value) if status is Status.DONE else None
                    if got != (expect or None):
                        out.problem(f"{key!r}: {'add' if is_add else 'get'} returned {got}, "
                                    f"expected {expect} after this connection's adds")
                else:
                    out.failed += 1
                    if status is Status.ERROR:
                        out.problem(f"{key!r}: ERROR reply {value.payload!r}")
                threads = threading.active_count()
                if threads > peak[0]:
                    peak[0] = threads
            adds[key] = expect
            if threads > THREAD_CAP:
                aborted.set()
        finished_at[conn] = time.perf_counter()
        with lock:
            done_adds.update(adds)

    senders = [threading.Thread(target=sender, args=(c,)) for c in range(LOOPBACK_CONNECTIONS)]
    c0 = time.process_time()
    reference_cpu = 0.0
    try:
        for t in senders:
            t.start()
        # This thread samples the reference loop while the senders run, three
        # calls a time so a call the replica threads disturb does not count:
        # about 8 ms of CPU a second, taken back out of the window's CPU time.
        for t in senders:
            while t.is_alive():
                t.join(LOOPBACK_REFERENCE_EVERY_S)
                reference_cpu += out.time_reference(3)
        out.cpu_s += time.process_time() - c0 - reference_cpu
        out.timed_s += max(finished_at) - start
        out.attempted += n_ops * LOOPBACK_CONNECTIONS
        out.failed += n_ops * LOOPBACK_CONNECTIONS - sum(sent)
        if aborted.is_set():
            out.problem(f"aborted: live threads passed the cap of {THREAD_CAP}")
        # Every counter, read through the replica no sender used, equals
        # the adds acknowledged DONE.
        checker_client = NetClient(group.addresses[2], retries=0)
        try:
            for key, adds in sorted(done_adds.items()):
                status, value = checker_client.submit(key, ReqKind.READ, None)
                got = kv.from_payload(value) if status is Status.DONE else None
                if got != (adds or None):
                    out.problem(f"{key!r}: final counter {got} ({status.name}), {adds} adds DONE")
        finally:
            checker_client.close()
        out.count("proposer.write_submits", sum(1 for p in plans for _, a in p if a))
        _proposer_counts(out, [r.proposer for r in group.replicas])
    finally:
        out.counts["net.stop_s"] = group.stop()
    out.counts["net.threads_peak"] = max(out.counts.get("net.threads_peak", 0), peak[0])
    out.counts["bench.generator_late_ms"] = percentile(late_ms, 99)
    out.report["statuses"] = statuses


def _settle_threads() -> int:
    """Waits for every thread but this one to end; returns how many did not."""
    deadline = time.monotonic() + SETTLE_S
    for t in threading.enumerate():
        if t is not threading.current_thread():
            t.join(max(0.0, deadline - time.monotonic()))
    return threading.active_count() - 1


def loopback_kv(seed: int, seconds: float, tracer: Optional[spans.Tracer]) -> Outcome:
    out = Outcome()
    wall0 = time.perf_counter()
    with spans.active(tracer):
        _loopback_pass(out, seed, seconds, measure_setup=True)
    out.counts["traced_wall_s"] = time.perf_counter() - wall0
    _time_group_setup(out)  # the window's length after the first rounds
    left = _settle_threads()
    out.counts["net.threads_left"] = left
    if left:
        out.problem(f"{left} threads still alive {SETTLE_S:.0f}s after the group stopped")
    out.counts["ops"] = out.completed
    out.report["threads_peak"] = out.counts["net.threads_peak"]
    out.report["stop_s"] = out.counts["net.stop_s"]
    if tracer is not None:
        # Open loop: wall time is fixed by the rate, so the tracing overhead
        # is the ratio of CPU time per op, traced over untraced.
        plain = Outcome()
        _loopback_pass(plain, seed, seconds, measure_setup=False)
        _settle_threads()
        out.counts["traced_s"] = out.cpu_s / max(out.completed, 1)
        out.counts["untraced_s"] = plain.cpu_s / max(plain.completed, 1)
    return out


WORKLOADS: Dict[str, Callable[[int, float, Optional[spans.Tracer]], Outcome]] = {
    "fuzz_mixed": fuzz_mixed,
    "read_storm": read_storm,
    "loopback_kv": loopback_kv,
}
