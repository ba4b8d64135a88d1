"""Deterministic seeded network simulator and fault injector.

The simulator is strictly single-threaded: a seeded generator repeatedly
picks one pending event (message delivery, timer, client invocation, crash
or recovery) and feeds it to the target state machine. Identical
(seed, config, workload) inputs yield byte-identical traces.

Two link contracts are supported: unreliable fair-loss links (messages may
be dropped, duplicated, and reordered within a bounded delay) and reliable
FIFO links (per-pair in-order delivery, no loss), the latter being
mandatory for RMW mode.

Simulated time is a tick counter; message delay is sampled uniformly from
[1, max_delay] ticks.

Picks and delays are drawn by `core.randbelow`, `randrange` rebuilt on
`getrandbits` (inline on the per-message paths): it takes the same bits,
so a seed gives the trace that `randrange`/`randint` calls would. A pick
among one due event draws nothing.

The trace is kept as rows, exact tuples tagged by their `trace.EVENTS`
kind name (see `rmwreg.trace`); `World.trace` is a `trace.Trace` view over
them. Scheduler entries are kind-tagged tuples too: a timer's, invoke's,
crash's or recover's, and a send's row, which is also its delivery's entry
(the bucket holds it twice for a duplicate).
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .acceptor import INITIAL_STATE, Acceptor
from .checker import HistoryEvent
from .core import (EMPTY, PROPOSER_BASE, RMW, WRITE_ONCE, CommandError, Config, ProcessId,
                   UpdateCommand, apply_command, randbelow)
from .messages import WRITE, Reply, ReqKind, Send, SetTimer
from .proposer import Proposer
from .trace import (  # the records and JSONL serializers are re-exported for callers
    ClientInvokeEv,
    ClientResponseEv,
    CrashEv,
    DeliverEv,
    DropEv,
    DuplicateEv,
    RecoverEv,
    SendEv,
    StateSnapshotEv,
    Trace,
    trace_from_jsonl,
    trace_to_jsonl,
)

# ---------------------------------------------------------------------------
# configuration and workload scripts


@dataclass(frozen=True)
class SimConfig:
    seed: int
    fifo: bool = True
    drop: float = 0.0
    dup: float = 0.0
    max_delay: int = 10
    crash_plan: Tuple[Tuple[int, ProcessId, str], ...] = ()  # (tick, pid, crash|recover)
    max_steps: int = 200_000


@dataclass(frozen=True)
class OpSpec:
    """One scripted client operation.

    For writes either `cmd` is a fixed command or `make_cmd` builds one
    from the op's unique token (append-log style payloads for the CS
    checkers).
    """

    kind: ReqKind
    cmd: Optional[UpdateCommand] = None
    make_cmd: Optional[Callable[[str], UpdateCommand]] = None


@dataclass(frozen=True)
class ClientScript:
    client: int
    proposer: ProcessId
    ops: Tuple[OpSpec, ...]
    key: bytes = b"r"
    start_tick: int = 0
    think: int = 0
    loop_until: Optional[int] = None  # cycle through ops until this tick


@dataclass
class SimResult:
    trace: Trace
    histories: Dict[bytes, List[HistoryEvent]]
    quiescent: bool
    world: "World"

    def history(self, key: bytes = b"r") -> List[HistoryEvent]:
        return self.histories.get(key, [])


# ---------------------------------------------------------------------------
# the world


@dataclass
class _ClientState:
    script: ClientScript
    issued: int = 0
    finished: bool = False
    # the invoke record of each admitted op until its reply arrives
    ops_meta: Dict[int, HistoryEvent] = field(default_factory=dict)


class World:
    def __init__(self, config: Config, sim: SimConfig, scripts: Sequence[ClientScript]):
        if config.register_mode is RMW and not sim.fifo:
            raise ValueError("RMW mode requires reliable FIFO links")
        if sim.max_delay < 1:  # `randbelow` draws a delay, and below 1 loops forever
            raise ValueError(f"max_delay must be at least 1 tick, got {sim.max_delay}")
        for name, p in (("drop", sim.drop), ("dup", sim.dup)):
            if not 0 <= p <= 1:
                raise ValueError(f"{name} must be a probability in [0, 1], got {p}")
            if p and sim.fifo:
                raise ValueError(f"FIFO links neither lose nor duplicate, got {name}={p}")
        self.config = config
        self.sim = sim
        self.rng = random.Random(sim.seed)
        self._getrandbits = self.rng.getrandbits
        self._delay_bits = sim.max_delay.bit_length()
        self.acceptors = {pid: Acceptor(pid, config) for pid in range(config.n_acceptors)}
        self.proposers: Dict[ProcessId, Proposer] = {}
        self.clients: Dict[int, _ClientState] = {}
        for script in scripts:
            # Plain type tests: a storm world checks 65 scripts per build.
            client, think, loop_until = script.client, script.think, script.loop_until
            if type(script.start_tick) is not int or type(think) is not int:
                raise ValueError(f"client {client}'s start_tick and think must be ints, "
                                 f"got {script.start_tick!r} and {think!r}")
            if think < 0:  # its next op would be due before the current tick
                raise ValueError(f"client {client}'s think must be non-negative, got {think}")
            if loop_until is not None and type(loop_until) is not int:
                raise ValueError(f"client {client}'s loop_until must be an int, got {loop_until!r}")
            if type(script.proposer) is not int or script.proposer < config.n_acceptors:
                raise ValueError(f"client {client}'s proposer pid {script.proposer!r} is not "
                                 f"an int above the acceptor pids 0..{config.n_acceptors - 1}")
            if not script.ops and loop_until is not None:
                raise ValueError(f"client {client} loops until tick "
                                 f"{loop_until} over an empty op list")
            if client in self.clients:
                raise ValueError(f"client {client} has two scripts")
            self.clients[client] = _ClientState(script)
            if script.proposer not in self.proposers:
                self.proposers[script.proposer] = Proposer(
                    script.proposer, config, random.Random(f"{sim.seed}/{script.proposer}")
                )
        self.down: set = set()
        self.trace = Trace([])
        self._trace_row = self.trace.rows.append
        self.histories: Dict[bytes, List[HistoryEvent]] = {}
        self.send_count = 0
        self.tick = 0
        self.steps = 0
        self.due_ticks: List[int] = []  # heap of the ticks that have a bucket
        self.buckets: Dict[int, list] = {}  # tick -> entries in push order
        self.fifo_last: Dict[Tuple[ProcessId, ProcessId], int] = {}
        for script in scripts:
            if script.ops:
                self._push(script.start_tick, ("invoke", script.client))
        for tick, pid, action in sim.crash_plan:
            if action not in ("crash", "recover"):
                raise ValueError(f"crash plan action must be 'crash' or 'recover', got {action!r}")
            if type(tick) is not int:
                raise ValueError(f"crash plan tick must be an int, got {tick!r}")
            self._push(tick, (action, pid))

    # -- scheduling ----------------------------------------------------------

    def _push(self, tick: int, entry) -> None:
        bucket = self.buckets.get(tick)
        if bucket is None:
            self.buckets[tick] = [entry]
            heapq.heappush(self.due_ticks, tick)
        else:
            bucket.append(entry)

    # -- effect processing ----------------------------------------------------

    def _apply_effects(self, pid: ProcessId, effects, depth: int) -> None:
        """Carry out what `pid` returned while handling an event at `depth`:
        a send is one delay deeper, a reply ends the op at `depth`.

        A send is traced and its delivery scheduled here. A lossy link draws
        loss, then the delay, then duplication: every trace depends on that
        order. A FIFO link draws only the delay, and delivers strictly after
        the pair's previous message."""
        for eff in effects:
            kind = type(eff)
            if kind is Send:
                idx = self.send_count
                self.send_count = idx + 1
                tick = self.tick
                sim = self.sim
                dst = eff.dst
                row = ("send", idx, tick, pid, dst, eff.msg, depth + 1)
                self._trace_row(row)
                if not sim.fifo and self.rng.random() < sim.drop:
                    self._trace_row(("drop", tick, idx, "loss"))
                    continue
                n = sim.max_delay
                getrandbits = self._getrandbits  # randbelow(getrandbits, n), inline
                k = self._delay_bits
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                due = tick + 1 + r
                if sim.fifo:
                    pair = (pid, dst)
                    last = self.fifo_last.get(pair, 0)
                    if due <= last:
                        due = last + 1
                    self.fifo_last[pair] = due
                bucket = self.buckets.get(due)
                if bucket is None:
                    self.buckets[due] = [row]
                    heapq.heappush(self.due_ticks, due)
                else:
                    bucket.append(row)
                if not sim.fifo and self.rng.random() < sim.dup:
                    self._trace_row(("duplicate", tick, idx))
                    self._push(tick + 1 + randbelow(self._getrandbits, n), row)
            elif kind is SetTimer:
                self._push(self.tick + eff.delay, ("timer", pid, eff.token))
            elif kind is Reply:
                self._client_response(eff, depth)
            else:
                raise TypeError(f"unknown effect {eff!r}")

    def _client_response(self, reply: Reply, depth: int) -> None:
        client = reply.client
        cs = self.clients[client]
        invoke = cs.ops_meta.pop(reply.client_seq, None)
        if invoke is None:
            raise RuntimeError(f"client {client} op {reply.client_seq} answered twice")
        key = invoke.key
        self._trace_row(
            ("response", self.tick, client, reply.client_seq, key, reply.status, reply.value, depth)
        )
        self.histories[key].append(HistoryEvent(
            "respond", client, reply.client_seq, invoke.op, key, invoke.token, reply.value,
            reply.status, self.tick))
        self._schedule_next_op(cs)

    def _schedule_next_op(self, cs: _ClientState) -> None:
        script = cs.script
        if script.loop_until is not None:
            if self.tick >= script.loop_until:
                cs.finished = True
                return
        elif cs.issued >= len(script.ops):
            cs.finished = True
            return
        self._push(self.tick + 1 + script.think, ("invoke", script.client))

    def _invoke(self, client: int) -> None:
        """Submit `client`'s next scripted op."""
        cs = self.clients[client]
        if cs.finished:
            return
        script = cs.script
        op_index = cs.issued
        cs.issued += 1
        spec = script.ops[op_index % len(script.ops)]
        token: Optional[str] = None
        cmd = spec.cmd
        if spec.kind is WRITE and spec.make_cmd is not None:
            token = f"{client}.{op_index}"
            cmd = spec.make_cmd(token)
        self.submit(client, script.key, spec.kind, cmd, op_index, token)

    def submit(self, client: int, key: bytes, kind: ReqKind, cmd: Optional[UpdateCommand],
               op_index: int, token: Optional[str] = None) -> None:
        """Hand one request to `client`'s proposer and schedule its effects.

        Traces the op's invoke and adds it to the key's history; a write-once
        write's invoke carries the literal of its set-if-empty command. The
        op stays open in `ops_meta` until its reply closes it. A crashed
        proposer admits nothing: the op is recorded but never opened.
        """
        cs = self.clients[client]
        value = None
        if kind is WRITE and self.config.register_mode is WRITE_ONCE:
            try:
                value = apply_command(cmd, EMPTY)
            except CommandError:
                pass
        self._trace_row(("invoke", self.tick, client, op_index, key, kind, token))
        invoke = HistoryEvent("invoke", client, op_index, kind, key, token, value, None, self.tick)
        history = self.histories.get(key)
        if history is None:
            history = self.histories[key] = []
        history.append(invoke)
        pid = cs.script.proposer
        if pid in self.down:
            return
        cs.ops_meta[op_index] = invoke
        effects = self.proposers[pid].submit(key, kind, cmd, client, op_index)
        self._apply_effects(pid, effects, depth=0)

    # -- main loop -------------------------------------------------------------

    def step(self) -> bool:
        """Process one pending event; False when nothing is pending.

        The event is picked uniformly at random among those due earliest.
        Once the world runs, no push is due earlier than the current tick, so
        the earliest bucket only grows at its tail and every bucket keeps its
        entries in push order. The pick is an index into that order: for one
        seed the same pushes give the same picks, hence the same trace. The
        only entry of a one-entry bucket is taken without a draw.
        """
        due_ticks = self.due_ticks
        if not due_ticks:
            return False
        tick = due_ticks[0]
        bucket = self.buckets[tick]
        n = len(bucket)
        if n == 1:
            heapq.heappop(due_ticks)
            del self.buckets[tick]
            entry = bucket[0]
        else:
            getrandbits = self._getrandbits  # randbelow(getrandbits, n), inline
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            entry = bucket.pop(r)
        self.tick = tick
        self.steps += 1
        kind = entry[0]
        if kind == "send":
            _, idx, _, _, dst, msg, depth = entry
            if dst in self.down:
                self._trace_row(("drop", tick, idx, "crashed"))
                return True
            self._trace_row(("deliver", tick, idx))
            acceptor = self.acceptors.get(dst)
            if acceptor is not None:
                key = msg.key
                cells = acceptor.cells
                before = cells.get(key, INITIAL_STATE)
                effects = acceptor.handle(msg)
                after = cells.get(key, INITIAL_STATE)
                # Most messages leave the cell object in place; only a new one
                # needs the field-by-field comparison.
                if after is not before and after != before:
                    self._trace_row(("snapshot", tick, dst, key, after))
            else:
                proposer = self.proposers.get(dst)
                if proposer is None:
                    return True  # messages to unknown pids are silently discarded
                effects = proposer.on_message(msg)
                if not effects:  # a late reply, or one short of a quorum
                    return True
            self._apply_effects(dst, effects, depth)
            return True
        if kind == "timer":
            _, pid, token = entry
            if pid not in self.down:
                effects = self.proposers[pid].on_timer(token)
                if effects:  # most request timers find their attempt over
                    self._apply_effects(pid, effects, depth=0)
        elif kind == "invoke":
            self._invoke(entry[1])
        elif kind == "crash":
            self.down.add(entry[1])
            self._trace_row(("crash", self.tick, entry[1]))
        elif kind == "recover":
            pid = entry[1]
            self.down.discard(pid)
            self._trace_row(("recover", self.tick, pid))
            if pid in self.proposers:
                effects = self.proposers[pid].on_recover()
                self._apply_effects(pid, effects, depth=0)
        else:
            raise AssertionError(f"unknown entry {entry!r}")
        return True

    def run(self) -> bool:
        """Run to quiescence; False when the step budget ran out first."""
        while self.due_ticks:
            if self.steps >= self.sim.max_steps:
                return False
            self.step()
        return True


def random_crash_plan(
    seed: int,
    n_acceptors: int,
    max_crashes: int,
    horizon: int,
    proposer_pids: Sequence[ProcessId] = (),
) -> Tuple[Tuple[int, ProcessId, str], ...]:
    """Seed-derived fault schedule: up to `max_crashes` acceptor crashes and
    at most one proposer crash, each optionally recovering within the
    horizon. Deterministic in `seed`."""
    if not 0 <= max_crashes <= n_acceptors:
        raise ValueError(f"max_crashes must be between 0 and n_acceptors ({n_acceptors}), "
                         f"got {max_crashes}")
    rng = random.Random(f"{seed}:crash")
    plan = []
    for pid in rng.sample(range(n_acceptors), rng.randint(0, max_crashes)):
        t = rng.randint(1, horizon)
        plan.append((t, pid, "crash"))
        if rng.random() < 0.7:
            plan.append((t + rng.randint(5, horizon), pid, "recover"))
    if proposer_pids and rng.random() < 0.3:
        pid = rng.choice(list(proposer_pids))
        t = rng.randint(1, horizon)
        plan.append((t, pid, "crash"))
        if rng.random() < 0.5:
            plan.append((t + rng.randint(5, horizon), pid, "recover"))
    return tuple(sorted(plan))


def run_workload(
    config: Config, sim: SimConfig, scripts: Sequence[ClientScript]
) -> SimResult:
    world = World(config, sim, scripts)
    quiescent = world.run()
    return SimResult(world.trace, world.histories, quiescent, world)
