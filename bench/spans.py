"""Span recorder for the traced run, and the wrappers it installs.

A span is one call into a layer's public function: its name, start, end,
the span that was open on the same thread when it began (its parent), and
a request id (a fuzz seed, or a client op) inherited from the parent when
the boundary does not carry one. A span's self time is its duration minus
the time covered by its children; children on one thread never overlap,
so that is the duration minus the sum of the children's durations.

Spans are recorded from this directory only: `instrument` replaces public
functions of `rmwreg` modules with timing wrappers and `restore` puts the
originals back. No file under `src/` is changed.
"""
from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional

from rmwreg import acceptor, checker, codec, kv, net, proposer, sim

KV_COMMANDS = (kv.SetCmd, kv.CasCmd, kv.AddCmd, kv.SetInsertCmd, kv.SetRemoveCmd, kv.AppendCmd)


class _ThreadState:
    def __init__(self) -> None:
        self.tid = threading.get_ident()
        self.stack: List[list] = []
        self.agg: Dict[str, List[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.sums: Dict[str, int] = {}
        self.maxes: Dict[str, int] = {}
        self.dropped = 0


class Tracer:
    """Collects spans from any number of threads; each thread keeps its own
    stack and totals, merged when read."""

    def __init__(self, keep: int = 100_000):
        self.keep = keep
        self.enabled = True
        self.records: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: List[_ThreadState] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._states.append(st)
        return st

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own bookkeeping)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def wrap(self, fn: Callable, name, rid_of=None, note=None) -> Callable:
        """`name` is a string or `name(args, result)`; `rid_of(args)` gives
        the request id; `note(state, args, result)` updates counters."""
        tracer = self
        ids = self._ids
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            if rid_of is not None:
                rid = rid_of(args)
            else:
                rid = parent[4] if parent is not None else None
            frame = [0, clock(), next(ids), parent[2] if parent is not None else 0, rid]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if parent is not None:
                    parent[0] += dur
                label = name if isinstance(name, str) else name(args, result)
                agg = st.agg.get(label)
                if agg is None:
                    agg = st.agg[label] = [0, 0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if note is not None and result is not None:
                    note(st, args, result)
                if len(tracer.records) < tracer.keep:
                    tracer.records.append((frame[2], frame[3], label, frame[1], end, rid, st.tid))
                else:
                    st.dropped += 1

        traced.__wrapped__ = fn
        return traced

    # -- merged views ----------------------------------------------------------

    def totals(self) -> Dict[str, List[int]]:
        out: Dict[str, List[int]] = {}
        for st in self._states:
            for name, (calls, total, own) in st.agg.items():
                acc = out.setdefault(name, [0, 0, 0])
                acc[0] += calls
                acc[1] += total
                acc[2] += own
        return out

    def sum(self, name: str) -> int:
        return sum(st.sums.get(name, 0) for st in self._states)

    def max(self, name: str) -> int:
        return max((st.maxes.get(name, 0) for st in self._states), default=0)

    def dropped(self) -> int:
        return sum(st.dropped for st in self._states)

    def dump(self, path, header: dict) -> None:
        """One JSON header line, then one line per recorded span."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(dict(header, spans=len(self.records), dropped=self.dropped())) + "\n")
            for sid, parent, name, start, end, rid, tid in self.records:
                out.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "start_ns": start,
                    "end_ns": end, "rid": rid, "thread": tid,
                }) + "\n")


# ---------------------------------------------------------------------------
# counters noted at span boundaries


def _add(st: _ThreadState, key: str, n: int) -> None:
    st.sums[key] = st.sums.get(key, 0) + n


def _note_encode(st, args, result) -> None:
    _add(st, "codec.bytes", len(result))


def _note_payload(st, args, result) -> None:
    size = len(result.payload)
    if size > st.maxes.get("kv.payload_bytes", 0):
        st.maxes["kv.payload_bytes"] = size


def _op_rid(args) -> str:
    # Proposer.submit(self, key, kind, cmd, client, client_seq). A socket
    # replica's client is the connection; its local port is the replica's
    # listening port, which NetClient's rid also names.
    client, seq = args[4], args[5]
    if isinstance(client, int):
        return f"c{client}:{seq}"
    try:
        return f"{client.getsockname()[1]}:{seq}"
    except OSError:
        return f"?:{seq}"


def _net_rid(args) -> str:
    client = args[0]
    return f"{client.address[1]}:{client.seq}"


def instrument(tracer: Tracer) -> list:
    """Wrap every layer boundary the per-layer metrics read; returns the
    originals for `restore`."""
    saved = []

    def patch(owner, attr, name, rid_of=None, note=None):
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, rid_of, note))

    patch(sim.World, "__init__", "sim.world_init")
    patch(sim.World, "step", "sim.step")
    patch(sim, "run_workload", "sim.run_workload", rid_of=lambda a: f"seed:{a[1].seed}")
    patch(acceptor.Acceptor, "handle", lambda a, r: f"acceptor.handle.{type(a[1]).__name__}")
    patch(proposer.Proposer, "submit", "proposer.submit", rid_of=_op_rid)
    for method in ("on_message", "on_timer", "on_recover"):
        patch(proposer.Proposer, method, f"proposer.{method}")
    # The quorum functions as the proposer module bound them.
    for fn in ("classify", "find_chosen_in_pool", "find_empty_in_pool"):
        patch(proposer, fn, f"quorum.{fn}")
    for cls in KV_COMMANDS:
        patch(cls, "apply", f"kv.apply.{cls.__name__}", note=_note_payload)
    patch(kv, "decode_command", "kv.decode_command")
    patch(net, "decode_command", "kv.decode_command")
    for fn in ("check_write_once", "check_sequence", "check_exactly_once", "audit_propositions"):
        patch(checker, fn, f"checker.{fn}")
    patch(codec, "encode", lambda a, r: f"codec.encode.{type(a[0]).__name__}", note=_note_encode)
    patch(codec, "decode", lambda a, r: f"codec.decode.{type(r).__name__}")
    patch(codec, "frame", "codec.frame")
    patch(net.NetClient, "submit", "net.submit", rid_of=_net_rid)
    patch(net.Replica, "stop", "net.stop")
    return saved


def restore(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


@contextmanager
def active(tracer: Optional[Tracer]):
    """Trace the enclosed block when a tracer is given; otherwise run it as is."""
    if tracer is None:
        yield
        return
    saved = instrument(tracer)
    try:
        yield
    finally:
        restore(saved)


def paused(tracer: Optional[Tracer]):
    return nullcontext() if tracer is None else tracer.paused()
