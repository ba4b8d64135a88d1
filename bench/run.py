"""Benchmark entry point.

    python3 bench/run.py --workload <fuzz_mixed|read_storm|loopback_kv> \\
        --seed <n> --seconds <s> --trace <0|1>

Runs one workload against the `rmwreg` sources in `src/` of the checkout
this file sits in, checks its outputs, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run is traced and the
metrics are the per-layer ones, and the spans are written under
`bench/out/`. See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# name -> unit; the order they are printed in.
END_TO_END = {
    "setup_s": "s",
    "cpu_per_op_ref": "ref/op",
    "peak_rss_mb": "MB",
}

# Figures printed by every run (those a workload has) but not bounded. The
# simulator-only ones cannot be given on every workload. On a shared 2-vCPU
# host the times in milliseconds drift with the host's speed, by up to 0.25
# of their median over ten runs; `cpu_per_op_ref` is their steady form.
REPORTED = {
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "reference_ms": "ms",
    "setup_raw_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "failed_share": "share",
    "seeds_per_s": "1/s",
    "steps_per_s": "1/s",
    "delays_p50": "delays",
    "delays_p99": "delays",
    "seeds": "count",
    "worlds": "count",
    "timed_steps": "count",
    "abandoned_ops": "count",
    "threads_peak": "count",
    "stop_s": "s",
}

MESSAGES = ("Prepare", "PaxosPrep", "Vote", "Ack", "Voted", "Nack", "Learned",
            "ClientRequest", "ClientReply")
CHECKERS = ("check_write_once", "check_sequence", "check_exactly_once", "audit_propositions")
QUORUM = ("classify", "find_chosen_in_pool", "find_empty_in_pool")
PROPOSER_STATS = ("restarts", "read_retries", "read_escalations", "write_throughs")

PER_LAYER = {
    "seeds_per_s": "1/s",
    "steps_per_s": "1/s",
    "delays_p50": "delays",
    "delays_p99": "delays",
    "failed_share": "share",
    "sim.self_us_per_step": "us",
    "sim.step_self_share": "share",
    "sim.world_init_us": "us",
    "sim.steps": "1/op",
    "sim.messages_per_op": "1/op",
    "sim.trace_events_per_op": "1/op",
    **{f"acceptor.handle.{m}.{k}": u for m in ("Prepare", "PaxosPrep", "Vote")
       for k, u in (("calls", "1/op"), ("us", "us"))},
    "acceptor.state_changes_per_op": "1/op",
    "proposer.submit.us": "us",
    "proposer.on_message.us": "us",
    "proposer.on_timer.us": "us",
    **{f"proposer.{s}": "1/op" for s in PROPOSER_STATS},
    "proposer.fast_write_share": "share",
    "proposer.requests_held": "1/op",
    **{f"quorum.{f}.{k}": u for f in QUORUM for k, u in (("calls", "1/op"), ("us", "us"))},
    **{f"kv.apply.{c}.us": "us" for c in ("SetCmd", "AddCmd", "AppendCmd")},
    "kv.decode_command.us": "us",
    "kv.payload_bytes_max": "bytes",
    **{f"checker.{c}.us_per_seed": "us" for c in CHECKERS},
    "checker.share": "share",
    **{f"codec.{d}.{m}.us": "us" for d in ("encode", "decode") for m in MESSAGES},
    "codec.frame.us": "us",
    "codec.bytes_per_op": "bytes/op",
    "net.submit.ms": "ms",
    "net.threads_peak": "count",
    "net.threads_left": "count",
    "net.frames_per_op": "1/op",
    "net.stop_s": "s",
    "bench.generator_late_ms": "ms",
    "bench.trace_overhead_share": "share",
}


def _use_sources() -> bool:
    """Puts the checkout's `src/` first on the import path; False when the
    checkout has no sources to build from."""
    if not (ROOT / "src" / "rmwreg" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end(out) -> dict:
    from workloads import REFERENCE_NOMINAL_S

    return {
        "setup_s": statistics.median(out.setup_s) / statistics.median(out.setup_reference_s)
        * REFERENCE_NOMINAL_S,
        "cpu_per_op_ref": _ratio(out.cpu_s, out.reference_ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def reported(out) -> dict:
    from workloads import percentile

    return {
        "ops_per_s": _ratio(out.completed, out.timed_s),
        "cpu_ms_per_op": _ratio(out.cpu_s * 1e3, out.completed),
        "reference_ms": statistics.median(out.reference_s) * 1e3,
        "setup_raw_s": statistics.median(out.setup_s),
        "latency_p50_ms": percentile(out.latencies_ms, 50),
        "latency_p99_ms": percentile(out.latencies_ms, 99),
        "failed_share": _ratio(out.failed, out.attempted),
    }


def per_layer(out, tracer) -> dict:
    totals = tracer.totals()
    counts = out.counts
    ops = counts.get("ops", 0)

    def calls(name):
        return totals.get(name, (0, 0, 0))[0]

    def self_us(name):
        n, _, own = totals.get(name, (0, 0, 0))
        return _ratio(own, n) / 1e3

    def per_op(n):
        return _ratio(n, ops)

    _, step_total, step_self = totals.get("sim.step", (0, 0, 0))
    checker_ns = sum(totals.get(f"checker.{c}", (0, 0, 0))[1] for c in CHECKERS)
    untraced = counts.get("untraced_s", 0)
    m = {
        "seeds_per_s": counts.get("seeds_per_s", 0.0),
        "steps_per_s": counts.get("steps_per_s", 0.0),
        "delays_p50": counts.get("delays_p50", 0.0),
        "delays_p99": counts.get("delays_p99", 0.0),
        "failed_share": _ratio(out.failed, out.attempted),
        "sim.self_us_per_step": self_us("sim.step"),
        "sim.step_self_share": _ratio(step_self, step_total),
        "sim.world_init_us": self_us("sim.world_init"),
        "sim.steps": per_op(counts.get("sim.steps", 0)),
        "sim.messages_per_op": per_op(counts.get("sim.sends", 0)),
        "sim.trace_events_per_op": per_op(counts.get("sim.trace_events", 0)),
        "acceptor.state_changes_per_op": per_op(counts.get("sim.snapshots", 0)),
        "proposer.fast_write_share": _ratio(counts.get("proposer.fast_writes", 0),
                                            counts.get("proposer.write_submits", 0)),
        "proposer.requests_held": per_op(counts.get("proposer.requests_held", 0)),
        "kv.payload_bytes_max": tracer.max("kv.payload_bytes"),
        "checker.share": _ratio(checker_ns / 1e9, counts.get("traced_wall_s", 0)),
        "codec.bytes_per_op": per_op(tracer.sum("codec.bytes")),
        "net.submit.ms": _ratio(totals.get("net.submit", (0, 0, 0))[1], calls("net.submit")) / 1e6,
        "net.threads_peak": counts.get("net.threads_peak", 0),
        "net.threads_left": counts.get("net.threads_left", 0),
        "net.frames_per_op": per_op(calls("codec.frame")),
        "net.stop_s": counts.get("net.stop_s", 0),
        "bench.generator_late_ms": counts.get("bench.generator_late_ms", 0),
        "bench.trace_overhead_share": _ratio(counts.get("traced_s", 0), untraced) - 1 if untraced else 0.0,
    }
    for s in PROPOSER_STATS:
        m[f"proposer.{s}"] = per_op(counts.get(f"proposer.{s}", 0))
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if name in m:
            continue
        if kind == "calls":
            m[name] = per_op(calls(span))
        elif kind in ("us", "us_per_seed"):  # a checker is called once per seed
            m[name] = self_us(span)
    return m


def _span_table(tracer, wall_s: float) -> list:
    lines = [f"{'span':<34}{'calls':>10}{'total ms':>12}{'self ms':>12}{'self us/call':>14}{'self share':>12}"]
    rows = sorted(tracer.totals().items(), key=lambda kv: -kv[1][2])
    for name, (n, total, own) in rows:
        lines.append(f"{name:<34}{n:>10}{total / 1e6:>12.1f}{own / 1e6:>12.1f}"
                     f"{own / n / 1e3:>14.2f}{_ratio(own / 1e9, wall_s):>12.3f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fuzz_mixed", "read_storm", "loopback_kv"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not _use_sources():
        print(f"error: no rmwreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    out = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for key, value in dict(out.report, **reported(out)).items():
        value = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {key:<32} {value:>14} {REPORTED.get(key, '')}".rstrip())
    print(f"  {'ops attempted / failed':<32} {out.attempted} / {out.failed}")
    if tracer is None:
        metrics, units = end_to_end(out), END_TO_END
    else:
        metrics, units = per_layer(out, tracer), PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        dump = OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl"
        tracer.dump(dump, {"workload": args.workload, "seed": args.seed,
                           "seconds": args.seconds, "clock": "perf_counter_ns"})
        print(f"  spans written to {dump.relative_to(ROOT)}")
        for line in _span_table(tracer, out.counts.get("traced_wall_s", 0)):
            print("  " + line)
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:>14.6g} {unit}")
    for text in out.problems:
        print(f"  PROBLEM: {text}")
    correct = not out.problems
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
