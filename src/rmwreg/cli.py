"""Command-line entry point.

Subcommands:
  fuzz    seeded campaigns through the simulator and checkers
  replay  render a recorded trace with per-acceptor state evolution
  serve   run one socket replica
  client  issue get/update operations against a running group
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import FrozenSet, List, Optional, Tuple

from . import checker, kv
from .core import ALL_MUTATIONS, RMW, WRITE_ONCE, Config, Mode, Value
from .messages import READ, WRITE
from .sim import (
    PROPOSER_BASE,
    ClientInvokeEv,
    ClientResponseEv,
    ClientScript,
    CrashEv,
    DeliverEv,
    DropEv,
    DuplicateEv,
    OpSpec,
    RecoverEv,
    SendEv,
    SimConfig,
    StateSnapshotEv,
    World,
    random_crash_plan,
    run_workload,
)
from .trace import read_trace, write_trace


def _parse_seeds(s: str) -> range:
    if ":" in s:
        lo, hi = s.split(":", 1)
        seeds = range(int(lo), int(hi))
    else:
        seeds = range(int(s), int(s) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {s!r}")
    return seeds


def _parse_addresses(s: str) -> List[Tuple[str, int]]:
    out = []
    for part in s.split(","):
        host, sep, port = part.rpartition(":")
        if not sep or not host:
            raise argparse.ArgumentTypeError(f"{part!r} is not host:port")
        try:
            number = int(port)
        except ValueError:
            raise argparse.ArgumentTypeError(f"port {port!r} is not an integer") from None
        if not 1 <= number <= 65535:
            raise argparse.ArgumentTypeError(f"port {number} in {part!r} is outside 1-65535")
        out.append((host, number))
    return out


# ---------------------------------------------------------------------------
# workload scripts

def default_scripts(mode: Mode, n_clients: int = 3) -> List[ClientScript]:
    scripts = []
    for c in range(n_clients):
        if mode is WRITE_ONCE:
            ops = (
                OpSpec(READ),
                OpSpec(WRITE, cmd=kv.SetCmd(f"v{c}")),
                OpSpec(READ),
            )
        else:
            ops = (
                OpSpec(WRITE, make_cmd=kv.append_token),
                OpSpec(READ),
                OpSpec(WRITE, make_cmd=kv.append_token),
                OpSpec(READ),
            )
        scripts.append(ClientScript(client=c, proposer=PROPOSER_BASE + c, ops=ops))
    return scripts


def _op_from_json(rec: dict) -> OpSpec:
    """`read`, a tokened `append`, or any other kv command with its fields
    named as its class names them. No fixed-element append is offered: the
    sequence checkers would read its element as an unsubmitted token."""
    op = rec["op"]
    if op == "read":
        return OpSpec(READ)
    if op == "append":
        return OpSpec(WRITE, make_cmd=kv.append_token)
    cls = kv.COMMANDS.get(op)
    if cls is None:
        raise ValueError(f"unknown scripted op {op!r}")
    return OpSpec(WRITE, cmd=cls(*(rec[f.name] for f in fields(cls))))


def load_scripts(path: str) -> Tuple[List[ClientScript], tuple]:
    """Raises OSError when `path` cannot be read and ValueError when it is
    not a workload script."""
    text = Path(path).read_text()
    scripts = []
    try:
        spec = json.loads(text)
        for rec in spec["clients"]:
            scripts.append(
                ClientScript(
                    client=rec["client"],
                    proposer=PROPOSER_BASE + rec.get("proposer", rec["client"]),
                    ops=tuple(_op_from_json(o) for o in rec["ops"]),
                    key=rec.get("key", "r").encode(),
                    start_tick=rec.get("start_tick", 0),
                    think=rec.get("think", 0),
                    loop_until=rec.get("loop_until"),
                )
            )
        crash_plan = tuple((t, pid, act) for t, pid, act in spec.get("crash_plan", []))
    except json.JSONDecodeError as exc:
        raise ValueError(f"script {path}: not JSON: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"script {path}: missing field {exc}") from None
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"script {path}: malformed: {exc}") from None
    return scripts, crash_plan


# ---------------------------------------------------------------------------
# fuzz


def check_result(mode: Mode, result, n_acceptors: int) -> checker.Verdict:
    verdict = checker.Verdict()
    for key, history in result.histories.items():
        if mode is WRITE_ONCE:
            verdict.merge(checker.check_write_once(history))
        else:
            # Sequence checks read update order off append-log tokens, so
            # they apply only to a key whose every write is a tokened append:
            # another command's value is no append log. The trace audit
            # below still covers every key.
            tokens = [e.token for e in history if e.kind == "invoke" and e.op is WRITE]
            if tokens and all(tokens):
                verdict.merge(checker.check_sequence(history))
                if mode is RMW:
                    verdict.merge(checker.check_exactly_once(history))
    verdict.merge(checker.audit_propositions(result.trace, n_acceptors))
    return verdict


def _fuzz_sim_config(args, seed: int, scripts, fixed_crash) -> SimConfig:
    if fixed_crash is not None:
        crash_plan = fixed_crash
    elif args.crashes:
        crash_plan = random_crash_plan(
            seed, args.replicas, args.crashes, 200, [s.proposer for s in scripts]
        )
    else:
        crash_plan = ()
    return SimConfig(
        seed=seed,
        fifo=args.fifo,
        drop=args.drop,
        dup=args.dup,
        max_delay=args.delay,
        crash_plan=crash_plan,
        max_steps=args.max_steps,
    )


def cmd_fuzz(args) -> int:
    mode = Mode(args.mode)
    mutations = frozenset(args.mutate or [])
    seeds = args.seeds
    # Bad input is reported before the first seed runs.
    try:
        if args.max_steps < 1:
            raise ValueError(f"--max-steps must be at least 1, got {args.max_steps}")
        config = _protocol_config(args, args.replicas, mutations)
        if args.script:
            scripts, fixed_crash = load_scripts(args.script)
        else:
            scripts, fixed_crash = default_scripts(mode), None
        # The crash plan and World check the rest: links, delay and scripts.
        World(config, _fuzz_sim_config(args, seeds.start, scripts, fixed_crash), scripts)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    verdicts = {}
    out_of_steps = []  # seeds whose checkers saw only the first --max-steps steps
    first_counterexample: Optional[str] = None
    started = time.monotonic()
    for seed in seeds:
        sim = _fuzz_sim_config(args, seed, scripts, fixed_crash)
        result = run_workload(config, sim, scripts)
        verdict = check_result(mode, result, args.replicas)
        verdicts[seed] = verdict
        if not result.quiescent:
            out_of_steps.append(seed)
        if not verdict.ok and first_counterexample is None and args.trace_out:
            path = Path(args.trace_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("wb") as fp:
                write_trace(result.trace, fp)
            first_counterexample = str(path)

    failing = {s: v for s, v in verdicts.items() if not v.ok}
    if args.report:
        report = {
            "mode": mode.value,
            "replicas": args.replicas,
            "seeds": [seeds.start, seeds.stop],
            "fault_profile": {
                "fifo": args.fifo,
                "drop": args.drop,
                "dup": args.dup,
                "delay": args.delay,
                "crashes": args.crashes,
            },
            "mutations": sorted(mutations),
            "verdicts": {
                str(s): "ok" if v.ok else [f"{x.prop}: {x.detail}" for x in v.violations]
                for s, v in verdicts.items()
            },
            "out_of_steps": out_of_steps,
            "first_counterexample": first_counterexample,
        }
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")

    elapsed = time.monotonic() - started
    print(f"{len(verdicts)} seeds, {len(failing)} with violations, "
          f"{len(out_of_steps)} out of steps ({elapsed:.1f}s)")
    for seed, verdict in list(failing.items())[:10]:
        for v in verdict.violations[:3]:
            print(f"  seed {seed}: {v.prop}: {v.detail}")
    if first_counterexample:
        print(f"first counterexample trace: {first_counterexample}")
    return 1 if failing or out_of_steps else 0


# ---------------------------------------------------------------------------
# replay


def _fmt_round(r) -> str:
    return f"({r.n},{'-' if r.id is None else r.id})"


def _fmt_value(v: Value) -> str:
    if v.empty:
        return "⊥"
    return v.payload.decode("utf-8", "replace")


def cmd_replay(args) -> int:
    try:
        with open(args.trace, "rb") as fp:
            trace = read_trace(fp)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2

    sends = {}  # a delivery, drop or duplicate follows its send
    for ev in trace:
        if isinstance(ev, SendEv):
            sends[ev.idx] = ev
            print(
                f"[{ev.tick:>5}] send    #{ev.idx} {ev.src}->{ev.dst} "
                f"{type(ev.msg).__name__} depth={ev.depth}"
            )
        elif isinstance(ev, DeliverEv):
            src = sends.get(ev.send_idx)
            what = type(src.msg).__name__ if src else "?"
            print(f"[{ev.tick:>5}] deliver #{ev.send_idx} {what}")
        elif isinstance(ev, DropEv):
            print(f"[{ev.tick:>5}] drop    #{ev.send_idx} ({ev.reason})")
        elif isinstance(ev, DuplicateEv):
            print(f"[{ev.tick:>5}] dup     #{ev.send_idx}")
        elif isinstance(ev, StateSnapshotEv):
            s = ev.state
            print(
                f"[{ev.tick:>5}] acceptor {ev.pid} key={ev.key.decode('utf-8', 'replace')}: "
                f"({_fmt_round(s.r_ack)}, {_fmt_value(s.val)}, {_fmt_round(s.r_voted)})"
            )
        elif isinstance(ev, ClientInvokeEv):
            print(
                f"[{ev.tick:>5}] client {ev.client} invoke op {ev.op_index} "
                f"{ev.op.name}{'' if ev.token is None else ' token=' + ev.token}"
            )
        elif isinstance(ev, ClientResponseEv):
            print(
                f"[{ev.tick:>5}] client {ev.client} op {ev.op_index} -> "
                f"{ev.status.name} {_fmt_value(ev.value)} delays={ev.depth}"
            )
        elif isinstance(ev, CrashEv):
            print(f"[{ev.tick:>5}] crash {ev.pid}")
        elif isinstance(ev, RecoverEv):
            print(f"[{ev.tick:>5}] recover {ev.pid}")
    return 0


# ---------------------------------------------------------------------------
# serve / client


def cmd_serve(args) -> int:
    from .net import Replica

    addresses = args.replicas
    try:
        config = _protocol_config(args, len(addresses))
        replica = Replica(args.index, addresses, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    host, port = addresses[args.index]
    try:
        replica.start()
    except OSError as exc:  # the port is taken, or the host is not ours
        print(f"error: cannot listen on {host}:{port}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    # Flushed: a supervisor reading a pipe waits for this line.
    print(f"replica {args.index} listening on {addresses[args.index]}", flush=True)
    try:
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        replica.stop()
    return 0


def cmd_client(args) -> int:
    from .net import NetClient

    addresses = args.replicas
    if not 0 <= args.connect < len(addresses):
        args.parser_error(f"--connect {args.connect} is not a replica index "
                          f"below {len(addresses)}")
    if args.retries < 0:
        args.parser_error(f"--retries must be at least 0, got {args.retries}")
    cmd = None
    if args.op != "get":
        try:
            operands = [json.loads(a) for a in args.args]
            cmd = kv.decode_command(
                json.dumps({"op": args.op, "args": operands}).encode()
            )
        except (kv.CommandError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    client = NetClient(addresses[args.connect], retries=args.retries)
    facade = client.facade(Mode(args.mode))
    key = args.key.encode()
    try:
        if cmd is None:
            print(json.dumps(facade.get(key)))
        else:
            outcome, value = facade.update(key, cmd)
            print(outcome if value is None else f"{outcome} {json.dumps(value)}")
    except (kv.Unavailable, kv.ModeError, kv.CommandError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_protocol_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", default="rmw", choices=[m.value for m in Mode])
    p.add_argument("--retries", type=int, default=2, metavar="X",
                   help="read retry limit before write-through escalation")
    p.add_argument("--batch-interval", type=int, default=0, metavar="TICKS",
                   help="hold requests this many timer ticks (50 ms each on serve) and "
                        "start one request per key and kind; 0 disables batching")


def _protocol_config(args, n_acceptors: int, mutations: FrozenSet[str] = frozenset()) -> Config:
    """The `Config` of `n_acceptors` that the protocol flags give."""
    return Config(
        n_acceptors=n_acceptors,
        register_mode=Mode(args.mode),
        read_retry_limit=args.retries,
        batch_interval=args.batch_interval,
        mutations=mutations,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rmwreg")
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="run a seeded simulation campaign")
    _add_protocol_flags(fuzz)
    fuzz.add_argument("--replicas", type=int, default=3)
    fuzz.add_argument("--seeds", type=_parse_seeds, default="0:100",
                      help="seed or non-empty lo:hi range")
    fuzz.add_argument("--drop", type=float, default=0.0)
    fuzz.add_argument("--dup", type=float, default=0.0)
    fuzz.add_argument("--delay", type=int, default=10, help="max message delay in ticks")
    fuzz.add_argument("--fifo", action=argparse.BooleanOptionalAction, default=True)
    fuzz.add_argument("--crashes", type=int, default=0,
                      help="max random acceptor crashes per seed")
    fuzz.add_argument("--mutate", action="append", choices=sorted(ALL_MUTATIONS))
    fuzz.add_argument("--script", help="workload script (JSON)")
    fuzz.add_argument("--trace-out", help="path for the first counterexample trace")
    fuzz.add_argument("--report", help="path for the JSON campaign report")
    fuzz.add_argument("--max-steps", type=int, default=200_000)
    fuzz.set_defaults(fn=cmd_fuzz)

    replay = sub.add_parser("replay", help="render a recorded trace")
    replay.add_argument("trace")
    replay.set_defaults(fn=cmd_replay)

    serve = sub.add_parser("serve", help="run one socket replica")
    _add_protocol_flags(serve)
    serve.add_argument("--replicas", type=_parse_addresses, required=True,
                       help="comma-separated host:port list for the whole group")
    serve.add_argument("--index", type=int, required=True)
    serve.set_defaults(fn=cmd_serve)

    client = sub.add_parser("client", help="issue one operation against the group")
    client.add_argument("--mode", default="rmw", choices=[m.value for m in Mode])
    client.add_argument("--replicas", type=_parse_addresses, required=True,
                        help="comma-separated host:port list for the whole group")
    client.add_argument("--connect", type=int, default=0, help="replica index to contact")
    client.add_argument("--retries", type=int, default=3)
    client.add_argument("--key", default="r")
    client.add_argument("op", choices=["get", *kv.COMMANDS])
    client.add_argument("args", nargs="*", help="JSON-encoded operands")
    client.set_defaults(fn=cmd_client, parser_error=client.error)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
