"""Replicated key-value facade.

Register values store canonical JSON payloads; a small wire-encodable
command algebra (set, cas, add, set_insert, set_remove, append) transforms
them deterministically. Distinct keys map to fully independent register
instances, so the facade is just a typed veneer over the proposer's
read/update operations.

The in-process protocol API accepts arbitrary deterministic functions;
only this fixed algebra crosses the network.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Callable, List, Optional, Tuple

from .codec import canonical_json as _encode
from .core import EMPTY, CommandError, Mode, UpdateCommand, Value
from .messages import ReqKind, Status


def to_payload(obj: Any) -> Value:
    return Value(_encode(obj).encode("utf-8"))


def from_payload(value: Value) -> Any:
    """Decode a register value; the empty register decodes to None."""
    if value.empty:
        return None
    try:
        return json.loads(value.payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CommandError(f"register holds non-JSON payload: {exc}") from exc


# ---------------------------------------------------------------------------
# command algebra


class KvCommand(UpdateCommand):
    op = ""
    idempotent = True

    def args(self) -> List[Any]:
        """The command's dataclass fields, in declaration order."""
        return [getattr(self, f.name) for f in fields(self)]

    def encode(self) -> bytes:
        return _encode({"op": self.op, "args": self.args()}).encode("utf-8")


@dataclass(frozen=True)
class SetCmd(KvCommand):
    value: Any
    op = "set"

    def apply(self, value: Value) -> Optional[Value]:
        return to_payload(self.value)


@dataclass(frozen=True)
class CasCmd(KvCommand):
    expect: Any
    new: Any
    op = "cas"

    def apply(self, value: Value) -> Optional[Value]:
        if from_payload(value) != self.expect:
            return None
        return to_payload(self.new)


@dataclass(frozen=True)
class AddCmd(KvCommand):
    delta: int
    op = "add"
    idempotent = False

    def apply(self, value: Value) -> Optional[Value]:
        if not _is_number(self.delta):
            raise CommandError("add requires a numeric delta")
        current = from_payload(value)
        if current is None:
            current = 0
        if not _is_number(current):
            raise CommandError("add requires a numeric register")
        return to_payload(current + self.delta)


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _as_list(value: Value, what: str) -> List[Any]:
    current = from_payload(value)
    if current is None:
        return []
    if not isinstance(current, list):
        raise CommandError(f"{what} requires a list register")
    return current


@dataclass(frozen=True)
class SetInsertCmd(KvCommand):
    elem: Any
    op = "set_insert"

    def apply(self, value: Value) -> Optional[Value]:
        members = _as_list(value, "set_insert")
        if self.elem in members:
            return None
        # Members sort by their encoding, a stable order for mixed types that
        # keeps payloads canonical.
        return to_payload(sorted(members + [self.elem], key=_encode))


@dataclass(frozen=True)
class SetRemoveCmd(KvCommand):
    elem: Any
    op = "set_remove"

    def apply(self, value: Value) -> Optional[Value]:
        members = _as_list(value, "set_remove")
        if self.elem not in members:
            return None
        return to_payload([m for m in members if m != self.elem])


@dataclass(frozen=True)
class AppendCmd(KvCommand):
    elem: Any
    op = "append"
    idempotent = False

    def apply(self, value: Value) -> Optional[Value]:
        return to_payload(_as_list(value, "append") + [self.elem])


# op -> command class; its dataclass fields are its arguments
COMMANDS = {
    cls.op: cls for cls in (SetCmd, CasCmd, AddCmd, SetInsertCmd, SetRemoveCmd, AppendCmd)
}


def decode_command(data: bytes) -> KvCommand:
    try:
        rec = json.loads(data.decode("utf-8"))
        op = rec["op"]
        args = rec["args"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CommandError(f"malformed command encoding: {exc}") from exc
    if not isinstance(op, str) or op not in COMMANDS:
        raise CommandError(f"unknown command op {op!r}")
    cls = COMMANDS[op]
    arity = len(fields(cls))
    if not isinstance(args, list) or len(args) != arity:
        raise CommandError(f"{op} expects {arity} argument(s)")
    return cls(*args)


def append_token(token: str) -> AppendCmd:
    """Append-log update whose effects stay visible in every later value,
    which is what the sequence checkers need."""
    return AppendCmd(token)


# ---------------------------------------------------------------------------
# facade


class ModeError(Exception):
    """Non-idempotent command submitted while running a consensus-sequence
    register, which only guarantees at-least-once application."""


class Unavailable(Exception):
    pass


SubmitFn = Callable[[bytes, ReqKind, Optional[UpdateCommand]], Tuple[Status, Value]]


class KvFacade:
    """get/update API over any transport exposing a blocking submit call.

    The same facade fronts the in-process simulator and the socket client.
    """

    def __init__(self, submit: SubmitFn, mode: Mode):
        self.submit = submit
        self.mode = mode

    def get(self, key: bytes) -> Any:
        status, value = self.submit(key, ReqKind.READ, None)
        if status is Status.EMPTY:
            return None
        if status is Status.DONE:
            return from_payload(value)
        if status is Status.UNAVAILABLE:
            raise Unavailable(f"read of {key!r} could not reach a quorum")
        raise CommandError(f"unexpected read status {status}")

    def update(self, key: bytes, cmd: KvCommand) -> Tuple[str, Any]:
        if self.mode is Mode.SEQUENCE and not cmd.idempotent:
            raise ModeError(
                f"{cmd.op} is not idempotent; sequence mode may apply it twice"
            )
        status, value = self.submit(key, ReqKind.WRITE, cmd)
        if status is Status.DONE:
            return ("done", from_payload(value))
        if status is Status.NOOP:
            return ("noop", None)
        if status is Status.ALREADY_CHOSEN:  # write-once: another literal was chosen
            return ("already_chosen", from_payload(value))
        if status is Status.ERROR:  # the replica could not apply the command
            raise CommandError(value.payload.decode("utf-8", "replace"))
        if status is Status.UNAVAILABLE:
            raise Unavailable(f"update of {key!r} could not reach a quorum")
        raise CommandError(f"unexpected update status {status}")

    def put(self, key: bytes, obj: Any) -> Any:
        return self.update(key, SetCmd(obj))[1]


# ---------------------------------------------------------------------------
# synchronous driver over the simulator


class SimDriver:
    """Blocking client against a simulated deployment: submit one request,
    step the world until its record closes. An op not admitted, or still open
    when the world idles or its step budget runs out, answers UNAVAILABLE."""

    def __init__(self, config, sim_config):
        from .sim import PROPOSER_BASE, ClientScript, World

        script = ClientScript(client=0, proposer=PROPOSER_BASE, ops=())
        self.world = World(config, sim_config, [script])
        self.seq = 0

    def submit(self, key: bytes, kind: ReqKind, cmd: Optional[UpdateCommand]):
        world = self.world
        seq = self.seq
        self.seq += 1
        # An append's element is its write token, which the sequence checkers
        # look for in later reads.
        token = cmd.elem if isinstance(cmd, AppendCmd) else None
        world.submit(0, key, kind, cmd, seq, token)
        open_ops = world.clients[0].ops_meta
        while seq in open_ops and world.steps < world.sim.max_steps and world.step():
            pass
        last = world.histories[key][-1]  # the driver is the world's only client
        if last.kind != "respond":
            return Status.UNAVAILABLE, EMPTY
        return last.status, last.value

    def facade(self) -> KvFacade:
        return KvFacade(self.submit, self.world.config.register_mode)
