import pytest
from hypothesis import given, strategies as st

from rmwreg import checker, kv
from rmwreg.core import EMPTY, PROPOSER_BASE, CommandError, Config, Mode, Value, apply_command
from rmwreg.messages import ReqKind, Status
from rmwreg.sim import SimConfig

KEY = b"k"


def driver(mode=Mode.RMW, seed=1):
    return kv.SimDriver(Config(n_acceptors=3, register_mode=mode),
                        SimConfig(seed=seed, fifo=True))


# ---------------------------------------------------------------------------
# command algebra


def test_set():
    assert kv.SetCmd(5).apply(EMPTY) == kv.to_payload(5)
    assert kv.SetCmd({"a": 1}).apply(kv.to_payload("old")) == kv.to_payload({"a": 1})


def test_cas():
    assert kv.CasCmd(5, 6).apply(kv.to_payload(5)) == kv.to_payload(6)
    assert kv.CasCmd(5, 6).apply(kv.to_payload(7)) is None
    assert kv.CasCmd(None, 1).apply(EMPTY) == kv.to_payload(1)


def test_add():
    assert kv.AddCmd(3).apply(EMPTY) == kv.to_payload(3)
    assert kv.AddCmd(3).apply(kv.to_payload(4)) == kv.to_payload(7)
    with pytest.raises(CommandError):
        kv.AddCmd(1).apply(kv.to_payload("nope"))
    for delta in ("1", True, None, [1]):
        with pytest.raises(CommandError, match="numeric delta"):
            kv.AddCmd(delta).apply(kv.to_payload(1))


def test_set_insert_remove():
    v = kv.SetInsertCmd("x").apply(EMPTY)
    assert v == kv.to_payload(["x"])
    assert kv.SetInsertCmd("x").apply(v) is None  # idempotent
    v2 = kv.SetInsertCmd("a").apply(v)
    assert kv.from_payload(v2) == ["a", "x"]  # canonical order
    assert kv.SetRemoveCmd("x").apply(v2) == kv.to_payload(["a"])
    assert kv.SetRemoveCmd("zz").apply(v2) is None


def test_append():
    v = kv.AppendCmd("t1").apply(EMPTY)
    assert kv.from_payload(v) == ["t1"]
    assert kv.from_payload(kv.AppendCmd("t1").apply(v)) == ["t1", "t1"]


def test_commands_never_mutate_input():
    base = kv.to_payload([1, 2])
    kv.AppendCmd(3).apply(base)
    assert base == kv.to_payload([1, 2])


json_scalars = st.one_of(st.integers(min_value=-1000, max_value=1000),
                         st.text(max_size=8), st.booleans(), st.none())


@given(st.lists(json_scalars, max_size=5), json_scalars)
def test_set_ops_idempotent_oracle(start, elem):
    """Applying an idempotent command twice equals applying it once."""
    base = kv.to_payload(list(start))
    for cmd in (kv.SetInsertCmd(elem), kv.SetRemoveCmd(elem)):
        once = apply_command(cmd, base)
        if once is None:
            continue
        assert apply_command(cmd, once) is None


@given(st.integers(min_value=-100, max_value=100),
       st.lists(st.integers(min_value=-10, max_value=10), max_size=6))
def test_add_oracle(start, deltas):
    value = kv.to_payload(start)
    for d in deltas:
        value = apply_command(kv.AddCmd(d), value)
    assert kv.from_payload(value) == start + sum(deltas)


# ---------------------------------------------------------------------------
# wire encoding


@given(st.one_of(
    st.builds(kv.SetCmd, json_scalars),
    st.builds(kv.CasCmd, json_scalars, json_scalars),
    st.builds(kv.AddCmd, st.integers(min_value=-99, max_value=99)),
    st.builds(kv.SetInsertCmd, json_scalars),
    st.builds(kv.SetRemoveCmd, json_scalars),
    st.builds(kv.AppendCmd, st.text(max_size=8)),
))
def test_command_encoding_round_trip(cmd):
    assert kv.decode_command(cmd.encode()) == cmd


@pytest.mark.parametrize("cmd, wire", [
    (kv.SetCmd({"a": [1, 2]}), b'{"args":[{"a":[1,2]}],"op":"set"}'),
    (kv.CasCmd(None, "x"), b'{"args":[null,"x"],"op":"cas"}'),
    (kv.AddCmd(-3), b'{"args":[-3],"op":"add"}'),
    (kv.SetInsertCmd("e"), b'{"args":["e"],"op":"set_insert"}'),
    (kv.SetRemoveCmd(2.5), b'{"args":[2.5],"op":"set_remove"}'),
    (kv.AppendCmd("t1"), b'{"args":["t1"],"op":"append"}'),
])
def test_command_encoding_is_pinned(cmd, wire):
    """Commands cross the network; their bytes must not drift."""
    assert cmd.encode() == wire
    assert kv.decode_command(wire) == cmd


def test_decode_command_rejects_garbage():
    with pytest.raises(CommandError):
        kv.decode_command(b"not json")
    with pytest.raises(CommandError):
        kv.decode_command(b'{"op": "explode", "args": []}')
    with pytest.raises(CommandError):
        kv.decode_command(b'{"op": "set", "args": []}')


# ---------------------------------------------------------------------------
# facade over the simulator


def test_get_unwritten_key_is_none():
    assert driver().facade().get(KEY) is None


def test_put_then_get():
    f = driver().facade()
    f.put(KEY, 5)
    assert f.get(KEY) == 5


def test_update_returns_new_value():
    f = driver().facade()
    f.put(KEY, 5)
    assert f.update(KEY, kv.AddCmd(2)) == ("done", 7)
    assert f.update(KEY, kv.CasCmd(0, 1)) == ("noop", None)
    assert f.get(KEY) == 7


def test_update_that_fails_to_apply_raises_and_keeps_the_value():
    f = driver().facade()
    f.put(KEY, "abc")
    with pytest.raises(CommandError, match="add requires a numeric register"):
        f.update(KEY, kv.AddCmd(1))
    with pytest.raises(CommandError, match="add requires a numeric delta"):
        f.update(KEY, kv.decode_command(b'{"op": "add", "args": ["x"]}'))
    assert f.get(KEY) == "abc"
    assert f.update(KEY, kv.SetCmd(1)) == ("done", 1)


def test_mode_error_for_non_idempotent_in_sequence_mode():
    f = driver(Mode.SEQUENCE).facade()
    with pytest.raises(kv.ModeError):
        f.update(KEY, kv.AddCmd(1))
    with pytest.raises(kv.ModeError):
        f.update(KEY, kv.AppendCmd("x"))
    # idempotent commands are allowed
    f.update(KEY, kv.SetInsertCmd("x"))
    f.update(KEY, kv.SetInsertCmd("x"))
    assert f.get(KEY) == ["x"]


def test_keys_are_independent_registers():
    f = driver().facade()
    f.put(b"a", 1)
    f.put(b"b", 2)
    assert f.update(b"a", kv.AddCmd(10)) == ("done", 11)
    assert f.get(b"b") == 2


def test_counter_reads_non_decreasing_under_updates():
    f = driver().facade()
    f.put(KEY, 0)
    last = 0
    for _ in range(20):
        f.update(KEY, kv.AddCmd(1))
        cur = f.get(KEY)
        assert cur >= last
        last = cur
    assert last == 20


def test_sim_driver_sessions_are_checkable():
    """Every op of a session enters the world through `World.submit`, which
    records its invoke, so the session's history and trace go through the
    same checkers as a fuzz seed's."""
    d = driver(Mode.WRITE_ONCE)
    assert d.submit(KEY, ReqKind.READ, None) == (Status.EMPTY, EMPTY)
    assert d.submit(KEY, ReqKind.WRITE, kv.SetCmd("a")) == (Status.DONE, kv.to_payload("a"))
    assert d.submit(KEY, ReqKind.WRITE, kv.SetCmd("b")) == (
        Status.ALREADY_CHOSEN, kv.to_payload("a"))
    assert d.submit(KEY, ReqKind.READ, None) == (Status.DONE, kv.to_payload("a"))
    history = d.world.histories[KEY]
    assert checker.check_write_once(history).ok
    assert checker.audit_propositions(d.world.trace, 3).ok
    assert [e.kind for e in history] == ["invoke", "respond"] * 4
    assert [e.value for e in history if e.kind == "invoke"] == [
        None, kv.to_payload("a"), kv.to_payload("b"), None]

    d = driver(Mode.RMW)
    for i in range(4):
        assert d.submit(KEY, ReqKind.WRITE, kv.append_token(f"t{i}"))[0] is Status.DONE
        status, value = d.submit(KEY, ReqKind.READ, None)
        assert status is Status.DONE
        assert checker.sequence_of(value) == [f"t{j}" for j in range(i + 1)]
    verdict = checker.check_exactly_once(d.world.histories[KEY])
    assert verdict.ok and verdict.checkable
    assert checker.audit_propositions(d.world.trace, 3).ok


def test_get_through_a_crashed_proposer_is_unavailable():
    d = kv.SimDriver(Config(n_acceptors=3, register_mode=Mode.RMW),
                     SimConfig(seed=1, crash_plan=((0, PROPOSER_BASE, "crash"),)))
    d.world.run()  # the crash
    with pytest.raises(kv.Unavailable, match="read of b'k'"):
        d.facade().get(KEY)
    assert d.world.clients[0].ops_meta == {}  # never admitted


def test_sim_driver_answers_unavailable_when_its_step_budget_runs_out():
    d = kv.SimDriver(Config(n_acceptors=3, register_mode=Mode.RMW),
                     SimConfig(seed=1, max_steps=3))
    assert d.submit(KEY, ReqKind.WRITE, kv.AddCmd(1)) == (Status.UNAVAILABLE, EMPTY)
    assert d.world.steps == 3
    assert 0 in d.world.clients[0].ops_meta  # admitted, still open
