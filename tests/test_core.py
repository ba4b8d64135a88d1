import copy
import dataclasses
import json
import operator

import pytest
from hypothesis import given, strategies as st

from rmwreg.core import (
    EMPTY,
    ALL_MUTATIONS,
    CommandError,
    Config,
    FnCommand,
    Mode,
    Ordering,
    ROUND_ZERO,
    ReqID,
    Round,
    Value,
    apply_command,
    round_compare,
    round_sort_key,
)
from rmwreg import codec
from rmwreg.messages import Ticket

rounds = st.builds(
    Round,
    st.integers(min_value=0, max_value=50),
    st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
)


def test_round_compare_examples():
    assert round_compare(Round(1, 3), Round(2, 1)) is Ordering.LESS
    assert round_compare(Round(2, 1), Round(1, 3)) is Ordering.GREATER
    assert round_compare(Round(2, 1), Round(2, 1)) is Ordering.EQUAL
    assert round_compare(Round(2, 1), Round(2, 3)) is Ordering.INCOMPARABLE
    assert round_compare(ROUND_ZERO, ROUND_ZERO) is Ordering.EQUAL


@given(rounds, rounds)
def test_round_compare_antisymmetry(r1, r2):
    c12 = round_compare(r1, r2)
    c21 = round_compare(r2, r1)
    flip = {
        Ordering.LESS: Ordering.GREATER,
        Ordering.GREATER: Ordering.LESS,
        Ordering.EQUAL: Ordering.EQUAL,
        Ordering.INCOMPARABLE: Ordering.INCOMPARABLE,
    }
    assert c21 is flip[c12]


@given(rounds, rounds, rounds)
def test_round_compare_transitivity(r1, r2, r3):
    if round_compare(r1, r2) is Ordering.LESS and round_compare(r2, r3) is Ordering.LESS:
        assert round_compare(r1, r3) is Ordering.LESS


@given(rounds)
def test_sort_key_consistent_with_order(r):
    # The initial round sorts below any owned round with the same n.
    assert round_sort_key(Round(r.n, None)) <= round_sort_key(r)


def test_empty_value_is_distinguished():
    assert EMPTY.empty
    assert Value(b"") != EMPTY
    with pytest.raises(ValueError):
        Value(b"x", empty=True)


def test_apply_command_noop_and_type_check():
    inc = FnCommand(lambda v: Value(v.payload + b"!") if not v.empty else Value(b"!"))
    assert apply_command(inc, EMPTY) == Value(b"!")
    assert apply_command(inc, Value(b"a")) == Value(b"a!")
    noop = FnCommand(lambda v: None)
    assert apply_command(noop, Value(b"a")) is None
    bad = FnCommand(lambda v: b"raw")
    with pytest.raises(CommandError):
        apply_command(bad, EMPTY)


def test_apply_command_is_deterministic():
    cmd = FnCommand(lambda v: Value((v.payload or b"") + b"x"))
    v = Value(b"seed")
    assert apply_command(cmd, v) == apply_command(cmd, v)
    assert v == Value(b"seed")  # input not mutated


def test_config_validation():
    with pytest.raises(ValueError):
        Config(n_acceptors=0)
    with pytest.raises(ValueError):
        Config(n_acceptors=3, read_retry_limit=-1)
    with pytest.raises(ValueError):
        Config(n_acceptors=3, mutations=frozenset({"bogus"}))
    assert Config(n_acceptors=3, mutations=ALL_MUTATIONS).mutations == ALL_MUTATIONS


def test_modes_enumerate_cli_names():
    assert {m.value for m in Mode} == {"write-once", "sequence", "rmw"}


# (value, the plain tuple of its fields, its repr, its codec kind)
VALUE_TYPES = [
    (Round(3, 7), (3, 7), "Round(n=3, id=7)", codec.ROUND),
    (ROUND_ZERO, (0, None), "Round(n=0, id=None)", codec.ROUND),
    (ReqID(3, 7), (3, 7), "ReqID(pid=3, seq=7)", codec.OPT_REQ),
    (Value(b"x"), (b"x", False), "Value(payload=b'x', empty=False)", codec.VALUE),
    (EMPTY, (b"", True), "Value(payload=b'', empty=True)", codec.VALUE),
    (Ticket(3, 7), (3, 7), "Ticket(request=3, instance=7)", codec.TICKET),
]


@pytest.mark.parametrize("value,fields,text,kind", VALUE_TYPES, ids=[t for _, _, t, _ in VALUE_TYPES])
def test_value_types_hash_compare_and_print_as_frozen_records(value, fields, text, kind):
    """The value types hash as the tuple of their fields, as the frozen
    dataclasses they replace did, so dict and set order, and with them the
    traces, do not change."""
    cls = type(value)
    assert hash(value) == hash(fields)
    assert value == cls(*fields) and hash(cls(*fields)) == hash(value)
    assert repr(value) == text
    for name in ("n", "pid", "payload", "request"):
        if hasattr(value, name):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, fields[0])
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(value, cls(*fields))
        with pytest.raises(TypeError):
            compare(value, fields)
    decoded = kind.from_json(json.loads(json.dumps(kind.to_json(value))))
    assert type(decoded) is cls and decoded == value
    assert copy.deepcopy(value) == value and type(copy.deepcopy(value)) is cls


def test_value_rejects_a_payload_when_empty():
    with pytest.raises(ValueError):
        Value(b"x", True)
