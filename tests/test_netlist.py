"""Netlist validation and garbage accounting tests."""

import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import revlogic.netlist
from revlogic import (
    GateInstance,
    InvalidNetlistError,
    Netlist,
    analyze,
    build_bcd_adder,
    builtin,
    check_equivalence,
    garbage_wires,
    is_valid,
    require_valid,
    run,
    run_inverse,
    serialize_netlist,
    truth_table,
    validate,
)
from helpers import bcd_digit_domain, bcd_digit_oracle, random_netlist

FG = builtin("FG")
PFAG = builtin("PFAG")


def single_fg(outputs=("p", "q")):
    return Netlist(
        "one_fg",
        ("a", "b"),
        (),
        (GateInstance(FG, ("a", "b"), ("p", "q")),),
        tuple(outputs),
    )


def rules(violations):
    return [v.rule for v in violations if v.severity == "error"]


def test_single_gate_ok():
    assert validate(single_fg()) == []


def test_fan_out_detected():
    n = Netlist(
        "fan",
        ("a", "b", "c"),
        (),
        (
            GateInstance(FG, ("a", "b"), ("p", "q")),
            GateInstance(FG, ("a", "c"), ("r", "s")),
        ),
        ("p", "q", "r", "s"),
    )
    found = [v for v in validate(n) if v.rule == "fan-out"]
    assert found and found[0].wire == "a" and found[0].gate_index == 1


def test_same_gate_double_consumption_is_fan_out():
    n = Netlist("fan2", ("a",), (), (GateInstance(FG, ("a", "a"), ("p", "q")),), ("p", "q"))
    assert "fan-out" in rules(validate(n))


def test_use_before_definition():
    n = Netlist(
        "ubd",
        ("a",),
        (),
        (
            GateInstance(FG, ("a", "later"), ("p", "q")),
            GateInstance(FG, ("p", "q"), ("later", "r")),
        ),
        ("r",),
    )
    found = [v for v in validate(n) if v.rule == "use-before-definition"]
    assert found and found[0].wire == "later" and found[0].gate_index == 0


def test_redefinition():
    n = Netlist("redef", ("a", "b"), (), (GateInstance(FG, ("a", "b"), ("a2", "a2")),), ("a2",))
    assert "redefinition" in rules(validate(n))

    n = Netlist("redef2", ("a", "a"), (), (), ("a",))
    assert "redefinition" in rules(validate(n))


def test_arity_mismatch():
    n = Netlist("arity", ("a", "b", "c"), (), (GateInstance(FG, ("a", "b", "c"), ("p", "q", "r")),), ("p",))
    assert "arity-mismatch" in rules(validate(n))


def test_bad_constant_and_bad_wire_name():
    n = Netlist("bad", (), (("k", 2),), (), ("k",))
    assert "bad-constant" in rules(validate(n))
    n = Netlist("bad2", ("3x",), (), (), ("3x",))
    assert "bad-wire-name" in rules(validate(n))


def test_undefined_and_duplicate_outputs():
    n = Netlist("out", ("a",), (), (), ("a", "ghost"))
    assert "undefined-output" in rules(validate(n))
    n = Netlist("out2", ("a",), (), (), ("a", "a"))
    assert "duplicate-output" in rules(validate(n))


def test_output_also_consumed_is_fan_out():
    n = Netlist("out3", ("a", "b"), (), (GateInstance(FG, ("a", "b"), ("p", "q")),), ("a", "p", "q"))
    assert "fan-out" in rules(validate(n))


def test_unused_constant_warns_but_is_valid():
    n = Netlist("warn", ("a",), (("k", 0),), (), ("a",))
    violations = validate(n)
    assert is_valid(n)
    assert [v.rule for v in violations if v.severity == "warning"] == ["unused-constant"]


def test_pass_through_is_legal():
    n = Netlist("pass", ("a", "b"), (), (), ("b", "a"))
    assert validate(n) == []


def test_validate_ignores_constant_ordering():
    gates = (GateInstance(FG, ("k0", "k1"), ("p", "q")),)
    n1 = Netlist("c", (), (("k0", 0), ("k1", 1)), gates, ("p", "q"))
    n2 = Netlist("c", (), (("k1", 1), ("k0", 0)), gates, ("p", "q"))
    assert validate(n1) == [] and validate(n2) == []


def test_garbage_wires_basic():
    n = Netlist("g", ("a",), (("k", 0),), (GateInstance(FG, ("a", "k"), ("a1", "a2")),), ("a1",))
    assert garbage_wires(n) == ["a2"]


def test_garbage_requires_valid():
    n = Netlist("bad", ("a", "a"), (), (), ())
    with pytest.raises(InvalidNetlistError):
        garbage_wires(n)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_garbage_conservation_property(seed):
    n = random_netlist(random.Random(seed))
    assert is_valid(n)
    garbage = garbage_wires(n)
    assert len(garbage) == len(n.primary_inputs) + len(n.constants) - len(n.primary_outputs)
    assert set(garbage).isdisjoint(n.primary_outputs)


def free_sources(n: Netlist) -> Netlist:
    """Rebuild with constants promoted to primary inputs (all lines free)."""
    return Netlist(
        n.name + "_free",
        n.primary_inputs + tuple(w for w, _ in n.constants),
        (),
        n.gates,
        n.primary_outputs,
    )


@pytest.mark.parametrize("seed", range(12))
def test_whole_circuit_map_is_bijective_on_small_nets(seed):
    n = random_netlist(random.Random(seed), max_gates=3)
    free = free_sources(n)
    if len(free.primary_inputs) > 12:
        pytest.skip("too wide to enumerate")
    rows = truth_table(free)
    patterns = {(row.outputs, row.garbage) for row in rows}
    assert len(patterns) == len(rows)


@pytest.fixture
def check_calls(monkeypatch):
    """Netlist objects passed to the validating function, one entry per call."""
    calls = []
    original = revlogic.netlist._check

    def counting(netlist):
        calls.append(netlist)
        return original(netlist)

    monkeypatch.setattr(revlogic.netlist, "_check", counting)
    return calls


def use_everywhere(n):
    validate(n)
    require_valid(n)
    garbage_wires(n)
    result = run(n, dict.fromkeys(n.primary_inputs, 1))
    run_inverse(n, result.terminals)
    truth_table(n)
    check_equivalence(n, bcd_digit_oracle, bcd_digit_domain)
    analyze(n)
    serialize_netlist(n)


def test_validated_once_per_netlist_object(check_calls):
    n = build_bcd_adder("bcd2")
    for _ in range(2):
        use_everywhere(n)
    assert len(check_calls) == 1 and check_calls[0] is n
    # an equal netlist is a different object: it is checked on its own
    fresh = dataclasses.replace(n)
    assert fresh == n
    use_everywhere(fresh)
    assert len(check_calls) == 2 and check_calls[1] is fresh


def test_returned_lists_are_fresh():
    n = Netlist("warn", ("a",), (("k", 0), ("j", 0)), (GateInstance(FG, ("a", "j"), ("a1", "a2")),), ("a1",))
    first = validate(n)
    assert [v.rule for v in first] == ["unused-constant"]
    first.clear()
    assert [v.rule for v in validate(n)] == ["unused-constant"]
    garbage = garbage_wires(n)
    assert garbage == ["k", "a2"]
    garbage.append("x")
    garbage.remove("k")
    assert garbage_wires(n) == ["k", "a2"]


def test_invalid_netlist_raises_on_every_call(check_calls, monkeypatch):
    plans = []
    original = revlogic.netlist._Plan

    def counting_plan(*args):
        plans.append(args)
        return original(*args)

    monkeypatch.setattr(revlogic.netlist, "_Plan", counting_plan)
    n = Netlist("bad", ("a", "a"), (), (), ())
    for _ in range(2):
        assert not is_valid(n)
        assert "redefinition" in rules(validate(n))
        for call in (require_valid, garbage_wires, analyze, serialize_netlist, truth_table):
            with pytest.raises(InvalidNetlistError, match="defined more than once"):
                call(n)
        with pytest.raises(InvalidNetlistError):
            run(n, {"a": 0})
        with pytest.raises(InvalidNetlistError):
            run_inverse(n, {})
    assert len(check_calls) == 1
    assert plans == []


def test_compiled_form_is_not_observable():
    n = build_bcd_adder("bcd2")
    twin = build_bcd_adder("bcd2")
    before = (hash(n), repr(n), pickle.dumps(n))
    use_everywhere(n)
    assert n == twin and twin == n
    assert (hash(n), repr(n), pickle.dumps(n)) == before == (hash(twin), repr(twin), pickle.dumps(twin))
    loaded = pickle.loads(pickle.dumps(n))
    assert loaded == n and hash(loaded) == hash(n)
    assert check_equivalence(loaded, bcd_digit_oracle, bcd_digit_domain) == []
    renamed = dataclasses.replace(n, name="other")
    assert renamed != n and renamed.name == "other" and validate(renamed) == []
