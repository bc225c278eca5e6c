"""Netlist validation and garbage accounting tests."""

import dataclasses
import pickle
import random
from typing import NamedTuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import revlogic.netlist
import revlogic.simulate
from revlogic import (
    GateInstance,
    InvalidNetlistError,
    Netlist,
    NetlistParseError,
    ParseDiagnostic,
    Violation,
    analyze,
    build_bcd_adder,
    build_bcd_chain,
    builtin,
    check_equivalence,
    garbage_wires,
    is_valid,
    parse_netlist,
    require_valid,
    run,
    run_inverse,
    serialize_netlist,
    truth_table,
    validate,
)
from revlogic.gates import GateDefinition, is_identifier
from helpers import GATE_POOL, bcd_digit_domain, bcd_digit_oracle, random_netlist

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


def named_sequence(n: Netlist, v) -> tuple[str, ...]:
    """The wire sequence a finding's position indexes."""
    if v.gate_index is not None:
        return n.gates[v.gate_index].inputs + n.gates[v.gate_index].outputs
    if v.rule in ("duplicate-output", "undefined-output", "fan-out"):
        return n.primary_outputs
    return n.primary_inputs + n.constant_wires


def assert_positions_name_wires(n: Netlist) -> None:
    for v in validate(n):
        if v.wire is None:
            assert v.position is None
        else:
            assert named_sequence(n, v)[v.position] == v.wire


TG = builtin("TG")
# one netlist per wire rule, each with its wire repeated where a repeat is the fault
BROKEN = [
    Netlist(
        "fan",
        ("a", "b", "c"),
        (),
        (GateInstance(FG, ("a", "b"), ("p", "q")), GateInstance(FG, ("c", "a"), ("r", "s"))),
        ("p", "q", "r", "s"),
    ),
    Netlist("fan2", ("a",), (), (GateInstance(TG, ("a", "a", "a"), ("p", "q", "r")),), ("p", "q", "r")),
    Netlist("fan3", ("a", "b"), (), (GateInstance(FG, ("a", "b"), ("p", "q")),), ("p", "q", "a", "a")),
    Netlist("ubd", ("a",), (), (GateInstance(FG, ("a", "later"), ("p", "q")),), ("p", "q")),
    Netlist("redef", ("a", "b"), (("k", 0), ("b", 1)), (GateInstance(FG, ("a", "k"), ("p", "p")),), ("p",)),
    Netlist("names", ("3x",), (("k", 2), ("9k", 0)), (GateInstance(FG, ("3x", "k"), ("p", "1q")),), ("p", "1q", "9k")),
    Netlist("arity", ("a", "b", "c"), (), (GateInstance(FG, ("a", "b", "c"), ("p", "q", "r")),), ("p", "q", "r")),
    Netlist("outs", ("a",), (), (), ("a", "ghost", "a", "ghost")),
]


@pytest.mark.parametrize("n", BROKEN, ids=[n.name for n in BROKEN])
def test_violation_position_names_the_wire(n):
    assert not is_valid(n)
    assert_positions_name_wires(n)


def test_broken_netlists_cover_every_rule():
    assert {v.rule for n in BROKEN for v in validate(n)} == {
        "fan-out",
        "use-before-definition",
        "redefinition",
        "bad-wire-name",
        "bad-constant",
        "arity-mismatch",
        "duplicate-output",
        "undefined-output",
    }


def test_unused_constant_position():
    n = Netlist("warn", ("a", "b"), (("k", 0), ("j", 1)), (GateInstance(FG, ("a", "j"), ("p", "q")),), ("p", "q", "b"))
    [v] = validate(n)
    assert (v.rule, v.wire, v.position) == ("unused-constant", "k", 2)


def test_unread_constants_are_warned_of_without_the_walk(monkeypatch):
    def walk(netlist):
        raise AssertionError("the walk explains a refusal only")

    monkeypatch.setattr(revlogic.netlist, "_walk", walk)
    gate = GateInstance(FG, ("a", "m"), ("p", "q"))
    n = Netlist("warn", ("a",), (("k", 0), ("m", 1), ("j", 1)), (gate,), ("p", "q"))
    assert validate(n) == [
        Violation("unused-constant", "constant 'k' is never consumed", "k", None, "warning", 1),
        Violation("unused-constant", "constant 'j' is never consumed", "j", None, "warning", 3),
    ]
    assert garbage_wires(n) == ["k", "j"]


def findings(n: Netlist):
    return [(v.rule, v.wire, v.gate_index, v.position) for v in validate(n) if v.severity == "error"]


def test_repeated_wire_is_reported_at_its_later_occurrence():
    n = Netlist("fan", ("a",), (), (GateInstance(FG, ("a", "a"), ("p", "q")),), ("p", "q"))
    assert findings(n) == [("fan-out", "a", 0, 1)]
    n = Netlist("twice", ("a", "a"), (), (), ("a",))
    assert findings(n) == [("redefinition", "a", None, 1)]
    n = Netlist("const", ("a", "b"), (("a", 0),), (), ("a", "b"))
    assert findings(n) == [("redefinition", "a", None, 2)]
    n = Netlist("outs", (), (), (), ("g", "g"))
    assert findings(n) == [("undefined-output", "g", None, 0), ("duplicate-output", "g", None, 1)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_violation_positions_on_rewired_random_netlists(seed):
    rng = random.Random(seed)
    n = random_netlist(rng)
    if n.gates:
        # rewire one gate input to another existing wire or a fresh one
        index = rng.randrange(len(n.gates))
        inst = n.gates[index]
        wires = [*n.primary_inputs, *n.constant_wires, *(w for g in n.gates for w in g.outputs), "fresh"]
        inputs = list(inst.inputs)
        inputs[rng.randrange(len(inputs))] = rng.choice(wires)
        gates = list(n.gates)
        gates[index] = GateInstance(inst.gate, inputs, inst.outputs)
        n = Netlist(n.name, n.primary_inputs, n.constants, gates, n.primary_outputs)
    assert_positions_name_wires(n)


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


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_plan_numbers_wires_in_definition_order(seed):
    n = random_netlist(random.Random(seed))
    order = [*n.primary_inputs, *n.constant_wires, *(w for inst in n.gates for w in inst.outputs)]
    assert list(n._plan.slots.items()) == [(wire, slot) for slot, wire in enumerate(order)]
    consumed = {w for inst in n.gates for w in inst.inputs}.union(n.primary_outputs)
    assert garbage_wires(n) == [w for w in order if w not in consumed]
    slot = {wire: k for k, wire in enumerate(order)}
    assert n._plan.in_slots == [tuple(slot[w] for w in inst.inputs) for inst in n.gates]
    assert n._plan.out_slots == [tuple(slot[w] for w in inst.outputs) for inst in n.gates]
    assert n._plan.po_slots == tuple(slot[w] for w in n.primary_outputs)
    assert n._plan.garbage_slots == tuple(slot[w] for w in garbage_wires(n))


def test_fan_out_deep_in_a_long_chain_is_placed_by_the_walk():
    built = build_bcd_chain(1000)
    text = serialize_netlist(built)
    index = next(i for i, inst in enumerate(built.gates) if inst.outputs[0].startswith("d500_"))
    inst = built.gates[index]
    gates = list(built.gates)
    gates[index] = inst._replace(inputs=(inst.inputs[0], inst.inputs[0], *inst.inputs[2:]))  # its first read twice
    [found] = revlogic.netlist._walk(dataclasses.replace(built, gates=gates))
    assert (found.rule, found.gate_index, found.position) == ("fan-out", index, 1)
    lines = text.split("\n")
    line = [k for k, row in enumerate(lines, 1) if row.startswith("gate ")][index]
    tokens = lines[line - 1].split()
    tokens[3] = tokens[2]  # gate NAME IN0 IN1 ...: the same edit in the text
    lines[line - 1] = " ".join(tokens)
    with pytest.raises(NetlistParseError) as caught:
        parse_netlist("\n".join(lines))
    diagnostic = ParseDiagnostic(line, 2 + found.position, found.rule, found.message)
    assert caught.value.diagnostics == [diagnostic]


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
    original = revlogic.simulate._Plan

    def counting_plan(*args):
        plans.append(args)
        return original(*args)

    monkeypatch.setattr(revlogic.simulate, "_Plan", counting_plan)
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


def test_gate_instance_holds_tuples():
    inst = GateInstance(FG, ["a", "b"], ["c", "d"])
    assert inst.inputs == ("a", "b") and inst.outputs == ("c", "d")
    assert type(inst.inputs) is tuple and type(inst.outputs) is tuple
    assert hash(inst) == hash(GateInstance(FG, ("a", "b"), ("c", "d")))
    assert {inst, GateInstance(gate=FG, inputs=iter("ab"), outputs="cd")} == {inst}
    replaced = inst._replace(inputs=["x", "y"])
    assert replaced.inputs == ("x", "y") and type(replaced.inputs) is tuple


class ConstantPair(NamedTuple):
    wire: str
    bit: int


def test_exact_constant_pairs_are_kept_and_others_rebuilt():
    given = (("k0", 0), ("k1", 1))
    n = Netlist("consts", ("a",), given, (), ("a",))
    assert all(kept is pair for kept, pair in zip(n.constants, given))
    assert Netlist("consts", ("a",), iter(given), (), ("a",)).constants[1] is given[1]
    # anything but exact 2-tuples comes out as plain (wire, bit) tuples
    for other in (
        [["k0", 0], ["k1", 1]],
        [ConstantPair("k0", 0), ConstantPair("k1", 1)],
        [iter(("k0", 0)), iter(("k1", 1))],
        [("k0", 0), ["k1", 1]],
    ):
        m = Netlist("consts", ("a",), other, (), ("a",))
        assert m.constants == given and all(type(pair) is tuple for pair in m.constants)
        assert m == n and hash(m) == hash(n)
    for bad in ([("k0",)], [("k0", 0, 1)], [("k0", 0), ("k1",)], [("k0", 0), "k12"]):
        with pytest.raises(ValueError):
            Netlist("consts", ("a",), bad, (), ("a",))


# names of every type a netlist built in code might carry; only some strs follow the name rule
ANY_NAME = (
    st.none()
    | st.integers()
    | st.binary(max_size=2)
    | st.tuples(st.integers(0, 2), st.text(max_size=1))
    | st.text(max_size=2)
    | st.sampled_from(["a", "b", "p", "q", "x"])
)


@settings(max_examples=300, deadline=None)
@given(ANY_NAME, st.lists(ANY_NAME, min_size=2, max_size=3), st.lists(ANY_NAME, min_size=2, max_size=2), st.lists(ANY_NAME, max_size=3))
def test_names_of_any_type_get_findings(name, inputs, outs, primary_outputs):
    n = Netlist(name, inputs[:1], [(inputs[1], 0)] + [(w, 1) for w in inputs[2:]], [GateInstance(FG, inputs[:2], outs)], primary_outputs)
    findings = validate(n)  # a finding for every bad name, never an exception
    assert ("bad-circuit-name" in rules(findings)) == (not is_identifier(name))
    sources = [(w, None, p) for p, w in enumerate(inputs)] + [(w, 0, 2 + p) for p, w in enumerate(outs)]
    bad_names = [(v.wire, v.gate_index, v.position) for v in findings if v.rule == "bad-wire-name"]
    assert bad_names == [s for s in sources if not is_identifier(s[0])]
    if bad_names or not is_identifier(name):
        assert not is_valid(n)
        with pytest.raises(InvalidNetlistError):
            serialize_netlist(n)


class LiarName(str):
    """A ``str`` subclass whose own ``isidentifier`` says yes to any text."""

    def isidentifier(self) -> bool:
        return True


def test_a_str_subclass_cannot_bend_the_name_rule():
    wire = LiarName("1a")
    n = Netlist("c", ("a", wire), (), (GateInstance(FG, ("a", wire), ("p", "q")),), ("p", "q"))
    assert [(v.rule, v.wire, v.position) for v in validate(n)] == [("bad-wire-name", wire, 1)]
    with pytest.raises(InvalidNetlistError):
        serialize_netlist(n)  # whose text parse_netlist would refuse
    with pytest.raises(ValueError, match="bad gate name"):
        GateDefinition(LiarName("1a"), 1, (1, 0))  # as the parser refuses `define 1a ...`, below
    with pytest.raises(NetlistParseError) as caught:
        parse_netlist("circuit c\ndefine 1a unknown 0 0 1 1 0\ninputs a\ngate 1a a -> b\noutputs b\nend\n")
    assert caught.value.diagnostics[0].rule == "bad-gate-definition"


class SubName(str):
    """A ``str`` subclass: the bulk pass numbers it as it numbers a ``str``, and the walk takes it as a name."""


EDITS = (
    "none",
    "redefined",
    "bad name",
    "self or later read",
    "duplicated read",
    "bad output",
    "bad bit",
    "unused constant",
    "arity mismatch",
    "gate name clash",
    "subclass definition",
    "subclass read",
)


def single_edit(n: Netlist, rng: random.Random, edit: str) -> Netlist:
    """``n`` with one edit of the given kind; all kinds but "none" and the two subclass ones mostly break a rule."""
    inputs, outputs = list(n.primary_inputs), list(n.primary_outputs)
    wires, bits = list(n.constant_wires), [bit for _, bit in n.constants]
    gates = [[inst.gate, list(inst.inputs), list(inst.outputs)] for inst in n.gates]
    sites = [(inputs, k) for k in range(len(inputs))] + [(wires, k) for k in range(len(wires))]
    sites += [(outs, k) for _, _, outs in gates for k in range(len(outs))]
    reads = [(ins, k) for _, ins, _ in gates for k in range(len(ins))] + [(outputs, k) for k in range(len(outputs))]
    if edit == "redefined":
        seq, k = rng.choice(sites)
        seq[k] = rng.choice([seq2[k2] for seq2, k2 in sites if seq2[k2] != seq[k]])
    elif edit == "bad name":
        seq, k = rng.choice(sites)
        old, new = seq[k], rng.choice([None, 7, b"w", "w\u0175", "1w"])
        for seq2, k2 in sites + reads:
            if seq2[k2] == old:
                seq2[k2] = new
    elif edit == "self or later read":
        index = rng.randrange(len(gates))
        later = [w for _, _, outs in gates[index:] for w in outs]
        ins = gates[index][1]
        ins[rng.randrange(len(ins))] = rng.choice(later)
    elif edit == "duplicated read":
        seq, k = rng.choice(reads)
        others = [(seq2, k2) for seq2, k2 in reads if (seq2, k2) != (seq, k)]
        if others:
            seq2, k2 = rng.choice(others)
            seq2[k2] = seq[k]
        else:
            outputs.append(seq[k])
    elif edit == "bad output":
        outputs.append(rng.choice(outputs) if outputs and rng.random() < 0.5 else "nowhere")
    elif edit == "bad bit":
        if not bits:
            wires.append("spare")
            bits.append(0)
        bits[rng.randrange(len(bits))] = rng.choice([2, True])
    elif edit == "unused constant":
        wires.append("spare")
        bits.append(rng.randint(0, 1))
    elif edit == "arity mismatch":
        _, ins, outs = rng.choice(gates)
        if rng.random() < 0.5:
            ins.pop()
        else:
            outs.append("extra")
    elif edit == "gate name clash":
        entry = rng.choice(gates)
        name = rng.choice([g.name for g, _, _ in gates] + list(GATE_POOL))
        table = list(range(1 << entry[0].arity))
        rng.shuffle(table)
        entry[0] = GateDefinition(name, entry[0].arity, table)
    elif edit == "subclass definition":
        seq, k = rng.choice(sites)
        seq[k] = SubName(seq[k])
    elif edit == "subclass read":
        seq, k = rng.choice(reads)
        seq[k] = SubName(seq[k])
    return Netlist(n.name, inputs, zip(wires, bits), [GateInstance(*entry) for entry in gates], outputs)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(EDITS))
def test_bulk_acceptance_agrees_with_the_walk(seed, edit):
    rng = random.Random(seed)
    n = random_netlist(rng)
    assume(n.gates)
    n = single_edit(n, rng, edit)
    assert_bulk_agrees_with_walk(n)


def assert_bulk_agrees_with_walk(n: Netlist) -> None:
    violations = revlogic.netlist._walk(n)
    accepted = revlogic.netlist._accept(n)
    # the bulk pass accepts exactly the netlists in which the walk finds no error
    assert (accepted is not None) == (not any(v.severity == "error" for v in violations))
    if accepted is None:
        assert revlogic.netlist._check(n) == (violations, [], {}, ())
        return
    _, garbage, slots, read_slots = accepted
    order = [*n.primary_inputs, *n.constant_wires, *(w for inst in n.gates for w in inst.outputs)]
    assert list(slots.items()) == [(wire, slot) for slot, wire in enumerate(order)]
    # the read slots: every gate input in gate order, then the primary outputs
    reads = [w for inst in n.gates for w in inst.inputs] + list(n.primary_outputs)
    assert read_slots == tuple(slots[w] for w in reads)
    assert garbage == [w for w in order if w not in set(reads)]
    # the warnings, wire by wire: each constant that no gate and no output reads, at its declaration position
    unread = [
        Violation("unused-constant", f"constant {w!r} is never consumed", w, None, "warning", len(n.primary_inputs) + k)
        for k, w in enumerate(n.constant_wires)
        if w not in reads
    ]
    # line conservation: with no error, every source line leaves as an output or as garbage
    assert len(n.primary_inputs) + len(n.constants) == len(n.primary_outputs) + len(garbage)
    assert revlogic.netlist._check(n) == (unread, garbage, slots, read_slots)


BK_GATE = GateInstance(FG, ("b", "k"), ("p", "q"))


@pytest.mark.parametrize(
    "constants, gates, outputs, rule",
    [
        ((("k", 0),), (BK_GATE,), ("p", "q"), None),  # an unread input is garbage
        ((("k", 0), ("spare", 1)), (BK_GATE,), ("p", "q"), "unused-constant"),
        ((("spare", 1), ("k", 0)), (BK_GATE,), ("p", "q"), "unused-constant"),
        ((("k", 0),), (BK_GATE,), ("p", "q", "k"), "fan-out"),  # read by the gate and the outputs
        ((("k", 0),), (BK_GATE,), ("p", "k", "q"), "fan-out"),
        ((("k", 0),), (BK_GATE, GateInstance(FG, ("k", "p"), ("r", "s"))), ("q", "r", "s"), "fan-out"),  # by two gates
    ],
)
def test_bulk_acceptance_agrees_with_the_walk_on_constants(constants, gates, outputs, rule):
    n = Netlist("consts", ("a", "b"), constants, gates, outputs)
    assert_bulk_agrees_with_walk(n)
    assert [v.rule for v in validate(n)] == ([rule] if rule else [])
