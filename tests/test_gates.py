"""Gate library tests: bijectivity, inverses, costs, custom gates."""

import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from revlogic import (
    BUILTIN_GATES,
    GateArityError,
    GateDefinition,
    GateInstance,
    GateLookupError,
    LogicCost,
    Netlist,
    NonBijectiveError,
    TableShapeError,
    builtin,
    validate,
)
from revlogic.gates import _BUILTINS, MAX_COST, is_bit, is_identifier

BUILTIN_NAMES = sorted(BUILTIN_GATES)


def test_builtin_names_and_arities():
    assert BUILTIN_NAMES == ["FG", "FRG", "HNFG", "HNG", "PFAG", "PG", "TG"]
    arities = {name: builtin(name).arity for name in BUILTIN_NAMES}
    assert arities == {"FG": 2, "PG": 3, "TG": 3, "FRG": 3, "PFAG": 4, "HNG": 4, "HNFG": 4}


def test_builtin_quantum_costs():
    costs = {name: builtin(name).quantum_cost for name in BUILTIN_NAMES}
    assert costs == {"FG": 1, "PG": 4, "TG": 5, "FRG": 5, "PFAG": 8, "HNG": None, "HNFG": 2}


def test_builtin_logic_costs():
    assert builtin("FG").logic_cost == LogicCost(1, 0, 0)
    assert builtin("PG").logic_cost == LogicCost(2, 1, 0)
    assert builtin("TG").logic_cost == LogicCost(1, 1, 0)
    assert builtin("FRG").logic_cost == LogicCost(2, 4, 2)
    assert builtin("PFAG").logic_cost == LogicCost(5, 2, 0)
    assert builtin("HNG").logic_cost == LogicCost(4, 2, 0)
    assert builtin("HNFG").logic_cost == LogicCost(2, 0, 0)


def test_unknown_builtin_rejected():
    with pytest.raises(GateLookupError):
        builtin("NG")


def test_tables_match_algebraic_definitions():
    for name, gate in BUILTIN_GATES.items():
        fn = _BUILTINS[name][1]
        for bits in itertools.product((0, 1), repeat=gate.arity):
            assert gate.apply(list(bits)) == list(fn(*bits)), name


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_bijective_and_invertible(name):
    gate = builtin(name)
    seen = set()
    for bits in itertools.product((0, 1), repeat=gate.arity):
        out = gate.apply(list(bits))
        seen.add(tuple(out))
        assert gate.invert(out) == list(bits)
    assert len(seen) == 2**gate.arity


def test_eval_examples():
    assert builtin("FG").apply([0, 0]) == [0, 0]
    assert builtin("PFAG").apply([1, 1, 1, 0]) == [1, 0, 1, 1]
    assert builtin("PG").apply([1, 1, 0]) == [1, 0, 1]


def test_inverse_examples():
    assert builtin("FG").invert([1, 0]) == [1, 1]
    assert builtin("PFAG").invert([1, 0, 1, 1]) == [1, 1, 1, 0]
    assert builtin("TG").invert([0, 0, 0]) == [0, 0, 0]


def test_eval_arity_checked():
    with pytest.raises(GateArityError):
        builtin("FG").apply([0, 0, 0])
    with pytest.raises(GateArityError):
        builtin("PFAG").invert([1, 0])


@pytest.mark.parametrize("name", ["PFAG", "HNG"])
def test_full_adder_contract(name):
    # with the fourth line zeroed, output 3 is the sum and output 4 the carry
    gate = builtin(name)
    for a, b, c in itertools.product((0, 1), repeat=3):
        out = gate.apply([a, b, c, 0])
        total = a + b + c
        assert out[2] == total % 2
        assert out[3] == total // 2


def test_hnfg_copies_two_lines():
    gate = builtin("HNFG")
    for a, c in itertools.product((0, 1), repeat=2):
        assert gate.apply([a, 0, c, 0]) == [a, a, c, c]


def test_pfag_triple_copy():
    gate = builtin("PFAG")
    for a in (0, 1):
        assert gate.apply([a, 0, 0, 0]) == [a, a, a, 0]


def test_from_table_bijectivity():
    identity = [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert GateDefinition.from_table("ID", identity).table == (0, 1, 2, 3)
    collapsing = [[0, 0], [0, 0], [1, 0], [1, 1]]
    with pytest.raises(NonBijectiveError):
        GateDefinition.from_table("BAD", collapsing)
    pfag_rows = [builtin("PFAG").apply(list(bits)) for bits in itertools.product((0, 1), repeat=4)]
    assert GateDefinition.from_table("P", pfag_rows).table == builtin("PFAG").table


def test_from_table_shape_errors():
    with pytest.raises(TableShapeError, match="empty table"):
        GateDefinition.from_table("T", [])
    with pytest.raises(TableShapeError, match="rows must be non-empty"):
        GateDefinition.from_table("T", [()])
    with pytest.raises(TableShapeError, match="expected 4 rows for width 2, got 3"):
        GateDefinition.from_table("T", [[0, 0], [0, 1], [1, 0]])
    with pytest.raises(TableShapeError, match="same width"):
        GateDefinition.from_table("T", [[0, 0], [0], [1, 0], [1, 1]])
    with pytest.raises(TableShapeError, match="0 or 1"):
        GateDefinition.from_table("T", [[0, 2], [0, 1], [1, 0], [1, 1]])


@pytest.mark.parametrize("value", [True, False, 1.0, 0.0])
def test_gate_bits_that_are_not_ints_are_refused(value):
    assert not is_bit(value)
    fg = builtin("FG")
    for call in (fg.apply, fg.invert):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            call([1, value])
    with pytest.raises(TableShapeError, match="entries must be 0 or 1"):
        GateDefinition.from_table("T", [[0, 0], [0, 1], [1, 0], [1, value]])
    with pytest.raises(TableShapeError, match="^T: table must hold 2 patterns of 1 bits$"):
        GateDefinition("T", 1, (value, 1 - value))


@pytest.mark.parametrize("value", [0, 1])
def test_int_gate_bits_are_accepted(value):
    assert is_bit(value)
    fg = builtin("FG")
    assert fg.apply([1, value]) == fg.invert([1, value]) == [1, 1 - value]
    assert GateDefinition.from_table("T", [[0, 0], [0, 1], [1, 1 - value], [1, value]]).table == (0, 1, 3 - value, 2 + value)
    assert GateDefinition("T", 1, (value, 1 - value)).table == (value, 1 - value)


def test_define_custom_gate_swap():
    swap = GateDefinition.from_table("SWAP", [[0, 0], [1, 0], [0, 1], [1, 1]], quantum_cost=3)
    assert (swap.name, swap.arity, swap.table, swap.quantum_cost) == ("SWAP", 2, (0, 2, 1, 3), 3)
    assert swap.apply([0, 1]) == [1, 0]
    assert swap.invert([1, 0]) == [0, 1]


def test_define_custom_gate_rejects_non_bijective():
    with pytest.raises(NonBijectiveError):
        GateDefinition.from_table("BAD", [[0, 0], [0, 0], [1, 0], [1, 1]])


def clash_findings(*definitions):
    """validate's findings on one netlist that applies each definition to its own pair of wires."""
    gates = [GateInstance(gate, (f"a{i}", f"b{i}"), (f"p{i}", f"q{i}")) for i, gate in enumerate(definitions)]
    inputs = [wire for inst in gates for wire in inst.inputs]
    outputs = [wire for inst in gates for wire in inst.outputs]
    return [(v.rule, v.gate_index, v.position) for v in validate(Netlist("c", inputs, (), gates, outputs))]


def test_define_custom_gate_rejects_duplicates():
    # a netlist gives each gate name one definition, and a built-in's name means the built-in
    table = [[0, 0], [1, 0], [0, 1], [1, 1]]
    swap = GateDefinition.from_table("SWAP", table)
    same_fg = GateDefinition.from_table("FG", [[0, 0], [0, 1], [1, 1], [1, 0]], 1, LogicCost(1, 0, 0))
    assert clash_findings(swap, GateDefinition.from_table("SWAP", table), same_fg, builtin("FG")) == []
    assert clash_findings(swap, GateDefinition.from_table("SWAP", table, quantum_cost=3)) == [("gate-name-clash", 1, None)]
    assert clash_findings(swap, GateDefinition.from_table("FG", table)) == [("gate-name-clash", 1, None)]


def test_custom_gate_arity_bounds():
    with pytest.raises(ValueError):
        GateDefinition("WIDE", 9, tuple(range(512)))


def test_gate_counts_are_ints():
    # one int rule, as in is_bit: True and 1.0 are not ints here, though they equal 1
    for arity in (True, 1.0, 0, 9):
        with pytest.raises(ValueError, match="gate arity must be"):
            GateDefinition("X", arity, (1, 0))
    # counts above MAX_COST would have more digits than the text format may write
    for cost in (1.5, True, 1.0, -1, MAX_COST + 1):
        with pytest.raises(ValueError, match="quantum cost must be"):
            GateDefinition("X", 1, (1, 0), quantum_cost=cost)
        with pytest.raises(ValueError, match="quantum cost must be"):
            GateDefinition.from_table("X", [[1], [0]], quantum_cost=cost)
    for parts in ((1.5, 0, 0), (0, True, 0), (0, 0, 1.0), (0, 0, -1), (MAX_COST + 1, 0, 0), (0, 0, MAX_COST + 1)):
        with pytest.raises(ValueError, match="logic cost components must be"):
            LogicCost(*parts)
    gate = GateDefinition("X", 1, (1, 0), quantum_cost=0, logic_cost=LogicCost(0, 0, 1))
    assert (gate.arity, gate.quantum_cost, gate.logic_cost.render()) == (1, 0, "1δ")
    gate = GateDefinition("X", 1, (1, 0), MAX_COST, LogicCost(MAX_COST, MAX_COST, MAX_COST))
    assert gate.quantum_cost == gate.logic_cost.nots == MAX_COST == 2**63 - 1


# ASCII plus letters and a digit that Python accepts in identifiers but the name rule does not
NAME_TEXT = st.text() | st.text(st.characters(max_codepoint=127) | st.sampled_from("éªℌ٣"))


@given(NAME_TEXT)
def test_is_identifier_is_the_ascii_name_rule(text):
    assert is_identifier(text) == bool(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text))


def test_gate_names_follow_the_name_rule():
    for bad in ("", "1x", "a-b", "my gate", "ℌ"):
        with pytest.raises(ValueError, match="bad gate name"):
            GateDefinition(bad, 1, (1, 0))
    assert GateDefinition("_not1", 1, (1, 0)).name == "_not1"


def test_logic_cost_algebra():
    a, b, c = LogicCost(1, 2, 3), LogicCost(4, 0, 1), LogicCost(2, 2, 2)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + LogicCost() == a
    assert a + a + a == LogicCost(3, 6, 9)
    with pytest.raises(ValueError):
        LogicCost(-1, 0, 0)


def test_logic_cost_render():
    assert LogicCost(56, 21, 0).render() == "56α+21β"
    assert LogicCost(42, 30, 33).render() == "42α+30β+33δ"
    assert LogicCost().render() == "0"


def readme_gate_table():
    """{gate: (lines, quantum cost, logical)} from the README's gate-library table."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text("utf-8").split("## Gate library", 1)[1]
    rows = [line for line in section.split("\n\n", 2)[1].splitlines() if line.startswith("|")]
    cells = [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]
    assert cells[0] == ["gate", "lines", "output expressions", "quantum cost", "logical"]
    return {name: (lines, cost, logical) for name, lines, _expr, cost, logical in cells[2:]}


def test_readme_gate_table_matches_the_builtins():
    table = readme_gate_table()
    assert sorted(table) == BUILTIN_NAMES
    for name, gate in BUILTIN_GATES.items():
        cost = "unknown" if gate.quantum_cost is None else str(gate.quantum_cost)
        assert table[name] == (str(gate.arity), cost, gate.logic_cost.render()), name


@given(st.none() | st.integers() | st.binary() | st.tuples(st.text()) | st.lists(st.text()))
def test_names_that_are_not_str_break_the_name_rule(value):
    assert not is_identifier(value)
    with pytest.raises(ValueError, match="bad gate name"):
        GateDefinition(value, 1, (1, 0))
