"""Gate library tests: bijectivity, inverses, costs, custom gates."""

import itertools

import pytest

from revlogic import (
    BUILTIN_GATES,
    DuplicateGateError,
    GateArityError,
    GateDefinition,
    GateLookupError,
    GateRegistry,
    LogicCost,
    NonBijectiveError,
    TableShapeError,
    builtin,
    define_custom_gate,
)
from revlogic.gates import BUILTIN_FUNCTIONS

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
        fn = BUILTIN_FUNCTIONS[name]
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
    with pytest.raises(TableShapeError, match="expected 4 rows for width 2, got 3"):
        GateDefinition.from_table("T", [[0, 0], [0, 1], [1, 0]])
    with pytest.raises(TableShapeError, match="same width"):
        GateDefinition.from_table("T", [[0, 0], [0], [1, 0], [1, 1]])
    with pytest.raises(TableShapeError, match="0 or 1"):
        GateDefinition.from_table("T", [[0, 2], [0, 1], [1, 0], [1, 1]])


def test_define_custom_gate_swap():
    registry = GateRegistry()
    swap = define_custom_gate("SWAP", [[0, 0], [1, 0], [0, 1], [1, 1]], quantum_cost=3, registry=registry)
    assert registry.get("SWAP") is swap
    assert swap.apply([0, 1]) == [1, 0]
    assert swap.invert([1, 0]) == [0, 1]


def test_define_custom_gate_rejects_non_bijective():
    registry = GateRegistry()
    with pytest.raises(NonBijectiveError):
        define_custom_gate("BAD", [[0, 0], [0, 0], [1, 0], [1, 1]], registry=registry)
    assert "BAD" not in registry


def test_define_custom_gate_rejects_duplicates():
    registry = GateRegistry()
    table = [[0, 0], [1, 0], [0, 1], [1, 1]]
    define_custom_gate("SWAP", table, registry=registry)
    with pytest.raises(DuplicateGateError):
        define_custom_gate("SWAP", table, registry=registry)
    with pytest.raises(DuplicateGateError):
        define_custom_gate("FG", table, registry=registry)  # built-ins are taken


def test_custom_gate_arity_bounds():
    with pytest.raises(ValueError):
        GateDefinition("WIDE", 9, tuple(range(512)))


def test_registry_without_builtins():
    registry = GateRegistry(include_builtins=False)
    assert "FG" not in registry
    with pytest.raises(GateLookupError):
        registry.get("FG")


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
