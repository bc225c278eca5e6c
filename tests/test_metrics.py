"""Metrics tests: analyze, literature rows, comparison rendering."""

import pytest

from revlogic import (
    CLAIMED_GARBAGE,
    GateInstance,
    InvalidNetlistError,
    LogicCost,
    Netlist,
    analyze,
    build_bcd_adder,
    build_ripple_adder,
    builtin,
    compare,
    format_gate_multiset,
    literature_table,
)

FG = builtin("FG")
PG = builtin("PG")
HNG = builtin("HNG")


def test_analyze_ripple4():
    report = analyze(build_ripple_adder())
    assert report.gate_count == 4
    assert report.gates == {"PFAG": 4}
    assert report.quantum_cost == 32
    assert report.garbage == 8
    assert report.constants == 4
    assert report.logical == LogicCost(20, 8, 0)


def test_analyze_bcd1():
    report = analyze(build_bcd_adder("bcd1"))
    assert report.gates == {"FG": 4, "PFAG": 10, "PG": 1}
    assert report.gate_count == 15
    assert report.quantum_cost == 88
    assert report.constants == 19
    assert report.logical == LogicCost(56, 21, 0)


def test_analyze_unknown_cost_is_absorbing():
    n = Netlist("h", ("a", "b", "c", "d"), (), (GateInstance(HNG, ("a", "b", "c", "d"), ("p", "q", "r", "s")),), ("p", "q", "r", "s"))
    assert analyze(n).quantum_cost is None
    with_fg = Netlist(
        "hf",
        ("a", "b", "c", "d", "x", "y"),
        (),
        (
            GateInstance(HNG, ("a", "b", "c", "d"), ("p", "q", "r", "s")),
            GateInstance(FG, ("x", "y"), ("u", "v")),
        ),
        ("p", "q", "r", "s", "u", "v"),
    )
    assert analyze(with_fg).quantum_cost is None


def test_analyze_rejects_invalid():
    with pytest.raises(InvalidNetlistError):
        analyze(Netlist("bad", ("a", "a"), (), (), ()))


def test_custom_gate_without_cost_makes_circuit_unknown():
    from revlogic import GateDefinition

    swap = GateDefinition.from_table("SWAP2", [[0, 0], [1, 0], [0, 1], [1, 1]])
    n = Netlist("s", ("a", "b"), (), (GateInstance(swap, ("a", "b"), ("p", "q")),), ("p", "q"))
    assert analyze(n).quantum_cost is None


def net_fg(prefix):
    return Netlist(
        f"fg_{prefix}",
        (f"{prefix}a", f"{prefix}b"),
        (),
        (GateInstance(FG, (f"{prefix}a", f"{prefix}b"), (f"{prefix}p", f"{prefix}q")),),
        (f"{prefix}p",),
    )


def concat(n1, n2):
    return Netlist(
        "cat",
        n1.primary_inputs + n2.primary_inputs,
        n1.constants + n2.constants,
        n1.gates + n2.gates,
        n1.primary_outputs + n2.primary_outputs,
    )


def test_analyze_additivity():
    n1, n2 = net_fg("x"), build_ripple_adder()
    r1, r2, rc = analyze(n1), analyze(n2), analyze(concat(n1, n2))
    assert rc.gate_count == r1.gate_count + r2.gate_count
    assert rc.quantum_cost == r1.quantum_cost + r2.quantum_cost
    assert rc.garbage == r1.garbage + r2.garbage
    assert rc.constants == r1.constants + r2.constants
    assert rc.logical == r1.logical + r2.logical


def test_logical_depends_only_on_multiset():
    a = Netlist(
        "ab",
        ("a", "b", "c", "d"),
        (),
        (GateInstance(FG, ("a", "b"), ("p", "q")), GateInstance(FG, ("c", "d"), ("r", "s"))),
        ("p", "q", "r", "s"),
    )
    b = Netlist(
        "ba",
        ("a", "b", "c", "d"),
        (),
        (GateInstance(FG, ("c", "d"), ("r", "s")), GateInstance(FG, ("a", "b"), ("p", "q"))),
        ("r", "s", "p", "q"),
    )
    assert analyze(a).logical == analyze(b).logical
    assert analyze(a).gates == analyze(b).gates


def test_literature_table_contents():
    rows = literature_table()
    assert len(rows) == 6
    by_label = {row.label: row for row in rows}
    assert by_label["This study: Design 2"].gate_count_expr == "10 PFAG+1PG +2FG+1HNFG=14"
    assert by_label["Carry skip BCD adder plus fanout [17]"].garbage == 27
    assert by_label["BCD adder [16]"].logical == LogicCost(42, 30, 33)
    assert by_label["This study: Design 1"].quantum_cost == 88
    assert by_label["BCD adder [15]"].quantum_cost is None
    assert by_label["Conventional BCD adder plus fanout [17]"].logical == LogicCost(59, 30, 33)


def test_compare_flags_garbage_discrepancy():
    report = analyze(build_bcd_adder("bcd2"))
    comparison = compare([("bcd2", report)], include_literature=True)
    row = comparison.computed[0]
    assert row.report.garbage == 23
    assert row.claimed_garbage == 24
    assert row.garbage_discrepancy
    text = comparison.render_text()
    assert "23 (claimed 24) [!]" in text
    assert len(comparison.literature) == 6


def test_compare_no_discrepancy_for_matching_claim():
    report = analyze(build_ripple_adder())
    comparison = compare([("ripple4", report)], include_literature=False)
    assert not comparison.computed[0].garbage_discrepancy
    assert comparison.literature == ()
    assert "[!]" not in comparison.render_text()


def test_compare_literature_only():
    comparison = compare([], include_literature=True)
    assert comparison.computed == ()
    text = comparison.render_text()
    for row in literature_table():
        assert row.label in text
        assert row.gate_count_expr in text
    assert text.count("Unknown") == 4


def test_compare_json_rows():
    comparison = compare([("bcd2", analyze(build_bcd_adder("bcd2")))], include_literature=True)
    rows = comparison.to_json_rows()
    assert rows[0]["kind"] == "computed"
    assert rows[0]["garbage"] == 23
    assert rows[0]["claimed_garbage"] == 24
    assert rows[0]["garbage_discrepancy"] is True
    assert rows[0]["logical"] == {"xor": 56, "and": 21, "not": 0}
    claimed = [r for r in rows if r["kind"] == "claimed"]
    assert len(claimed) == 6
    assert all(r["quantum_cost"] is None for r in claimed if "[1" in r["label"])


def test_report_to_dict_schema():
    report = analyze(build_ripple_adder())
    payload = report.to_dict()
    assert list(payload) == ["gate_count", "gates", "quantum_cost", "garbage", "constants", "logical"]
    assert payload["gates"] == {"PFAG": 4}
    assert payload["logical"] == {"xor": 20, "and": 8, "not": 0}


def test_format_gate_multiset():
    assert format_gate_multiset({"PFAG": 10, "FG": 2, "HNFG": 1, "PG": 1}) == "10 PFAG + 2 FG + 1 HNFG + 1 PG = 14"
    assert format_gate_multiset({}) == "0"


def test_claimed_garbage_keys():
    assert CLAIMED_GARBAGE == {"ripple4": 8, "bcd1": 24, "bcd2": 24}
