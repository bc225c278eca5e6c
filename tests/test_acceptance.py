"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Every expected value here is either pinned reference data or computed by
an independent arithmetic oracle; nothing is read back from the code
under test.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random

from revlogic import (
    BUILTIN_GATES,
    LogicCost,
    NetlistParseError,
    analyze,
    build_bcd_adder,
    build_bcd_chain,
    build_ripple_adder,
    builtin,
    check_equivalence,
    compare,
    garbage_wires,
    literature_table,
    parse_netlist,
    run,
    run_inverse,
    serialize_netlist,
    truth_table,
)
from helpers import (
    bcd_digit_domain,
    bcd_digit_oracle,
    binary_adder_oracle,
    random_netlist,
)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_gate_soundness():
    failures = 0
    for name, gate in BUILTIN_GATES.items():
        seen = set()
        for bits in itertools.product((0, 1), repeat=gate.arity):
            out = gate.apply(list(bits))
            seen.add(tuple(out))
            if gate.invert(out) != list(bits):
                failures += 1
        if len(seen) != 2**gate.arity:
            failures += 1
    assert failures == 0
    report(1, "all 7 built-ins exhaustively bijective with inverse round-trip, 0 failures")


def test_criterion_02_full_adder_contract():
    gate = builtin("PFAG")
    ok = 0
    for a, b, c in itertools.product((0, 1), repeat=3):
        out = gate.apply([a, b, c, 0])
        total = a + b + c
        if out[2] == total % 2 and out[3] == total // 2:
            ok += 1
    assert ok == 8
    report(2, "PFAG full-adder contract holds on 8/8 cases with one zeroed line")


def test_criterion_03_ripple_adder_reproduction():
    n = build_ripple_adder()
    metrics = analyze(n)
    assert metrics.gates == {"PFAG": 4}
    assert metrics.quantum_cost == 32
    assert metrics.constants == 4
    assert metrics.garbage == 8
    mismatches = check_equivalence(n, binary_adder_oracle)
    assert mismatches == []
    report(3, "ripple4 is 4 PFAG / cost 32 / 4 constants / 8 garbage; 512-case addition check, 0 mismatches")


def test_criterion_04_bcd_design1():
    n = build_bcd_adder("bcd1")
    metrics = analyze(n)
    assert metrics.gates == {"FG": 4, "PFAG": 10, "PG": 1}
    assert metrics.gate_count == 15
    assert metrics.quantum_cost == 88
    assert metrics.logical == LogicCost(56, 21, 0)
    assert metrics.constants == 19
    assert check_equivalence(n, bcd_digit_oracle, bcd_digit_domain) == []
    report(4, "Design 1 multiset 10 PFAG+4 FG+1 PG, cost 88, 56α+21β, 19 constants; 200-case decimal check")


def test_criterion_05_bcd_design2():
    n = build_bcd_adder("bcd2")
    metrics = analyze(n)
    assert metrics.gates == {"FG": 2, "HNFG": 1, "PFAG": 10, "PG": 1}
    assert metrics.gate_count == 14
    assert metrics.quantum_cost == 88
    assert metrics.logical == LogicCost(56, 21, 0)
    assert metrics.constants == 19
    assert check_equivalence(n, bcd_digit_oracle, bcd_digit_domain) == []
    rows1 = truth_table(build_bcd_adder("bcd1"))
    rows2 = truth_table(n)
    assert len(rows1) == len(rows2) == 512
    assert all(r1.outputs == r2.outputs for r1, r2 in zip(rows1, rows2))
    report(5, "Design 2 multiset 10 PFAG+1 PG+2 FG+1 HNFG (14 gates), cost 88; designs identical on 512 patterns")


def test_criterion_06_garbage_accounting():
    for seed in range(500):
        n = random_netlist(random.Random(seed))
        assert len(garbage_wires(n)) == len(n.primary_inputs) + len(n.constants) - len(n.primary_outputs)
    for design in ("bcd1", "bcd2"):
        metrics = analyze(build_bcd_adder(design))
        assert metrics.garbage == 23
        comparison = compare([(design, metrics)], include_literature=True)
        row = comparison.computed[0]
        assert row.claimed_garbage == 24 and row.garbage_discrepancy
        assert "23 (claimed 24) [!]" in comparison.render_text()
    report(6, "garbage = inputs+constants-outputs on 500 random netlists; BCD reports 23 vs claimed 24, marked")


def test_criterion_07_literature_table():
    expected = [
        ("This study: Design 1", "10 PFAG +4FG+1PG=15", 24, LogicCost(56, 21, 0), 88),
        ("This study: Design 2", "10 PFAG+1PG +2FG+1HNFG=14", 24, LogicCost(56, 21, 0), 88),
        ("BCD adder [15]", "8 HNG +2NG+ 1TG+2FG + 1HNFG=14", 22, LogicCost(49, 21, 6), None),
        ("BCD adder [16]", "19+4FG=23", 22, LogicCost(42, 30, 33), None),
        ("Conventional BCD adder plus fanout [17]", "11+5FG=16", 22, LogicCost(59, 30, 33), None),
        ("Carry skip BCD adder plus fanout [17]", "15+7FG=22", 27, LogicCost(75, 48, 36), None),
    ]
    rows = literature_table()
    assert [
        (r.label, r.gate_count_expr, r.garbage, r.logical, r.quantum_cost) for r in rows
    ] == expected
    text = compare([], include_literature=True).render_text()
    for label, expr, garbage, logical, _cost in expected:
        assert label in text and expr in text
    assert text.count("Unknown") == 4
    report(7, "all six published rows reproduced verbatim; unknown costs render as 'Unknown'")


def test_criterion_08_circuit_scale_reversibility():
    from revlogic import int_to_bits

    for design in ("bcd1", "bcd2"):
        n = build_bcd_adder(design)
        for pattern in range(512):
            bits = int_to_bits(pattern, 9)
            assignment = dict(zip(n.primary_inputs, bits))
            recovered = run_inverse(n, run(n, assignment).terminals)
            assert all(recovered[w] == assignment[w] for w in n.primary_inputs)
            assert all(recovered[w] == bit for w, bit in n.constants)
    chain = build_bcd_chain(4)
    rng = random.Random(2024)
    for _ in range(1000):
        assignment = {w: rng.randint(0, 1) for w in chain.primary_inputs}
        recovered = run_inverse(chain, run(chain, assignment).terminals)
        assert all(recovered[w] == assignment[w] for w in chain.primary_inputs)
        assert all(recovered[w] == bit for w, bit in chain.constants)
    report(8, "inverse round-trip identity on 2x512 BCD patterns and 1000 random 4-digit chain patterns")


def test_criterion_09_chain_correctness():
    chain = build_bcd_chain(2)

    def oracle(bits):
        from revlogic import bits_to_int, int_to_bits

        a = bits_to_int(bits[0:4]) * 10 + bits_to_int(bits[4:8])
        b = bits_to_int(bits[8:12]) * 10 + bits_to_int(bits[12:16])
        total = a + b + bits[16]
        return tuple(
            int_to_bits(total % 100 // 10, 4) + int_to_bits(total % 10, 4) + [total // 100]
        )

    def domain(bits):
        from revlogic import bits_to_int

        return all(bits_to_int(bits[4 * j : 4 * j + 4]) <= 9 for j in range(4))

    assert check_equivalence(chain, oracle, domain) == []
    report(9, "2-digit chain matches decimal addition on all 20,000 valid cases")


def test_criterion_10_format_round_trip():
    builds = [
        build_ripple_adder(),
        build_bcd_adder("bcd1"),
        build_bcd_adder("bcd2"),
        build_bcd_adder("bcd1", carry_in="const"),
        build_bcd_adder("bcd2", carry_in="const"),
        build_bcd_chain(1),
        build_bcd_chain(2),
        build_bcd_chain(3),
    ]
    for n in builds:
        assert parse_netlist(serialize_netlist(n)) == n
    for seed in range(500):
        n = random_netlist(random.Random(seed + 10_000))
        assert parse_netlist(serialize_netlist(n)) == n
    fixtures = {
        "fan-out": "circuit c\ninputs a b\ngate FG a a -> p q\noutputs p q\nend\n",
        "use-before-def": "circuit c\ninputs a\ngate FG a ghost -> p q\noutputs p q\nend\n",
        "arity": "circuit c\ninputs a b c\ngate FG a b c -> p q r\noutputs p q r\nend\n",
        "duplicate-def": "circuit c\ninputs a a\noutputs a\nend\n",
    }
    for label, text in fixtures.items():
        try:
            parse_netlist(text)
        except NetlistParseError as exc:
            assert exc.diagnostics, label
            assert all(d.line > 0 for d in exc.diagnostics), label
        else:
            raise AssertionError(f"fixture {label} was not rejected")
    report(10, "parse/serialize round-trip on 8 builds + 500 random netlists; invalid fixtures rejected with positions")
