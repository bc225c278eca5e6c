"""Builder tests: structure, metrics, and arithmetic behaviour of the generated adders."""

import itertools
import random

import pytest

from revlogic import (
    LogicCost,
    adder_spec,
    analyze,
    build_bcd_adder,
    build_bcd_chain,
    build_ripple_adder,
    check_equivalence,
    int_to_bits,
    run,
    run_inverse,
    serialize_netlist,
    truth_table,
    validate,
)
from helpers import (
    adder_oracle,
    bcd_digit_domain,
    bcd_digit_oracle,
    binary_adder_oracle,
    decode_bcd_result,
    encode_bcd_operands,
)


def test_all_builders_validate():
    for n in (
        build_ripple_adder(),
        build_bcd_adder("bcd1"),
        build_bcd_adder("bcd2"),
        build_bcd_adder("bcd1", carry_in="const"),
        build_bcd_adder("bcd2", carry_in="const"),
        build_bcd_chain(1),
        build_bcd_chain(3),
    ):
        assert validate(n) == [], n.name


def test_ripple_structure():
    n = build_ripple_adder()
    assert n.name == "ripple4"
    assert n.primary_inputs == ("a3", "a2", "a1", "a0", "b3", "b2", "b1", "b0", "cin")
    assert n.primary_outputs == ("s3", "s2", "s1", "s0", "c4")
    report = analyze(n)
    assert report.gates == {"PFAG": 4}
    assert report.quantum_cost == 32
    assert report.constants == 4
    assert report.garbage == 8


def test_ripple_equivalence():
    assert check_equivalence(build_ripple_adder(), binary_adder_oracle) == []


@pytest.mark.parametrize(
    "design,gates",
    [
        ("bcd1", {"FG": 4, "PFAG": 10, "PG": 1}),
        ("bcd2", {"FG": 2, "HNFG": 1, "PFAG": 10, "PG": 1}),
    ],
)
def test_bcd_table_reproduction(design, gates):
    n = build_bcd_adder(design)
    report = analyze(n)
    assert report.gates == gates
    assert report.gate_count == sum(gates.values())
    assert report.quantum_cost == 88
    assert report.logical == LogicCost(56, 21, 0)
    assert report.constants == 19
    assert report.garbage == 23  # = 9 inputs + 19 constants - 5 outputs


@pytest.mark.parametrize("design", ["bcd1", "bcd2"])
def test_bcd_decimal_equivalence(design):
    n = build_bcd_adder(design)
    assert check_equivalence(n, bcd_digit_oracle, bcd_digit_domain) == []


@pytest.mark.parametrize("carry_in, rows", [("primary", 512), ("const", 256)])
def test_bcd_designs_identical_truth_tables(carry_in, rows):
    # whole tables, garbage included: the two designs differ only in their copy gates
    t1 = truth_table(build_bcd_adder("bcd1", carry_in=carry_in))
    t2 = truth_table(build_bcd_adder("bcd2", carry_in=carry_in))
    assert len(t1) == len(t2) == rows
    assert t1 == t2
    assert list(t1) == list(t2)


def test_bcd_overflow_wire():
    # the internal ov wire is the decimal-overflow predicate
    n = build_bcd_adder("bcd2")
    for a, b in itertools.product(range(10), repeat=2):
        for cin in (0, 1):
            bits = int_to_bits(a, 4) + int_to_bits(b, 4) + [cin]
            result = run(n, dict(zip(n.primary_inputs, bits)))
            assert result.all_lines["ov"] == (1 if a + b + cin >= 10 else 0), (a, b, cin)


def test_bcd_const_carry_mode():
    for design in ("bcd1", "bcd2"):
        n = build_bcd_adder(design, carry_in="const")
        assert len(n.primary_inputs) == 8
        assert ("cin", 0) in n.constants
        report = analyze(n)
        assert report.constants == 19
        assert report.garbage == 22  # 8 + 19 - 5
        assert report.quantum_cost == 88
        mismatches = check_equivalence(
            n,
            lambda bits: bcd_digit_oracle(bits + (0,)),
            lambda bits: bcd_digit_domain(bits + (0,)),
        )
        assert mismatches == []


def test_bcd_rejects_bad_options():
    with pytest.raises(ValueError):
        build_bcd_adder("bcd3")
    with pytest.raises(ValueError):
        build_bcd_adder("bcd1", carry_in="maybe")
    with pytest.raises(ValueError):
        build_bcd_chain(0)


def test_builds_are_deterministic():
    assert serialize_netlist(build_bcd_adder("bcd2")) == serialize_netlist(build_bcd_adder("bcd2"))
    assert serialize_netlist(build_bcd_chain(2)) == serialize_netlist(build_bcd_chain(2))


def test_chain_single_digit_matches_bcd2():
    chain = build_bcd_chain(1)
    single = build_bcd_adder("bcd2")
    assert analyze(chain).gates == analyze(single).gates
    assert analyze(chain).constants == analyze(single).constants
    t_chain = truth_table(chain)
    t_single = truth_table(single)
    for r1, r2 in zip(t_chain, t_single):
        assert r1.outputs == r2.outputs


def test_chain_example_47_plus_85():
    chain = build_bcd_chain(2)
    bits = encode_bcd_operands(47, 85, 0, digits=2)
    result = run(chain, dict(zip(chain.primary_inputs, bits)))
    out = [result.primary_out[w] for w in chain.primary_outputs]
    assert decode_bcd_result(out, digits=2) == (32, 1)


def test_chain_metrics_scale_per_digit():
    report = analyze(build_bcd_chain(3))
    assert report.gate_count == 3 * 14
    assert report.quantum_cost == 3 * 88
    assert report.constants == 3 * 19
    assert report.garbage == 3 * 23


def test_chain_round_trip_samples():
    chain = build_bcd_chain(2)
    rng = random.Random(7)
    for _ in range(50):
        a, b, cin = rng.randrange(100), rng.randrange(100), rng.randint(0, 1)
        bits = encode_bcd_operands(a, b, cin, digits=2)
        assignment = dict(zip(chain.primary_inputs, bits))
        result = run(chain, assignment)
        recovered = run_inverse(chain, result.terminals)
        assert {w: recovered[w] for w in chain.primary_inputs} == assignment
        assert all(recovered[w] == bit for w, bit in chain.constants)


def test_adder_oracle_matches_independent_oracles():
    binary, no_domain = adder_oracle(1, radix=16)
    assert no_domain is None
    decimal, domain = adder_oracle(1)
    decimal_const, domain_const = adder_oracle(1, carry_in=False)
    for pattern in itertools.product((0, 1), repeat=9):
        assert binary(pattern) == binary_adder_oracle(pattern)
        assert domain(pattern) == bcd_digit_domain(pattern)
        if bcd_digit_domain(pattern):
            assert decimal(pattern) == bcd_digit_oracle(pattern)
    for pattern in itertools.product((0, 1), repeat=8):
        assert domain_const(pattern) == bcd_digit_domain(pattern + (0,))
        if bcd_digit_domain(pattern + (0,)):
            assert decimal_const(pattern) == bcd_digit_oracle(pattern + (0,))


@pytest.mark.parametrize("digits", [1, 2, 3, 4])
def test_adder_oracle_decimal_sums(digits):
    oracle, domain = adder_oracle(digits)
    top = 10**digits - 1
    rng = random.Random(digits)
    cases = [(a, b, cin) for a in (0, top) for b in (0, top) for cin in (0, 1)]
    cases += [(rng.randrange(top + 1), rng.randrange(top + 1), rng.randint(0, 1)) for _ in range(200)]
    spec = adder_spec(digits)
    for a, b, cin in cases:
        bits = tuple(encode_bcd_operands(a, b, cin, digits))
        assert domain(bits)
        assert decode_bcd_result(oracle(bits), digits) == divmod(a + b + cin, 10**digits)[::-1]
        outputs, in_domain = spec(bits, 1)
        assert in_domain == 1 and tuple(outputs) == oracle(bits)


def columns_of(patterns):
    """One int column per position: bit p holds the 0/1 value at that position in ``patterns[p]``."""
    return [int(bytes(column[::-1]).translate(ASCII_BITS), 2) for column in zip(*patterns)]


ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")


@pytest.mark.parametrize("carry_in", [True, False], ids=["cin", "no-cin"])
@pytest.mark.parametrize("radix", [10, 16])
@pytest.mark.parametrize("digits", [1, 2])
def test_adder_spec_matches_adder_oracle_on_every_pattern(digits, radix, carry_in):
    spec = adder_spec(digits, radix, carry_in)
    oracle, domain = adder_oracle(digits, radix, carry_in)
    patterns = list(itertools.product((0, 1), repeat=8 * digits + carry_in))
    admitted = [1 if domain is None else int(domain(bits)) for bits in patterns]
    # outside the domain the oracle's carry can exceed 1; nothing is expected there
    expected = [oracle(bits) if inside else (0,) * (4 * digits + 1) for bits, inside in zip(patterns, admitted)]
    # on 0/1 ints, one pattern at a time
    for bits, want, inside in zip(patterns, expected, admitted):
        outputs, in_domain = spec(bits, 1)
        assert in_domain == (None if domain is None else inside), bits
        assert not inside or tuple(outputs) == want, bits
    # on int columns, every pattern at once: bit p of each column is pattern p
    outputs, in_domain = spec(columns_of(patterns), (1 << len(patterns)) - 1)
    mask = columns_of([(inside,) for inside in admitted])[0]
    assert in_domain == (None if domain is None else mask)
    assert [column & mask for column in outputs] == [column & mask for column in columns_of(expected)]


def test_adder_oracle_rejects_bad_arguments():
    with pytest.raises(ValueError):
        adder_oracle(0)
    with pytest.raises(ValueError):
        adder_oracle(1, radix=17)
    # a radix that is no int would be taken here and fail only in the oracle's first call
    for radix in (10.0, "10", True, None):
        with pytest.raises(ValueError, match="radix must be 2..16"):
            adder_oracle(1, radix=radix)
    # the spec's +6 correction is decimal: it takes radix 10 and 16 only
    for radix in (2, 9, 12, 17, 10.0, "10", True, None):
        with pytest.raises(ValueError, match="^radix must be 10 or 16, got "):
            adder_spec(1, radix=radix)


@pytest.mark.parametrize("digits", [0, -1, True, False, 2.0, "2", None])
def test_a_digit_count_is_a_positive_int(digits):
    # True is not 1, as for a bit: only an int counts digits, with the message a count of 0 gets
    for make in (build_bcd_chain, adder_oracle, adder_spec):
        with pytest.raises(ValueError, match=f"^digit count must be >= 1, got {digits}$"):
            make(digits)
