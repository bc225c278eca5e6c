"""Simulator tests: forward runs, inverse recovery, truth tables, oracle checks."""

import collections
import gc
import operator
import os
import pickle
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from collections.abc import Sequence
from itertools import chain, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from revlogic import (
    BUILTIN_GATES,
    Counterexample,
    GateDefinition,
    GateInstance,
    Netlist,
    TruthTable,
    TruthTableLimitError,
    TruthTableRow,
    adder_spec,
    analyze,
    bits_to_int,
    build_bcd_adder,
    build_bcd_chain,
    build_ripple_adder,
    builtin,
    check_equivalence,
    garbage_wires,
    int_to_bits,
    parse_netlist,
    run,
    run_inverse,
    serialize_netlist,
    truth_table,
    validate,
)
from revlogic import simulate
from helpers import (
    GATE_POOL,
    adder_oracle,
    bcd_digit_domain,
    bcd_digit_oracle,
    binary_adder_oracle,
    encode_bcd_operands,
    random_netlist,
)

FG = builtin("FG")


def single_fg():
    return Netlist("one_fg", ("a", "b"), (), (GateInstance(FG, ("a", "b"), ("p", "q")),), ("p", "q"))


def ripple_inputs(a, b, cin):
    n = build_ripple_adder()
    return n, dict(zip(n.primary_inputs, int_to_bits(a, 4) + int_to_bits(b, 4) + [cin]))


def test_run_zero_inputs_give_zero_sum():
    n, assignment = ripple_inputs(0, 0, 0)
    result = run(n, assignment)
    assert all(v == 0 for v in result.primary_out.values())


def test_run_seven_plus_five():
    n, assignment = ripple_inputs(7, 5, 0)
    result = run(n, assignment)
    out = [result.primary_out[w] for w in n.primary_outputs]
    assert bits_to_int(out[:4]) == 12 and out[4] == 0


def test_run_bcd_examples():
    n = build_bcd_adder("bcd2")
    for a, b, cin, digit, carry in ((9, 9, 0, 8, 1), (5, 3, 0, 8, 0)):
        assignment = dict(zip(n.primary_inputs, int_to_bits(a, 4) + int_to_bits(b, 4) + [cin]))
        result = run(n, assignment)
        out = [result.primary_out[w] for w in n.primary_outputs]
        assert bits_to_int(out[:4]) == digit and out[4] == carry


def test_run_rejects_invalid_netlist():
    from revlogic import InvalidNetlistError

    bad = Netlist("bad", ("a", "a"), (), (), ())
    with pytest.raises(InvalidNetlistError):
        run(bad, {"a": 0})
    with pytest.raises(InvalidNetlistError):
        run_inverse(bad, {})


def test_run_checks_bindings():
    n = single_fg()
    with pytest.raises(ValueError, match="missing input"):
        run(n, {"a": 1})
    with pytest.raises(ValueError, match="unexpected"):
        run(n, {"a": 1, "b": 0, "c": 1})
    with pytest.raises(ValueError, match="0 or 1"):
        run(n, {"a": 1, "b": 2})


@pytest.mark.parametrize("value", [True, False, 1.0, 0.0, None])
def test_bindings_that_are_not_int_bits_are_refused(value):
    n = build_ripple_adder()
    inputs = dict.fromkeys(n.primary_inputs, 0)
    terminals = run(n, inputs).terminals
    last = next(reversed(terminals))
    with pytest.raises(ValueError, match="^bindings must be 0 or 1: cin$"):
        run(n, dict(inputs, cin=value))
    with pytest.raises(ValueError, match=f"^bindings must be 0 or 1: {last}$"):
        run_inverse(n, dict(terminals, **{last: value}))


@pytest.mark.parametrize("value", [0, 1])
def test_int_bindings_are_run_and_echoed_as_ints(value):
    n = build_ripple_adder()
    result = run(n, dict(dict.fromkeys(n.primary_inputs, 0), cin=value))
    assert result.all_lines["cin"] == value
    assert {type(bit) for bit in result.all_lines.values()} == {int}
    last = next(reversed(result.terminals))
    sources = run_inverse(n, dict(result.terminals, **{last: value}))
    assert {type(bit) for bit in sources.values()} == {int}


def test_trace_result_partitions_lines():
    n = Netlist("g", ("a",), (("k", 0),), (GateInstance(FG, ("a", "k"), ("a1", "a2")),), ("a1",))
    result = run(n, {"a": 1})
    assert result.primary_out == {"a1": 1}
    assert result.garbage_out == {"a2": 1}
    assert result.all_lines == {"a": 1, "k": 0, "a1": 1, "a2": 1}
    assert result.terminals == {"a1": 1, "a2": 1}


def test_run_inverse_single_fg():
    n = single_fg()
    assert run_inverse(n, {"p": 1, "q": 1}) == {"a": 1, "b": 0}


def test_run_inverse_recovers_ripple_sources():
    n, assignment = ripple_inputs(3, 2, 1)
    result = run(n, assignment)
    recovered = run_inverse(n, result.terminals)
    for wire, bit in assignment.items():
        assert recovered[wire] == bit
    for wire, bit in n.constants:
        assert recovered[wire] == bit


def test_run_inverse_checks_terminal_coverage():
    n = single_fg()
    with pytest.raises(ValueError, match="missing terminal"):
        run_inverse(n, {"p": 1})


@pytest.mark.parametrize("seed", range(10))
def test_round_trip_identity_random_netlists(seed):
    rng = random.Random(seed)
    n = random_netlist(rng)
    assignment = {w: rng.randint(0, 1) for w in n.primary_inputs}
    result = run(n, assignment)
    recovered = run_inverse(n, result.terminals)
    assert {w: recovered[w] for w in n.primary_inputs} == assignment
    assert all(recovered[w] == bit for w, bit in n.constants)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_run_inverse_undoes_run_gate_by_gate(seed):
    rng = random.Random(seed)
    n = random_netlist(rng, max_gates=12)
    assignment = {w: rng.randint(0, 1) for w in n.primary_inputs}
    result = run(n, assignment)
    sources = dict(assignment, **dict(n.constants))
    assert run_inverse(n, result.terminals) == sources
    lines = result.all_lines
    for inst in n.gates:
        assert [lines[w] for w in inst.inputs] == inst.gate.invert([lines[w] for w in inst.outputs])


def test_run_is_deterministic():
    n, assignment = ripple_inputs(9, 6, 1)
    assert run(n, assignment).all_lines == run(n, assignment).all_lines


def test_truth_table_row_counts():
    assert len(truth_table(single_fg())) == 4
    assert len(truth_table(build_ripple_adder())) == 512
    assert len(truth_table(build_bcd_adder("bcd2"))) == 512


def test_truth_table_ordering_and_content():
    rows = truth_table(single_fg())
    assert [row.inputs for row in rows] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [row.outputs for row in rows] == [(0, 0), (0, 1), (1, 1), (1, 0)]
    assert all(row.garbage == () for row in rows)


def test_truth_table_limit_refusal():
    wires = tuple(f"i{k}" for k in range(21))
    wide = Netlist("wide", wires, (), (), wires)
    with pytest.raises(TruthTableLimitError, match="--max-inputs"):
        truth_table(wide)  # refused by the call, before any row is asked for
    with pytest.raises(TruthTableLimitError):
        check_equivalence(wide, lambda bits: bits)
    # a raised limit is honoured (3-wire net, limit 2 refuses; limit 3 runs)
    narrow = Netlist("narrow", ("x", "y", "z"), (), (), ("x", "y", "z"))
    with pytest.raises(TruthTableLimitError):
        truth_table(narrow, limit=2)
    assert len(truth_table(narrow, limit=3)) == 8


def test_check_equivalence_ripple_ok():
    assert check_equivalence(build_ripple_adder(), binary_adder_oracle) == []


def test_check_equivalence_bcd_ok():
    n = build_bcd_adder("bcd1")
    assert check_equivalence(n, bcd_digit_oracle, bcd_digit_domain) == []


def test_check_equivalence_reports_counterexamples():
    n = build_ripple_adder()
    # swap two sum wires: s0 and s1 exchanged in the outputs
    broken = Netlist(
        "broken",
        n.primary_inputs,
        n.constants,
        n.gates,
        ("s3", "s2", "s0", "s1", "c4"),
    )
    mismatches = check_equivalence(broken, binary_adder_oracle)
    assert mismatches
    first = mismatches[0]
    assert first.expected != first.actual


def test_check_equivalence_counterexample_cap():
    n = single_fg()
    wrong = lambda bits: (1 - bits[0], bits[1])
    assert len(check_equivalence(n, wrong)) == 4
    assert len(check_equivalence(n, wrong, max_counterexamples=2)) == 2
    n9 = build_ripple_adder()
    always_wrong = lambda bits: tuple(1 - b for b in binary_adder_oracle(bits))
    assert len(check_equivalence(n9, always_wrong)) == 16  # default cap
    assert len(check_equivalence(n9, always_wrong, max_counterexamples=1)) == 1
    for cap in (0, -1):
        with pytest.raises(ValueError, match="max_counterexamples"):
            check_equivalence(n9, always_wrong, max_counterexamples=cap)
    # the spec that is wrong in every output on every pattern: the same caps, the same counterexamples
    binary = adder_spec(1, radix=16)
    always_wrong_spec = lambda inputs, one: ([column ^ one for column in binary(inputs, one)[0]], None)
    assert check_equivalence(n9, spec=always_wrong_spec) == check_equivalence(n9, always_wrong)
    assert len(check_equivalence(n9, spec=always_wrong_spec, max_counterexamples=1)) == 1
    for cap in (0, -1):
        with pytest.raises(ValueError, match="max_counterexamples"):
            check_equivalence(n9, spec=always_wrong_spec, max_counterexamples=cap)


def test_a_cap_or_limit_that_is_not_an_int_is_refused():
    n = build_bcd_adder("bcd2")
    wrong = lambda bits: (0,) * 5
    wrong_spec = lambda inputs, one: ([one ^ one] * 5, None)
    for reference in ({"oracle": wrong}, {"spec": wrong_spec}):
        assert len(check_equivalence(n, **reference, max_counterexamples=3)) == 3
        # 2.5 used to be read as a cap of 3, and True as 1; the others failed in a comparison with a bare TypeError
        for cap in (2.5, 3.0, "3", None, True):
            with pytest.raises(ValueError, match=r"^max_counterexamples must be an int, got "):
                check_equivalence(n, **reference, max_counterexamples=cap)
        for limit in (None, "20", 20.0, True):
            with pytest.raises(ValueError, match=r"^limit must be an int, got "):
                check_equivalence(n, **reference, limit=limit)
            with pytest.raises(ValueError, match=r"^limit must be an int, got "):
                truth_table(n, limit=limit)
        with pytest.raises(TruthTableLimitError):
            check_equivalence(n, **reference, limit=8)


def test_a_check_takes_exactly_one_of_an_oracle_and_a_spec():
    n = build_bcd_adder("bcd2")
    oracle, domain = adder_oracle(1)
    spec = adder_spec(1)
    assert check_equivalence(n, oracle, domain) == check_equivalence(n, spec=spec) == []
    for call in (
        lambda: check_equivalence(n),
        lambda: check_equivalence(n, domain=domain),
        lambda: check_equivalence(n, oracle, spec=spec),
        lambda: check_equivalence(n, oracle, domain, spec=spec),
    ):
        with pytest.raises(ValueError, match="^give exactly one of oracle and spec$"):
            call()
    # the spec gives its own domain column
    with pytest.raises(ValueError, match="^a spec returns its own domain: give no domain with it$"):
        check_equivalence(n, domain=domain, spec=spec)


def test_a_spec_of_another_output_count_fails_every_in_domain_pattern():
    # as an oracle's tuple of another length differs from every output row
    n = build_bcd_adder("bcd2")
    spec = adder_spec(1)

    def short_spec(inputs, one):
        outputs, domain = spec(inputs, one)
        return outputs[:4], domain

    short_oracle = lambda bits: tuple(spec(bits, 1)[0][:4])
    domain = lambda bits: spec(bits, 1)[1] == 1
    for cap in (1, 16, 1000):
        found = check_equivalence(n, spec=short_spec, max_counterexamples=cap)
        assert found == check_equivalence(n, short_oracle, domain, max_counterexamples=cap)
        assert len(found) == min(cap, 200)  # 10 * 10 digit pairs, each with both carries in


def test_int_bit_helpers():
    assert int_to_bits(9, 4) == [1, 0, 0, 1]
    assert bits_to_int([1, 0, 0, 1]) == 9
    with pytest.raises(ValueError):
        int_to_bits(16, 4)


def chain_text(digits):
    return serialize_netlist(build_bcd_chain(digits))


def best_round_trip_seconds(text, repeats=3):
    """Fastest ``run`` + ``run_inverse`` over freshly parsed copies, first use included."""
    best = float("inf")
    for _ in range(repeats):
        n = parse_netlist(text)
        inputs = dict(zip(n.primary_inputs, [0, 1] * len(n.primary_inputs)))
        start = time.perf_counter()
        result = run(n, inputs)
        recovered = run_inverse(n, result.terminals)
        best = min(best, time.perf_counter() - start)
        assert {w: recovered[w] for w in n.primary_inputs} == inputs
    return best


def test_run_and_inverse_scale_linearly():
    small = best_round_trip_seconds(chain_text(50))
    large = best_round_trip_seconds(chain_text(400))
    # 8x the gates: linear is about 8x, quadratic about 64x
    assert large / small < 24, f"bcd-chain 400 took {large / small:.1f}x bcd-chain 50"


def chain_forms(digits):
    """The text of bcd-chain ``digits``, its parse, and a second parse that shares no wire tuple with the first."""
    text = chain_text(digits)
    return text, parse_netlist(text), parse_netlist(text)


# each path: the argument, made untimed from (text, parse, second parse), then the timed call on it
SCALED_PATHS = {
    "parse_netlist": (lambda text, n, twin: text, parse_netlist),
    "validate": (lambda text, n, twin: Netlist(n.name, n.primary_inputs, n.constants, n.gates, n.primary_outputs), validate),
    "serialize_netlist": (lambda text, n, twin: n, serialize_netlist),
    "analyze": (lambda text, n, twin: n, analyze),
    "plan": (lambda text, n, twin: parse_netlist(text), operator.attrgetter("_plan")),
    "pickle": (lambda text, n, twin: n, lambda n: pickle.loads(pickle.dumps(n))),
    "eq": (lambda text, n, twin: (n, twin), lambda pair: pair[0] == pair[1]),
    "hash": (lambda text, n, twin: n, hash),
    "garbage_wires": (lambda text, n, twin: n, garbage_wires),
}


def best_seconds_and_peak(path, forms, repeats=5):
    """Fastest of ``repeats`` timed calls on fresh arguments, and one call's tracemalloc peak."""
    make, call = SCALED_PATHS[path]
    best = float("inf")
    for _ in range(repeats):
        argument = make(*forms)
        start = time.perf_counter()
        call(argument)
        best = min(best, time.perf_counter() - start)
    argument = make(*forms)
    tracemalloc.start()
    try:
        call(argument)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return best, peak


@pytest.fixture(scope="module")
def chains_50_and_400():
    return chain_forms(50), chain_forms(400)


@pytest.mark.parametrize("path", SCALED_PATHS)
def test_public_paths_scale_linearly(path, chains_50_and_400):
    (small, small_peak), (large, large_peak) = (best_seconds_and_peak(path, forms) for forms in chains_50_and_400)
    # 8x the gates: linear is about 8x, quadratic about 64x, in time and in memory
    assert large / small < 24, f"{path}: bcd-chain 400 took {large / small:.1f}x bcd-chain 50"
    assert large_peak / small_peak < 24, f"{path}: bcd-chain 400 peaked at {large_peak / small_peak:.1f}x bcd-chain 50"


def test_binding_errors_name_the_wire_on_a_large_chain():
    n = build_bcd_chain(400)
    inputs = dict(zip(n.primary_inputs, encode_bcd_operands(1, 2, 0, 400)))
    terminals = run(n, inputs).terminals
    dropped = n.primary_inputs[1234]
    with pytest.raises(ValueError, match=f"missing input bindings: {dropped}$"):
        run(n, {w: b for w, b in inputs.items() if w != dropped})
    with pytest.raises(ValueError, match="unexpected bindings: stray$"):
        run(n, dict(inputs, stray=0))
    lost = next(reversed(terminals))
    with pytest.raises(ValueError, match=f"missing terminal bindings: {lost}$"):
        run_inverse(n, {w: b for w, b in terminals.items() if w != lost})
    with pytest.raises(ValueError, match="unexpected bindings: stray$"):
        run_inverse(n, dict(terminals, stray=1))


def test_a_same_size_binding_with_a_stray_wire_names_both():
    n = build_ripple_adder()
    inputs = dict.fromkeys(n.primary_inputs, 0)
    terminals = run(n, inputs).terminals
    swapped = {w: b for w, b in inputs.items() if w != "cin"}
    with pytest.raises(ValueError) as error:
        run(n, dict(swapped, stray=0))
    assert str(error.value) == "missing input bindings: cin; unexpected bindings: stray"
    lost = next(reversed(terminals))
    swapped = {w: b for w, b in terminals.items() if w != lost}
    with pytest.raises(ValueError) as error:
        run_inverse(n, dict(swapped, stray=1))
    assert str(error.value) == f"missing terminal bindings: {lost}; unexpected bindings: stray"


def test_a_defaultdict_that_misses_a_wire_is_refused_and_left_unchanged():
    n = build_ripple_adder()
    inputs = dict.fromkeys(n.primary_inputs, 0)
    terminals = run(n, inputs).terminals
    partial = collections.defaultdict(int, {w: b for w, b in inputs.items() if w != "cin"})
    with pytest.raises(ValueError) as error:
        run(n, partial)
    assert str(error.value) == "missing input bindings: cin"
    assert len(partial) == len(inputs) - 1
    lost = next(reversed(terminals))
    partial = collections.defaultdict(int, {w: b for w, b in terminals.items() if w != lost})
    with pytest.raises(ValueError) as error:
        run_inverse(n, partial)
    assert str(error.value) == f"missing terminal bindings: {lost}"
    assert len(partial) == len(terminals) - 1


def test_a_read_only_mapping_binds_like_a_dict():
    n, inputs = ripple_inputs(9, 6, 1)
    result = run(n, types.MappingProxyType(inputs))
    assert result == run(n, inputs)
    assert run_inverse(n, types.MappingProxyType(result.terminals)) == dict(inputs, **dict(n.constants))


@pytest.mark.parametrize("seed", range(3))
def test_run_inverse_gives_back_the_sources_of_a_chain(seed):
    n = build_bcd_chain(50)
    rng = random.Random(seed)
    inputs = {w: rng.randint(0, 1) for w in n.primary_inputs}
    assert run_inverse(n, run(n, inputs).terminals) == dict(inputs, **dict(n.constants))


ROTATIONS = """\
circuit r
define ROT unknown 0 0 0 000 001 010 011 100 110 111 101
inputs a b c d
const k 1
gate ROT a b c -> p q r
gate ROT q r d -> s t u
gate ROT u k p -> v w x
outputs s v w
end
"""


def test_run_inverse_gives_back_the_sources_through_a_gate_that_is_not_its_own_inverse():
    n = parse_netlist(ROTATIONS)
    rot = n.gates[0].gate
    assert rot.inverse_table != rot.table
    for pattern in range(1 << len(n.primary_inputs)):
        inputs = dict(zip(n.primary_inputs, int_to_bits(pattern, len(n.primary_inputs))))
        assert run_inverse(n, run(n, inputs).terminals) == dict(inputs, k=1)


# --- the bit-sliced sweep against the scalar engine and the gate definitions ---


def evaluate_by_apply(netlist, bits):
    """Every wire's value, gate by gate through ``GateDefinition.apply``."""
    values = dict(zip(netlist.primary_inputs, bits))
    values.update(netlist.constants)
    for inst in netlist.gates:
        values.update(zip(inst.outputs, inst.gate.apply([values[w] for w in inst.inputs])))
    return values


def assert_row_agrees(netlist, row):
    garbage = garbage_wires(netlist)
    result = run(netlist, dict(zip(netlist.primary_inputs, row.inputs)))
    assert row.outputs == tuple(result.primary_out[w] for w in netlist.primary_outputs)
    assert row.garbage == tuple(result.garbage_out[w] for w in garbage)
    values = evaluate_by_apply(netlist, row.inputs)
    assert row.outputs == tuple(values[w] for w in netlist.primary_outputs)
    assert row.garbage == tuple(values[w] for w in garbage)


def assert_table_agrees(netlist):
    width = len(netlist.primary_inputs)
    rows = truth_table(netlist)
    for row in rows:
        assert type(row) is TruthTableRow
        assert type(row.inputs) is type(row.outputs) is type(row.garbage) is tuple
    assert [row.inputs for row in rows] == [tuple(int_to_bits(p, width)) for p in range(1 << width)]
    for row in rows:
        assert_row_agrees(netlist, row)
    return rows


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_truth_table_agrees_with_run_and_apply(seed):
    n = random_netlist(random.Random(seed), max_gates=10)
    assume(len(n.primary_inputs) <= 10)
    rows = assert_table_agrees(n)
    assert list(truth_table(n)) == rows


def set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_truth_table_restores_collector_state(enabled, monkeypatch):
    n = build_bcd_adder("bcd2")  # 9 inputs: blocks of 64, 64, 128 and 256 patterns
    was, threshold = gc.isenabled(), gc.get_threshold()
    try:
        set_collector(enabled)

        def untouched(*args):
            raise AssertionError("the collector was switched or run by hand")

        # the call and the rows read from it leave the collector as it was
        with monkeypatch.context() as patched:
            for name in ("disable", "enable", "collect"):
                patched.setattr(gc, name, untouched)
            assert len(list(truth_table(n))) == 512
        assert gc.isenabled() == enabled and gc.get_threshold() == threshold

        real, calls = simulate._low_columns, []

        def fail_in_third_block(size):
            calls.append(size)
            if len(calls) > 2:
                raise RuntimeError("column building failed")
            return real(size)

        monkeypatch.setattr(simulate, "_low_columns", fail_in_third_block)
        table = truth_table(n)  # the call runs no pattern: the engine runs as the rows are read
        with pytest.raises(RuntimeError, match="column building failed"):
            list(table)
        assert calls == [64, 64, 128]
        assert gc.isenabled() == enabled
    finally:
        set_collector(was)


@pytest.mark.parametrize("enabled", [True, False])
def test_truth_table_collects_each_block_only_when_the_collector_is_on(enabled):
    n = build_bcd_adder("bcd2")  # blocks of 64, 64, 128 and 256 patterns
    generations = []

    def recorder(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    was, threshold = gc.isenabled(), gc.get_threshold()
    try:
        set_collector(enabled)
        gc.set_threshold(100)
        gc.collect()  # so that the count of young objects starts from zero
        gc.callbacks.append(recorder)
        table = truth_table(n)
        in_call = len(generations)
        rows = list(table)
        gc.callbacks.remove(recorder)
        assert gc.isenabled() == enabled
    finally:
        if recorder in gc.callbacks:
            gc.callbacks.remove(recorder)
        gc.set_threshold(*threshold)
        set_collector(was)
    assert len(rows) == 512
    if not enabled:
        assert generations == []
        return
    # the call evaluates no block and builds no row: fewer young collections than blocks come due in it
    assert in_call < 4
    # each block's rows are tracked objects built in the caller's loop, so the collector,
    # when on, runs young collections there, and they untrack each row's tuples of ints
    assert generations[in_call:].count(0) >= 4
    for row in (rows[0], rows[63], rows[64]):
        assert [gc.is_tracked(field) for field in row] == [False, False, False]


def test_truth_table_holds_its_netlist_not_columns():
    n = build_bcd_chain(2)  # 17 inputs, 9 outputs and 46 garbage wires
    truth_table(n)  # builds the plan, which the netlist keeps
    tracemalloc.start()
    try:
        table = truth_table(n)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table) == 1 << 17
    # the table holds no block: keeping the 55 columns of 2^17 bits would take 887 KB
    assert held < 16 << 10
    wide = build_bcd_chain(3)  # 25 inputs: 2^25 patterns
    tracemalloc.start()
    try:
        table = truth_table(wide, limit=25)  # the call runs no pattern
        traced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traced < 1 << 20
    garbage = garbage_wires(wide)
    # rows 0-8191 span the blocks of 64, 64, 128, ... 4096 patterns; the others are each one pattern
    for position, row in [*enumerate(table[:8192]), ((1 << 24) + 1, table[(1 << 24) + 1]), ((1 << 25) - 1, table[-1])]:
        result = run(wide, dict(zip(wide.primary_inputs, int_to_bits(position, 25))))
        expected = tuple(result.primary_out[w] for w in wide.primary_outputs), tuple(result.garbage_out[w] for w in garbage)
        assert row == (tuple(int_to_bits(position, 25)), *expected), position



def test_stepped_slices_hold_only_the_rows_they_return():
    table = truth_table(build_bcd_chain(2))  # 2^17 rows, 16 of them a multiple of 8192 apart
    for step in (8192, -8192):
        tracemalloc.start()
        try:
            part = table[::step]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # listing the whole span, then stepping it, peaked at 78 MB
        assert peak < 1 << 20, step
        assert part == [table[i] for i in range(1 << 17)[::step]], step
    table = truth_table(wide_netlist())  # 2^14 rows over blocks of 64 to 4096 patterns
    for key in (slice(None, None, 4097), slice(None, None, -5000), slice(70, None, 4097), slice(-70, 3, -5000)):
        assert table[key] == [table[i] for i in range(1 << 14)[key]], key


def run_row(n, position):
    """The truth-table row of pattern ``position``, from a single ``run``."""
    bits = int_to_bits(position, len(n.primary_inputs))
    result = run(n, dict(zip(n.primary_inputs, bits)))
    outputs = tuple(result.primary_out[w] for w in n.primary_outputs)
    return (tuple(bits), outputs, tuple(result.garbage_out[w] for w in garbage_wires(n)))


def test_tables_past_2_to_the_63_index_and_slice():
    n = build_bcd_chain(8)  # 65 inputs: more patterns than len() can report
    table = truth_table(n, limit=100)
    total = 1 << 65
    with pytest.raises(OverflowError):
        len(table)

    def expected(position):
        return run_row(n, position)

    assert table[0] == expected(0) and table[-1] == expected(total - 1)
    assert table[-3:] == [expected(p) for p in range(total - 3, total)]
    assert table[:2] == [expected(0), expected(1)]
    assert (table == []) is False and (table != []) is True
    for position in (total, -total - 1):
        with pytest.raises(IndexError):
            table[position]


def test_far_stepped_slices_evaluate_only_the_rows_they_return(monkeypatch):
    chain2, chain8 = build_bcd_chain(2), build_bcd_chain(8)
    near = truth_table(chain2)[:9000:4095]  # a step below the block size streams the blocks
    assert near == [run_row(chain2, p) for p in range(0, 9000, 4095)]

    def streamed(*args):
        raise AssertionError("a block was evaluated")

    monkeypatch.setattr(simulate, "_block_columns", streamed)
    # a step of at least one block reads each row it returns as an int index does
    assert truth_table(chain2)[::8192] == [run_row(chain2, p) for p in range(0, 1 << 17, 8192)]
    wide = truth_table(chain8, limit=100)
    far = [run_row(chain8, p) for p in range(0, 1 << 65, 1 << 60)]
    assert len(far) == 32
    assert wide[:: 1 << 60] == far and wide[:: -(1 << 60)] == [run_row(chain8, p) for p in range((1 << 65) - 1, -1, -(1 << 60))]


def test_reversed_and_index_match_a_list():
    small = truth_table(build_ripple_adder())
    assert list(reversed(small)) == list(small)[::-1]
    table = truth_table(wide_netlist())  # 2^14 rows over blocks of 64 to 4096 patterns
    rows = list(table)
    cases = [(5,), (5, 6), (300, -16000, -100), (9000, 4096), (16383, -1), (0, -(10**9), 10**9), (70, 70, 71), (70, 71, 70)]
    for position, *bounds in cases:
        try:
            expected = rows.index(rows[position], *bounds)
        except ValueError:
            with pytest.raises(ValueError):
                table.index(rows[position], *bounds)
        else:
            assert table.index(rows[position], *bounds) == expected, (position, bounds)
    with pytest.raises(ValueError):
        table.index(("not", "a", "row"))


def test_reversed_and_index_past_2_to_the_63():
    table = truth_table(build_bcd_chain(8), limit=100)
    last = table[-1]
    assert next(reversed(table)) == last
    assert table.index(last, -1) == 2**65 - 1
    assert table.index(table[5], 3, 2**64) == 5
    with pytest.raises(ValueError):
        table.index(last, -3, -1)


NESTED_CALL = """
import gc
from revlogic import GateInstance, Netlist, build_bcd_adder, builtin, truth_table
fg = builtin("FG")
small = Netlist("one_fg", ("a", "b"), (), (GateInstance(fg, ("a", "b"), ("p", "q")),), ("p", "q"))
expected = truth_table(small)
nested = []
gc.callbacks.append(lambda phase, info: phase == "start" and nested.append(truth_table(small) == expected))
gc.enable()
rows = list(truth_table(build_bcd_adder("bcd2")))  # over a thousand tracked objects: collections run
assert len(rows) == 512
assert gc.isenabled() and nested and all(nested), nested
"""


def test_truth_table_called_from_a_collector_callback():
    # a collection while rows are built runs gc.callbacks, which may tabulate in turn; in a
    # child process, so that a hang fails this test rather than hanging the rest
    src = str(Path(simulate.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NESTED_CALL], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_truth_table_threads_restore_collector_state():
    # many short calls in more threads than cores, switching as often as the
    # interpreter allows: every table equals the one built alone, and the collector stays on
    n = single_fg()
    expected = truth_table(n)
    interval, was = sys.getswitchinterval(), gc.isenabled()
    wrong = []

    def work():
        for _ in range(10_000):
            if truth_table(n) != expected:
                wrong.append(1)

    try:
        gc.enable()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
        set_collector(was)
    assert wrong == []


def test_truth_table_without_primary_inputs():
    n = Netlist("k", (), (("k0", 1), ("k1", 0)), (GateInstance(FG, ("k0", "k1"), ("p", "q")),), ("p",))
    table = assert_table_agrees(n)
    assert table == [((), (1,), (1,))]
    assert len(table) == 1 and table[0] == table[-1] == ((), (1,), (1,))
    assert check_equivalence(n, lambda bits: (1,)) == []
    assert check_equivalence(n, lambda bits: (0,)) == [Counterexample((), (0,), (1,))]


def test_truth_table_without_primary_outputs():
    n = Netlist("sink", ("a", "b"), (), (GateInstance(FG, ("a", "b"), ("p", "q")),), ())
    rows = assert_table_agrees(n)
    assert [row.outputs for row in rows] == [()] * 4
    assert [row.garbage for row in rows] == [(0, 0), (0, 1), (1, 1), (1, 0)]
    assert check_equivalence(n, lambda bits: ()) == []


def test_truth_table_without_garbage():
    pfag, hnfg = builtin("PFAG"), builtin("HNFG")
    gates = (
        GateInstance(pfag, ("a", "b", "c", "d"), ("p", "q", "r", "s")),
        GateInstance(hnfg, ("s", "r", "q", "p"), ("w", "x", "y", "z")),
    )
    n = Netlist("full", ("a", "b", "c", "d"), (), gates, ("w", "x", "y", "z"))
    rows = assert_table_agrees(n)
    assert all(row.garbage == () for row in rows)


def test_anf_of_a_random_arity_8_permutation():
    rng = random.Random(8)
    table = list(range(256))
    rng.shuffle(table)
    gate = GateDefinition("P8", 8, tuple(table))
    for pattern in range(256):
        word = 0
        for monomials in gate.anf:
            bit = 0
            for mono in monomials:
                bit ^= mono & pattern == mono  # the AND of the lines in mono
            word = word << 1 | bit
        assert word == gate.table[pattern]
    lines = tuple(f"i{k}" for k in range(8))
    outs = tuple(f"o{k}" for k in range(8))
    n = Netlist("p8", lines, (), (GateInstance(gate, lines, outs),), outs[:5])
    assert_table_agrees(n)


def wide_netlist(width=14, n_gates=24, seed=13):
    """Random gates over ``width`` inputs and three constants, half the free wires as outputs."""
    rng = random.Random(seed)
    inputs = tuple(f"x{k}" for k in range(width))
    constants = (("k0", 0), ("k1", 1), ("k2", 0))
    available = list(inputs) + [w for w, _ in constants]
    gates = []
    for index in range(n_gates):
        gate = builtin(rng.choice(GATE_POOL))
        rng.shuffle(available)
        ins = tuple(available.pop() for _ in range(gate.arity))
        outs = tuple(f"g{index}_{k}" for k in range(gate.arity))
        gates.append(GateInstance(gate, ins, outs))
        available.extend(outs)
    outputs = tuple(sorted(available)[::2])
    return Netlist("wide", inputs, constants, tuple(gates), outputs)


def ring_netlist(width):
    """One CNOT per line, each on the next line round a ring: a linear bijection with no garbage."""
    wires = [f"x{k}" for k in range(width)]
    gates = []
    for k in range(width):
        ins = (wires[k], wires[(k + 1) % width])
        outs = (f"g{k}c", f"g{k}t")
        gates.append(GateInstance(FG, ins, outs))
        wires[k], wires[(k + 1) % width] = outs
    return Netlist("ring", tuple(f"x{k}" for k in range(width)), (), tuple(gates), tuple(wires))


def test_truth_table_outputs_shared_up_to_12_outputs():
    # 14 outputs, past the bound of 12: each row's outputs is a tuple of its own
    n = ring_netlist(14)
    rows = truth_table(n)
    assert len({row.outputs for row in rows}) == 1 << 14
    for row in rows:
        assert type(row) is TruthTableRow and type(row.outputs) is tuple
        result = run(n, dict(zip(n.primary_inputs, row.inputs)))
        assert row.outputs == tuple(result.primary_out[w] for w in n.primary_outputs)
    # bcd2 has 5 outputs: every block of 64 or more patterns holds at most 32 output tuples
    rows = truth_table(build_bcd_adder("bcd2"))
    for start, end in ((0, 64), (64, 128), (128, 256), (256, 512)):
        assert len({id(row.outputs) for row in rows[start:end]}) <= 32
    # 13 inputs cross blocks of 64 to 4096 patterns; the first count of the 16 terminal wires are the outputs
    base = wide_netlist(width=13)
    terminals = [*base.primary_outputs, *garbage_wires(base)]
    # the netlists below differ from base only in which wires are outputs, so one run of base per pattern serves all
    runs = [run(base, dict(zip(base.primary_inputs, int_to_bits(i, 13)))).all_lines for i in range(1 << 13)]
    for count in (0, 1, 8, 9, 12, 13):
        n = Netlist(f"w{count}", base.primary_inputs, base.constants, base.gates, tuple(terminals[:count]))
        garbage = garbage_wires(n)
        table = truth_table(n)
        rows = list(table)
        for index, row in enumerate(rows):
            lines = runs[index]
            outputs, garbage_bits = (tuple(lines[w] for w in wires) for wires in (n.primary_outputs, garbage))
            assert row == (tuple(int_to_bits(index, 13)), outputs, garbage_bits)
        if count <= 12:  # one object per output value, on every read path
            first = {}
            assert all(row.outputs is first.setdefault(row.outputs, row.outputs) for row in rows)
            assert all(table[i].outputs is rows[i].outputs for i in (0, 63, 64, 4095, 4096, 8191))
            assert all(a.outputs is b.outputs for a, b in zip(table[4000:4200], rows[4000:4200]))
        else:
            assert all(type(row.outputs) is tuple for row in rows)
            assert len({id(row.outputs) for row in rows}) == len(rows)
    # two different rows with equal outputs, read by int index, hold one object
    table = truth_table(Netlist("w9", base.primary_inputs, base.constants, base.gates, tuple(terminals[:9])))
    j = next(k for k in range(1, len(table)) if table[k].outputs == table[0].outputs)
    assert table[0].outputs is table[j].outputs
    assert simulate._output_tuples.cache_info().currsize <= 13


def test_sweep_across_block_boundaries():
    n = wide_netlist()
    width = len(n.primary_inputs)
    assert width >= 13 and garbage_wires(n)
    rows = truth_table(n)
    assert len(rows) == 1 << width
    edges = {0, 63, 64, 127, 128, 255, 256, 4095, 4096, 8191, 8192, 12287, 12288, (1 << width) - 1}
    for index in sorted(edges | set(random.Random(1).sample(range(1 << width), 300))):
        assert rows[index].inputs == tuple(int_to_bits(index, width))
        assert_row_agrees(n, rows[index])


def test_truth_table_is_a_sequence_of_rows():
    n = wide_netlist()  # 14 inputs: blocks of 64, 64, 128, ... 4096 patterns
    table = truth_table(n)
    rows = list(table)
    assert isinstance(table, TruthTable) and isinstance(table, Sequence) and not isinstance(table, list)
    assert len(table) == len(rows) == 1 << 14
    for index in (0, 1, 63, 64, 4095, 4096, 12345, len(rows) - 1, -1, -64, -4097, -len(rows)):
        assert table[index] == rows[index]
        assert type(table[index]) is TruthTableRow
    for index in (len(rows), -len(rows) - 1, 1 << 40):
        with pytest.raises(IndexError):
            table[index]
    with pytest.raises(TypeError):
        table["0"]
    slices = (
        slice(None),
        slice(60, 70),
        slice(4000, 8200, 3),
        slice(5, None, 4096),
        slice(None, None, -1),
        slice(9000, 10, -7),
        slice(-3, None),
        slice(5, 5),
        slice(70, 60),
        slice(1 << 20, None),
    )
    # the start, the block edges at 64, 128 and 4096, and the end, with steps 1, 3 and -2
    for low, high in ((0, 20), (50, 80), (110, 140), (4080, 4110), (-20, None)):
        slices += (slice(low, high), slice(low, high, 3), slice(high, low, -2))
    for key in slices:
        part = table[key]
        assert type(part) is list and part == rows[key] == [table[i] for i in range(len(table))[key]], key
    with pytest.raises(ValueError):
        table[::0]
    with pytest.raises(AttributeError):
        table._width = 3


def test_truth_table_equality():
    table = truth_table(build_bcd_adder("bcd2"))
    rows = list(table)
    assert table == rows and rows == table and not table != rows and not rows != table
    assert table != tuple(rows) and tuple(rows) != table
    assert table != rows[:-1] and table != rows[:-1] + rows[:1]
    assert table == truth_table(build_bcd_adder("bcd2")) == table[:]
    with pytest.raises(TypeError):
        hash(table)
    # TG and PG agree on their first and third lines and differ on the second, here garbage;
    # seven pass-through lines spread the patterns over several blocks
    through = tuple(f"x{k}" for k in range(7))

    def one_gate(name):
        gate = GateInstance(builtin(name), ("a", "b", "c"), ("p", "q", "r"))
        return Netlist("m", ("a", "b", "c") + through, (), (gate,), ("p", "r") + through)

    tg, pg = truth_table(one_gate("TG")), truth_table(one_gate("PG"))
    assert [row.outputs for row in tg] == [row.outputs for row in pg]
    assert tg != pg and tg != list(pg) and list(tg) != pg
    assert tg == truth_table(one_gate("TG"))


def test_tables_of_equal_netlists_are_equal_without_the_engine(monkeypatch):
    n = build_bcd_adder("bcd2")
    table, other_design = truth_table(n), truth_table(build_bcd_adder("bcd1"))

    def engine(*args):
        raise AssertionError("equal netlists give equal tables")

    monkeypatch.setattr(simulate, "_block_columns", engine)
    separate = truth_table(build_bcd_adder("bcd2"))
    assert separate._netlist is not n
    assert table == truth_table(n) and table == separate and not table != separate
    monkeypatch.undo()
    # different netlists still compare by their columns
    assert table == other_design and list(table) == list(other_design)


def test_tables_with_equal_columns_and_unequal_rows_differ():
    # the same two columns, split between outputs and garbage in two ways
    fg = GateInstance(FG, ("a", "b"), ("p", "q"))
    both, first = (truth_table(Netlist("s", ("a", "b"), (), (fg,), outputs)) for outputs in (("p", "q"), ("p",)))
    assert both != first and list(both) != list(first)
    # 64 patterns against 128, whose first block of 64 holds the same seven columns
    wires = tuple(f"x{k}" for k in range(7))
    short = truth_table(Netlist("a", wires[:6], (("k", 0),), (), ("k", *wires[:6])))
    long = truth_table(Netlist("b", wires, (), (), wires))
    assert short != long and long != short


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_truth_table_pickles(protocol):
    table = truth_table(wide_netlist())
    copy = pickle.loads(pickle.dumps(table, protocol))
    assert type(copy) is TruthTable and copy == table and list(copy) == list(table)
    assert copy[-1] == table[-1]
    # a table pickles as its netlist: the 55 columns of 2^17 bits would take 833 KB
    table = truth_table(build_bcd_chain(2))
    data = pickle.dumps(table, protocol)
    assert len(data) < 64 << 10
    assert pickle.loads(data) == table


def test_check_equivalence_matches_a_scalar_loop_across_blocks():
    n = wide_netlist()
    width = len(n.primary_inputs)
    by_run = {}
    for pattern in range(1 << width):
        bits = tuple(int_to_bits(pattern, width))
        result = run(n, dict(zip(n.primary_inputs, bits)))
        by_run[bits] = tuple(result.primary_out[w] for w in n.primary_outputs)

    def oracle(bits):
        # wrong on a sparse set of patterns spread over every block
        expected = by_run[bits]
        if bits_to_int(bits) % 997 == 5:
            expected = (1 - expected[0],) + expected[1:]
        return expected

    seen = []

    def domain(bits):
        seen.append(bits)
        return bits[-2] == 0  # skips every other pair of patterns

    # the scalar reference: every in-domain pattern through run, in ascending order
    scalar = []
    for pattern in range(1 << width):
        bits = tuple(int_to_bits(pattern, width))
        if not domain(bits):
            continue
        expected = oracle(bits)
        if by_run[bits] != expected:
            scalar.append(Counterexample(bits, expected, by_run[bits]))
    assert len(scalar) > 5 and bits_to_int(scalar[-1].inputs) > 12288

    for cap in (1, 5, len(scalar), 10_000):
        seen.clear()
        assert check_equivalence(n, oracle, domain, max_counterexamples=cap) == scalar[:cap]
        # the domain sees every pattern in ascending order, up to the last counterexample kept
        assert seen == [tuple(int_to_bits(p, width)) for p in range(len(seen))]
        last = bits_to_int(scalar[cap - 1].inputs) if cap <= len(scalar) else (1 << width) - 1
        assert len(seen) == last + 1


def assert_no_children():
    # the check ran in this process: there is no child to wait for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def wide17():
    """A 17-input netlist and its outputs at every pattern, read from its truth table."""
    n = wide_netlist(17)
    return n, [row.outputs for row in truth_table(n)]


def usable_cpus(monkeypatch, cpus):
    """Report ``cpus`` usable CPUs to anything that asks; None leaves the host's count.  No result may depend on it."""
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


# from 65 000 and from 70 000 the mismatches start past the first blocks, with two and five CPUs reported usable
@pytest.mark.parametrize("wrong_from, cpus", [(0, None), (65_000, 2), (70_000, 5)])
def test_forked_check_matches_a_scalar_loop(wide17, monkeypatch, wrong_from, cpus):
    n, outputs = wide17
    usable_cpus(monkeypatch, cpus)

    def oracle(bits):
        # wrong on a sparse set of patterns from wrong_from on
        position = bits_to_int(bits)
        expected = outputs[position]
        if position >= wrong_from and position % 997 == 5:
            expected = (1 - expected[0],) + expected[1:]
        return expected

    def domain(bits):
        return bits[-2] == 0  # skips every other pair of patterns

    # the scalar reference: every in-domain pattern in ascending order
    scalar = []
    for position, bits in enumerate(product((0, 1), repeat=17)):
        if domain(bits) and outputs[position] != oracle(bits):
            scalar.append(Counterexample(bits, oracle(bits), outputs[position]))
    assert len(scalar) > 5 and bits_to_int(scalar[-1].inputs) > 120_000

    for cap in (1, 5, len(scalar), 10_000):
        assert check_equivalence(n, oracle, domain, max_counterexamples=cap) == scalar[:cap], cap
        assert_no_children()


def constant_flips(n, picks):
    """The netlists with one of ``n``'s constants flipped, for each constant index in ``picks``."""
    for k in picks:
        wire, value = n.constants[k]
        yield Netlist(n.name, n.primary_inputs, n.constants[:k] + ((wire, 1 - value),) + n.constants[k + 1 :], n.gates, n.primary_outputs)


def test_forked_check_of_constant_flip_mutants_matches_the_sequential_engine():
    n = build_bcd_chain(2)
    oracle = adder_oracle(2)[0]

    def domain(bits):
        # adder_oracle's domain, unrolled: no operand digit above 9
        return not (
            bits[0] and (bits[1] or bits[2])
            or bits[4] and (bits[5] or bits[6])
            or bits[8] and (bits[9] or bits[10])
            or bits[12] and (bits[13] or bits[14])
        )

    # flipped, d0_zero0 is wrong from pattern 0 on, d0_zero9 from 3 and d1_zero9 from 51
    wrong = {"d0_zero0": 20000, "d0_zero9": 9200, "d1_zero9": 9200}  # in-domain mismatches
    picks = [k for k, (wire, _value) in enumerate(n.constants) if wire in wrong]
    for k, mutant in zip(picks, constant_flips(n, picks)):
        wire = n.constants[k][0]
        for cap in (1, 16, 10**6) if wire == "d1_zero9" else (1, 16):  # a full sweep of both references
            expected = check_equivalence(mutant, oracle, domain, max_counterexamples=cap)
            assert len(expected) == min(cap, wrong[wire]), (wire, cap)
            # the column spec gives the oracle's counterexamples, in the same order
            assert check_equivalence(mutant, spec=adder_spec(2), max_counterexamples=cap) == expected, (wire, cap)
            assert_no_children()


@pytest.mark.parametrize("cpus", [None, 5])
def test_forked_check_raises_what_the_sequential_engine_raises(wide17, monkeypatch, cpus):
    n, outputs = wide17
    usable_cpus(monkeypatch, cpus)
    calls = []

    def oracle(bits):
        position = bits_to_int(bits)
        calls.append(position)
        if position >= 100_000:
            raise ArithmeticError(f"no answer at {position}")
        return outputs[position]

    with pytest.raises(ArithmeticError) as raised:
        check_equivalence(n, oracle)
    assert str(raised.value) == "no answer at 100000"
    # one in-order pass: the oracle saw each pattern once, up to the one that raised
    assert calls == [*range(100_001)]
    assert_no_children()


def test_a_cap_met_in_the_calling_process_kills_the_copies(wide17):
    n, outputs = wide17

    def oracle(bits):
        position = bits_to_int(bits)
        if position == 69_632:  # far past the cap: a check that went on would hold the call
            time.sleep(30)
        expected = outputs[position]
        return (1 - expected[0],) + expected[1:] if 5000 <= position < 5003 else expected

    began = time.monotonic()
    found = check_equivalence(n, oracle, max_counterexamples=3)
    assert [bits_to_int(ce.inputs) for ce in found] == [5000, 5001, 5002]
    assert time.monotonic() - began < 20
    assert_no_children()


def test_check_forks_nothing_with_a_second_thread_or_a_failing_fork(wide17, monkeypatch):
    n, outputs = wide17

    def oracle(bits):
        position = bits_to_int(bits)
        return outputs[position] if position % 1009 else (1,) * len(outputs[0])

    expected = check_equivalence(n, oracle, max_counterexamples=40)
    assert len(expected) == 40
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert check_equivalence(n, oracle, max_counterexamples=40) == expected
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert check_equivalence(wide_netlist(15), lambda bits: (), lambda bits: False) == []

    def refused():
        raise BlockingIOError("resource temporarily unavailable")

    # a check that needs no fork and no pipe gives the same result when both are refused
    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(os, "pipe", refused)
    assert check_equivalence(n, oracle, max_counterexamples=40) == expected
    assert_no_children()


def test_a_copy_that_dies_leaves_only_its_own_range_to_the_calling_process(wide17):
    n, outputs = wide17
    calls = []

    def oracle(bits):
        position = bits_to_int(bits)
        calls.append(position)
        expected = outputs[position]
        return (1 - expected[0],) + expected[1:] if position % 997 == 5 else expected

    found = check_equivalence(n, oracle, max_counterexamples=10_000)
    assert [bits_to_int(ce.inputs) for ce in found] == [*range(5, 1 << 17, 997)]
    assert len(found) == 132
    assert_no_children()
    # the oracle was called on every pattern once, in ascending order
    assert calls == [*range(1 << 17)]


def test_a_report_larger_than_a_pipe_buffer_is_read_whole():
    n = wide_netlist(16)
    outputs = [row.outputs for row in truth_table(n)]
    calls = []

    def oracle(bits):
        position = bits_to_int(bits)
        calls.append(position)
        expected = outputs[position]
        return (1 - expected[0],) + expected[1:] if position >= 40_960 and position % 2 else expected

    # 12 288 counterexamples of 16 inputs and 10 outputs, far more than a 64 KiB pipe buffer would hold pickled
    found = check_equivalence(n, oracle, max_counterexamples=20_000)
    assert_no_children()
    assert calls == [*range(1 << 16)]  # every pattern was checked once, in order
    assert [bits_to_int(ce.inputs) for ce in found] == [*range(40_961, 1 << 16, 2)]
    assert all(ce.expected != ce.actual == outputs[bits_to_int(ce.inputs)] for ce in found)


@pytest.mark.parametrize("cpus", [2, 5])
def test_each_pattern_is_checked_in_one_process(wide17, monkeypatch, cpus):
    n, outputs = wide17
    usable_cpus(monkeypatch, cpus)
    checked = []  # (pid, pattern) for each oracle call

    def oracle(bits):
        position = bits_to_int(bits)
        checked.append((os.getpid(), position))
        expected = outputs[position]
        return (1 - expected[0],) + expected[1:] if position % 997 == 5 else expected

    assert len(check_equivalence(n, oracle, max_counterexamples=10_000)) == 132  # a cap that is never met
    assert_no_children()
    # every pattern was checked once, in order, in this process: a counterexample is not checked again
    assert checked == [(os.getpid(), position) for position in range(1 << 17)]


class Bit(int):
    """An int of a type of its own."""


@pytest.mark.parametrize("output", [Bit, lambda bit: bytearray([bit])], ids=["int-subclass", "bytearray"])
def test_a_copy_reports_outputs_of_any_type_as_they_are(output):
    n = build_bcd_chain(2)
    spec, domain = adder_oracle(2)

    def oracle(bits):
        expected = spec(bits)
        # neither an int nor a bool: the counterexample must carry it as it is
        return (output(1 - expected[0]), *expected[1:]) if bits_to_int(bits) >= 70_000 else expected

    found = check_equivalence(n, oracle, domain)
    assert bits_to_int(found[0].inputs) == 70_144 and len(found) == 16
    assert all(ce.expected == oracle(ce.inputs) for ce in found)
    assert all(type(ce.expected[0]) is type(output(0)) for ce in found)
    assert_no_children()


# a check of bcd-chain 2, against the oracle and the spec, under the SIGCHLD disposition that argv[1]
# names; prints both results and the number of processes forked
SIGCHLD_CHECK = """
import os, signal, sys
from helpers import adder_oracle
from revlogic import adder_spec, build_bcd_chain, check_equivalence
if sys.argv[1] == "ignored":
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)
elif sys.argv[1] == "reaping-handler":
    signal.signal(signal.SIGCHLD, lambda signum, frame: os.waitpid(-1, os.WNOHANG))
forks, fork = [], os.fork
def counted():
    forks.append(None)
    return fork()
os.fork = counted
n = build_bcd_chain(2)
print(check_equivalence(n, *adder_oracle(2)), check_equivalence(n, spec=adder_spec(2)), len(forks))
"""


@pytest.mark.parametrize("disposition", ["default", "ignored", "reaping-handler"])
def test_a_check_makes_no_child_whatever_the_sigchld_disposition(disposition):
    # in a child process, so that this one's disposition is untouched
    src = str(Path(simulate.__file__).resolve().parent.parent)
    paths = [src, str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    argv = [sys.executable, "-c", SIGCHLD_CHECK, disposition]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] [] 0\n"


def test_passing_check_of_bcd_chain_2_makes_no_child():
    n = build_bcd_chain(2)
    assert check_equivalence(n, *adder_oracle(2)) == []
    assert check_equivalence(n, spec=adder_spec(2)) == []
    assert_no_children()


def random_permutation_gate(arity, seed):
    table = list(range(1 << arity))
    random.Random(seed).shuffle(table)
    return GateDefinition(f"R{arity}", arity, tuple(table))


KERNEL_GATES = [
    *BUILTIN_GATES.values(),
    GateDefinition("NOT", 1, (1, 0)),  # one output is the constant monomial XOR its line
    *(random_permutation_gate(arity, 100 + arity) for arity in range(1, 9)),
]


@pytest.mark.parametrize("gate", KERNEL_GATES, ids=lambda gate: gate.name)
def test_anf_kernel_reproduces_the_gate_table(gate):
    size = 1 << gate.arity
    values = [*simulate._low_columns(size), *[0] * gate.arity]  # slot b holds pattern bit b
    ins = tuple(reversed(range(gate.arity)))  # the first line is the most significant bit
    outs = tuple(range(gate.arity, 2 * gate.arity))
    simulate._anf_kernel(gate.anf)(values, ins, outs, (1 << size) - 1)
    for pattern in range(size):
        word = 0
        for slot in outs:
            word = word << 1 | values[slot] >> pattern & 1
        assert word == gate.table[pattern]


@pytest.mark.parametrize("gate", KERNEL_GATES, ids=lambda gate: gate.name)
def test_inverse_anf_kernel_reproduces_the_inverse_table(gate):
    size = 1 << gate.arity
    values = [*simulate._low_columns(size), *[0] * gate.arity]  # slot b holds pattern bit b
    ins = tuple(reversed(range(gate.arity)))  # the first line is the most significant bit
    outs = tuple(range(gate.arity, 2 * gate.arity))
    simulate._anf_kernel(gate.inverse_anf)(values, ins, outs, (1 << size) - 1)
    for pattern in range(size):
        word = 0
        for slot in outs:
            word = word << 1 | values[slot] >> pattern & 1
        assert word == gate.inverse_table[pattern]


def test_run_and_run_inverse_compile_once_per_normal_form():
    text = chain_text(3)
    n = parse_netlist(text)
    # an involution such as FG has one normal form both ways, so one kernel serves both directions
    forms = {inst.gate.anf for inst in n.gates} | {inst.gate.inverse_anf for inst in n.gates}
    simulate._anf_kernel.cache_clear()
    for netlist in (n, parse_netlist(text)):  # the second parse has a plan of its own
        result = run(netlist, dict.fromkeys(netlist.primary_inputs, 0))
        run_inverse(netlist, result.terminals)
        assert simulate._anf_kernel.cache_info().misses == len(forms)


def test_equal_tables_share_one_kernel():
    twin = GateDefinition("TWIN", 2, FG.table)
    assert simulate._anf_kernel(twin.anf) is simulate._anf_kernel(FG.anf)
    plans = []
    for gate in (FG, twin):
        n = Netlist("one", ("a", "b"), (), (GateInstance(gate, ("a", "b"), ("p", "q")),), ("p", "q"))
        truth_table(n)
        plans.append(n._plan)
    assert plans[0].kernels[0] is plans[1].kernels[0]


def test_plan_is_complete_when_built():
    n = wide_netlist()
    plan = n._plan  # read before any run
    assert len(plan.kernels) == len(plan.in_slots) == len(plan.out_slots) == len(n.gates)
    for i, inst in enumerate(n.gates):
        assert plan.kernels[i] is simulate._anf_kernel(inst.gate.anf)


def test_plan_keeps_few_objects_per_gate():
    n = build_bcd_chain(50)
    checked = n._checked[1:]
    simulate._Plan(n, *checked)  # compiles the kernels first
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        plan = simulate._Plan(n, *checked)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    # the read and write slot tuples of each gate, and no per-gate step
    assert added <= 2 * len(n.gates) + 50
    # the write slots are the numbering's own ints, not copies of them
    writes = list(chain.from_iterable(plan.out_slots))
    tail = list(plan.slots.values())[len(plan.slots) - len(writes) :]
    assert len(writes) == sum(inst.gate.arity for inst in n.gates)
    assert all(map(operator.is_, writes, tail))


def test_kernels_compile_once_per_gate_kind():
    n = wide_netlist()  # 14 inputs: 13 blocks per sweep
    kinds = {inst.gate.anf for inst in n.gates}
    distinct = {id(inst.gate) for inst in n.gates}
    assert len(distinct) < len(n.gates)
    simulate._anf_kernel.cache_clear()
    for netlist in (n, wide_netlist()):  # the second object has a plan of its own
        for _ in range(2):
            truth_table(netlist)
    info = simulate._anf_kernel.cache_info()
    assert info.misses == len(kinds)
    assert info.hits + info.misses == 2 * len(distinct)  # each plan looks each distinct gate object up once


class GF2Poly:
    """A polynomial over GF(2) in the input variables: a set of monomials, each a frozenset of variables."""

    def __init__(self, monomials=()):
        self.monomials = frozenset(monomials)

    def __xor__(self, other):
        return GF2Poly(self.monomials ^ other.monomials)

    def __and__(self, other):
        product = set()
        for a in self.monomials:
            for b in other.monomials:
                product ^= {a | b}  # x & x == x, and equal monomials cancel in pairs
        return GF2Poly(product)

    def at(self, true):
        """The value where exactly the variables in ``true`` are 1."""
        return sum(mono <= true for mono in self.monomials) & 1


def polynomial_lines(n):
    """Every slot of ``n`` as a polynomial, from the gate loop run with input k as variable k."""
    variables = [GF2Poly({frozenset({k})}) for k in range(len(n.primary_inputs))]
    return simulate._evaluate(n._plan, variables, GF2Poly(), GF2Poly({frozenset()}))


def assert_polynomials_agree(n):
    plan, values = n._plan, polynomial_lines(n)
    for row in truth_table(n):
        true = frozenset(k for k, bit in enumerate(row.inputs) if bit)
        assert row.outputs == tuple(values[slot].at(true) for slot in plan.po_slots)
        assert row.garbage == tuple(values[slot].at(true) for slot in plan.garbage_slots)
    return values


def test_gate_loop_over_polynomials_full_adder():
    pg = builtin("PG")  # (a, b, c) -> (a, a ^ b, ab ^ c)
    gates = (
        GateInstance(pg, ("a", "b", "z"), ("a1", "h", "ab")),
        GateInstance(pg, ("h", "c", "ab"), ("h1", "s", "cout")),
    )
    n = Netlist("full_adder", ("a", "b", "c"), (("z", 0),), gates, ("s", "cout"))
    values = assert_polynomials_agree(n)
    a, b, c = (frozenset({k}) for k in range(3))
    assert values[n._plan.slots["s"]].monomials == {a, b, c}
    assert values[n._plan.slots["cout"]].monomials == {a | b, a | c, b | c}


def test_gate_loop_over_polynomials_random_netlists():
    rng = random.Random(15)
    checked = 0
    while checked < 40:
        n = random_netlist(rng, max_gates=12)
        if len(n.primary_inputs) <= 6:  # products of wider polynomials are slow in pure Python
            assert_polynomials_agree(n)
            checked += 1
