"""Simulator tests: forward runs, inverse recovery, truth tables, oracle checks."""

import gc
import os
import pickle
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from collections.abc import Sequence
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from revlogic import (
    Counterexample,
    GateDefinition,
    GateInstance,
    Netlist,
    TruthTable,
    TruthTableLimitError,
    TruthTableRow,
    bits_to_int,
    build_bcd_adder,
    build_bcd_chain,
    build_ripple_adder,
    builtin,
    check_equivalence,
    garbage_wires,
    int_to_bits,
    iter_truth_table,
    parse_netlist,
    run,
    run_inverse,
    serialize_netlist,
    truth_table,
)
from revlogic import simulate
from helpers import (
    GATE_POOL,
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


@pytest.mark.parametrize("value", [True, False, 1.0, 0.0])
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
        truth_table(wide)
    with pytest.raises(TruthTableLimitError):
        iter_truth_table(wide)  # refused by the call, before any row is asked for
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
    assert list(iter_truth_table(n)) == rows


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
        with pytest.raises(RuntimeError, match="column building failed"):
            truth_table(n)  # the engine runs in the call, so its errors come from the call
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
    # the call keeps columns, not rows: fewer young collections than blocks come due in it
    assert in_call < 4
    # each block's rows are tracked objects built in the caller's loop, so the collector,
    # when on, runs young collections there, and they untrack each row's tuples of ints
    assert generations[in_call:].count(0) >= 4
    for row in (rows[0], rows[63], rows[64]):
        assert [gc.is_tracked(field) for field in row] == [False, False, False]


def test_truth_table_holds_columns_not_rows():
    n = build_bcd_chain(2)  # 17 inputs, 9 outputs and 46 garbage wires
    tracemalloc.start()
    try:
        table = truth_table(n)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table) == 1 << 17
    # 55 columns of 2^17 bits are under 1 MB; the 131072 rows as a list took about 90 MB
    assert held < 4 << 20


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


def test_truth_table_outputs_shared_only_where_they_must_repeat():
    # 2^14 output values outnumber the 4096 patterns of a block, so nothing must repeat: no sharing
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
    for key in slices:
        part = table[key]
        assert type(part) is list and part == rows[key], key
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


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_truth_table_pickles(protocol):
    table = truth_table(wide_netlist())
    copy = pickle.loads(pickle.dumps(table, protocol))
    assert type(copy) is TruthTable and copy == table and list(copy) == list(table)
    assert copy[-1] == table[-1]


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
