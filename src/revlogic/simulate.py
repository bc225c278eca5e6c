"""Forward and inverse netlist evaluation, truth tables, and oracle checks.

Input patterns index the primary inputs in declaration order with the
first wire as the most significant bit; truth tables enumerate patterns
in ascending binary order.  All functions are pure over immutable
netlists, so exhaustive sweeps may be partitioned across workers.  The
validation result and the evaluation plan are each built once and
cached on the immutable netlist object; concurrent first uses may each
build them, with equal results.

Every engine reads that one plan: each gate's definition with its input
and output slots.  A wire's slot is its place in the definition order
that validation recorded, so the primary inputs fill the first slots and
the constants the next ones: ``run`` and the block engine write the
sources there, and ``run_inverse`` reads them back from there.  ``run``
and ``run_inverse`` share one scalar kernel, one pattern at a time.
Forwards it applies each gate's ``table`` from input to output slots in
gate order; backwards, because every gate is a bijection, it applies
each ``inverse_table`` from output to input slots in reverse order and
so recovers the source lines.

Exhaustive sweeps (``truth_table`` and ``check_equivalence``) are
bit-sliced: patterns are taken in aligned blocks of 64, 64, 128, ...
doubling up to 4096, and in a block every wire is one Python int
holding one bit per pattern.  Each gate is applied to whole columns
through its algebraic normal form (``GateDefinition.anf``: an XOR of
ANDs of input columns), so it runs once per block rather than once per
pattern; rows come back out through C-level string transposition.  The
small first blocks keep a fail-fast check cheap, and the cap bounds
memory.

There is one row generator, ``iter_truth_table``, which yields a block's
rows before computing the next block's columns, so a caller that streams
the table (``sim --exhaustive``) holds one block, not the table.  Rows
are built in C, by ``tuple.__new__`` on the row type; when a block has
more patterns than its outputs have values, equal output tuples in the
block are one shared object.  ``truth_table`` is that generator drained
into a list with the cyclic garbage collector paused: the rows are
acyclic tuples of ints, so the hundreds of collections their allocation
would set off could free nothing.  If the collector was on, a young
collection runs after each block that takes the young generation past
its threshold, as the collector would have, but while the block is
still in cache: it untracks the block's tuples of ints and moves its
rows to the next generation, so no scan of the whole table waits for
the caller's next allocation.  If the caller had turned the collector
off, nothing is collected.  The pause covers only the list build, and the
collector's previous state is restored even if the build raises;
overlapping calls in threads take turns at the pause, and a call made
from a collector callback inside it finds the collector off and leaves
it so.
"""

from __future__ import annotations

import gc
import threading
from functools import lru_cache
from itertools import chain, islice, product, repeat
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .gates import is_bit
from .netlist import Netlist, _Plan

DEFAULT_INPUT_LIMIT = 20
DEFAULT_COUNTEREXAMPLE_LIMIT = 16


class TruthTableLimitError(ValueError):
    """Exhaustive enumeration refused because the input count exceeds the limit."""


class TraceResult(NamedTuple):
    """Wire values after one forward run, split by role."""

    primary_out: dict[str, int]
    garbage_out: dict[str, int]
    all_lines: dict[str, int]

    @property
    def terminals(self) -> dict[str, int]:
        """Primary outputs plus garbage: the full terminal assignment."""
        merged = dict(self.primary_out)
        merged.update(self.garbage_out)
        return merged


class TruthTableRow(NamedTuple):
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    garbage: tuple[int, ...]


class Counterexample(NamedTuple):
    inputs: tuple[int, ...]
    expected: tuple[int, ...]
    actual: tuple[int, ...]


def _propagate(values: list[int], moves: Iterable[tuple[Sequence[int], Sequence[int], Sequence[int]]]) -> None:
    """Apply each (table, source slots, destination slots) move to ``values`` in turn.

    The source bits, first slot most significant, index the table; the
    entry's bits are written to the destination slots in the same order.
    """
    for table, sources, destinations in moves:
        pattern = 0
        for slot in sources:
            pattern = (pattern << 1) | values[slot]
        out = table[pattern]
        shift = len(destinations) - 1
        for slot in destinations:
            values[slot] = (out >> shift) & 1
            shift -= 1


def _check_assignment(kind: str, wires: Sequence[str], assignment: Mapping[str, int]) -> None:
    missing = [w for w in wires if w not in assignment]
    expected = set(wires)
    extra = [w for w in assignment if w not in expected]
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing {kind} bindings: {', '.join(missing)}")
        if extra:
            parts.append(f"unexpected bindings: {', '.join(extra)}")
        raise ValueError("; ".join(parts))
    values = assignment.values()
    # is_bit on each distinct value, not on each wire, once all are ints: True and 1.0 are equal to 1
    if not (set(map(type, values)) <= {int} and all(map(is_bit, set(values)))):
        bad = [w for w in wires if not is_bit(assignment[w])]
        raise ValueError(f"bindings must be 0 or 1: {', '.join(bad)}")


def run(netlist: Netlist, inputs: Mapping[str, int]) -> TraceResult:
    """Forward-simulate: bind constants, apply gates in order.

    ``inputs`` must bind exactly the primary inputs.  Every wire
    receives exactly one value; the result reports primary outputs,
    garbage, and all lines.
    """
    plan = netlist._plan
    _check_assignment("input", netlist.primary_inputs, inputs)
    values = [inputs[w] for w in netlist.primary_inputs]
    values += plan.const_bits
    values += [0] * (len(plan.slots) - len(values))
    _propagate(values, zip(map(attrgetter("table"), plan.gates), plan.in_slots, plan.out_slots))
    all_lines = dict(zip(plan.slots, values))
    primary = {wire: all_lines[wire] for wire in netlist.primary_outputs}
    garbage = {wire: all_lines[wire] for wire in plan.garbage_wires}
    return TraceResult(primary, garbage, all_lines)


def run_inverse(netlist: Netlist, terminal: Mapping[str, int]) -> dict[str, int]:
    """Apply gate inverses in reverse order from a total terminal assignment.

    ``terminal`` must bind exactly the primary outputs plus the garbage
    wires.  Returns the values on all source lines: the primary inputs
    and what each constant line must have been.
    """
    plan = netlist._plan
    _check_assignment("terminal", plan.terminal_wires, terminal)
    slots = plan.slots
    values = [0] * len(slots)
    for wire, bit in terminal.items():
        values[slots[wire]] = bit
    inverses = map(attrgetter("inverse_table"), reversed(plan.gates))
    _propagate(values, zip(inverses, reversed(plan.out_slots), reversed(plan.in_slots)))
    sources = len(netlist.primary_inputs) + len(plan.const_bits)
    return dict(zip(slots, values[:sources]))


def _check_width(netlist: Netlist, limit: int) -> int:
    width = len(netlist.primary_inputs)
    if width > limit:
        raise TruthTableLimitError(
            f"{width} primary inputs exceed the exhaustive-enumeration limit of {limit}; "
            f"raise it via the limit argument (--max-inputs on the command line)"
        )
    return width


# the collector switch is process-wide: one pause at a time, so that overlapping
# calls in threads each find and restore the state from before any pause; re-entrant,
# because a collection run in the pause calls gc.callbacks, which may tabulate too
_GC_PAUSE = threading.RLock()
_FIRST_BLOCK = 64
_BLOCK = 1 << 12
_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _blocks(width: int) -> Iterator[tuple[int, int]]:
    """Aligned (start, size) blocks covering all 2^width patterns, start % size == 0."""
    total = 1 << width
    start = 0
    while start < total:
        size = min(max(start, _FIRST_BLOCK), _BLOCK, total)
        yield start, size
        start += size


@lru_cache(maxsize=None)  # block sizes are powers of two up to _BLOCK: at most 13 entries
def _low_columns(size: int) -> tuple[int, ...]:
    """Columns of the pattern bits below ``size``: bit b alternates in runs of 2^b."""
    ones = (1 << size) - 1
    columns = []
    span = 1
    while span < size:
        # ones // (2^(2 span) - 1) has a 1 every 2 span bits; the factor fills each period
        columns.append(ones // ((1 << 2 * span) - 1) * (((1 << span) - 1) << span))
        span *= 2
    return tuple(columns)


def _product(mono: int, products: dict[int, int], lines: list[int]) -> int:
    """AND of the columns of the lines in ``mono``, memoised in ``products``."""
    term = products.get(mono)
    if term is None:
        low = mono & -mono
        term = products[mono] = _product(mono ^ low, products, lines) & lines[low.bit_length() - 1]
    return term


def _block_columns(plan: _Plan, width: int) -> Iterator[tuple[int, list[int]]]:
    """(size, column of every slot) per block; bit j of a column is its value on pattern start + j."""
    steps = list(zip(map(attrgetter("anf"), plan.gates), plan.in_slots, plan.out_slots))
    for start, size in _blocks(width):
        ones = (1 << size) - 1
        low = _low_columns(size)
        values = [0] * len(plan.slots)
        for slot in range(width):
            bit = width - 1 - slot
            values[slot] = low[bit] if bit < len(low) else ones * (start >> bit & 1)
        for slot, bit in enumerate(plan.const_bits, width):
            values[slot] = ones * bit
        for anf, in_slots, out_slots in steps:
            lines = [values[slot] for slot in reversed(in_slots)]  # lines[b] is pattern bit b
            products = {0: ones}
            for slot, monomials in zip(out_slots, anf):
                column = 0
                for mono in monomials:
                    column ^= _product(mono, products, lines)
                values[slot] = column
        yield size, values


def _bit_rows(values: list[int], slots: Sequence[int], size: int) -> Iterator[tuple[int, ...]]:
    """Per-pattern tuples of the bits in ``slots``, in pattern order."""
    if not slots:
        return repeat((), size)
    form = f"0{size}b"
    return zip(*[format(values[slot], form).encode().translate(_TO_BITS)[::-1] for slot in slots])


class _Shared(dict):
    """Maps each key to the first key equal to it, so equal tuples become one object."""

    def __missing__(self, key):
        self[key] = key
        return key


def _row_blocks(plan: _Plan, width: int) -> Iterator[Iterator[TruthTableRow]]:
    """Each block's rows, one iterator per block, computed as the blocks are asked for."""
    inputs = product((0, 1), repeat=width)
    distinct = 1 << len(plan.po_slots)
    for size, values in _block_columns(plan, width):
        outputs = _bit_rows(values, plan.po_slots, size)
        if distinct < size:  # then outputs must repeat within the block: share one tuple per value
            outputs = map(_Shared().__getitem__, outputs)
        garbage = _bit_rows(values, plan.garbage_slots, size)
        # tuple.__new__ skips the named tuple's Python-level __new__
        yield map(tuple.__new__, repeat(TruthTableRow), zip(islice(inputs, size), outputs, garbage))


def iter_truth_table(netlist: Netlist, limit: int = DEFAULT_INPUT_LIMIT) -> Iterator[TruthTableRow]:
    """Yield all 2^k rows (input, primary output, garbage) in ascending input order.

    Rows are computed one block at a time, as the iterator is consumed.
    The input count is checked against ``limit`` by this call, before
    any row is asked for.
    """
    return chain.from_iterable(_row_blocks(netlist._plan, _check_width(netlist, limit)))


def truth_table(netlist: Netlist, limit: int = DEFAULT_INPUT_LIMIT) -> list[TruthTableRow]:
    """All 2^k rows of ``iter_truth_table`` as a list.

    The cyclic garbage collector is paused while the list is built and
    then restored to the state it had before the call.  If it was
    enabled, a young-generation collection runs after each block that
    takes the young generation past its threshold, so the caller is not
    left a table-sized young generation to scan; if the caller had
    disabled it, none runs.
    """
    blocks = _row_blocks(netlist._plan, _check_width(netlist, limit))
    rows: list[TruthTableRow] = []
    with _GC_PAUSE:
        enabled = gc.isenabled()
        due = gc.get_threshold()[0] if enabled else 0  # 0 also when a zero threshold turns collection off
        gc.disable()  # the rows are acyclic, so no collection set off by their allocation could free any
        try:
            for block in blocks:
                rows += block
                if 0 < due < gc.get_count()[0]:
                    gc.collect(0)  # scans the block while it is in cache and untracks its tuples of ints
        finally:
            if enabled:
                gc.enable()
    return rows


def check_equivalence(
    netlist: Netlist,
    oracle: Callable[[tuple[int, ...]], Sequence[int]],
    domain: Callable[[tuple[int, ...]], bool] | None = None,
    limit: int = DEFAULT_INPUT_LIMIT,
    max_counterexamples: int = DEFAULT_COUNTEREXAMPLE_LIMIT,
) -> list[Counterexample]:
    """Compare primary outputs against an oracle on every in-domain pattern.

    Returns up to ``max_counterexamples`` mismatches; an empty list
    means the circuit agrees with the oracle everywhere in the domain.
    Raises ValueError when ``max_counterexamples`` is below 1.
    """
    if max_counterexamples < 1:
        raise ValueError(f"max_counterexamples must be at least 1, got {max_counterexamples}")
    plan = netlist._plan
    width = _check_width(netlist, limit)
    inputs = product((0, 1), repeat=width)
    mismatches: list[Counterexample] = []
    for size, values in _block_columns(plan, width):
        for bits, actual in zip(islice(inputs, size), _bit_rows(values, plan.po_slots, size)):
            if domain is not None and not domain(bits):
                continue
            expected = tuple(oracle(bits))
            if actual != expected:
                mismatches.append(Counterexample(bits, expected, actual))
                if len(mismatches) >= max_counterexamples:
                    return mismatches
    return mismatches
