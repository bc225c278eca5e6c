"""Forward and inverse netlist evaluation, truth tables, and oracle checks.

Input patterns index the primary inputs in declaration order with the
first wire as the most significant bit; truth tables enumerate patterns
in ascending binary order.  All functions are pure over immutable
netlists.  The validation result and the evaluation plan are each built
once and cached on the immutable netlist object; concurrent first uses
may each build them, with equal results.  The plan, ``_Plan``, lives here, the
one module that builds or reads it, and is complete once built.

Every engine reads that one plan: each gate's definition, its input and
output slots, and its forward kernel, each in a list in gate order.  A
wire's slot is its place in the definition order that validation
recorded, so the primary inputs fill the first slots and the constants
the next ones.  ``_evaluate`` is the one forward step: it writes the
primary-input values into the first slots, ``one`` into each slot of
the plan's ``one_slots`` (the constants that are 1) and ``zero`` into
every other slot, then applies each gate's ``anf`` kernel from input to
output slots in gate order.  ``run`` calls it on one pattern as 0/1
ints, and the block engine on int columns, described below.  Because
every gate is a bijection, ``run_inverse`` applies each gate's
``inverse_anf`` kernel (the normal form of its ``inverse_table``) from
output to input slots in reverse order, and so reads the source lines
back from the first slots.  It looks the inverse kernels up once per
call in the plan's table of distinct gate objects, not once per gate.
Both directions go through one gate loop over compiled ANF kernels.
``run`` and ``run_inverse`` take the checked bindings as one list in
wire order and move bits through the plan's slots, with no per-wire
dict lookup.  The read slots come from one lookup over all gate inputs,
which validation made and kept, and the write slots are the
numbering's own ints, so a plan makes no slot number and no per-gate
record beyond its slot tuples.

Exhaustive sweeps (``truth_table`` and ``check_equivalence``) are
bit-sliced: patterns are taken in aligned blocks of 64, 64, 128, ...
doubling up to 4096, and in a block every wire is one Python int
holding one bit per pattern.  Each gate is applied to whole columns
through its algebraic normal form (``GateDefinition.anf``: an XOR of
ANDs of input columns), so it runs once per block rather than once per
pattern; rows come back out through C-level string transposition.  The
small first blocks keep a fail-fast check cheap, and the cap bounds
memory.  Each gate kind's ANF is compiled once into straight-line code,
one function per kind, whose source is built from ints only (slot
positions and monomial masks), never from a name or other document
text.  The compiled kernels sit in a bounded cache keyed by ANF, and
each plan looks its forward kernels up as it is built, one lookup per
distinct gate object.  ``_evaluate`` uses only ``^``, ``&`` and the
supplied zero and one, so it runs over any Boolean ring.

``truth_table`` runs no pattern: its ``TruthTable`` evaluates each
block when the block's rows are read and drops the columns once they
are built, as ``check_equivalence`` drops each block's output rows once
they are checked.  So a sweep holds one block, whatever 2^k is, and a
stepped slice holds only the rows it returns.  With few enough outputs,
a block's output columns become one little-endian 16-bit code per
pattern, and one C call gathers the block's output tuples from a flat
cached table of every output tuple at its code.

``check_equivalence`` walks the same blocks once, in order, in the
calling process, and stops at its cap; a broken adder usually shows its
first mismatches in the small first blocks.  Against an oracle it
compares each in-domain pattern's output row with the oracle's tuple.
Against a spec it computes the expected output columns and a domain
column from the block's input columns, through the same ``^``, ``&``
and ``one`` as ``_evaluate``, and forms a miter column: the OR of each
expected column XOR the circuit's, ANDed with the domain.  Its set bits,
lowest first, are the block's counterexamples.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate, chain, compress, count, islice, product, repeat
from operator import attrgetter, eq, itemgetter
from struct import unpack
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .gates import int_to_bits, is_bit
from .netlist import Netlist

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


def _check_assignment(kind: str, wires: Sequence[str], assignment: Mapping[str, int]) -> list[int]:
    """The bits that ``assignment`` binds to ``wires``, in wire order, once it binds exactly those wires to 0 or 1."""
    # one read per wire; get inserts no key, even in a defaultdict, and reads None for an unbound wire
    bits = list(map(assignment.get, wires))
    # the wires are distinct, so equal sizes and an int read for every wire leave no stray key.
    # is_bit on each distinct bit, not on each wire, once all are ints: True and 1.0 are equal to 1
    if len(assignment) == len(wires) and set(map(type, bits)) <= {int} and all(map(is_bit, set(bits))):
        return bits
    missing = [w for w in wires if w not in assignment]
    expected = set(wires)
    extra = [w for w in assignment if w not in expected]
    parts = []
    if missing:
        parts.append(f"missing {kind} bindings: {', '.join(missing)}")
    if extra:
        parts.append(f"unexpected bindings: {', '.join(extra)}")
    if parts:
        raise ValueError("; ".join(parts))
    bad = [w for w in wires if not is_bit(assignment[w])]
    raise ValueError(f"bindings must be 0 or 1: {', '.join(bad)}")


def run(netlist: Netlist, inputs: Mapping[str, int]) -> TraceResult:
    """Forward-simulate: bind constants, apply gates in order.

    ``inputs`` must bind exactly the primary inputs.  Every wire
    receives exactly one value; the result reports primary outputs,
    garbage, and all lines.
    """
    plan = netlist._plan
    values = _evaluate(plan, _check_assignment("input", netlist.primary_inputs, inputs), 0, 1)
    all_lines = plan.slots.copy()  # a copy has room for every wire, so the update never resizes it
    all_lines.update(zip(plan.slots, values))
    primary = dict(zip(netlist.primary_outputs, map(values.__getitem__, plan.po_slots)))
    garbage = dict(zip(plan.garbage_wires, map(values.__getitem__, plan.garbage_slots)))
    return TraceResult(primary, garbage, all_lines)


def run_inverse(netlist: Netlist, terminal: Mapping[str, int]) -> dict[str, int]:
    """Apply gate inverses in reverse order from a total terminal assignment.

    ``terminal`` must bind exactly the primary outputs plus the garbage
    wires.  Returns the values on all source lines: the primary inputs
    and what each constant line must have been.
    """
    plan = netlist._plan
    bits = _check_assignment("terminal", plan.terminal_wires, terminal)
    values = [0] * len(plan.slots)
    # the bits are checked to be 0 or 1, so writing the ones into the zeros binds every terminal
    for slot in compress(chain(plan.po_slots, plan.garbage_slots), bits):
        values[slot] = 1
    # inverse steps are not kept on the plan, since listing them costs a first call more than it saves
    kernels = {key: _anf_kernel(gate.inverse_anf) for key, gate in plan.distinct.items()}
    inverses = map(kernels.__getitem__, map(id, reversed(plan.gates)))
    _run_steps(zip(inverses, reversed(plan.out_slots), reversed(plan.in_slots)), values, 1)
    # the sources fill the first slots: cut the list to them, not copy them, at the call's memory peak
    del values[len(netlist.primary_inputs) + len(netlist.constants) :]
    return dict(zip(plan.slots, values))


def _check_width(netlist: Netlist, limit: int) -> int:
    if type(limit) is not int:  # None or "20" would fail in the comparison, and True is not 1
        raise ValueError(f"limit must be an int, got {limit!r}")
    width = len(netlist.primary_inputs)
    if width > limit:
        raise TruthTableLimitError(
            f"{width} primary inputs exceed the exhaustive-enumeration limit of {limit}; "
            f"raise it via the limit argument (--max-inputs on the command line)"
        )
    return width


_FIRST_BLOCK = 64
_BLOCK = 1 << 12
_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _blocks(width: int, start: int = 0) -> Iterator[tuple[int, int]]:
    """Aligned (start, size) blocks, start % size == 0, from the block that holds pattern ``start`` to 2^width."""
    total = 1 << width
    start -= start % min(max(1 << start.bit_length() >> 1, _FIRST_BLOCK), _BLOCK)
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


@lru_cache(maxsize=256)  # keyed by ANF: one entry per distinct gate kind in use
def _anf_kernel(anf: tuple[tuple[int, ...], ...]) -> Callable[[list, Sequence[int], Sequence[int], object], None]:
    """One gate kind's ANF as straight-line code: ``kernel(values, in_slots, out_slots, one)``.

    The kernel reads the input slots, ANDs each monomial's lines once (a
    monomial extends the one without its lowest line, so prefixes are
    shared), and writes each output slot as the XOR of its monomials, the
    constant monomial being ``one``.  A bijection's output line is never
    constant, so each has a monomial.  The source is built from slot
    positions and monomial masks, which are ints, and fixed local names:
    no gate name, wire name or document text reaches it, so no netlist
    can inject code.
    """
    arity = len(anf)
    positions = range(arity)
    code = [
        "def kernel(values, ins, outs, one):",
        "    " + "".join(f"i{k}, " for k in positions) + "= ins",
        "    " + "".join(f"o{k}, " for k in positions) + "= outs",
        # line k is pattern bit arity - 1 - k, as in GateDefinition.anf
        *(f"    x{arity - 1 - k} = values[i{k}]" for k in positions),
    ]
    names = {0: "one", **{1 << bit: f"x{bit}" for bit in range(arity)}}

    def term(mono: int) -> str:
        if mono not in names:
            low = mono & -mono
            rest = term(mono ^ low)
            names[mono] = f"m{mono}"
            code.append(f"    m{mono} = {rest} & {names[low]}")
        return names[mono]

    for k, monomials in enumerate(anf):
        column = " ^ ".join([term(mono) for mono in monomials])
        code.append(f"    values[o{k}] = {column}")
    namespace: dict = {}
    exec(compile("\n".join(code), "<anf kernel>", "exec"), {"__builtins__": {}}, namespace)
    return namespace["kernel"]


class _Plan:
    """The one compiled schedule of a valid netlist, read by every engine.

    Each wire's slot is its index in the definition order that validation
    recorded, so the primary inputs fill the first slots, the constants
    the next ones, and each gate's outputs the consecutive slots after
    the gates before it.  Gate ``i`` is ``gates[i]``, reading
    ``in_slots[i]`` and writing ``out_slots[i]``: the read slots come
    from one lookup over all gate inputs, then the primary outputs
    (``po_slots``), which validation made and kept, and the write slots
    from the tail of the numbering's own values, each split by arity.
    ``kernels[i]`` is gate ``i``'s forward kernel, looked up when the
    plan is built, once per entry of ``distinct``: the distinct gate
    objects by id, which ``run_inverse`` reads for its inverse kernels.
    ``one_slots`` holds the slots of the constants that are 1:
    ``_evaluate``, the one forward step, writes ``one`` there and
    ``zero`` on the other constants.
    """

    def __init__(self, netlist: Netlist, garbage: tuple[str, ...], slots: dict[str, int], reads: tuple[int, ...]):
        self.slots = slots
        self.one_slots = tuple(compress(count(len(netlist.primary_inputs)), map(itemgetter(1), netlist.constants)))
        self.gates = tuple(map(attrgetter("gate"), netlist.gates))
        arities = list(map(attrgetter("arity"), self.gates))
        gate_reads = len(reads) - len(netlist.primary_outputs)  # as many as the gates write, into the last slots
        self.in_slots = _split(reads, arities)
        self.out_slots = _split(tuple(islice(slots.values(), len(slots) - gate_reads, None)), arities)
        self.po_slots = reads[gate_reads:]
        self.garbage_wires = garbage
        self.garbage_slots = tuple(map(slots.__getitem__, garbage))
        self.terminal_wires = netlist.primary_outputs + garbage
        # one kernel lookup per distinct gate object, not per gate: hashing every gate's ANF costs what the kernels save
        self.distinct = dict(zip(map(id, self.gates), self.gates))
        kernels = {key: _anf_kernel(gate.anf) for key, gate in self.distinct.items()}
        self.kernels = list(map(kernels.__getitem__, map(id, self.gates)))


def _split(flat: tuple[int, ...], sizes: Iterable[int]) -> list[tuple[int, ...]]:
    """``flat`` cut into consecutive tuples of the given sizes."""
    ends = list(accumulate(sizes, initial=0))
    return list(map(flat.__getitem__, map(slice, ends, ends[1:])))


def _evaluate(plan: _Plan, inputs: list, zero, one) -> list:
    """Every slot's value after the gates, from ``inputs`` first, ``one`` on each constant 1, ``zero`` elsewhere.

    Each gate is applied in gate order through its kind's ANF kernel.
    ``run`` passes bits, and the block engine int columns with the
    all-ones column as ``one``.
    """
    values = inputs + [zero] * (len(plan.slots) - len(inputs))
    for slot in plan.one_slots:
        values[slot] = one
    _run_steps(zip(plan.kernels, plan.in_slots, plan.out_slots), values, one)
    return values


def _run_steps(steps: Iterable[tuple[Callable, Sequence[int], Sequence[int]]], values: list, one) -> None:
    """The one gate loop: call each (kernel, read slots, write slots) step on ``values`` in turn."""
    for kernel, reads, writes in steps:
        kernel(values, reads, writes, one)


def _block_columns(plan: _Plan, width: int, first: int = 0) -> Iterator[tuple[int, int, list[int]]]:
    """(start, size, column of every slot) per block from the one holding pattern ``first``; bit j is pattern start + j."""
    for start, size in _blocks(width, first):
        ones = (1 << size) - 1
        low = _low_columns(size)
        columns = [low[bit] if bit < len(low) else ones * (start >> bit & 1) for bit in reversed(range(width))]
        yield start, size, _evaluate(plan, columns, 0, ones)


def _bit_rows(values: Sequence[int], slots: Sequence[int], size: int) -> Iterator[tuple[int, ...]]:
    """Per-pattern tuples of the bits in ``slots``, in pattern order."""
    if not slots:
        return repeat((), size)
    form = f"0{size}b"
    return zip(*[format(values[slot], form).encode().translate(_TO_BITS)[::-1] for slot in slots])


_CODED = 12  # at most this many outputs are read as codes: a table of at most 4096 tuples


@lru_cache(maxsize=None)  # output counts 0 to _CODED: at most 13 entries
def _output_tuples(count: int) -> tuple:
    """Every tuple of ``count`` bits once, at its code (first bit highest)."""
    return tuple(product((0, 1), repeat=count))


def _coded_rows(values: Sequence[int], slots: Sequence[int], size: int) -> Sequence[tuple[int, ...]]:
    """Per-pattern tuples of the bits in ``slots``, all taken from ``_output_tuples(len(slots))`` in one gather."""
    form, count = f"0{size}b", len(slots)
    levels = [0, 0]  # the codes' low and high bytes; the first column is the highest bit
    for column, shift in zip(map(values.__getitem__, slots), range(count - 1, -1, -1)):
        # the bit string holds the last pattern first, so a big-endian read puts pattern j in byte j
        levels[shift >> 3] |= int.from_bytes(format(column, form).encode().translate(_TO_BITS), "big") << (shift & 7)
    codes = bytearray(2 * size)  # pattern j's code as a little-endian 16-bit word at byte 2j
    codes[0::2], codes[1::2] = [level.to_bytes(size, "little") for level in levels]
    picked = itemgetter(*unpack(f"<{size}H", codes))(_output_tuples(count))
    return picked if size > 1 else (picked,)  # one code gathers the tuple itself, not a tuple of one


def _block_inputs(width: int, start: int, size: int) -> Iterator[tuple[int, ...]]:
    """The input tuples of patterns start to start + size - 1, in order; size is a power of two dividing start."""
    # the block's high input bits are fixed, its low bits free
    return product(*[(0, 1) if 1 << bit < size else (start >> bit & 1,) for bit in reversed(range(width))])


def _rows(plan: _Plan, width: int, start: int, size: int, values: list) -> Iterator[TruthTableRow]:
    """The rows of patterns start to start + size - 1 from their columns: ``_block_columns``, or bits for one pattern."""
    inputs = _block_inputs(width, start, size)
    # a table of every output tuple pays where there are no more outputs than inputs
    coded = len(plan.po_slots) <= min(_CODED, width)
    outputs = (_coded_rows if coded else _bit_rows)(values, plan.po_slots, size)
    garbage = _bit_rows(values, plan.garbage_slots, size)
    # tuple.__new__ skips the named tuple's Python-level __new__
    return map(tuple.__new__, repeat(TruthTableRow), zip(inputs, outputs, garbage))


class TruthTable(Sequence):
    """All 2^k rows of a netlist, evaluated a block of patterns at a time as they are read.

    The table holds only its netlist.  Iterating runs the block engine
    on one block at a time and builds that block's rows, in C, from its
    output and garbage columns, bit j holding a wire's value on the
    block's j-th pattern; a row's inputs follow from its index.  The
    columns are dropped once the block's rows are built.  An int index
    evaluates that one pattern; a slice gives a list of rows, evaluated
    from the block that holds its first row and stepped as they stream,
    so it holds only the rows it returns.  With at most 12 outputs, and
    no more outputs than inputs, every read takes a row's outputs from
    one flat cached table of every output tuple, gathered in one call
    per block, so equal output tuples are one object across the whole
    table.  The table holds no rows, so the cyclic garbage collector has
    nothing of it to scan.  It equals another table of an equal netlist,
    or with equal rows, compared a block of columns at a time, or a list
    holding equal rows, and, like a list, is unhashable.  Past 63
    inputs, ``len`` raises ``OverflowError``, as ``len(range(2**63))``
    does, while an index, a slice, iteration, ``reversed``, ``index``
    and equality still work.  Its ``__reduce__`` gives only its
    netlist, so a serialized table holds no rows.  Tables are built by
    ``truth_table``.
    """

    __slots__ = ("_netlist",)

    def __init__(self, netlist: Netlist) -> None:
        object.__setattr__(self, "_netlist", netlist)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return TruthTable, (self._netlist,)

    def __len__(self) -> int:
        return 1 << len(self._netlist.primary_inputs)

    def __iter__(self) -> Iterator[TruthTableRow]:
        return chain.from_iterable(self._block_rows(0))

    def _block_rows(self, first: int) -> Iterator[Iterator[TruthTableRow]]:
        """The rows of each block from the one holding pattern ``first`` on, one iterator per block."""
        plan, width = self._netlist._plan, len(self._netlist.primary_inputs)
        for start, size, values in _block_columns(plan, width, first):
            yield _rows(plan, width, start, size, values)

    def _from(self, first: int) -> Iterator[TruthTableRow]:
        """The rows of patterns ``first`` on, in order, streamed from the block that holds it."""
        skip = first - next(_blocks(len(self._netlist.primary_inputs), first))[0]
        return islice(chain.from_iterable(self._block_rows(first)), skip, None)

    def _row(self, position: int) -> TruthTableRow:
        """The row of pattern ``position``, evaluated on bits, as ``run`` does."""
        plan, width = self._netlist._plan, len(self._netlist.primary_inputs)
        return next(_rows(plan, width, position, 1, _evaluate(plan, int_to_bits(position, width), 0, 1)))

    def __getitem__(self, key):
        # a range of 2^k indices slices and indexes past 2^63, where len(self) cannot answer
        patterns = range(1 << len(self._netlist.primary_inputs))
        if isinstance(key, slice):
            picked = patterns[key]
            if not picked:
                return []
            if abs(picked.step) >= _BLOCK:  # at most one row per block: evaluate only the rows returned
                return list(map(self._row, picked))
            low, high = sorted((picked[0], picked[-1]))
            # the step is taken in the stream, so only the returned rows are kept
            rows = list(islice(self._from(low), 0, high + 1 - low, abs(picked.step)))
            return rows if picked.step > 0 else rows[::-1]
        try:
            position = patterns[key]
        except IndexError:
            raise IndexError("truth table index out of range") from None
        return self._row(position)

    def __reversed__(self) -> Iterator[TruthTableRow]:
        # defined on the patterns, not on len(self), which cannot answer past 2^63 - 1
        return map(self._row, reversed(range(1 << len(self._netlist.primary_inputs))))

    def index(self, value, start: int = 0, stop: int | None = None) -> int:
        """The first pattern from ``start`` to before ``stop`` whose row equals ``value``, as ``list.index`` finds it."""
        positions = range(1 << len(self._netlist.primary_inputs))[start:stop]
        for position, row in zip(positions, self._from(positions.start) if positions else ()):
            if row is value or row == value:
                return position
        raise ValueError("row is not in the truth table")

    def _kept_columns(self) -> Iterator:
        """The row shape, then each block's output and garbage columns, evaluated as they are reached."""
        plan, width = self._netlist._plan, len(self._netlist.primary_inputs)
        kept = plan.po_slots + plan.garbage_slots
        yield width, len(plan.po_slots), len(kept)
        for _start, _size, values in _block_columns(plan, width):
            yield list(map(values.__getitem__, kept))

    def __eq__(self, other):
        if isinstance(other, TruthTable):  # equal netlists give equal tables
            return self._netlist == other._netlist or all(map(eq, self._kept_columns(), other._kept_columns()))
        if isinstance(other, list):
            # compared through the width: len(self) cannot answer past 2^63 - 1 patterns
            return 1 << len(self._netlist.primary_inputs) == len(other) and all(map(eq, self, other))
        return NotImplemented


def truth_table(netlist: Netlist, limit: int = DEFAULT_INPUT_LIMIT) -> TruthTable:
    """All 2^k rows (input, primary output, garbage) in ascending input order.

    The call builds the netlist's plan, so an invalid netlist is refused
    here, and checks the input count against ``limit``; it runs no
    pattern.  The table it returns holds only the netlist and evaluates
    each block of patterns when its rows are read, keeping that block's
    columns only while its rows are built, so a caller that streams the
    table holds one block, not 2^k bits per wire, and no rows; a stepped
    slice holds only the rows it returns.  The result is a ``Sequence``,
    not a list; ``list(truth_table(n))`` gives a list.  Past 2^63 - 1
    patterns its ``len`` raises ``OverflowError``, while an index, a
    slice and iteration work.
    """
    netlist._plan  # built in the call, so an invalid netlist is refused here and not at the first read
    _check_width(netlist, limit)
    return TruthTable(netlist)


def check_equivalence(
    netlist: Netlist,
    oracle: Callable[[tuple[int, ...]], Sequence[int]] | None = None,
    domain: Callable[[tuple[int, ...]], bool] | None = None,
    limit: int = DEFAULT_INPUT_LIMIT,
    max_counterexamples: int = DEFAULT_COUNTEREXAMPLE_LIMIT,
    *,
    spec: Callable[[list[int], int], tuple[Sequence[int], int | None]] | None = None,
) -> list[Counterexample]:
    """Compare primary outputs against a reference on every in-domain pattern.

    The reference is either ``oracle``, called on each pattern's input
    tuple and filtered by ``domain`` when one is given, or ``spec``:
    ``spec(inputs, one)`` returns the expected output columns and a
    domain column (None for every pattern) from the input columns, over
    ``^``, ``&`` and ``one`` only, as ``builders.adder_spec`` does.  A
    spec runs once per block of patterns, on the same int columns as the
    circuit.  Returns up to ``max_counterexamples`` mismatches, the
    lowest patterns first; an empty list means the circuit agrees with
    the reference everywhere in the domain.  Either way the result, and
    any exception, are those of one in-order pass in this process.
    Raises ValueError unless exactly one of ``oracle`` and ``spec`` is
    given, when ``domain`` comes with a spec, when
    ``max_counterexamples`` or ``limit`` is not an int, or when
    ``max_counterexamples`` is below 1.
    """
    if (oracle is None) == (spec is None):
        raise ValueError("give exactly one of oracle and spec")
    if spec is not None and domain is not None:
        raise ValueError("a spec returns its own domain: give no domain with it")
    if type(max_counterexamples) is not int:  # True is not 1, and 2.5 is no cap
        raise ValueError(f"max_counterexamples must be an int, got {max_counterexamples!r}")
    if max_counterexamples < 1:
        raise ValueError(f"max_counterexamples must be at least 1, got {max_counterexamples}")
    plan = netlist._plan
    width = _check_width(netlist, limit)
    if spec is not None:
        return _spec_mismatches(plan, width, spec, max_counterexamples)
    return _mismatches(plan, width, oracle, domain, max_counterexamples)


def _mismatches(plan: _Plan, width: int, oracle, domain, cap: int) -> list[Counterexample]:
    """The first ``cap`` patterns whose outputs differ from the oracle's, where ``domain`` admits them."""
    found: list[Counterexample] = []
    # the inputs are every pattern in order: one product, cheaper to make than a block's
    every = product((0, 1), repeat=width)
    for _start, size, values in _block_columns(plan, width):
        for bits, actual in zip(islice(every, size), _bit_rows(values, plan.po_slots, size)):
            if domain is not None and not domain(bits):
                continue
            expected = tuple(oracle(bits))
            if actual != expected:
                found.append(Counterexample(bits, expected, actual))
                if len(found) >= cap:
                    return found
    return found


def _spec_mismatches(plan: _Plan, width: int, spec, cap: int) -> list[Counterexample]:
    """The first ``cap`` patterns whose outputs differ from the spec's, read from each block's miter column."""
    found: list[Counterexample] = []
    for _start, size, values in _block_columns(plan, width):
        inputs, ones = values[:width], (1 << size) - 1
        expected, domain = spec(inputs, ones)
        actual = list(map(values.__getitem__, plan.po_slots))
        # bit j is set where pattern start + j differs in some output; every bit, where the spec gives another number
        miter = 0 if len(expected) == len(actual) else ones
        for want, got in zip(expected, actual):
            miter |= want ^ got
        if domain is not None:
            miter &= domain
        while miter:
            j = (miter & -miter).bit_length() - 1
            found.append(Counterexample(_bits_at(inputs, j), _bits_at(expected, j), _bits_at(actual, j)))
            if len(found) >= cap:
                return found
            miter &= miter - 1
    return found


def _bits_at(columns: Sequence[int], j: int) -> tuple[int, ...]:
    """Bit ``j`` of each column: one pattern's values."""
    return tuple(column >> j & 1 for column in columns)
