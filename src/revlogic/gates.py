"""Reversible gate library: verified bijections with cost metadata.

Every gate maps k input lines to k output lines through a permutation of
the 2^k bit patterns.  The built-ins (first input line A, then B, C, D):

    FG(A,B)        = (A, A^B)
    PG(A,B,C)      = (A, A^B, AB^C)
    TG(A,B,C)      = (A, B, AB^C)
    FRG(A,B,C)     = (A, A'B^AC, A'C^AB)
    PFAG(A,B,C,D)  = (A, A^B, A^B^C, (A^B)C ^ AB ^ D)
    HNG(A,B,C,D)   = (A, B, A^B^C, (A^B)C ^ AB ^ D)
    HNFG(A,B,C,D)  = (A, A^B, C, C^D)

PFAG and HNG act as full adders when D=0 (third output is the sum,
fourth the carry); HNFG copies its first and third lines when B=D=0.

Each gate carries two cost annotations: a quantum cost (None when no
realization is known; circuits containing such a gate report an unknown
total) and a LogicCost vector counting the XOR/AND/NOT operations in its
canonical output expressions.

Definitions are immutable once created and evaluation is pure.  A
registry is populated during setup and safe for concurrent reads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

MAX_CUSTOM_ARITY = 8


class GateLookupError(KeyError):
    """Requested gate name is not registered."""


class GateArityError(ValueError):
    """Bit-vector length does not match the gate's line count."""


class TableShapeError(ValueError):
    """Truth table is not 2^k rows of uniform width k with 0/1 entries."""


class NonBijectiveError(ValueError):
    """Truth table maps two input patterns to the same output pattern."""


class DuplicateGateError(ValueError):
    """Gate name already registered."""


@dataclass(frozen=True)
class LogicCost:
    """XOR/AND/NOT operation counts; vectors add componentwise."""

    xors: int = 0
    ands: int = 0
    nots: int = 0

    def __post_init__(self) -> None:
        if min(self.xors, self.ands, self.nots) < 0:
            raise ValueError("logic cost components must be non-negative")

    def __add__(self, other: LogicCost) -> LogicCost:
        return LogicCost(self.xors + other.xors, self.ands + other.ands, self.nots + other.nots)

    def to_dict(self) -> dict[str, int]:
        return {"xor": self.xors, "and": self.ands, "not": self.nots}

    def render(self) -> str:
        """Format as a sum like ``56α+21β``, omitting zero terms."""
        terms = [f"{n}{sym}" for n, sym in ((self.xors, "α"), (self.ands, "β"), (self.nots, "δ")) if n]
        return "+".join(terms) if terms else "0"


def int_to_bits(value: int, width: int) -> list[int]:
    """Big-endian bit list of the given width."""
    if not 0 <= value < 1 << width:
        raise ValueError(f"{value} does not fit in {width} bits")
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def bits_to_int(bits: Sequence[int]) -> int:
    """Integer value of a big-endian bit sequence."""
    value = 0
    for bit in bits:
        value = (value << 1) | bit
    return value


@dataclass(frozen=True)
class GateDefinition:
    """A named k-line bijection with cost metadata.

    ``table[p]`` is the output pattern for input pattern ``p``; the
    first line is the most significant bit.  ``quantum_cost`` of None
    means no realization cost is known.
    """

    name: str
    arity: int
    table: tuple[int, ...]
    quantum_cost: int | None = None
    logic_cost: LogicCost = LogicCost()

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(self.table))
        if not IDENT_RE.match(self.name):
            raise ValueError(f"bad gate name {self.name!r}")
        if not 1 <= self.arity <= MAX_CUSTOM_ARITY:
            raise ValueError(f"gate arity must be 1..{MAX_CUSTOM_ARITY}, got {self.arity}")
        size = 1 << self.arity
        if len(self.table) != size or any(not 0 <= p < size for p in self.table):
            raise TableShapeError(f"{self.name}: table must hold {size} patterns of {self.arity} bits")
        if len(set(self.table)) != size:
            raise NonBijectiveError(f"{self.name}: table is not a permutation")
        if self.quantum_cost is not None and self.quantum_cost < 0:
            raise ValueError("quantum cost must be non-negative or None")

    @cached_property
    def inverse_table(self) -> tuple[int, ...]:
        inverse = [0] * len(self.table)
        for src, dst in enumerate(self.table):
            inverse[dst] = src
        return tuple(inverse)

    @cached_property
    def anf(self) -> tuple[tuple[int, ...], ...]:
        """Algebraic normal form of each output line, first line first.

        Line ``o`` is the XOR of its monomials; a monomial is a mask over
        input-pattern bits (the first input line is the most significant
        bit) and stands for the AND of those lines, 0 for the constant 1.
        """
        coeffs = list(self.table)
        # Möbius transform over GF(2); the output lines ride in parallel as the bits of each word
        for bit in range(self.arity):
            step = 1 << bit
            for pattern in range(len(coeffs)):
                if pattern & step:
                    coeffs[pattern] ^= coeffs[pattern ^ step]
        return tuple(
            tuple(mono for mono, word in enumerate(coeffs) if word >> shift & 1)
            for shift in reversed(range(self.arity))
        )

    def apply(self, bits: Sequence[int]) -> list[int]:
        """Map an input bit vector to the gate's output bit vector."""
        return int_to_bits(self.table[self._pattern(bits)], self.arity)

    def invert(self, bits: Sequence[int]) -> list[int]:
        """Map an output bit vector back to the unique input that produces it."""
        return int_to_bits(self.inverse_table[self._pattern(bits)], self.arity)

    def _pattern(self, bits: Sequence[int]) -> int:
        if len(bits) != self.arity:
            raise GateArityError(f"{self.name} has {self.arity} lines, got {len(bits)} bits")
        if any(bit not in (0, 1) for bit in bits):
            raise ValueError(f"bits must be 0 or 1, got {list(bits)!r}")
        return bits_to_int(bits)

    @classmethod
    def from_function(
        cls,
        name: str,
        arity: int,
        fn: Callable[..., Sequence[int]],
        quantum_cost: int | None = None,
        logic_cost: LogicCost = LogicCost(),
    ) -> GateDefinition:
        """Tabulate an algebraic definition over all 2^arity inputs."""
        table = tuple(
            bits_to_int(fn(*int_to_bits(p, arity))) for p in range(1 << arity)
        )
        return cls(name, arity, table, quantum_cost, logic_cost)

    @classmethod
    def from_table(
        cls,
        name: str,
        rows: Iterable[Sequence[int]],
        quantum_cost: int | None = None,
        logic_cost: LogicCost = LogicCost(),
    ) -> GateDefinition:
        """Build a gate from its full truth table (one output row per input pattern).

        Raises TableShapeError unless the table has exactly 2^k rows of
        uniform width k with entries in {0, 1}, and NonBijectiveError
        when two rows are equal.
        """
        rows = [tuple(row) for row in rows]
        if not rows:
            raise TableShapeError("empty table")
        width = len(rows[0])
        if width == 0:
            raise TableShapeError("rows must be non-empty")
        if any(len(row) != width for row in rows):
            raise TableShapeError("rows must all have the same width")
        if any(bit not in (0, 1) for row in rows for bit in row):
            raise TableShapeError("entries must be 0 or 1")
        if len(rows) != 1 << width:
            raise TableShapeError(f"expected {1 << width} rows for width {width}, got {len(rows)}")
        return cls(name, width, tuple(bits_to_int(row) for row in rows), quantum_cost, logic_cost)


def _fg(a, b):
    return a, a ^ b


def _pg(a, b, c):
    return a, a ^ b, (a & b) ^ c


def _tg(a, b, c):
    return a, b, (a & b) ^ c


def _frg(a, b, c):
    return a, ((1 - a) & b) ^ (a & c), ((1 - a) & c) ^ (a & b)


def _pfag(a, b, c, d):
    s = a ^ b
    return a, s, s ^ c, (s & c) ^ (a & b) ^ d


def _hng(a, b, c, d):
    s = a ^ b
    return a, b, s ^ c, (s & c) ^ (a & b) ^ d


def _hnfg(a, b, c, d):
    return a, a ^ b, c, c ^ d


BUILTIN_FUNCTIONS: dict[str, Callable[..., tuple[int, ...]]] = {
    "FG": _fg,
    "PG": _pg,
    "TG": _tg,
    "FRG": _frg,
    "PFAG": _pfag,
    "HNG": _hng,
    "HNFG": _hnfg,
}

# (arity, quantum cost, logic cost); the logic cost counts the operations
# in the output expressions above, sharing the A^B subterm between the
# second and fourth outputs of PFAG/HNG but counting every other
# occurrence fresh.
_BUILTIN_COSTS: dict[str, tuple[int, int | None, LogicCost]] = {
    "FG": (2, 1, LogicCost(1, 0, 0)),
    "PG": (3, 4, LogicCost(2, 1, 0)),
    "TG": (3, 5, LogicCost(1, 1, 0)),
    "FRG": (3, 5, LogicCost(2, 4, 2)),
    "PFAG": (4, 8, LogicCost(5, 2, 0)),
    "HNG": (4, None, LogicCost(4, 2, 0)),
    "HNFG": (4, 2, LogicCost(2, 0, 0)),
}

BUILTIN_GATES: dict[str, GateDefinition] = {
    name: GateDefinition.from_function(name, arity, BUILTIN_FUNCTIONS[name], cost, logic)
    for name, (arity, cost, logic) in _BUILTIN_COSTS.items()
}


def builtin(name: str) -> GateDefinition:
    """Look up one of the built-in gates by name (case-sensitive)."""
    try:
        return BUILTIN_GATES[name]
    except KeyError:
        raise GateLookupError(name) from None


class GateRegistry:
    """Gate-name lookup table; built-ins are pre-registered by default.

    Registration is a setup-phase operation; reads are safe to share
    across threads once setup is done.
    """

    def __init__(self, include_builtins: bool = True) -> None:
        self._gates: dict[str, GateDefinition] = dict(BUILTIN_GATES) if include_builtins else {}

    def get(self, name: str) -> GateDefinition:
        try:
            return self._gates[name]
        except KeyError:
            raise GateLookupError(name) from None

    def register(self, gate: GateDefinition) -> None:
        if gate.name in self._gates:
            raise DuplicateGateError(gate.name)
        self._gates[gate.name] = gate

    def __contains__(self, name: str) -> bool:
        return name in self._gates


DEFAULT_REGISTRY = GateRegistry()


def define_custom_gate(
    name: str,
    table: Sequence[Sequence[int]],
    quantum_cost: int | None = None,
    logic_cost: LogicCost = LogicCost(),
    registry: GateRegistry | None = None,
) -> GateDefinition:
    """Register a user-defined gate from its full truth table.

    The table must be a bijection; a missing quantum_cost marks the gate
    (and any circuit using it) as having an unknown cost.  Rejects
    duplicate names and non-bijective tables.
    """
    reg = DEFAULT_REGISTRY if registry is None else registry
    if name in reg:
        raise DuplicateGateError(name)
    gate = GateDefinition.from_table(name, table, quantum_cost, logic_cost)
    reg.register(gate)
    return gate
