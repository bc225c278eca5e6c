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
netlist document declares every gate it uses that is not a built-in.
``LogicCost``, ``GateDefinition`` and ``netlist.Netlist`` are plain
classes on one immutable base, ``_Immutable``: they behave as frozen
dataclasses would, ``dataclasses.replace`` included, without importing
``dataclasses`` (and with it ``inspect``) at start-up.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Sequence

MAX_CUSTOM_ARITY = 8
# the largest quantum cost or logic-cost count: 19 digits, which the text
# format writes under any int-to-string limit Python allows (at least 640)
MAX_COST = 2**63 - 1


class GateLookupError(KeyError):
    """Requested gate name is not a built-in."""


class GateArityError(ValueError):
    """Bit-vector length does not match the gate's line count."""


class TableShapeError(ValueError):
    """Truth table is not 2^k rows of uniform width k with 0/1 entries."""


class NonBijectiveError(ValueError):
    """Truth table maps two input patterns to the same output pattern."""


class _FromDataclass:
    """A class attribute read, on first access, from a dataclass with the class's field names."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: object, cls: type) -> object:
        if "_dataclass" not in cls.__dict__:
            import dataclasses  # loaded already by whoever asks: replace, fields, asdict, pprint

            cls._dataclass = dataclasses.make_dataclass(cls.__name__, cls.__match_args__, frozen=True)
        return getattr(cls._dataclass, self.name)


class _Immutable:
    """Base of the immutable value types, which behave as frozen dataclasses.

    ``__match_args__`` names the fields in order; a subclass's ``__init__``
    checks its arguments and sets the fields once, through ``_set_fields``.
    Equality (with the same class only), the hash, the repr and pickles
    use the fields alone, so the ``cached_property`` caches a subclass
    keeps stay out of all four.  ``dataclasses.fields``, ``replace`` and
    ``asdict`` work on instances.
    """

    __match_args__: tuple[str, ...] = ()
    __dataclass_fields__ = _FromDataclass()
    __dataclass_params__ = _FromDataclass()

    def _set_fields(self, *values: object) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__getstate__().items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getstate__(self) -> dict:
        return dict(zip(self.__match_args__, self._values()))

    def __replace__(self, **changes: object) -> _Immutable:
        """``copy.replace`` (Python 3.13 on), as a dataclass has it."""
        return type(self)(**{**self.__getstate__(), **changes})


class LogicCost(_Immutable):
    """XOR/AND/NOT operation counts, each an int in 0..MAX_COST; vectors add componentwise."""

    __match_args__ = ("xors", "ands", "nots")

    def __init__(self, xors: int = 0, ands: int = 0, nots: int = 0) -> None:
        if not all(type(n) is int and 0 <= n <= MAX_COST for n in (xors, ands, nots)):
            raise ValueError(f"logic cost components must be non-negative ints up to {MAX_COST}")
        self._set_fields(xors, ands, nots)

    def __add__(self, other: LogicCost) -> LogicCost:
        return LogicCost(self.xors + other.xors, self.ands + other.ands, self.nots + other.nots)

    def to_dict(self) -> dict[str, int]:
        return {"xor": self.xors, "and": self.ands, "not": self.nots}

    def render(self) -> str:
        """Format as a sum like ``56α+21β``, omitting zero terms."""
        terms = [f"{n}{sym}" for n, sym in ((self.xors, "α"), (self.ands, "β"), (self.nots, "δ")) if n]
        return "+".join(terms) if terms else "0"


def is_identifier(text: object) -> bool:
    """The one name rule for gates, wires and circuits: a ``str`` matching ``[A-Za-z_][A-Za-z0-9_]*``."""
    return isinstance(text, str) and str.isascii(text) and str.isidentifier(text)  # a subclass cannot bend the rule


def is_bit(value: object) -> bool:
    """The one bit rule for constants, bindings and gate bits: the int 0 or 1, not ``True`` or ``1.0``."""
    return type(value) is int and 0 <= value <= 1


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


def _anf(table: Sequence[int], arity: int) -> tuple[tuple[int, ...], ...]:
    """Algebraic normal form of each output line of ``table``, as ``GateDefinition.anf`` describes."""
    coeffs = list(table)
    # Möbius transform over GF(2); the output lines ride in parallel as the bits of each word
    for bit in range(arity):
        step = 1 << bit
        for pattern in range(len(coeffs)):
            if pattern & step:
                coeffs[pattern] ^= coeffs[pattern ^ step]
    return tuple(
        tuple(mono for mono, word in enumerate(coeffs) if word >> shift & 1)
        for shift in reversed(range(arity))
    )


class GateDefinition(_Immutable):
    """A named k-line bijection with cost metadata.

    ``table[p]`` is the output pattern for input pattern ``p``; the
    first line is the most significant bit.  ``quantum_cost`` of None
    means no realization cost is known.
    """

    __match_args__ = ("name", "arity", "table", "quantum_cost", "logic_cost")

    def __init__(
        self,
        name: str,
        arity: int,
        table: Iterable[int],
        quantum_cost: int | None = None,
        logic_cost: LogicCost = LogicCost(),
    ) -> None:
        table = tuple(table)
        if not is_identifier(name):
            raise ValueError(f"bad gate name {name!r}")
        if type(arity) is not int or not 1 <= arity <= MAX_CUSTOM_ARITY:
            raise ValueError(f"gate arity must be 1..{MAX_CUSTOM_ARITY}, got {arity}")
        size = 1 << arity
        if len(table) != size or any(type(p) is not int or not 0 <= p < size for p in table):
            raise TableShapeError(f"{name}: table must hold {size} patterns of {arity} bits")
        if len(set(table)) != size:
            raise NonBijectiveError(f"{name}: table is not a permutation")
        if quantum_cost is not None and (type(quantum_cost) is not int or not 0 <= quantum_cost <= MAX_COST):
            raise ValueError(f"quantum cost must be None or a non-negative int up to {MAX_COST}")
        if type(logic_cost) is not LogicCost:
            raise ValueError(f"logic cost must be a LogicCost, got {logic_cost!r}")
        self._set_fields(name, arity, table, quantum_cost, logic_cost)

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
        return _anf(self.table, self.arity)

    @cached_property
    def inverse_anf(self) -> tuple[tuple[int, ...], ...]:
        """``anf`` of ``inverse_table``: each input line as a polynomial in the output lines."""
        return _anf(self.inverse_table, self.arity)

    def apply(self, bits: Sequence[int]) -> list[int]:
        """Map an input bit vector to the gate's output bit vector."""
        return int_to_bits(self.table[self._pattern(bits)], self.arity)

    def invert(self, bits: Sequence[int]) -> list[int]:
        """Map an output bit vector back to the unique input that produces it."""
        return int_to_bits(self.inverse_table[self._pattern(bits)], self.arity)

    def _pattern(self, bits: Sequence[int]) -> int:
        if len(bits) != self.arity:
            raise GateArityError(f"{self.name} has {self.arity} lines, got {len(bits)} bits")
        if not all(map(is_bit, bits)):
            raise ValueError(f"bits must be 0 or 1, got {list(bits)!r}")
        return bits_to_int(bits)

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
        if not all(is_bit(bit) for row in rows for bit in row):
            raise TableShapeError("entries must be 0 or 1")
        if len(rows) != 1 << width:
            raise TableShapeError(f"expected {1 << width} rows for width {width}, got {len(rows)}")
        return cls(name, width, tuple(bits_to_int(row) for row in rows), quantum_cost, logic_cost)


# name: (arity, function, quantum cost, logic cost).  The logic cost counts
# the operations in the output expressions, sharing the A^B subterm of the
# fourth output of PFAG/HNG with an earlier output but counting every other
# occurrence fresh.
_BUILTINS: dict[str, tuple[int, Callable[..., tuple[int, ...]], int | None, LogicCost]] = {
    "FG": (2, lambda a, b: (a, a ^ b), 1, LogicCost(1, 0, 0)),
    "PG": (3, lambda a, b, c: (a, a ^ b, (a & b) ^ c), 4, LogicCost(2, 1, 0)),
    "TG": (3, lambda a, b, c: (a, b, (a & b) ^ c), 5, LogicCost(1, 1, 0)),
    "FRG": (3, lambda a, b, c: (a, ((1 - a) & b) ^ (a & c), ((1 - a) & c) ^ (a & b)), 5, LogicCost(2, 4, 2)),
    "PFAG": (4, lambda a, b, c, d: (a, a ^ b, a ^ b ^ c, ((a ^ b) & c) ^ (a & b) ^ d), 8, LogicCost(5, 2, 0)),
    "HNG": (4, lambda a, b, c, d: (a, b, a ^ b ^ c, ((a ^ b) & c) ^ (a & b) ^ d), None, LogicCost(4, 2, 0)),
    "HNFG": (4, lambda a, b, c, d: (a, a ^ b, c, c ^ d), 2, LogicCost(2, 0, 0)),
}

BUILTIN_GATES: dict[str, GateDefinition] = {
    name: GateDefinition.from_table(name, (fn(*int_to_bits(p, arity)) for p in range(1 << arity)), cost, logic)
    for name, (arity, fn, cost, logic) in _BUILTINS.items()
}


def builtin(name: str) -> GateDefinition:
    """Look up one of the built-in gates by name (case-sensitive)."""
    try:
        return BUILTIN_GATES[name]
    except KeyError:
        raise GateLookupError(name) from None
