"""Fan-out-free netlist IR and structural validation.

A netlist is an ordered list of gate instances over named wires.  Three
wire rules keep the circuit reversible end to end:

  * every wire is defined exactly once (primary input, constant, or
    gate output);
  * every wire is consumed at most once (gate input or primary output),
    so there is no fan-out;
  * definition precedes use in gate order, which makes the circuit
    acyclic by construction.

Wires that are defined but never consumed and are not primary outputs
are the garbage outputs.  Netlists are immutable after construction
(``Netlist`` is a plain class on ``gates._Immutable``, so it behaves as
a frozen dataclass without importing ``dataclasses``), so each one is
checked at most once and compiled at most once: the first query
records its validation findings, garbage, wire numbering (each wire's
index in definition order) and read slots (the number of every wire a
gate or the outputs read), the simulator builds the evaluation plan on
them at the first simulation, and later calls read them.  Neither cache
shows in equality, the hash, the repr or a pickle.  Constants given as
exact ``(wire, bit)`` tuples are kept as given; only other forms are
rebuilt.

The check numbers in bulk and explains by walking.  Whole-list passes,
run in C by ``map``, ``set``, ``zip`` and ``dict``, number every netlist
that has no error; a netlist they refuse, or one with a constant that
is never read, is also walked wire by wire, and that walk is the one
place where findings and their positions are made.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from operator import attrgetter, itemgetter, lt
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .gates import BUILTIN_GATES, GateDefinition, _Immutable, is_bit, is_identifier

if TYPE_CHECKING:
    from .simulate import _Plan


class _GateInstanceFields(NamedTuple):
    gate: GateDefinition
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


class GateInstance(_GateInstanceFields):
    """One gate application: ordered input wires and fresh output wires.

    A named tuple whose wires are stored as tuples, whatever sequences
    they are given as.
    """

    __slots__ = ()

    def __new__(cls, gate: GateDefinition, inputs, outputs) -> GateInstance:
        return tuple.__new__(cls, (gate, tuple(inputs), tuple(outputs)))

    @classmethod
    def _make(cls, iterable) -> GateInstance:
        return cls(*iterable)  # so _replace converts its wires too


class Netlist(_Immutable):
    """Ordered wiring of gate instances with explicit input/constant/output roles.

    Every sequence field is stored as a tuple, and each constant as a
    ``(wire, bit)`` pair, whatever sequences they are given as.  When
    every constant is an exact 2-tuple, those tuples are kept as given.
    """

    __match_args__ = ("name", "primary_inputs", "constants", "gates", "primary_outputs")

    def __init__(
        self,
        name: str,
        primary_inputs: Iterable[str],
        constants: Iterable[tuple[str, int]],
        gates: Iterable[GateInstance],
        primary_outputs: Iterable[str],
    ) -> None:
        constants = tuple(constants)
        if not (set(map(type, constants)) <= {tuple} and set(map(len, constants)) <= {2}):  # exact pairs are kept
            constants = tuple((w, b) for w, b in constants)
        self._set_fields(name, tuple(primary_inputs), constants, tuple(gates), tuple(primary_outputs))

    @property
    def constant_wires(self) -> tuple[str, ...]:
        return tuple(wire for wire, _ in self.constants)

    @cached_property
    def _checked(self) -> tuple[tuple[Violation, ...], tuple[str, ...], dict[str, int], tuple[int, ...]]:
        """Findings, then garbage, wire numbers and read slots (those three empty when invalid), built on first use."""
        violations, garbage, slots, reads = _check(self)
        return tuple(violations), tuple(garbage), slots, reads

    @cached_property
    def _plan(self) -> _Plan:
        """Evaluation plan of a valid netlist, built by the simulator on first simulation.

        Raises InvalidNetlistError, on every use, for an invalid netlist.
        """
        require_valid(self)
        from .simulate import _Plan  # only a simulation loads the simulator
        return _Plan(self, *self._checked[1:])


class Violation(NamedTuple):
    """One broken rule, naming the wire and gate index involved.

    ``position`` indexes the sequence the wire was read from, so a repeated
    wire names the occurrence at fault: the gate's ``inputs + outputs``
    when ``gate_index`` is set; ``primary_inputs + constant_wires`` for a
    source's ``redefinition`` or ``bad-wire-name``, ``bad-constant`` and
    ``unused-constant``; ``primary_outputs`` for ``duplicate-output``,
    ``undefined-output`` and an outputs-line ``fan-out``; ``bad-circuit-name``,
    ``arity-mismatch`` and ``line-conservation`` have none.
    """

    rule: str
    message: str
    wire: str | None = None
    gate_index: int | None = None
    severity: str = "error"
    position: int | None = None


class InvalidNetlistError(ValueError):
    """Raised by operations whose precondition is a valid netlist."""

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(v.message for v in self.violations))


def _check(netlist: Netlist) -> tuple[list[Violation], list[str], dict[str, int], tuple[int, ...]]:
    """Every finding in reading order; with no error, also the garbage, each wire's number and the read slots.

    Definition order (inputs, constants, then each gate's outputs) is the netlist's
    one wire numbering: garbage is listed in it, and it is the plan's slots.
    ``_accept`` numbers every netlist without an error, in bulk; ``_walk``, the
    one place where findings and their positions are made, runs only to explain
    a refusal or an unread constant.
    """
    accepted = _accept(netlist)
    if accepted is None:
        return _walk(netlist), [], {}, ()
    garbage, slots, reads, unread_constant = accepted
    return _walk(netlist) if unread_constant else [], garbage, slots, reads


def _reads(slots: dict[str, int], inputs: Iterable[tuple[str, ...]], outputs: tuple[str, ...]) -> tuple[int, ...]:
    """The slot of every read, one lookup each: the gates' ``inputs`` in gate order, then the primary ``outputs``."""
    return tuple(map(slots.__getitem__, chain(chain.from_iterable(inputs), outputs)))


def _accept(netlist: Netlist) -> tuple[list[str], dict[str, int], tuple[int, ...], bool] | None:
    """Garbage, wire numbers, read slots and whether a constant is unread when ``_walk`` finds no error, else None.

    Whole-list passes only, each in C: the defined names are ``str``
    identifiers (``"".join`` refuses any other type) and distinct; the
    constant bits are the ints 0 and 1; each distinct gate object means
    what its name means in the netlist and has as many inputs and outputs
    as lines; every read (gate inputs, then primary outputs) names a
    defined wire, and a gate's reads come before its first output in
    definition order; and line conservation holds, which here means that
    no wire is read twice.  Each read is marked in a bytearray of one
    byte per slot, so the garbage is the unmarked slots, an unread
    constant is an unmarked constant slot, and no set of reads is built.
    """
    if not is_identifier(netlist.name):
        return None
    insts, outputs = netlist.gates, netlist.primary_outputs
    gates = list(map(attrgetter("gate"), insts))
    ins = list(map(attrgetter("inputs"), insts))
    outs = list(map(attrgetter("outputs"), insts))
    bits = list(map(itemgetter(1), netlist.constants))
    order = [*netlist.primary_inputs, *map(itemgetter(0), netlist.constants), *chain.from_iterable(outs)]
    try:
        names = "".join(order)
    except TypeError:  # a name that is not a str
        return None
    if not (
        names.isascii() and all(map(str.isidentifier, order)) and set(map(type, bits)) <= {int} and set(bits) <= {0, 1}
    ):
        return None
    slots = dict(zip(order, range(len(order))))
    if len(slots) != len(order):  # a wire defined twice
        return None
    meaning = dict(BUILTIN_GATES)
    for gate in dict(zip(map(id, gates), gates)).values():  # each distinct gate object once, in order of first use
        meant = meaning.setdefault(gate.name, gate)
        if meant is not gate and meant != gate:
            return None
    arities = list(map(attrgetter("arity"), gates))
    if not list(map(len, ins)) == arities == list(map(len, outs)):
        return None
    try:
        reads = _reads(slots, ins, outputs)
    except (KeyError, TypeError):  # an undefined or unhashable read
        return None
    sources = len(netlist.primary_inputs) + len(bits)
    # gate outputs are numbered in gate order, so gate i's first output slot is sources plus the arities before it
    firsts = accumulate(arities, initial=sources)
    if not all(map(lt, reads, chain.from_iterable(map(repeat, firsts, arities)))):
        return None
    unread = bytearray(b"\x01") * len(order)
    any(map(unread.__setitem__, reads, repeat(0)))  # one mark per read slot, in C
    garbage = list(compress(order, unread))
    # with every read defined and the arities right, line conservation holds exactly when no wire is read twice
    if sources != len(outputs) + len(garbage):
        return None
    return garbage, slots, reads, unread.find(1, len(netlist.primary_inputs), sources) >= 0


def _walk(netlist: Netlist) -> list[Violation]:
    """``_check``'s findings, wire by wire: every error and warning with its position, in reading order."""
    violations: list[Violation] = []

    def report(rule, message, wire=None, gate_index=None, position=None, severity="error"):
        violations.append(Violation(rule, message, wire, gate_index, severity, position))

    if not is_identifier(netlist.name):
        report("bad-circuit-name", f"circuit name {netlist.name!r} is not a valid identifier")
    defined: set[str] = set()
    consumed: set[str] = set()

    def define(wires, start, what, gate_index=None):
        for position, wire in enumerate(wires, start):
            if not is_identifier(wire):
                report("bad-wire-name", f"wire {wire!r} is not a valid identifier", wire, gate_index, position)
            if wire in defined:
                report("redefinition", f"wire {wire!r} defined more than once ({what})", wire, gate_index, position)
            defined.add(wire)

    define(netlist.primary_inputs, 0, "primary input")
    for position, (wire, bit) in enumerate(netlist.constants, len(netlist.primary_inputs)):
        define((wire,), position, "constant")
        if not is_bit(bit):  # True or 1.0 would serialize as text the parser refuses
            report("bad-constant", f"constant {wire!r} must be 0 or 1, got {bit!r}", wire, None, position)

    meaning = dict(BUILTIN_GATES)  # what each gate name means: the built-in, else its first gate here
    for index, inst in enumerate(netlist.gates):
        gate = inst.gate
        meant = meaning.setdefault(gate.name, gate)
        if meant is not gate and meant != gate:
            report(
                "gate-name-clash",
                f"gate {index} ({gate.name}) differs from the {gate.name} this netlist already has",
                gate_index=index,
            )
        if len(inst.inputs) != gate.arity or len(inst.outputs) != gate.arity:
            report(
                "arity-mismatch",
                f"gate {index} ({gate.name}) has {gate.arity} lines but "
                f"{len(inst.inputs)} inputs / {len(inst.outputs)} outputs",
                gate_index=index,
            )
        for position, wire in enumerate(inst.inputs):
            if wire not in defined:
                report(
                    "use-before-definition",
                    f"gate {index} ({gate.name}) reads {wire!r} before it is defined",
                    wire,
                    index,
                    position,
                )
            elif wire in consumed:
                report("fan-out", f"wire {wire!r} consumed more than once (gate {index})", wire, index, position)
            consumed.add(wire)
        define(inst.outputs, len(inst.inputs), f"gate {index} output", index)

    seen_outputs: set[str] = set()
    for position, wire in enumerate(netlist.primary_outputs):
        if wire in seen_outputs:
            report("duplicate-output", f"wire {wire!r} listed as primary output more than once", wire, None, position)
            continue
        seen_outputs.add(wire)
        if wire not in defined:
            report("undefined-output", f"primary output {wire!r} is never defined", wire, None, position)
        elif wire in consumed:
            report("fan-out", f"wire {wire!r} consumed more than once (primary output)", wire, None, position)
        consumed.add(wire)

    if violations:  # every finding so far is an error
        return violations
    for position, (wire, _) in enumerate(netlist.constants, len(netlist.primary_inputs)):
        if wire not in consumed:
            report("unused-constant", f"constant {wire!r} is never consumed", wire, None, position, "warning")
    garbage = len(defined) - len(consumed)  # with no error, every consumed wire is defined
    # line conservation holds whenever the rules above do; checked, not assumed
    sources = len(netlist.primary_inputs) + len(netlist.constants)
    if sources != len(netlist.primary_outputs) + garbage:
        report(
            "line-conservation",
            f"{sources} source lines but {len(netlist.primary_outputs)} outputs + {garbage} garbage",
        )
    return violations


def validate(netlist: Netlist) -> list[Violation]:
    """Check every structural invariant; an empty list of errors means ok.

    Unused constants are reported as warnings (wasteful but legal); all
    other findings are errors.  The check runs once per netlist object;
    each call returns a fresh list.
    """
    return list(netlist._checked[0])


def _errors(netlist: Netlist) -> list[Violation]:
    return [v for v in netlist._checked[0] if v.severity == "error"]


def is_valid(netlist: Netlist) -> bool:
    return not _errors(netlist)


def require_valid(netlist: Netlist) -> None:
    errors = _errors(netlist)
    if errors:
        raise InvalidNetlistError(errors)


def garbage_wires(netlist: Netlist) -> list[str]:
    """Defined-but-unconsumed wires that are not primary outputs, in definition order."""
    require_valid(netlist)
    return list(netlist._checked[1])
