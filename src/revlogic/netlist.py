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
records its validation findings, wire order and garbage, the first
simulation builds its evaluation plan from that order, and later calls
read them.  Neither cache shows in equality, the hash, the repr or a
pickle.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple

from .gates import BUILTIN_GATES, GateDefinition, _Immutable, is_bit, is_identifier


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
    ``(wire, bit)`` pair, whatever sequences they are given as.
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
        constants = tuple((w, b) for w, b in constants)
        self._set_fields(name, tuple(primary_inputs), constants, tuple(gates), tuple(primary_outputs))

    @property
    def constant_wires(self) -> tuple[str, ...]:
        return tuple(wire for wire, _ in self.constants)

    @cached_property
    def _checked(self) -> tuple[tuple[Violation, ...], tuple[str, ...], tuple[str, ...]]:
        """Findings, garbage and every wire in definition order (both empty when invalid), built on first use."""
        violations, garbage, order = _check(self)
        return tuple(violations), tuple(garbage), tuple(order)

    @cached_property
    def _plan(self) -> _Plan:
        """Evaluation plan of a valid netlist, built on first simulation.

        Raises InvalidNetlistError, on every use, for an invalid netlist.
        """
        require_valid(self)
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


def _check(netlist: Netlist) -> tuple[list[Violation], list[str], list[str]]:
    """Every finding in reading order; with no error, also the garbage and every wire in definition order.

    Definition order (inputs, constants, then each gate's outputs) is the netlist's
    one wire numbering: garbage is listed in it, and the plan's slots follow it.
    """
    violations: list[Violation] = []

    def report(rule, message, wire=None, gate_index=None, position=None, severity="error"):
        violations.append(Violation(rule, message, wire, gate_index, severity, position))

    if not is_identifier(netlist.name):
        report("bad-circuit-name", f"circuit name {netlist.name!r} is not a valid identifier")
    defined: dict[str, None] = {}  # in definition order
    consumed: set[str] = set()

    def define(wires, start, what, gate_index=None):
        for position, wire in enumerate(wires, start):
            if not is_identifier(wire):
                report("bad-wire-name", f"wire {wire!r} is not a valid identifier", wire, gate_index, position)
            if wire in defined:
                report("redefinition", f"wire {wire!r} defined more than once ({what})", wire, gate_index, position)
            defined[wire] = None

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

    if any(v.severity == "error" for v in violations):
        return violations, [], []
    for position, (wire, _) in enumerate(netlist.constants, len(netlist.primary_inputs)):
        if wire not in consumed:
            report("unused-constant", f"constant {wire!r} is never consumed", wire, None, position, "warning")
    garbage = [wire for wire in defined if wire not in consumed]
    # line conservation holds whenever the rules above do; checked, not assumed
    sources = len(netlist.primary_inputs) + len(netlist.constants)
    if sources != len(netlist.primary_outputs) + len(garbage):
        report(
            "line-conservation",
            f"{sources} source lines but {len(netlist.primary_outputs)} outputs + {len(garbage)} garbage",
        )
    return violations, garbage, list(defined)


class _Plan:
    """The one compiled schedule of a valid netlist, read by every engine.

    Each wire's slot is its index in the definition order that validation
    recorded, so the primary inputs fill the first slots and the constants
    the next ones.  Gate ``i`` is ``gates[i]``, reading ``in_slots[i]``
    and writing ``out_slots[i]``: the scalar kernel applies its ``table``
    forwards and its ``inverse_table`` backwards, the block engine its
    ``anf``, compiled per gate kind; ``kernel_steps`` holds each gate's
    kernel beside its slots once the block engine has first run.
    """

    def __init__(self, netlist: Netlist, garbage: tuple[str, ...], order: tuple[str, ...]) -> None:
        self.slots = slots = dict(zip(order, range(len(order))))
        self.const_bits = tuple(bit for _wire, bit in netlist.constants)
        self.gates = tuple(inst.gate for inst in netlist.gates)
        self.in_slots = [tuple(map(slots.__getitem__, inst.inputs)) for inst in netlist.gates]
        self.out_slots = [tuple(map(slots.__getitem__, inst.outputs)) for inst in netlist.gates]
        self.po_slots = tuple(map(slots.__getitem__, netlist.primary_outputs))
        self.garbage_wires = garbage
        self.garbage_slots = tuple(map(slots.__getitem__, garbage))
        self.terminal_wires = netlist.primary_outputs + garbage
        self.kernel_steps: list | None = None  # set by simulate, which this module does not import


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
