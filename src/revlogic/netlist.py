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
are the garbage outputs.  Netlists are immutable after construction,
so each one is checked at most once and compiled at most once: the
first query records its validation findings and garbage list, the first
simulation builds its evaluation plan, and later calls read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .gates import IDENT_RE, GateDefinition


@dataclass(frozen=True)
class GateInstance:
    """One gate application: ordered input wires and fresh output wires."""

    gate: GateDefinition
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))


@dataclass(frozen=True)
class Netlist:
    """Ordered wiring of gate instances with explicit input/constant/output roles."""

    name: str
    primary_inputs: tuple[str, ...]
    constants: tuple[tuple[str, int], ...]
    gates: tuple[GateInstance, ...]
    primary_outputs: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "primary_inputs", tuple(self.primary_inputs))
        object.__setattr__(self, "constants", tuple((w, b) for w, b in self.constants))
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "primary_outputs", tuple(self.primary_outputs))

    @property
    def constant_wires(self) -> tuple[str, ...]:
        return tuple(wire for wire, _ in self.constants)

    @cached_property
    def _checked(self) -> tuple[tuple[Violation, ...], tuple[str, ...]]:
        """Validation findings and garbage wires (none when invalid), built on first use."""
        violations, garbage = _check(self)
        return tuple(violations), tuple(garbage)

    @cached_property
    def _plan(self) -> _Plan:
        """Evaluation plan of a valid netlist, built on first simulation.

        Raises InvalidNetlistError, on every use, for an invalid netlist.
        """
        require_valid(self)
        return _Plan(self, self._checked[1])

    def __getstate__(self) -> dict:
        # the cached forms are derived data: pickles and copies rebuild them
        return {k: v for k, v in self.__dict__.items() if k not in ("_checked", "_plan")}


@dataclass(frozen=True)
class Violation:
    """One broken rule, naming the wire and gate index involved."""

    rule: str
    message: str
    wire: str | None = None
    gate_index: int | None = None
    severity: str = "error"


class InvalidNetlistError(ValueError):
    """Raised by operations whose precondition is a valid netlist."""

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(v.message for v in self.violations))


def _check(netlist: Netlist) -> tuple[list[Violation], list[str]]:
    """Every structural finding, plus the garbage wires when there is no error."""
    violations: list[Violation] = []

    def report(rule, message, wire=None, gate_index=None, severity="error"):
        violations.append(Violation(rule, message, wire, gate_index, severity))

    defined: set[str] = set()
    consumed: set[str] = set()
    order: list[str] = []

    def define(wire, what, gate_index=None):
        if not IDENT_RE.match(wire):
            report("bad-wire-name", f"wire {wire!r} is not a valid identifier", wire, gate_index)
        if wire in defined:
            report("redefinition", f"wire {wire!r} defined more than once ({what})", wire, gate_index)
        defined.add(wire)
        order.append(wire)

    for wire in netlist.primary_inputs:
        define(wire, "primary input")
    for wire, bit in netlist.constants:
        define(wire, "constant")
        if bit not in (0, 1):
            report("bad-constant", f"constant {wire!r} must be 0 or 1, got {bit!r}", wire)

    for index, inst in enumerate(netlist.gates):
        gate = inst.gate
        if len(inst.inputs) != gate.arity or len(inst.outputs) != gate.arity:
            report(
                "arity-mismatch",
                f"gate {index} ({gate.name}) has {gate.arity} lines but "
                f"{len(inst.inputs)} inputs / {len(inst.outputs)} outputs",
                gate_index=index,
            )
        for wire in inst.inputs:
            if wire not in defined:
                report(
                    "use-before-definition",
                    f"gate {index} ({gate.name}) reads {wire!r} before it is defined",
                    wire,
                    index,
                )
            elif wire in consumed:
                report("fan-out", f"wire {wire!r} consumed more than once (gate {index})", wire, index)
            consumed.add(wire)
        for wire in inst.outputs:
            define(wire, f"gate {index} output", index)

    seen_outputs: set[str] = set()
    for wire in netlist.primary_outputs:
        if wire in seen_outputs:
            report("duplicate-output", f"wire {wire!r} listed as primary output more than once", wire)
            continue
        seen_outputs.add(wire)
        if wire not in defined:
            report("undefined-output", f"primary output {wire!r} is never defined", wire)
        elif wire in consumed:
            report("fan-out", f"wire {wire!r} consumed more than once (primary output)", wire)
        consumed.add(wire)

    if any(v.severity == "error" for v in violations):
        return violations, []
    for wire, _ in netlist.constants:
        if wire not in consumed:
            report("unused-constant", f"constant {wire!r} is never consumed", wire, severity="warning")
    garbage = [wire for wire in order if wire not in consumed]
    # line conservation holds whenever the rules above do; checked, not assumed
    sources = len(netlist.primary_inputs) + len(netlist.constants)
    if sources != len(netlist.primary_outputs) + len(garbage):
        report(
            "line-conservation",
            f"{sources} source lines but {len(netlist.primary_outputs)} outputs + {len(garbage)} garbage",
        )
    return violations, garbage


class _Plan:
    """The one compiled schedule of a valid netlist, read by every engine.

    Wires take slots in definition order, so the primary inputs fill the
    first slots and the constants the next ones.  Gate ``i`` is
    ``gates[i]``, reading ``in_slots[i]`` and writing ``out_slots[i]``:
    the scalar kernel applies its ``table`` forwards and its
    ``inverse_table`` backwards, the block engine its ``anf``.
    """

    def __init__(self, netlist: Netlist, garbage: tuple[str, ...]) -> None:
        slots: dict[str, int] = {}
        for wire in netlist.primary_inputs + netlist.constant_wires:
            slots[wire] = len(slots)
        self.const_bits = tuple(bit for _wire, bit in netlist.constants)
        self.gates = tuple(inst.gate for inst in netlist.gates)
        self.in_slots: list[tuple[int, ...]] = []
        self.out_slots: list[tuple[int, ...]] = []
        for inst in netlist.gates:
            self.in_slots.append(tuple(slots[w] for w in inst.inputs))
            for wire in inst.outputs:
                slots[wire] = len(slots)
            self.out_slots.append(tuple(slots[w] for w in inst.outputs))
        self.slots = slots
        self.po_slots = tuple(slots[w] for w in netlist.primary_outputs)
        self.garbage_wires = garbage
        self.garbage_slots = tuple(slots[w] for w in garbage)
        self.terminal_wires = netlist.primary_outputs + self.garbage_wires


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
