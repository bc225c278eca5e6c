"""Reversible-logic netlist toolkit.

Gate library of verified bijections, a fan-out-free netlist IR with
structural validation, forward/inverse simulation with oracle
equivalence checking, cost metrics with published reference rows, adder
generators, and a text format with a CLI on top.

Importing the package loads none of its modules.  Each public name is
imported from its home module on first access (PEP 562), so a program
pays only for the layers it uses: ``from revlogic import parse_netlist``
loads ``gates``, ``netlist`` and ``textio``, not the simulator or the
metrics.  The submodules (``revlogic.simulate`` and the rest) resolve
as attributes too.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it exports
_EXPORTS = {
    "builders": ("adder_spec", "build_bcd_adder", "build_bcd_chain", "build_ripple_adder"),
    "gates": (
        "BUILTIN_GATES",
        "GateArityError",
        "GateDefinition",
        "GateLookupError",
        "LogicCost",
        "NonBijectiveError",
        "TableShapeError",
        "bits_to_int",
        "builtin",
        "int_to_bits",
    ),
    "metrics": (
        "CLAIMED_GARBAGE",
        "Comparison",
        "ComputedRow",
        "LiteratureRow",
        "MetricsReport",
        "analyze",
        "compare",
        "format_gate_multiset",
        "literature_table",
    ),
    "netlist": (
        "GateInstance",
        "InvalidNetlistError",
        "Netlist",
        "Violation",
        "garbage_wires",
        "is_valid",
        "require_valid",
        "validate",
    ),
    "simulate": (
        "Counterexample",
        "TraceResult",
        "TruthTable",
        "TruthTableLimitError",
        "TruthTableRow",
        "check_equivalence",
        "run",
        "run_inverse",
        "truth_table",
    ),
    "textio": ("NetlistParseError", "ParseDiagnostic", "parse_netlist", "serialize_netlist"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
