"""Reversible-logic netlist toolkit.

Gate library of verified bijections, a fan-out-free netlist IR with
structural validation, forward/inverse simulation with oracle
equivalence checking, cost metrics with published reference rows, adder
generators, and a text format with a CLI on top.
"""

from .builders import adder_oracle, build_bcd_adder, build_bcd_chain, build_ripple_adder
from .gates import (
    BUILTIN_GATES,
    DEFAULT_REGISTRY,
    DuplicateGateError,
    GateArityError,
    GateDefinition,
    GateLookupError,
    GateRegistry,
    LogicCost,
    NonBijectiveError,
    TableShapeError,
    builtin,
    define_custom_gate,
)
from .metrics import (
    CLAIMED_GARBAGE,
    Comparison,
    ComputedRow,
    LiteratureRow,
    MetricsReport,
    analyze,
    compare,
    format_gate_multiset,
    literature_table,
)
from .netlist import (
    GateInstance,
    InvalidNetlistError,
    Netlist,
    Violation,
    garbage_wires,
    is_valid,
    require_valid,
    validate,
)
from .simulate import (
    Counterexample,
    TraceResult,
    TruthTableLimitError,
    TruthTableRow,
    bits_to_int,
    check_equivalence,
    int_to_bits,
    iter_truth_table,
    run,
    run_inverse,
    truth_table,
)
from .textio import NetlistParseError, ParseDiagnostic, parse_netlist, serialize_netlist

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_GATES",
    "CLAIMED_GARBAGE",
    "Comparison",
    "ComputedRow",
    "Counterexample",
    "DEFAULT_REGISTRY",
    "DuplicateGateError",
    "GateArityError",
    "GateDefinition",
    "GateInstance",
    "GateLookupError",
    "GateRegistry",
    "InvalidNetlistError",
    "LiteratureRow",
    "LogicCost",
    "MetricsReport",
    "Netlist",
    "NetlistParseError",
    "NonBijectiveError",
    "ParseDiagnostic",
    "TableShapeError",
    "TraceResult",
    "TruthTableLimitError",
    "TruthTableRow",
    "Violation",
    "adder_oracle",
    "analyze",
    "bits_to_int",
    "build_bcd_adder",
    "build_bcd_chain",
    "build_ripple_adder",
    "builtin",
    "check_equivalence",
    "compare",
    "define_custom_gate",
    "format_gate_multiset",
    "garbage_wires",
    "int_to_bits",
    "is_valid",
    "iter_truth_table",
    "literature_table",
    "parse_netlist",
    "require_valid",
    "run",
    "run_inverse",
    "serialize_netlist",
    "truth_table",
    "validate",
]
