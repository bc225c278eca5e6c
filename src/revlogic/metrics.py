"""Design metrics and comparison against the published BCD adder designs.

Five metrics are computed for any valid netlist: gate count, quantum
cost (additive per gate; unknown is absorbing), garbage outputs,
constant inputs, and the logical-calculation vector.  The published
comparison rows are stored verbatim as reference data, never recomputed:
the competing designs' internals are out of scope here.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, NamedTuple, Sequence

from .gates import LogicCost
from .netlist import Netlist, garbage_wires

# Garbage counts claimed for the shipped designs in the source
# publication.  The BCD claim of 24 conflicts with line conservation
# (9 inputs + 19 constants - 5 outputs = 23); comparisons display both
# values rather than silently adopting either.
CLAIMED_GARBAGE: dict[str, int] = {"ripple4": 8, "bcd1": 24, "bcd2": 24}


class MetricsReport(NamedTuple):
    """Gate multiset plus the four wire-accounting metrics."""

    gate_count: int
    gates: dict[str, int]
    quantum_cost: int | None
    garbage: int
    constants: int
    logical: LogicCost

    def to_dict(self) -> dict:
        return {
            "gate_count": self.gate_count,
            "gates": dict(self.gates),
            "quantum_cost": self.quantum_cost,
            "garbage": self.garbage,
            "constants": self.constants,
            "logical": self.logical.to_dict(),
        }


def analyze(netlist: Netlist) -> MetricsReport:
    """Compute all five metrics for a valid netlist.

    The quantum cost is the sum of per-gate costs; any gate with an
    unknown cost makes the total unknown (None).  Logical totals depend
    only on the gate multiset.  A valid netlist gives each gate name one
    definition, so both are summed per gate kind, as count x cost.
    """
    garbage = garbage_wires(netlist)
    counts = Counter(inst.gate.name for inst in netlist.gates)
    kinds = {inst.gate.name: inst.gate for inst in netlist.gates}
    quantum: int | None = 0
    logical = LogicCost()
    for name, gate in kinds.items():
        count, cost = counts[name], gate.logic_cost
        quantum = None if quantum is None or gate.quantum_cost is None else quantum + count * gate.quantum_cost
        logical += LogicCost(count * cost.xors, count * cost.ands, count * cost.nots)
    return MetricsReport(
        gate_count=len(netlist.gates),
        gates=dict(sorted(counts.items())),
        quantum_cost=quantum,
        garbage=len(garbage),
        constants=len(netlist.constants),
        logical=logical,
    )


class LiteratureRow(NamedTuple):
    """One published comparison row, stored verbatim."""

    label: str
    gate_count_expr: str
    garbage: int
    logical: LogicCost
    quantum_cost: int | None  # None renders as "Unknown"


_LITERATURE_ROWS = (
    LiteratureRow("This study: Design 1", "10 PFAG +4FG+1PG=15", 24, LogicCost(56, 21, 0), 88),
    LiteratureRow("This study: Design 2", "10 PFAG+1PG +2FG+1HNFG=14", 24, LogicCost(56, 21, 0), 88),
    LiteratureRow("BCD adder [15]", "8 HNG +2NG+ 1TG+2FG + 1HNFG=14", 22, LogicCost(49, 21, 6), None),
    LiteratureRow("BCD adder [16]", "19+4FG=23", 22, LogicCost(42, 30, 33), None),
    LiteratureRow("Conventional BCD adder plus fanout [17]", "11+5FG=16", 22, LogicCost(59, 30, 33), None),
    LiteratureRow("Carry skip BCD adder plus fanout [17]", "15+7FG=22", 27, LogicCost(75, 48, 36), None),
)


def literature_table() -> list[LiteratureRow]:
    """The six published comparison rows, verbatim."""
    return list(_LITERATURE_ROWS)


def format_gate_multiset(gates: Mapping[str, int]) -> str:
    """Render a gate multiset like ``10 PFAG + 2 FG + 1 HNFG + 1 PG = 14``."""
    if not gates:
        return "0"
    parts = [f"{count} {name}" for name, count in sorted(gates.items(), key=lambda kv: (-kv[1], kv[0]))]
    return " + ".join(parts) + f" = {sum(gates.values())}"


class ComputedRow(NamedTuple):
    """A measured netlist alongside any published garbage claim for it."""

    label: str
    report: MetricsReport
    claimed_garbage: int | None

    @property
    def garbage_discrepancy(self) -> bool:
        return self.claimed_garbage is not None and self.claimed_garbage != self.report.garbage


class Comparison(NamedTuple):
    """Computed rows plus, optionally, the published reference rows."""

    computed: tuple[ComputedRow, ...]
    literature: tuple[LiteratureRow, ...]

    def to_json_rows(self) -> list[dict]:
        rows: list[dict] = []
        for row in self.computed:
            entry = {"label": row.label, "kind": "computed"}
            entry.update(row.report.to_dict())
            entry["claimed_garbage"] = row.claimed_garbage
            entry["garbage_discrepancy"] = row.garbage_discrepancy
            rows.append(entry)
        for lit in self.literature:
            rows.append(
                {
                    "label": lit.label,
                    "kind": "claimed",
                    "gate_count_expr": lit.gate_count_expr,
                    "garbage": lit.garbage,
                    "logical": lit.logical.to_dict(),
                    "quantum_cost": lit.quantum_cost,
                }
            )
        return rows

    def render_text(self) -> str:
        headers = ("design", "source", "gates", "garbage", "logical", "quantum cost")
        cells: list[tuple[str, ...]] = []
        for row in self.computed:
            report = row.report
            garbage = str(report.garbage)
            if row.garbage_discrepancy:
                garbage = f"{report.garbage} (claimed {row.claimed_garbage}) [!]"
            cells.append(
                (
                    row.label,
                    "computed",
                    format_gate_multiset(report.gates),
                    garbage,
                    report.logical.render(),
                    "unknown" if report.quantum_cost is None else str(report.quantum_cost),
                )
            )
        for lit in self.literature:
            cells.append(
                (
                    lit.label,
                    "claimed",
                    lit.gate_count_expr,
                    str(lit.garbage),
                    lit.logical.render(),
                    "Unknown" if lit.quantum_cost is None else str(lit.quantum_cost),
                )
            )
        widths = [max(len(h), max((len(c[i]) for c in cells), default=0)) for i, h in enumerate(headers)]
        lines = [
            " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
            "-+-".join("-" * w for w in widths),
        ]
        for cell in cells:
            lines.append(" | ".join(cell[i].ljust(widths[i]) for i in range(len(headers))).rstrip())
        return "\n".join(lines)


def compare(
    reports: Sequence[tuple[str, MetricsReport]],
    include_literature: bool = False,
) -> Comparison:
    """Build a comparison of computed reports, optionally with the published rows.

    A computed design whose garbage differs from its published claim is
    marked; both values are shown.
    """
    computed = tuple(
        ComputedRow(label, report, CLAIMED_GARBAGE.get(label)) for label, report in reports
    )
    literature = _LITERATURE_ROWS if include_literature else ()
    return Comparison(computed, tuple(literature))
