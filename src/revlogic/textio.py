"""Line-oriented netlist text format and canonical serialization.

Document grammar (lines end at LF, CR LF or CR only, ``#`` starts a
comment, tokens are whitespace separated, sections appear in this
order):

    circuit NAME
    define NAME COST XORS ANDS NOTS ROW...   (zero or more)
    inputs WIRE...
    const WIRE BIT              (zero or more)
    gate NAME IN... -> OUT...   (zero or more, in execution order)
    outputs WIRE...
    end

A ``define`` line declares a gate that is not a built-in: its quantum
cost (ASCII digits or ``unknown``), its XOR, AND and NOT counts, and
one output bitstring per input pattern in ascending order, e.g.
``define SWAP 3 0 0 0 00 10 01 11``.  Gate names resolve against the
built-ins and these lines only, so a document means the same in every
process.

The parser checks this grammar and looks up gate names.  The name rule,
for the circuit and every wire, and the wire rules are
``netlist.validate``'s, run once on the parsed netlist.  Each of its
errors carries its wire's position in the netlist, which the parser
turns into a line and token from the line numbers it kept (a bad
circuit name sits on the name); which occurrence of a repeated wire is
at fault is decided by ``validate`` alone.  Parsing either returns a
complete, validated netlist or raises NetlistParseError carrying
positioned diagnostics; no partial netlist escapes a failed parse.
Serialization is canonical and deterministic: it writes one ``define``
line per gate that is not a built-in, in order of first use, and
parse(serialize(n)) reproduces every valid n exactly, built in code or
parsed.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .gates import BUILTIN_GATES, GateDefinition, LogicCost
from .netlist import GateInstance, Netlist, Violation, require_valid, validate

_BITS = {"0": 0, "1": 1}
# the findings whose position indexes the outputs line
_OUTPUT_RULES = ("duplicate-output", "undefined-output", "fan-out")
# the findings a wire gets when the gate line that defines it is skipped
_SKIPPED_RULES = ("use-before-definition", "undefined-output")


class ParseDiagnostic(NamedTuple):
    """One problem at a (line, token index) position."""

    line: int
    token: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, token {self.token}: [{self.rule}] {self.message}"


class NetlistParseError(ValueError):
    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


def _tokenize(text: str):
    # lines end at the universal newlines \n, \r\n and \r only; str.splitlines
    # would also end them at \f, \v, \x1c-\x1e, \x85, U+2028 and U+2029
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if "#" in text:  # a generated document has no comment, so its lines are split as they are
        lines = (line.partition("#")[0] for line in lines)
    return filter(itemgetter(1), enumerate(map(str.split, lines), start=1))  # (line number, tokens) of each line with a token


def _count(token: str, rule: str) -> int:
    if token.isascii() and token.isdigit():  # int() alone would also take '٣', '+3' and '3_0'
        return int(token)
    raise ValueError(f"{rule}, got {token!r}")


def _declared_gate(tokens: list[str]) -> GateDefinition:
    """The gate of a ``define NAME COST XORS ANDS NOTS ROW...`` line; ValueError for a bad one."""
    cost = None if tokens[2] == "unknown" else _count(tokens[2], "quantum cost must be 'unknown' or ASCII digits")
    logic = LogicCost(*(_count(token, "logic cost must be ASCII digits") for token in tokens[3:6]))
    # a character other than 0/1 stays a string, for from_table to refuse
    rows = [[_BITS.get(char, char) for char in row] for row in tokens[6:]]
    return GateDefinition.from_table(tokens[1], rows, cost, logic)


def parse_netlist(text: str) -> Netlist:
    """Parse a netlist document, resolving gate names against the built-ins and its own ``define`` lines.

    Raises NetlistParseError with positioned diagnostics for grammar
    problems, bad or clashing gate definitions, unknown gates and every
    error ``validate`` finds (bad circuit or wire name, arity mismatch,
    bad constant, redefinition, use before definition, fan-out,
    duplicate or undefined output).  A refused definition explains its
    gate lines, which get no ``unknown-gate`` of their own, and a
    skipped gate line explains the wires that only it defines, which
    get no ``use-before-definition`` or ``undefined-output``.  Warnings
    do not fail a parse; the returned netlist's check is cached.
    """
    known = dict(BUILTIN_GATES)
    refused: set[str] = set()  # names of refused definitions, which explain their gate lines
    skipped: set[str] = set()  # outputs of gate lines left out of the netlist
    diagnostics: list[ParseDiagnostic] = []

    def fail(lineno: int, token: int, rule: str, message: str) -> NetlistParseError:
        diagnostics.append(ParseDiagnostic(lineno, token, rule, message))
        return NetlistParseError(diagnostics)

    name = None
    inputs: list[str] = []
    constants: list[tuple[str, int | str]] = []
    gates: list[GateInstance] = []
    outputs: list[str] = []
    # line numbers, to position validate's findings; the token lists are not kept, to save memory
    circuit_at = inputs_at = outputs_at = 0
    const_at: list[int] = []
    gate_at: list[int] = []  # indexed like the netlist's gates

    state = "circuit"
    for lineno, tokens in _tokenize(text):
        key = tokens[0]
        if state == "circuit":
            if key != "circuit" or len(tokens) != 2:
                raise fail(lineno, 0, "syntax", "expected 'circuit NAME'")
            name, circuit_at = tokens[1], lineno
            state = "inputs"
        elif state == "inputs":
            if key == "define":
                if len(tokens) < 6:
                    raise fail(lineno, 0, "syntax", "expected 'define NAME COST XORS ANDS NOTS ROW...'")
                if tokens[1] in known:
                    diagnostics.append(ParseDiagnostic(lineno, 1, "gate-name-clash", f"gate {tokens[1]!r} is already defined"))
                    continue
                try:
                    known[tokens[1]] = _declared_gate(tokens)
                except ValueError as exc:
                    refused.add(tokens[1])
                    diagnostics.append(ParseDiagnostic(lineno, 1, "bad-gate-definition", str(exc)))
                continue
            if key != "inputs":
                raise fail(lineno, 0, "syntax", f"expected 'inputs', got {key!r}")
            inputs, inputs_at = tokens[1:], lineno
            state = "body"
        elif state == "body":
            if key == "const":
                if gates:
                    raise fail(lineno, 0, "syntax", "const lines must precede gate lines")
                if len(tokens) != 3:
                    raise fail(lineno, 0, "syntax", "expected 'const WIRE BIT'")
                # a bit other than 0/1 stays a string, for validate to report as bad-constant
                constants.append((tokens[1], _BITS.get(tokens[2], tokens[2])))
                const_at.append(lineno)
            elif key == "gate":
                if len(tokens) < 2:
                    raise fail(lineno, 0, "syntax", "expected 'gate NAME IN... -> OUT...'")
                gate = known.get(tokens[1])
                if gate is None:
                    if tokens[1] not in refused:
                        diagnostics.append(ParseDiagnostic(lineno, 1, "unknown-gate", f"unknown gate {tokens[1]!r}"))
                    if "->" in tokens:
                        skipped.update(tokens[tokens.index("->") + 1 :])
                    continue
                if "->" not in tokens:
                    raise fail(lineno, 2, "syntax", "gate line is missing '->'")
                arrow = tokens.index("->")
                gates.append(tuple.__new__(GateInstance, (gate, tuple(tokens[2:arrow]), tuple(tokens[arrow + 1 :]))))
                gate_at.append(lineno)
            elif key == "outputs":
                outputs, outputs_at = tokens[1:], lineno
                state = "end"
            else:
                raise fail(lineno, 0, "syntax", f"expected 'const', 'gate' or 'outputs', got {key!r}")
        elif state == "end":
            if key != "end" or len(tokens) != 1:
                raise fail(lineno, 0, "syntax", "expected 'end'")
            state = "done"
        else:
            raise fail(lineno, 0, "syntax", "unexpected content after 'end'")

    if state != "done":
        expected = {"circuit": "'circuit NAME'", "inputs": "'inputs'", "body": "'outputs'", "end": "'end'"}
        raise fail(0, 0, "syntax", f"unexpected end of document, expected {expected[state]}")
    netlist = Netlist(name, inputs, constants, gates, outputs)

    def place(v: Violation) -> tuple[int, int]:
        """(line, token) of a finding's wire, from its position in the netlist."""
        p = v.position
        if v.gate_index is not None:
            if p is None:
                return gate_at[v.gate_index], 1  # an arity mismatch sits on the gate name
            # gate NAME IN... -> OUT...: an output sits one token further, past the '->'
            return gate_at[v.gate_index], 2 + p + (p >= len(gates[v.gate_index].inputs))
        if p is None:
            return circuit_at, 1  # a finding about the whole circuit sits on its name
        if v.rule in _OUTPUT_RULES:
            return outputs_at, 1 + p
        if p < len(inputs):
            return inputs_at, 1 + p
        # const WIRE BIT: a bad constant sits on its bit
        return const_at[p - len(inputs)], 2 if v.rule == "bad-constant" else 1

    if skipped:
        # a wire that only a skipped gate line defines is explained by that line's finding
        skipped.difference_update(inputs, (wire for wire, _bit in constants), *(g.outputs for g in gates))
    for v in validate(netlist):
        if v.severity == "error" and (v.wire not in skipped or v.rule not in _SKIPPED_RULES):
            diagnostics.append(ParseDiagnostic(*place(v), v.rule, v.message))
    if not diagnostics:
        return netlist
    diagnostics.sort(key=lambda d: (d.line, d.token))
    raise NetlistParseError(diagnostics)


def serialize_netlist(netlist: Netlist) -> str:
    """Canonical text form of a valid netlist; stable across runs."""
    require_valid(netlist)
    lines = [f"circuit {netlist.name}"]
    # one definition per name in a valid netlist: the first use of each name fixes the order
    declared = {inst.gate.name: inst.gate for inst in netlist.gates if inst.gate.name not in BUILTIN_GATES}
    for gate in declared.values():
        cost = "unknown" if gate.quantum_cost is None else gate.quantum_cost
        logic = gate.logic_cost
        rows = " ".join(format(pattern, f"0{gate.arity}b") for pattern in gate.table)
        lines.append(f"define {gate.name} {cost} {logic.xors} {logic.ands} {logic.nots} {rows}")
    lines.append(" ".join(["inputs", *netlist.primary_inputs]).rstrip())
    for wire, bit in netlist.constants:
        lines.append(f"const {wire} {bit}")
    for inst in netlist.gates:
        lines.append(f"gate {inst.gate.name} {' '.join(inst.inputs)} -> {' '.join(inst.outputs)}")
    lines.append(" ".join(["outputs", *netlist.primary_outputs]).rstrip())
    lines.append("end")
    return "\n".join(lines) + "\n"
