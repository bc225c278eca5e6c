"""Line-oriented netlist text format and canonical serialization.

Document grammar (``#`` starts a comment, tokens are whitespace
separated, sections appear in this order):

    circuit NAME
    inputs WIRE...
    const WIRE BIT              (zero or more)
    gate NAME IN... -> OUT...   (zero or more, in execution order)
    outputs WIRE...
    end

The parser checks this grammar and the gate names.  The wire rules are
``netlist.validate``'s, run once on the parsed netlist, and its errors
are reported at their source positions.  Parsing either returns a
complete, validated netlist or raises NetlistParseError carrying
positioned diagnostics; no partial netlist escapes a failed parse.
Serialization is canonical and deterministic, and parse(serialize(n))
reproduces n exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gates import DEFAULT_REGISTRY, IDENT_RE, GateLookupError, GateRegistry
from .netlist import GateInstance, Netlist, Violation, require_valid, validate

_BITS = {"0": 0, "1": 1}


@dataclass(frozen=True)
class ParseDiagnostic:
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def parse_netlist(text: str, registry: GateRegistry | None = None) -> Netlist:
    """Parse a netlist document, resolving gate names against a registry.

    Raises NetlistParseError with positioned diagnostics for grammar
    problems, unknown gates and every error ``validate`` finds (arity
    mismatch, bad wire name, bad constant, redefinition, use before
    definition, fan-out, duplicate or undefined output).  Warnings do
    not fail a parse.  The returned netlist's validation is cached.
    """
    reg = DEFAULT_REGISTRY if registry is None else registry
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
    inputs_at = outputs_at = 0
    const_at: list[int] = []
    gate_at: list[int] = []  # indexed like the netlist's gates

    state = "circuit"
    for lineno, tokens in _tokenize(text):
        key = tokens[0]
        if state == "circuit":
            if key != "circuit" or len(tokens) != 2:
                raise fail(lineno, 0, "syntax", "expected 'circuit NAME'")
            if not IDENT_RE.match(tokens[1]):
                raise fail(lineno, 1, "syntax", f"bad circuit name {tokens[1]!r}")
            name = tokens[1]
            state = "inputs"
        elif state == "inputs":
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
                try:
                    gate = reg.get(tokens[1])
                except GateLookupError:
                    diagnostics.append(ParseDiagnostic(lineno, 1, "unknown-gate", f"unknown gate {tokens[1]!r}"))
                    continue
                if "->" not in tokens:
                    raise fail(lineno, 2, "syntax", "gate line is missing '->'")
                arrow = tokens.index("->")
                gates.append(GateInstance(gate, tokens[2:arrow], tokens[arrow + 1 :]))
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
    errors = [v for v in validate(netlist) if v.severity == "error"]
    if not errors and not diagnostics:
        return netlist
    lines = dict(_tokenize(text))
    groups: dict[tuple, list[Violation]] = {}
    for v in errors:
        groups.setdefault((v.rule, v.gate_index, v.wire), []).append(v)
    for group in groups.values():
        # the k findings for one (rule, place, wire) sit on its last k occurrences there
        places = _occurrences(group[0], lines, inputs_at, const_at, gate_at, outputs_at)
        for v, (lineno, token) in zip(group, places[len(places) - len(group) :]):
            diagnostics.append(ParseDiagnostic(lineno, token, v.rule, v.message))
    diagnostics.sort(key=lambda d: (d.line, d.token))
    raise NetlistParseError(diagnostics)


def _occurrences(v: Violation, lines, inputs_at, const_at, gate_at, outputs_at) -> list[tuple[int, int]]:
    """(line, token) of each occurrence of a finding's wire in its place, in order.

    A rule breaks on a suffix of those: the first occurrence is legal and
    later ones fan out or redefine, or else every one is bad.  validate
    reports undefined-output and outputs-line fan-out once per wire, so
    only the first listing counts for them.
    """
    if v.gate_index is not None:
        lineno = gate_at[v.gate_index]
        if v.wire is None:
            return [(lineno, 1)]
        tokens = lines[lineno]
        arrow = tokens.index("->")
        side = range(2, arrow) if v.rule in ("use-before-definition", "fan-out") else range(arrow + 1, len(tokens))
        return [(lineno, t) for t in side if tokens[t] == v.wire]
    if v.rule in ("redefinition", "bad-wire-name"):
        tokens = lines[inputs_at]
        places = [(inputs_at, t) for t in range(1, len(tokens)) if tokens[t] == v.wire]
        return places + [(lineno, 1) for lineno in const_at if lines[lineno][1] == v.wire]
    if v.rule == "bad-constant":
        return [(lineno, 2) for lineno in const_at if lines[lineno][1] == v.wire and lines[lineno][2] not in _BITS]
    if v.rule in ("duplicate-output", "undefined-output", "fan-out"):
        tokens = lines[outputs_at]
        places = [(outputs_at, t) for t in range(1, len(tokens)) if tokens[t] == v.wire]
        return places if v.rule == "duplicate-output" else places[:1]
    return [(0, 0)]


def serialize_netlist(netlist: Netlist) -> str:
    """Canonical text form of a valid netlist; stable across runs."""
    require_valid(netlist)
    lines = [f"circuit {netlist.name}"]
    lines.append(" ".join(["inputs", *netlist.primary_inputs]).rstrip())
    for wire, bit in netlist.constants:
        lines.append(f"const {wire} {bit}")
    for inst in netlist.gates:
        lines.append(f"gate {inst.gate.name} {' '.join(inst.inputs)} -> {' '.join(inst.outputs)}")
    lines.append(" ".join(["outputs", *netlist.primary_outputs]).rstrip())
    lines.append("end")
    return "\n".join(lines) + "\n"
