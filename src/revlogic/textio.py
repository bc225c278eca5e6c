"""Line-oriented netlist text format and canonical serialization.

Document grammar (lines end at LF, CR LF or CR only, ``#`` starts a
comment, tokens are whitespace separated, sections appear in this
order):

    circuit NAME
    inputs WIRE...
    const WIRE BIT              (zero or more)
    gate NAME IN... -> OUT...   (zero or more, in execution order)
    outputs WIRE...
    end

The parser checks this grammar and looks up gate names.  The name rule,
for the circuit and every wire, and the wire rules are
``netlist.validate``'s, run once on the parsed netlist.  Each of its
errors carries its wire's position in the netlist, which the parser
turns into a line and token from the line numbers it kept (a bad
circuit name sits on the name); which occurrence of a repeated wire is
at fault is decided by ``validate`` alone.  Parsing either returns a
complete, validated netlist or raises NetlistParseError carrying
positioned diagnostics; no partial netlist escapes a failed parse.
Serialization is canonical and deterministic, and parse(serialize(n))
reproduces every valid n exactly, built in code or parsed.
"""

from __future__ import annotations

from typing import NamedTuple

from .gates import DEFAULT_REGISTRY, GateLookupError, GateRegistry
from .netlist import GateInstance, Netlist, Violation, require_valid, validate

_BITS = {"0": 0, "1": 1}
# the findings whose position indexes the outputs line
_OUTPUT_RULES = ("duplicate-output", "undefined-output", "fan-out")


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
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def parse_netlist(text: str, registry: GateRegistry | None = None) -> Netlist:
    """Parse a netlist document, resolving gate names against a registry.

    Raises NetlistParseError with positioned diagnostics for grammar
    problems, unknown gates and every error ``validate`` finds (bad
    circuit or wire name, arity mismatch, bad constant, redefinition,
    use before definition, fan-out, duplicate or undefined output).
    Warnings do not fail a parse; the returned netlist's check is cached.
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

    for v in validate(netlist):
        if v.severity == "error":
            diagnostics.append(ParseDiagnostic(*place(v), v.rule, v.message))
    if not diagnostics:
        return netlist
    diagnostics.sort(key=lambda d: (d.line, d.token))
    raise NetlistParseError(diagnostics)


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
