"""Text format tests: parsing, diagnostics, canonical serialization, round trips."""

import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import revlogic.netlist
from revlogic import (
    BUILTIN_GATES,
    GateDefinition,
    GateInstance,
    InvalidNetlistError,
    LogicCost,
    Netlist,
    NetlistParseError,
    analyze,
    build_bcd_adder,
    build_bcd_chain,
    build_ripple_adder,
    builtin,
    garbage_wires,
    is_valid,
    parse_netlist,
    require_valid,
    run,
    serialize_netlist,
    validate,
)
from revlogic.gates import MAX_COST
from helpers import random_netlist

MINIMAL = """\
circuit c
inputs a b
gate FG a b -> p q
outputs p q
end
"""


def test_parse_minimal_document():
    n = parse_netlist(MINIMAL)
    assert n.name == "c"
    assert n.primary_inputs == ("a", "b")
    assert len(n.gates) == 1
    assert n.gates[0].gate.name == "FG"
    assert n.primary_outputs == ("p", "q")
    assert validate(n) == []


def test_parse_comments_and_blank_lines():
    text = "# header\ncircuit c\n\ninputs a b  # two wires\ngate FG a b -> p q\noutputs p q\nend\n"
    assert parse_netlist(text).name == "c"


def diagnostics_of(text):
    with pytest.raises(NetlistParseError) as excinfo:
        parse_netlist(text)
    return excinfo.value.diagnostics


def test_fan_out_diagnostic_positioned():
    text = MINIMAL.replace("gate FG a b", "gate FG a a")
    diags = diagnostics_of(text)
    assert any(d.rule == "fan-out" and d.line == 3 and d.token == 3 for d in diags)


def test_use_before_definition_diagnostic():
    text = "circuit c\ninputs a\ngate FG a ghost -> p q\noutputs p q\nend\n"
    diags = diagnostics_of(text)
    assert any(d.rule == "use-before-definition" and d.line == 3 for d in diags)


def test_arity_mismatch_diagnostic():
    text = "circuit c\ninputs a b c\ngate FG a b c -> p q r\noutputs p q r\nend\n"
    diags = diagnostics_of(text)
    assert any(d.rule == "arity-mismatch" and d.line == 3 for d in diags)


def test_redefinition_diagnostic():
    text = "circuit c\ninputs a b\ngate FG a b -> p p\noutputs p\nend\n"
    diags = diagnostics_of(text)
    assert any(d.rule == "redefinition" and d.line == 3 for d in diags)


def test_unknown_gate_diagnostic():
    text = "circuit c\ninputs a b\ngate NOPE a b -> p q\noutputs a b\nend\n"
    diags = diagnostics_of(text)
    assert any(d.rule == "unknown-gate" and d.line == 3 and d.token == 1 for d in diags)


def test_undefined_output_diagnostic():
    text = "circuit c\ninputs a\noutputs ghost\nend\n"
    diags = diagnostics_of(text)
    assert any(d.rule == "undefined-output" for d in diags)


def test_bad_constant_diagnostic():
    text = "circuit c\ninputs\nconst k 7\noutputs k\nend\n"
    diags = diagnostics_of(text)
    assert any(d.rule == "bad-constant" and d.line == 3 and d.token == 2 for d in diags)


def test_structural_errors():
    for text in (
        "",
        "inputs a\n",
        "circuit c\ninputs a\n",  # missing outputs/end
        "circuit c\ninputs a\noutputs a\n",  # missing end
        "circuit c\ninputs a\noutputs a\nend\nextra\n",
        "circuit c\ninputs a\ngate FG a -> p\nconst k 0\noutputs p\nend\n",  # const after gate
        "circuit c\ninputs a b\ngate FG a b p q\noutputs p q\nend\n",  # missing ->
    ):
        with pytest.raises(NetlistParseError):
            parse_netlist(text)


def test_multiple_diagnostics_collected():
    text = "circuit c\ninputs a a\ngate FG a ghost -> p q\noutputs p q miss\nend\n"
    diags = diagnostics_of(text)
    assert len(diags) >= 3
    rules = {d.rule for d in diags}
    assert {"redefinition", "use-before-definition", "undefined-output"} <= rules


def test_serialize_canonical_and_idempotent():
    messy = "circuit c\n# note\ninputs   a   b\ngate  FG a b ->  p q\noutputs p   q\nend\n"
    n = parse_netlist(messy)
    canonical = serialize_netlist(n)
    assert canonical == MINIMAL
    assert serialize_netlist(parse_netlist(canonical)) == canonical


def test_round_trip_builders():
    for n in (
        build_ripple_adder(),
        build_bcd_adder("bcd1"),
        build_bcd_adder("bcd2"),
        build_bcd_adder("bcd2", carry_in="const"),
        build_bcd_chain(2),
    ):
        assert parse_netlist(serialize_netlist(n)) == n


def test_serialized_gate_lines():
    ripple = serialize_netlist(build_ripple_adder())
    assert ripple.count("gate PFAG") == 4
    bcd2 = serialize_netlist(build_bcd_adder("bcd2"))
    assert bcd2.count("gate HNFG") == 1
    assert bcd2.count("gate PFAG") == 10
    assert bcd2.count("gate FG") == 2
    assert bcd2.count("gate PG ") == 1


def test_parse_with_declared_gate():
    define = "define SWAP 3 0 0 0 00 10 01 11\n"
    text = f"circuit s\n{define}inputs a b\ngate SWAP a b -> p q\noutputs p q\nend\n"
    n = parse_netlist(text)
    assert n.gates[0].gate == GateDefinition.from_table("SWAP", [[0, 0], [1, 0], [0, 1], [1, 1]], 3)
    result = run(n, {"a": 1, "b": 0})
    assert result.primary_out == {"p": 0, "q": 1}
    assert serialize_netlist(n) == text
    # a gate is known to the document that declares it, and to no other
    assert diagnostics_of(text.replace(define, ""))[0][:3] == (3, 1, "unknown-gate")
    # counts are ASCII digits only, though int() takes all of these, and at most MAX_COST
    for count in ("+3", "٣", "3_0", str(MAX_COST + 1)):
        for at in range(2, 6):
            tokens = define.split()
            tokens[at] = count
            assert diagnostics_of(text.replace(define, " ".join(tokens) + "\n"))[0][:3] == (2, 1, "bad-gate-definition")


def test_counts_at_the_bound_round_trip():
    gate = GateDefinition("X", 1, (1, 0), MAX_COST, LogicCost(MAX_COST, MAX_COST, MAX_COST))
    n = Netlist("c", ("a",), (), (GateInstance(gate, ("a",), ("p",)),), ("p",))
    text = serialize_netlist(n)
    assert f"define X {MAX_COST} {MAX_COST} {MAX_COST} {MAX_COST} 1 0\n" in text
    assert parse_netlist(text) == n


def test_serialize_rejects_invalid_netlist():
    from revlogic import InvalidNetlistError, Netlist

    with pytest.raises(InvalidNetlistError):
        serialize_netlist(Netlist("bad", ("a", "a"), (), (), ()))


def test_empty_sections_round_trip():
    text = "circuit empty\ninputs\noutputs\nend\n"
    n = parse_netlist(text)
    assert n.primary_inputs == () and n.primary_outputs == ()
    assert serialize_netlist(n) == text


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_random_netlists(seed):
    n = random_netlist(random.Random(seed))
    assert parse_netlist(serialize_netlist(n)) == n


# one document per rule a text can break: the expected (rule, line, token) of every diagnostic, in order
POSITIONED = [
    ("circuit c\ninputs a b\ngate FG a a -> p q\noutputs p q\nend\n", [("fan-out", 3, 3)]),
    ("circuit c\ninputs a\ngate TG a a a -> p q r\noutputs p q r\nend\n", [("fan-out", 3, 3), ("fan-out", 3, 4)]),
    ("circuit c\ninputs a b\ngate FG a b -> p q\noutputs a p q\nend\n", [("fan-out", 4, 1)]),
    ("circuit c\ninputs a b\ngate FG a b -> p q\noutputs a a\nend\n", [("fan-out", 4, 1), ("duplicate-output", 4, 2)]),
    ("circuit c\ninputs a\ngate FG a ghost -> p q\noutputs p q\nend\n", [("use-before-definition", 3, 3)]),
    (
        "circuit c\ninputs\ngate FG g g -> p q\noutputs p q\nend\n",
        [("use-before-definition", 3, 2), ("use-before-definition", 3, 3)],
    ),
    ("circuit c\ninputs a a\noutputs a\nend\n", [("redefinition", 2, 2)]),
    ("circuit c\ninputs a\nconst a 0\noutputs a\nend\n", [("redefinition", 3, 1)]),
    ("circuit c\ninputs a b\ngate FG a b -> p p\noutputs p\nend\n", [("redefinition", 3, 6)]),
    ("circuit c\ninputs a b\ngate FG a b -> a q\noutputs q\nend\n", [("redefinition", 3, 5)]),
    ("circuit c\ninputs 1a\noutputs 1a\nend\n", [("bad-wire-name", 2, 1)]),
    ("circuit c\ninputs a b\ngate FG a b -> p 9q\noutputs p 9q\nend\n", [("bad-wire-name", 3, 6)]),
    ("circuit c\ninputs\nconst k 7\noutputs k\nend\n", [("bad-constant", 3, 2)]),
    ("circuit c\ninputs\nconst k 0\nconst k x\noutputs k\nend\n", [("redefinition", 4, 1), ("bad-constant", 4, 2)]),
    ("circuit c\ninputs\nconst k 7\nconst k 0\noutputs k\nend\n", [("bad-constant", 3, 2), ("redefinition", 4, 1)]),
    ("circuit c\ninputs a b c\ngate FG a b c -> p q r\noutputs p q r\nend\n", [("arity-mismatch", 3, 1)]),
    ("circuit c\ninputs a b\ngate FG a b -> p q\noutputs p p\nend\n", [("duplicate-output", 4, 2)]),
    ("circuit c\ninputs a\noutputs a ghost\nend\n", [("undefined-output", 3, 2)]),
    ("circuit c\ninputs\noutputs g g\nend\n", [("undefined-output", 3, 1), ("duplicate-output", 3, 2)]),
    (
        "circuit c\ninputs a b\ngate NOPE a b -> p q\ngate FG p q -> r s\noutputs r s\nend\n",
        [("unknown-gate", 3, 1)],
    ),
    (
        "circuit c\ninputs a a\ngate FG a ghost -> p q\noutputs p q miss\nend\n",
        [("redefinition", 2, 2), ("use-before-definition", 3, 3), ("undefined-output", 4, 3)],
    ),
    ("circuit 1c\ninputs a b\ngate FG a a -> p q\noutputs p q\nend\n", [("bad-circuit-name", 1, 1), ("fan-out", 3, 3)]),
    # a built-in's name is taken: the gate line still means the built-in
    (
        "circuit c\ndefine FG 1 1 0 0 11 01 10 00\ninputs a b\ngate FG a b -> p q\noutputs p q\nend\n",
        [("gate-name-clash", 2, 1)],
    ),
    (
        "circuit c\ndefine S 3 0 0 0 00 00 01 11\ninputs a b\ngate S a b -> p q\noutputs p q\nend\n",
        [("bad-gate-definition", 2, 1)],
    ),
    # a skipped gate line explains only the wires that nothing else defines
    (
        "circuit c\ninputs a b\ngate NOPE a b -> p q\noutputs p q miss\nend\n",
        [("unknown-gate", 3, 1), ("undefined-output", 4, 3)],
    ),
    (
        "circuit c\ninputs a b c d\ngate NOPE a b -> p q\ngate FG p q -> r s\ngate FG c d -> p q\noutputs r s\nend\n",
        [("unknown-gate", 3, 1), ("use-before-definition", 4, 2), ("use-before-definition", 4, 3)],
    ),
]


@pytest.mark.parametrize("text, expected", POSITIONED)
def test_wire_rule_diagnostics_positioned(text, expected):
    diags = diagnostics_of(text)
    assert [(d.rule, d.line, d.token) for d in diags] == expected
    assert diags == sorted(diags, key=lambda d: (d.line, d.token))
    for d in diags:
        assert f"line {d.line}, token {d.token}: [{d.rule}]" in str(d)


@settings(max_examples=200, deadline=None)
@given(st.text() | st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True))
@example("my adder")
@example("")
@example("1x")
def test_circuit_name_rule_keeps_the_round_trip(name):
    body = parse_netlist(MINIMAL)
    n = Netlist(name, body.primary_inputs, body.constants, body.gates, body.primary_outputs)
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        assert validate(n) == []
        assert parse_netlist(serialize_netlist(n)) == n
        return
    (finding,) = validate(n)
    assert finding.rule == "bad-circuit-name" and finding.severity == "error"
    assert (finding.wire, finding.gate_index, finding.position) == (None, None, None)
    for refused in (serialize_netlist, analyze, lambda n: run(n, {"a": 0, "b": 0})):
        with pytest.raises(InvalidNetlistError):
            refused(n)


@pytest.mark.parametrize("bit", [True, False, 1.0, 0.0, "1", 0, 1])
def test_constant_rule_keeps_the_round_trip(bit):
    gate = GateInstance(builtin("FG"), ("a", "k"), ("p", "q"))
    n = Netlist("c", ("a",), (("k", bit),), (gate,), ("p", "q"))
    if type(bit) is int:
        assert validate(n) == []
        assert parse_netlist(serialize_netlist(n)) == n
        return
    # True == 1 and 1.0 == 1, but serialized they read 'True' and '1.0', which the parser refuses
    (finding,) = validate(n)
    assert finding.rule == "bad-constant" and finding.severity == "error"
    assert (finding.wire, finding.gate_index, finding.position) == ("k", None, 1)
    with pytest.raises(InvalidNetlistError):
        serialize_netlist(n)


# characters at which str.splitlines ends a line but the netlist format does not
NOT_NEWLINES = ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NOT_NEWLINES)
def test_only_universal_newlines_end_a_line(char):
    text = MINIMAL.replace("inputs a b", f"inputs a b # x{char}y")
    fanout = text.replace("FG a b", "FG a a")
    for newline in ("\n", "\r\n", "\r"):
        # the comment runs to the end of its line, and later lines keep their \n-counted numbers
        assert parse_netlist(text.replace("\n", newline)) == parse_netlist(MINIMAL)
        diags = diagnostics_of(fanout.replace("\n", newline))
        assert [(d.rule, d.line, d.token) for d in diags] == [("fan-out", 3, 3)]


def test_parsed_netlist_is_not_checked_again(monkeypatch):
    text = serialize_netlist(build_bcd_adder("bcd2"))
    calls = []
    original = revlogic.netlist._check

    def counting(netlist):
        calls.append(netlist)
        return original(netlist)

    monkeypatch.setattr(revlogic.netlist, "_check", counting)
    n = parse_netlist(text)
    assert len(calls) == 1 and calls[0] is n
    assert validate(n) == []
    require_valid(n)
    assert is_valid(n)
    garbage_wires(n)
    assert len(calls) == 1


KEYWORDS = ["circuit", "define", "inputs", "const", "gate", "outputs", "end", "->"]
COUNTS = ["0", "1", "7", "unknown", "٣", "+3"]
BITSTRINGS = ["00", "01", "10", "11", "0", "1", "0x", "011"]
GATE_NAMES = ["FG", "PG", "TG", "FRG", "PFAG", "HNG", "HNFG", "NOPE"]
WIRES = ["a", "b", "c", "p", "q", "k", "_w1", "1a", "-", "a-b", "#x"]
soup_line = st.lists(st.sampled_from(KEYWORDS + COUNTS + GATE_NAMES + WIRES + BITSTRINGS), max_size=7).map(" ".join)
# a define line: a real or bad name, counts and bitstrings, sometimes too short
define_line = st.lists(st.sampled_from(["S", "FG", "1a", *COUNTS, *BITSTRINGS]), max_size=8).map(
    lambda tokens: " ".join(["define", *tokens])
)


@st.composite
def soup_documents(draw):
    """Token soup, mostly behind a well-formed header so the body and the wire rules are reached."""
    body = draw(st.lists(soup_line, max_size=8))
    if draw(st.booleans()):
        defines = draw(st.lists(define_line, max_size=3))
        body = ["circuit c", *defines, "inputs " + draw(soup_line), *body, "outputs " + draw(soup_line), "end"]
    return "\n".join(body) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), soup_documents()))
def test_parser_is_total(text):
    try:
        parse_netlist(text)
    except NetlistParseError as exc:
        assert exc.diagnostics


def render(n):
    """Document text of any netlist, valid or not (serialize_netlist takes only valid ones)."""
    lines = [f"circuit {n.name}"]
    declared = {inst.gate.name: inst.gate for inst in n.gates if inst.gate.name not in BUILTIN_GATES}
    for gate in declared.values():
        cost = "unknown" if gate.quantum_cost is None else gate.quantum_cost
        logic = gate.logic_cost
        rows = (format(pattern, f"0{gate.arity}b") for pattern in gate.table)
        lines.append(" ".join(["define", gate.name, str(cost), str(logic.xors), str(logic.ands), str(logic.nots), *rows]))
    lines.append(" ".join(["inputs", *n.primary_inputs]))
    lines += [f"const {wire} {bit}" for wire, bit in n.constants]
    lines += [" ".join(["gate", inst.gate.name, *inst.inputs, "->", *inst.outputs]) for inst in n.gates]
    lines += [" ".join(["outputs", *n.primary_outputs]), "end"]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_parse_reports_exactly_validates_errors(seed):
    rng = random.Random(seed)
    n = random_netlist(rng)
    if n.gates:
        # rewire one gate input to another existing wire or a fresh one
        index = rng.randrange(len(n.gates))
        inst = n.gates[index]
        wires = [*n.primary_inputs, *n.constant_wires, *(w for g in n.gates for w in g.outputs), "fresh"]
        inputs = list(inst.inputs)
        inputs[rng.randrange(len(inputs))] = rng.choice(wires)
        gates = list(n.gates)
        gates[index] = GateInstance(inst.gate, inputs, inst.outputs)
        n = Netlist(n.name, n.primary_inputs, n.constants, gates, n.primary_outputs)
    errors = [v for v in validate(n) if v.severity == "error"]
    text = render(n)
    try:
        parsed = parse_netlist(text)
    except NetlistParseError as exc:
        diags = exc.diagnostics
    else:
        assert not errors and parsed == n
        return
    assert errors
    assert Counter(d.rule for d in diags) == Counter(v.rule for v in errors)
    # each diagnostic sits on the wire (or, for a gate finding, the gate name) it is about
    lines = text.splitlines()
    about = Counter((v.rule, v.wire if v.wire is not None else n.gates[v.gate_index].gate.name) for v in errors)
    assert Counter((d.rule, lines[d.line - 1].split()[d.token]) for d in diags) == about
