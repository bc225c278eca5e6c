"""End-to-end CLI tests driving revlogic.cli.main."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import revlogic
from revlogic import GateInstance, Netlist, build_ripple_adder, builtin, parse_netlist, serialize_netlist, truth_table
from revlogic import cli
from revlogic.cli import main
from revlogic.simulate import DEFAULT_COUNTEREXAMPLE_LIMIT

from helpers import _build_parser

GOOD = """\
circuit c
inputs a b
gate FG a b -> p q
outputs p q
end
"""

FAN_OUT = """\
circuit c
inputs a b
gate FG a a -> p q
outputs p q
end
"""


@pytest.fixture
def netfile(tmp_path):
    def write(text, name="c.net"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_validate_ok(netfile, capsys):
    assert main(["validate", netfile(GOOD)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_warning_still_ok(netfile, capsys):
    text = "circuit c\ninputs a\nconst k 0\noutputs a\nend\n"
    assert main(["validate", netfile(text)]) == 0
    out = capsys.readouterr().out
    assert "warning: [unused-constant]" in out
    assert "ok" in out


def test_parse_error_exits_2(netfile, capsys):
    assert main(["validate", netfile(FAN_OUT)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "line 3" in err


def test_parse_error_names_rule(netfile, capsys):
    assert main(["validate", netfile(FAN_OUT)]) == 2
    assert "parse error: line 3, token 3: [fan-out]" in capsys.readouterr().err


def test_bad_circuit_name_is_a_positioned_parse_error(netfile, capsys):
    assert main(["validate", netfile("circuit 1c\ninputs a\noutputs a\nend\n")]) == 2
    err = capsys.readouterr().err
    assert err == "parse error: line 1, token 1: [bad-circuit-name] circuit name '1c' is not a valid identifier\n"


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["metrics", str(tmp_path / "nope.net")]) == 2


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.net"
    path.write_bytes(b"\xff\xfe")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path} is not UTF-8 text")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sim"])  # missing required file and mode
    assert excinfo.value.code == 2


def test_build_and_metrics_json(netfile, tmp_path, capsys):
    out_path = str(tmp_path / "bcd2.net")
    assert main(["build", "bcd2", "-o", out_path]) == 0
    assert main(["metrics", out_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "gate_count": 14,
        "gates": {"FG": 2, "HNFG": 1, "PFAG": 10, "PG": 1},
        "quantum_cost": 88,
        "garbage": 23,
        "constants": 19,
        "logical": {"xor": 56, "and": 21, "not": 0},
    }


def test_metrics_text_bcd2(tmp_path, capsys):
    path = str(tmp_path / "bcd2.net")
    main(["build", "bcd2", "-o", path])
    assert main(["metrics", path]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "circuit bcd2",
        "gate_count 14",
        "gates 10 PFAG + 2 FG + 1 HNFG + 1 PG = 14",
        "quantum_cost 88",
        "constants 19",
        "garbage 23",  # computed by line conservation; the paper claims 24
        "logical 56α+21β",
    ]


def test_build_to_stdout_parses(capsys):
    assert main(["build", "ripple4"]) == 0
    out = capsys.readouterr().out
    assert out == serialize_netlist(build_ripple_adder())


def test_build_carry_in_const(capsys):
    assert main(["build", "bcd1", "--carry-in", "const"]) == 0
    out = capsys.readouterr().out
    assert "const cin 0" in out
    assert "inputs a3 a2 a1 a0 b3 b2 b1 b0\n" in out


def test_build_usage_errors(capsys):
    assert main(["build", "bcd-chain"]) == 2  # digit count required
    assert main(["build", "ripple4", "2"]) == 2
    assert main(["build", "ripple4", "--carry-in", "const"]) == 2
    assert main(["build", "bcd-chain", "0"]) == 2


def test_build_reads_a_digit_count_past_a_flag(tmp_path, capsys):
    # as the standard parser reads it from Python 3.12.7: a ? positional the first run left unfilled takes a later one
    late, early = tmp_path / "late.net", tmp_path / "early.net"
    assert main(["build", "bcd-chain", "-o", str(late), "2"]) == 0
    assert main(["build", "bcd-chain", "2", "-o", str(early)]) == 0
    assert late.read_text(encoding="utf-8") == early.read_text(encoding="utf-8")
    assert parse_netlist(late.read_text(encoding="utf-8")).name == "bcd_chain2"
    capsys.readouterr()
    # the slot takes one positional; and only a ? slot does: compare's files are filled from their first run
    for argv, left in (
        (["build", "bcd-chain", "--carry-in", "const", "-o", str(late), "2", "3"], "3"),
        (["compare", "a.net", "--json", "b.net"], "b.net"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"revlogic {argv[0]}: error: unrecognized arguments: {left}"


def test_sim_single_pattern(tmp_path, capsys):
    path = str(tmp_path / "r.net")
    main(["build", "ripple4", "-o", path])
    capsys.readouterr()
    # a=7, b=5, cin=0 -> sum 12 (1100), carry 0
    assert main(["sim", path, "--in", "011101010"]) == 0
    out = capsys.readouterr().out
    assert "outputs 11000" in out


def test_sim_bad_bitstring(tmp_path, capsys):
    path = str(tmp_path / "r.net")
    main(["build", "ripple4", "-o", path])
    capsys.readouterr()
    for bits in ("0101", "01x101010"):
        assert main(["sim", path, "--in", bits]) == 2
        captured = capsys.readouterr()
        assert "--in must be a bitstring" in captured.err
        assert captured.out == ""  # refused before the header lines


def test_inverse_bad_bitstring(tmp_path, capsys):
    path = str(tmp_path / "r.net")
    main(["build", "ripple4", "-o", path])
    capsys.readouterr()
    assert main(["inverse", path, "--out", "0"]) == 2
    captured = capsys.readouterr()
    assert "--out must be a bitstring" in captured.err
    assert captured.out == ""


def test_sim_exhaustive_row_count(netfile, capsys):
    assert main(["sim", netfile(GOOD), "--exhaustive", "--show-garbage"]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = [line for line in out if not line.startswith("#")]
    assert len(rows) == 4
    assert rows[0] == "00 -> 00 |"


def wide_text(width):
    """A gate-free netlist whose inputs are its outputs: a 2^width-row table, cheap to compute."""
    wires = " ".join(f"i{k}" for k in range(width))
    return f"circuit wide\ninputs {wires}\noutputs {wires}\nend\n"


def test_sim_exhaustive_streams_rows(netfile):
    text = wide_text(14)
    path = netfile(text)
    tracemalloc.start()
    try:
        rows = list(truth_table(parse_netlist(text)))
        table = tracemalloc.get_traced_memory()[0]
        del rows
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main(["sim", path, "--exhaustive", "--show-garbage"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the 16384 rows as a list take megabytes; streaming holds one block of at most 4096 patterns
    assert peak * 10 < table


def test_sim_closed_pipe_exits_141_quietly(netfile):
    src = str(Path(revlogic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "revlogic.cli", "sim", netfile(wide_text(16)), "--exhaustive"]
    # 65536 rows overflow any pipe buffer, so the command is still writing when the reader leaves
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"# inputs: i0 ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def test_sim_max_inputs_refusal(netfile, capsys):
    assert main(["sim", netfile(wide_text(21)), "--exhaustive"]) == 2
    captured = capsys.readouterr()
    assert "--max-inputs" in captured.err
    assert captured.out == ""  # refused before the header lines
    assert main(["sim", netfile(wide_text(9)), "--exhaustive", "--max-inputs", "8"]) == 2
    captured = capsys.readouterr()
    assert "limit of 8" in captured.err
    assert captured.out == ""


def test_empty_wire_lists_end_at_their_label(netfile, capsys):
    pfag, hnfg = builtin("PFAG"), builtin("HNFG")
    gates = (
        GateInstance(pfag, ("a", "b", "c", "d"), ("p", "q", "r", "s")),
        GateInstance(hnfg, ("s", "r", "q", "p"), ("w", "x", "y", "z")),
    )
    full = netfile(serialize_netlist(Netlist("full", ("a", "b", "c", "d"), (), gates, ("w", "x", "y", "z"))), "full.net")
    assert main(["sim", full, "--in", "0101", "--show-garbage"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["# inputs: a b c d", "# outputs: w x y z", "# garbage:", lines[3], "garbage"]
    assert re.fullmatch("outputs [01]{4}", lines[3])
    empty = netfile(serialize_netlist(Netlist("empty", (), (), (), ())), "empty.net")
    assert main(["sim", empty, "--in", "", "--show-garbage"]) == 0
    assert capsys.readouterr().out == "# inputs:\n# outputs:\n# garbage:\noutputs\ngarbage\n"
    assert main(["inverse", empty, "--out", ""]) == 0
    assert capsys.readouterr().out == "# terminals:\n# inputs:\ninputs\nconstants\n"
    # an exhaustive row joins its non-empty parts by single spaces
    assert main(["sim", empty, "--exhaustive", "--show-garbage"]) == 0
    assert capsys.readouterr().out == "# inputs:\n# outputs:\n# garbage:\n-> |\n"
    assert main(["sim", empty, "--exhaustive"]) == 0
    assert capsys.readouterr().out == "# inputs:\n# outputs:\n->\n"
    through = netfile("circuit c\ninputs a\noutputs\nend\n", "through.net")
    assert main(["sim", through, "--exhaustive", "--show-garbage"]) == 0
    assert capsys.readouterr().out == "# inputs: a\n# outputs:\n# garbage: a\n0 -> | 0\n1 -> | 1\n"
    assert main(["sim", through, "--exhaustive"]) == 0
    assert capsys.readouterr().out == "# inputs: a\n# outputs:\n0 ->\n1 ->\n"
    assert main(["sim", full, "--exhaustive", "--show-garbage"]) == 0
    assert all(re.fullmatch("[01]{4} -> [01]{4} \\|", line) for line in capsys.readouterr().out.splitlines()[3:])


def test_inverse_round_trip(tmp_path, capsys):
    path = str(tmp_path / "r.net")
    main(["build", "ripple4", "-o", path])
    capsys.readouterr()
    # forward: a=3,b=2,cin=1 -> s=6 (0110), c4=0; garbage order is g0..g7
    assert main(["sim", path, "--in", "001100101", "--show-garbage"]) == 0
    out = capsys.readouterr().out.splitlines()
    outputs = next(l.split()[1] for l in out if l.startswith("outputs"))
    garbage = next(l.split()[1] for l in out if l.startswith("garbage"))
    assert main(["inverse", path, "--out", outputs + garbage]) == 0
    inv = capsys.readouterr().out
    assert "inputs 001100101" in inv
    assert "(declared" not in inv  # constants recovered as declared


def test_check_adder_ok(tmp_path, capsys):
    path = str(tmp_path / "r.net")
    main(["build", "ripple4", "-o", path])
    assert main(["check-adder", path, "--kind", "ripple4"]) == 0
    path2 = str(tmp_path / "b.net")
    main(["build", "bcd2", "-o", path2])
    assert main(["check-adder", path2, "--kind", "bcd"]) == 0


def test_check_adder_catches_mutation(tmp_path, capsys):
    path = str(tmp_path / "r.net")
    main(["build", "ripple4", "-o", path])
    text = Path(path).read_text().replace("outputs s3 s2 s1 s0 c4", "outputs s3 s2 s0 s1 c4")
    mutated = str(tmp_path / "bad.net")
    Path(mutated).write_text(text)
    capsys.readouterr()
    assert main(["check-adder", mutated, "--kind", "ripple4"]) == 1
    out = capsys.readouterr().out
    assert "mismatch" in out and "FAIL" in out


def test_check_adder_kind_mismatch(tmp_path, capsys):
    # a bcd netlist has 9 inputs, so the ripple4 shape check passes but
    # the binary-addition oracle finds mismatches
    path = str(tmp_path / "b.net")
    main(["build", "bcd2", "-o", path])
    assert main(["check-adder", path, "--kind", "ripple4"]) == 1
    # a 2-digit chain has 17 inputs, which is a shape error for ripple4
    chain = str(tmp_path / "c.net")
    main(["build", "bcd-chain", "2", "-o", chain])
    assert main(["check-adder", chain, "--kind", "ripple4"]) == 2
    capsys.readouterr()
    assert main(["check-adder", chain, "--kind", "bcd"]) == 2
    assert capsys.readouterr().err == "error: bcd netlists have 8 or 9 primary inputs, this one has 17\n"


def test_check_adder_chain(tmp_path, capsys):
    chain = str(tmp_path / "c.net")
    main(["build", "bcd-chain", "2", "-o", chain])
    assert main(["check-adder", chain, "--kind", "bcd-chain", "--digits", "2"]) == 0
    # digit count inferred from the input count when omitted
    assert main(["check-adder", chain, "--kind", "bcd-chain"]) == 0


@pytest.mark.parametrize("kind, design", [("bcd", "bcd2"), ("ripple4", "ripple4")])
def test_check_adder_digits_only_with_chain(kind, design, tmp_path, capsys):
    path = str(tmp_path / "a.net")
    main(["build", design, "-o", path])
    capsys.readouterr()
    assert main(["check-adder", path, "--kind", kind, "--digits", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--digits is only valid with --kind bcd-chain" in captured.err


def test_check_adder_chain_layout_named_when_digits_inferred(tmp_path, capsys):
    # 8 primary inputs fit no chain; with no --digits there is no digit count to blame
    path = str(tmp_path / "b.net")
    main(["build", "bcd1", "--carry-in", "const", "-o", path])
    capsys.readouterr()
    assert main(["check-adder", path, "--kind", "bcd-chain"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 8 primary inputs do not match a chain's 8N+1 layout (N >= 1)\n"
    assert main(["check-adder", path, "--kind", "bcd-chain", "--digits", "1"]) == 2
    assert "8 primary inputs do not match a 1-digit chain" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source, flags, code, err",
    [
        (1, ["--kind", "bcd-chain"], 2, "error: 1 primary inputs do not match a chain's 8N+1 layout (N >= 1)\n"),
        (16, ["--kind", "bcd-chain"], 2, "error: 16 primary inputs do not match a chain's 8N+1 layout (N >= 1)\n"),
        ("bcd-chain", ["--kind", "bcd-chain", "--digits", "3"], 2, "error: 17 primary inputs do not match a 3-digit chain\n"),
        ("bcd-chain", ["--kind", "bcd-chain", "--digits", "2"], 0, ""),
        ("bcd-chain", ["--kind", "ripple4"], 2, "error: ripple4 netlists have 9 primary inputs, this one has 17\n"),
        ("bcd-chain", ["--kind", "bcd"], 2, "error: bcd netlists have 8 or 9 primary inputs, this one has 17\n"),
    ],
    ids=["1-input-chain", "16-input-chain", "chain2-digits3", "chain2-digits2", "chain2-ripple4", "chain2-bcd"],
)
def test_check_adder_input_count_rules(source, flags, code, err, tmp_path, capsys):
    # an int source is a gate-free file of that many inputs; "bcd-chain" is the 17-input 2-digit chain
    path = str(tmp_path / "c.net")
    if source == "bcd-chain":
        main(["build", "bcd-chain", "2", "-o", path])
        capsys.readouterr()
    else:
        Path(path).write_text(wide_text(source))
    assert main(["check-adder", path, *flags]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert captured.out == ("ok\n" if code == 0 else "")


@pytest.mark.parametrize(
    "command, limit_0_err",
    [
        (["sim", "--exhaustive"], "error: 9 primary inputs exceed the exhaustive-enumeration limit of 0;"),
        (["sim", "--in", "000000000"], ""),  # a single run enumerates nothing
        (["check-adder", "--kind", "ripple4"], "error: 9 primary inputs exceed the exhaustive-enumeration limit of 0;"),
    ],
    ids=["sim-exhaustive", "sim-in", "check-adder"],
)
def test_a_negative_input_limit_is_refused_before_the_file_is_read(command, limit_0_err, tmp_path, capsys):
    missing = str(tmp_path / "missing.net")  # never read: the limit is refused first
    assert main([command[0], missing, *command[1:], "--max-inputs", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-inputs must be >= 0\n"
    path = str(tmp_path / "r.net")
    main(["build", "ripple4", "-o", path])
    capsys.readouterr()
    assert main([command[0], path, *command[1:], "--max-inputs", "0"]) == (2 if limit_0_err else 0)  # 0 is a limit
    assert capsys.readouterr().err.startswith(limit_0_err)


@pytest.mark.parametrize("digits", ["0", "-3"])
def test_check_adder_refuses_a_digit_count_below_one(digits, tmp_path, capsys):
    # the message build gives for the same count, not a layout mismatch against a count of no chain
    path = str(tmp_path / "c.net")
    main(["build", "bcd-chain", "1", "-o", path])
    capsys.readouterr()
    assert main(["check-adder", path, "--kind", "bcd-chain", "--digits", digits]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: digit count must be >= 1\n"
    assert main(["build", "bcd-chain", digits]) == 2
    assert capsys.readouterr().err == "error: digit count must be >= 1\n"


def test_check_adder_bcd_without_carry_in(tmp_path, capsys):
    # 8 primary inputs: the carry in is a constant line
    path = str(tmp_path / "b.net")
    main(["build", "bcd1", "--carry-in", "const", "-o", path])
    assert main(["check-adder", path, "--kind", "bcd"]) == 0


def test_check_adder_ripple_as_bcd_fails(tmp_path, capsys):
    # the shapes match (9 inputs), so only the radix tells the adders apart
    path = str(tmp_path / "r.net")
    main(["build", "ripple4", "-o", path])
    capsys.readouterr()
    assert main(["check-adder", path, "--kind", "bcd"]) == 1
    out = capsys.readouterr().out
    assert out.count("mismatch inputs=") == DEFAULT_COUNTEREXAMPLE_LIMIT
    assert f"(list capped at {DEFAULT_COUNTEREXAMPLE_LIMIT})" in out


def test_check_adder_below_cap_prints_exact_count(tmp_path, capsys):
    # three Toffolis flip s0 when c4, s3, s2 and s1 are all set: a+b+cin >= 30, 4 of 512 patterns
    n = build_ripple_adder()
    tg = builtin("TG")
    extra = (
        GateInstance(tg, ("c4", "s3", "m1"), ("c4x", "s3x", "m1x")),
        GateInstance(tg, ("m1x", "s2", "m2"), ("m1y", "s2x", "m2x")),
        GateInstance(tg, ("m2x", "s1", "s0"), ("m2y", "s1x", "s0x")),
    )
    flipped = Netlist(
        "flip", n.primary_inputs, n.constants + (("m1", 0), ("m2", 0)), n.gates + extra,
        ("s3x", "s2x", "s1x", "s0x", "c4x"),
    )
    path = tmp_path / "f.net"
    path.write_text(serialize_netlist(flipped))
    assert main(["check-adder", str(path), "--kind", "ripple4"]) == 1
    out = capsys.readouterr().out
    assert out.count("mismatch inputs=") == 4
    assert out.splitlines()[-1] == "FAIL 4 mismatches"
    assert "capped" not in out


def test_check_adder_at_cap_says_at_least(tmp_path, capsys):
    path = str(tmp_path / "r.net")
    main(["build", "ripple4", "-o", path])
    capsys.readouterr()
    assert main(["check-adder", path, "--kind", "bcd"]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    limit = DEFAULT_COUNTEREXAMPLE_LIMIT
    assert last == f"FAIL at least {limit} mismatches (list capped at {limit})"


def test_compare_with_literature(tmp_path, capsys):
    path = str(tmp_path / "b.net")
    main(["build", "bcd2", "-o", path])
    capsys.readouterr()
    assert main(["compare", path, "--with-literature"]) == 0
    out = capsys.readouterr().out
    assert "This study: Design 1" in out
    assert "Carry skip BCD adder plus fanout [17]" in out
    assert "Unknown" in out
    assert "23 (claimed 24) [!]" in out


def test_compare_json(tmp_path, capsys):
    path = str(tmp_path / "b.net")
    main(["build", "bcd1", "-o", path])
    capsys.readouterr()
    assert main(["compare", path, "--with-literature", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 7
    assert rows[0]["label"] == "bcd1"
    assert rows[0]["garbage_discrepancy"] is True


def test_check_adder_refuses_a_table_past_the_limit(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "c3.net")
    main(["build", "bcd-chain", "3", "-o", path])
    capsys.readouterr()
    assert main(["check-adder", path, "--kind", "bcd-chain"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 25 primary inputs exceed the exhaustive-enumeration limit of 20; "
        "raise it via the limit argument (--max-inputs on the command line)\n"
    )
    assert main(["check-adder", path, "--kind", "bcd-chain", "--max-inputs", "24"]) == 2
    assert "limit of 24;" in capsys.readouterr().err

    # only the limit refusal is a usage error: any other ValueError is a fault, and propagates
    def broken(*args, **kwargs):
        raise ValueError("not a limit")

    monkeypatch.setattr(revlogic.simulate, "check_equivalence", broken)
    with pytest.raises(ValueError, match="not a limit"):
        main(["check-adder", path, "--kind", "bcd-chain"])


# -- the argv reader against the argparse parser it replaced ----------------

REFERENCE = _build_parser()
SUBPARSERS = REFERENCE._subparsers._group_actions[0].choices
COMMAND_FLAGS = {name: set(sub._option_string_actions) for name, sub in SUBPARSERS.items()}
COMMAND_WORDS = [*COMMAND_FLAGS, "validates", "Sim", "check_adder"]
FLAGS = sorted({flag for flags in COMMAND_FLAGS.values() for flag in flags}) + ["--bogus", "-x", "-oa.net"]
VALUE_FLAGS = {flag for sub in SUBPARSERS.values() for action in sub._actions if action.nargs != 0 for flag in action.option_strings}
WORDS = [
    *("0", "2", "7", "24", "-1", "-3", "-1.5", "1.5", "x", "", "-"),  # ints, negative ints, other strings
    *("ripple4", "bcd1", "bcd2", "bcd-chain", "bcd", "primary", "const"),  # choice words
    *("bcd3", "ripple", "Primary", "consts", "bcd-chains"),  # near misses
    *("a.net", "dir/b.net", "c d.net", "-x y", "0101", "011101010"),  # paths and bitstrings
]
NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")


def arguments(sub):
    """Strategies for the token groups of one command: a positional, or a flag with its value."""
    groups = []
    for action in sub._actions:
        pool = list(action.choices or ()) + (["0", "2", "-3"] if action.type is int else ["a.net", "0101"])
        value = st.sampled_from(pool) | st.sampled_from(WORDS)
        if not action.option_strings:
            groups.append(value.map(lambda v: [v]))
        elif action.nargs == 0:
            groups.append(st.sampled_from(action.option_strings).map(lambda f: [f]))
        else:
            flag = st.sampled_from(action.option_strings)
            groups.append(st.tuples(flag, value).map(list) | st.builds("{}={}".format, flag, value).map(lambda t: [t]))
    return st.one_of(groups)


GROUPS = {name: arguments(sub) for name, sub in SUBPARSERS.items()}


@st.composite
def command_lines(draw):
    """A command word, then its own token groups mixed with any tokens, with at most one '--'.

    Top-level flags may come first.  A '--' comes only inside the first
    run of positionals, with a token after it: argparse 3.12.7 changed
    how it reads one before the command, at the end, or past a flag
    that follows the run.
    """
    # mostly a command and its own groups, so that many lines are well formed
    command = draw(st.sampled_from(COMMAND_WORDS if draw(st.integers(0, 9)) == 0 else list(COMMAND_FLAGS)))
    flag = st.sampled_from(FLAGS) | st.builds("{}={}".format, st.sampled_from(FLAGS), st.sampled_from(WORDS))
    other = (st.sampled_from(WORDS) | flag).map(lambda t: [t])
    head = draw(st.just([]) | st.lists(flag, max_size=1))
    rest = []
    for _ in range(draw(st.integers(0, 5))):
        rest += draw(GROUPS[command] if command in GROUPS and draw(st.integers(0, 3)) else other)
    if draw(st.booleans()):
        rest = [*draw(st.lists(st.sampled_from(WORDS), max_size=2)), "--", draw(st.sampled_from(WORDS + FLAGS)), *rest]
    return [*head, command, *rest]


def is_flag(token, flags=()):
    """Whether argparse reads a token as a flag, in a parser with these flags."""
    if token[:1] != "-" or token == "-":
        return False
    return token.partition("=")[0] in flags or not (" " in token or NEGATIVE.match(token))


def left_out(argv):
    """Whether the comparison leaves a command line out: it abbreviates a flag, or argparse's reading of it changed."""
    command = next((t for t in argv if not is_flag(t)), None)
    if command not in COMMAND_FLAGS:
        return False
    rest = argv[argv.index(command) + 1 :]
    flags = COMMAND_FLAGS[command]
    rest = rest[: rest.index("--")] if "--" in rest else rest
    for token in rest:
        head = token.partition("=")[0]
        if any(flag != head and flag.startswith(head) for flag in flags):
            return True  # an abbreviation, which the reader refuses
    # a positional past a flag that follows build's design: its digit count was refused before 3.12.7, read since
    positional = after_flag = False
    tokens = iter(rest)
    for token in tokens:
        if is_flag(token, flags):
            after_flag = positional
            if token in VALUE_FLAGS:
                next(tokens, None)
        elif after_flag and command == "build":
            return True
        else:
            positional = True
    return False


def outcome(read, argv):
    """(exit code or None, vars of the result or None, stdout, stderr) of one reading of argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(read(argv))
        except SystemExit as exc:
            return exc.code, None, out.getvalue(), err.getvalue()
    return None, result, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None)
@given(command_lines())
@example(["build", "bcd2", "-o", "bcd2.net"])
@example(["build", "bcd2", "--carry-in", "const"])
@example(["build", "bcd-chain", "-3"])
@example(["validate", "bcd2.net"])
@example(["metrics", "bcd2.net", "--json"])
@example(["sim", "bcd2.net", "--in", "100110010"])
@example(["sim", "bcd2.net", "--exhaustive", "--show-garbage", "--max-inputs", "7"])
@example(["inverse", "bcd2.net", "--out", "0101"])
@example(["check-adder", "bcd2.net", "--kind", "bcd-chain", "--digits", "2"])
@example(["compare", "bcd2.net", "--with-literature", "--json"])
@example(["sim", "a.net", "--in=0101", "--in", "1"])
@example(["validate", "--", "-h"])
@example(["sim", "a.net", "--in", "--exhaustive"])
@example(["sim", "a.net", "--in", "0101", "--exhaustive"])
@example(["build", "bcd2", "-oa.net"])
@example(["compare", "a.net", "--json", "dir/b.net"])
@example(["sim", "a.net"])
@example([])
def test_reader_agrees_with_the_argparse_parser(argv):
    assume(not left_out(argv))
    code, result, out, err = outcome(cli._read_args, argv)
    assert (code, result) == outcome(REFERENCE.parse_args, argv)[:2]
    if code == 2:
        assert out == "" and err.startswith("usage: revlogic")
        assert re.search(r"^revlogic( [a-z-]+)?: error: ", err, re.MULTILINE)
    elif code == 0:
        assert out.startswith("usage: revlogic") and err == ""
    else:
        assert out == err == ""


def test_reader_refuses_abbreviations(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sim", "a.net", "--in", "1", "--exh"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == "revlogic sim: error: unrecognized arguments: --exh"


def test_help_names_every_command_and_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert all(f"\n  {name} " in out for name in COMMAND_FLAGS)
    for name, flags in COMMAND_FLAGS.items():
        with pytest.raises(SystemExit):
            main([name, "-h"])
        out = capsys.readouterr().out
        assert out.startswith(f"usage: revlogic {name} ")
        assert all(flag in out for flag in flags)
