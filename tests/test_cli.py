"""End-to-end CLI tests driving revlogic.cli.main."""

import contextlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import revlogic
from revlogic import GateInstance, Netlist, build_ripple_adder, builtin, parse_netlist, serialize_netlist, truth_table
from revlogic.cli import main
from revlogic.simulate import DEFAULT_COUNTEREXAMPLE_LIMIT

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


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["metrics", str(tmp_path / "nope.net")]) == 2


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
        rows = truth_table(parse_netlist(text))
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
    text = open(path).read().replace("outputs s3 s2 s1 s0 c4", "outputs s3 s2 s0 s1 c4")
    mutated = str(tmp_path / "bad.net")
    open(mutated, "w").write(text)
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
