"""Command line interface.

Exit codes: 0 success, 1 equivalence failure, 2 usage or parse error,
141 (128 + SIGPIPE, as a shell reports ``yes | head``) when the reader
of standard output closes it early.
Any wire-rule violation is a parse error, reported as
``parse error: line L, token T: [rule] message``.  Bitstrings index
wires in declaration order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .builders import adder_oracle, build_bcd_adder, build_bcd_chain, build_ripple_adder
from .metrics import analyze, compare, format_gate_multiset
from .netlist import Netlist, garbage_wires, validate
from .simulate import (
    DEFAULT_COUNTEREXAMPLE_LIMIT,
    DEFAULT_INPUT_LIMIT,
    TruthTableLimitError,
    check_equivalence,
    iter_truth_table,
    run,
    run_inverse,
)
from .textio import NetlistParseError, parse_netlist, serialize_netlist

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141


class _UsageError(Exception):
    pass


def _load(path: str) -> Netlist:
    return parse_netlist(Path(path).read_text(encoding="utf-8"))


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _bitstring(bits: Sequence[int]) -> str:
    return bytes(bits).translate(_BIT_CHARS).decode("ascii")


def _parse_bitstring(text: str, width: int, what: str) -> list[int]:
    if len(text) != width or any(ch not in "01" for ch in text):
        raise _UsageError(f"{what} must be a bitstring of length {width}, got {text!r}")
    return [int(ch) for ch in text]


def _cmd_validate(args: argparse.Namespace) -> int:
    for violation in validate(_load(args.file)):
        print(f"{violation.severity}: [{violation.rule}] {violation.message}")
    print("ok")
    return EXIT_OK


def _cmd_sim(args: argparse.Namespace) -> int:
    netlist = _load(args.file)
    garbage = garbage_wires(netlist)
    # refuse a wide table or a bad bitstring before the header is printed
    if args.exhaustive:
        rows = iter_truth_table(netlist, limit=args.max_inputs)
    else:
        bits = _parse_bitstring(args.input_bits, len(netlist.primary_inputs), "--in")
    print("# inputs: " + " ".join(netlist.primary_inputs))
    print("# outputs: " + " ".join(netlist.primary_outputs))
    if args.show_garbage:
        print("# garbage: " + " ".join(garbage))
    if args.exhaustive:
        for row in rows:
            line = f"{_bitstring(row.inputs)} -> {_bitstring(row.outputs)}"
            if args.show_garbage:
                line = f"{line} | {_bitstring(row.garbage)}".rstrip()
            print(line)
        return EXIT_OK
    result = run(netlist, dict(zip(netlist.primary_inputs, bits)))
    print("outputs " + _bitstring([result.primary_out[w] for w in netlist.primary_outputs]))
    if args.show_garbage:
        print("garbage " + _bitstring([result.garbage_out[w] for w in garbage]))
    return EXIT_OK


def _cmd_inverse(args: argparse.Namespace) -> int:
    netlist = _load(args.file)
    terminals = list(netlist.primary_outputs) + garbage_wires(netlist)
    bits = _parse_bitstring(args.output_bits, len(terminals), "--out")
    print("# terminals: " + " ".join(terminals))
    sources = run_inverse(netlist, dict(zip(terminals, bits)))
    print("# inputs: " + " ".join(netlist.primary_inputs))
    print("inputs " + _bitstring([sources[w] for w in netlist.primary_inputs]))
    parts = []
    for wire, declared in netlist.constants:
        value = sources[wire]
        parts.append(f"{wire}={value}" if value == declared else f"{wire}={value} (declared {declared})")
    print(" ".join(["constants", *parts]).rstrip())
    return EXIT_OK


def _cmd_metrics(args: argparse.Namespace) -> int:
    netlist = _load(args.file)
    report = analyze(netlist)
    if args.json:
        print(json.dumps(report.to_dict(), ensure_ascii=False, indent=2))
        return EXIT_OK
    print(f"circuit {netlist.name}")
    print(f"gate_count {report.gate_count}")
    print(f"gates {format_gate_multiset(report.gates)}")
    print(f"quantum_cost {'unknown' if report.quantum_cost is None else report.quantum_cost}")
    print(f"constants {report.constants}")
    print(f"garbage {report.garbage}")
    print(f"logical {report.logical.render()}")
    return EXIT_OK


def _cmd_build(args: argparse.Namespace) -> int:
    if args.design != "bcd-chain" and args.digits is not None:
        raise _UsageError("a digit count is only valid with bcd-chain")
    if args.design not in ("bcd1", "bcd2") and args.carry_in is not None:
        raise _UsageError("--carry-in only applies to bcd1/bcd2")
    if args.design == "ripple4":
        netlist = build_ripple_adder()
    elif args.design in ("bcd1", "bcd2"):
        netlist = build_bcd_adder(args.design, carry_in=args.carry_in or "primary")
    else:
        if args.digits is None:
            raise _UsageError("bcd-chain needs a digit count, e.g. 'build bcd-chain 2'")
        if args.digits < 1:
            raise _UsageError("digit count must be >= 1")
        netlist = build_bcd_chain(args.digits)
    text = serialize_netlist(netlist)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_check_adder(args: argparse.Namespace) -> int:
    if args.kind != "bcd-chain" and args.digits is not None:
        raise _UsageError("--digits is only valid with --kind bcd-chain")
    netlist = _load(args.file)
    n_inputs = len(netlist.primary_inputs)
    if args.kind == "ripple4":
        if n_inputs != 9:
            raise _UsageError(f"ripple4 netlists have 9 primary inputs, this one has {n_inputs}")
        oracle, domain = adder_oracle(1, radix=16)
    elif args.kind == "bcd":
        if n_inputs not in (8, 9):
            raise _UsageError(f"bcd netlists have 8 or 9 primary inputs, this one has {n_inputs}")
        oracle, domain = adder_oracle(1, carry_in=n_inputs == 9)
    else:
        digits = args.digits if args.digits is not None else (n_inputs - 1) // 8
        if digits < 1 or n_inputs != 8 * digits + 1:
            raise _UsageError(f"{n_inputs} primary inputs do not match a {digits}-digit chain")
        oracle, domain = adder_oracle(digits)
    mismatches = check_equivalence(netlist, oracle, domain, limit=args.max_inputs)
    if mismatches:
        for m in mismatches:
            print(
                f"mismatch inputs={_bitstring(m.inputs)} "
                f"expected={_bitstring(m.expected)} actual={_bitstring(m.actual)}"
            )
        if len(mismatches) < DEFAULT_COUNTEREXAMPLE_LIMIT:
            print(f"FAIL {len(mismatches)} mismatches")
        else:
            # the check stops at the cap, so more patterns may fail
            print(f"FAIL at least {len(mismatches)} mismatches (list capped at {DEFAULT_COUNTEREXAMPLE_LIMIT})")
        return EXIT_FAIL
    print("ok")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    reports = []
    for path in args.files:
        netlist = _load(path)
        reports.append((netlist.name, analyze(netlist)))
    comparison = compare(reports, include_literature=args.with_literature)
    if args.json:
        print(json.dumps(comparison.to_json_rows(), ensure_ascii=False, indent=2))
    else:
        print(comparison.render_text())
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="revlogic", description="Reversible-logic netlist toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural check; prints violations")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("sim", help="forward simulation")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--in", dest="input_bits", metavar="BITSTRING")
    group.add_argument("--exhaustive", action="store_true")
    p.add_argument("--show-garbage", action="store_true")
    p.add_argument("--max-inputs", type=int, default=DEFAULT_INPUT_LIMIT)
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("inverse", help="inverse simulation from all terminal lines")
    p.add_argument("file")
    p.add_argument("--out", dest="output_bits", metavar="BITSTRING", required=True)
    p.set_defaults(func=_cmd_inverse)

    p = sub.add_parser("metrics", help="gate count, quantum cost, garbage, constants, logical totals")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("build", help="emit a generated netlist")
    p.add_argument("design", choices=("ripple4", "bcd1", "bcd2", "bcd-chain"))
    p.add_argument("digits", nargs="?", type=int)
    p.add_argument("--carry-in", dest="carry_in", choices=("primary", "const"), default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("check-adder", help="oracle equivalence check")
    p.add_argument("file")
    p.add_argument("--kind", choices=("ripple4", "bcd", "bcd-chain"), required=True)
    p.add_argument("--digits", type=int)
    p.add_argument("--max-inputs", type=int, default=DEFAULT_INPUT_LIMIT)
    p.set_defaults(func=_cmd_check_adder)

    p = sub.add_parser("compare", help="metrics comparison table")
    p.add_argument("files", nargs="*")
    p.add_argument("--with-literature", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early shows here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:
        # nothing more can be written; aim stdout at devnull so the final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except NetlistParseError as exc:
        for diagnostic in exc.diagnostics:
            print(f"parse error: {diagnostic}", file=sys.stderr)
        return EXIT_USAGE
    except TruthTableLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
