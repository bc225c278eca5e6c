"""Command line interface.

Exit codes: 0 success, 1 equivalence failure, 2 usage or parse error,
141 (128 + SIGPIPE, as a shell reports ``yes | head``) when the reader
of standard output closes it early.
Any wire-rule violation is a parse error, reported as
``parse error: line L, token T: [rule] message``.  Bitstrings index
wires in declaration order.

A command imports only the layers it runs.  Every command reads or
writes the text format, so ``gates``, ``netlist`` and ``textio`` load
at start-up; ``builders``, ``simulate`` and ``metrics`` are imported
inside the commands that use them, and ``json`` only for ``--json``.
``validate`` thus loads neither the simulator nor the metrics, and no
command loads ``dataclasses`` or ``inspect``.

The command line grammar is one table, ``_COMMANDS``, which
``_read_args`` walks argv against once and which the help and usage
text are rendered from.  It reads every documented command line as
the standard library's command-line parser did; flags are spelled in
full, as no abbreviation is read.  No command loads that parser's
module, nor the ``gettext`` and ``locale`` modules it brings.
"""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn, Sequence

from .netlist import Netlist, garbage_wires, validate
from .textio import NetlistParseError, parse_netlist, serialize_netlist

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141


class _UsageError(Exception):
    pass


def _load(path: str) -> Netlist:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_netlist(text)


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _bitstring(bits: Sequence[int]) -> str:
    return bytes(bits).translate(_BIT_CHARS).decode("ascii")


def _parse_bitstring(text: str, width: int, what: str) -> list[int]:
    if len(text) != width or any(ch not in "01" for ch in text):
        raise _UsageError(f"{what} must be a bitstring of length {width}, got {text!r}")
    return [int(ch) for ch in text]


def _max_inputs(args: SimpleNamespace) -> int:
    from .simulate import DEFAULT_INPUT_LIMIT

    if args.max_inputs is not None and args.max_inputs < 0:
        raise _UsageError("--max-inputs must be >= 0")
    return DEFAULT_INPUT_LIMIT if args.max_inputs is None else args.max_inputs


def _cmd_validate(args: SimpleNamespace) -> int:
    for violation in validate(_load(args.file)):
        print(f"{violation.severity}: [{violation.rule}] {violation.message}")
    print("ok")
    return EXIT_OK


def _cmd_sim(args: SimpleNamespace) -> int:
    from .simulate import TruthTableLimitError, run, truth_table

    limit = _max_inputs(args)  # refused below 0 before the file is read
    netlist = _load(args.file)
    garbage = garbage_wires(netlist)
    # refuse a wide table or a bad bitstring before the header is printed
    if args.exhaustive:
        try:
            rows = truth_table(netlist, limit=limit)
        except TruthTableLimitError as exc:
            raise _UsageError(str(exc)) from None
    else:
        bits = _parse_bitstring(args.input_bits, len(netlist.primary_inputs), "--in")
    print(" ".join(["# inputs:", *netlist.primary_inputs]))
    print(" ".join(["# outputs:", *netlist.primary_outputs]))
    if args.show_garbage:
        print(" ".join(["# garbage:", *garbage]))
    if args.exhaustive:
        for row in rows:
            parts = [_bitstring(row.inputs), "->", _bitstring(row.outputs)]
            if args.show_garbage:
                parts += ("|", _bitstring(row.garbage))
            # an empty wire list leaves out its part, not the space around it
            print(" ".join(filter(None, parts)))
        return EXIT_OK
    result = run(netlist, dict(zip(netlist.primary_inputs, bits)))
    print(f"outputs {_bitstring([result.primary_out[w] for w in netlist.primary_outputs])}".rstrip())
    if args.show_garbage:
        print(f"garbage {_bitstring([result.garbage_out[w] for w in garbage])}".rstrip())
    return EXIT_OK


def _cmd_inverse(args: SimpleNamespace) -> int:
    from .simulate import run_inverse

    netlist = _load(args.file)
    terminals = list(netlist.primary_outputs) + garbage_wires(netlist)
    bits = _parse_bitstring(args.output_bits, len(terminals), "--out")
    print(" ".join(["# terminals:", *terminals]))
    sources = run_inverse(netlist, dict(zip(terminals, bits)))
    print(" ".join(["# inputs:", *netlist.primary_inputs]))
    print(f"inputs {_bitstring([sources[w] for w in netlist.primary_inputs])}".rstrip())
    parts = []
    for wire, declared in netlist.constants:
        value = sources[wire]
        parts.append(f"{wire}={value}" if value == declared else f"{wire}={value} (declared {declared})")
    print(" ".join(["constants", *parts]))
    return EXIT_OK


def _cmd_metrics(args: SimpleNamespace) -> int:
    from .metrics import analyze, format_gate_multiset

    netlist = _load(args.file)
    report = analyze(netlist)
    if args.json:
        import json

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


def _cmd_build(args: SimpleNamespace) -> int:
    from .builders import build_bcd_adder, build_bcd_chain, build_ripple_adder

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


def _cmd_check_adder(args: SimpleNamespace) -> int:
    from .builders import adder_oracle
    from .simulate import DEFAULT_COUNTEREXAMPLE_LIMIT, TruthTableLimitError, check_equivalence

    if args.kind != "bcd-chain" and args.digits is not None:
        raise _UsageError("--digits is only valid with --kind bcd-chain")
    if args.digits is not None and args.digits < 1:
        raise _UsageError("digit count must be >= 1")
    limit = _max_inputs(args)
    netlist = _load(args.file)
    n_inputs = len(netlist.primary_inputs)
    # every kind is adder_oracle's layout: 8 inputs a digit, then the carry in if there is one
    digits, carry = divmod(n_inputs, 8)
    if args.kind == "ripple4":
        if n_inputs != 9:
            raise _UsageError(f"ripple4 netlists have 9 primary inputs, this one has {n_inputs}")
    elif args.kind == "bcd":
        if n_inputs not in (8, 9):
            raise _UsageError(f"bcd netlists have 8 or 9 primary inputs, this one has {n_inputs}")
    elif digits < 1 or carry != 1 or args.digits not in (None, digits):
        # an inferred count is no count the user asked for: name the layout instead
        layout = f"a {args.digits}-digit chain" if args.digits is not None else "a chain's 8N+1 layout (N >= 1)"
        raise _UsageError(f"{n_inputs} primary inputs do not match {layout}")
    oracle, domain = adder_oracle(digits, radix=16 if args.kind == "ripple4" else 10, carry_in=carry == 1)
    try:
        mismatches = check_equivalence(netlist, oracle, domain, limit=limit)
    except TruthTableLimitError as exc:
        raise _UsageError(str(exc)) from None
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


def _cmd_compare(args: SimpleNamespace) -> int:
    from .metrics import analyze, compare

    reports = []
    for path in args.files:
        netlist = _load(path)
        reports.append((netlist.name, analyze(netlist)))
    comparison = compare(reports, include_literature=args.with_literature)
    if args.json:
        import json

        print(json.dumps(comparison.to_json_rows(), ensure_ascii=False, indent=2))
    else:
        print(comparison.render_text())
    return EXIT_OK


# One row per command: (handler, help text, positionals, options, one-of dests).
# A positional is (name, arity, kind), its arity "1", "?" (default None) or "*"
# (default []).  An option is (flags, dest, kind, required); a kind of None takes
# no value and stores True (default False), any other stores its value (default
# None).  A kind is int, a tuple of choices, or, for text, the name help shows.
# A command line gives exactly one of the one-of dests, when a row names any.
_COMMANDS = {
    "validate": (_cmd_validate, "structural check; prints violations", (("file", "1", "FILE"),), (), ()),
    "sim": (
        _cmd_sim,
        "forward simulation",
        (("file", "1", "FILE"),),
        (
            (("--in",), "input_bits", "BITSTRING", False),
            (("--exhaustive",), "exhaustive", None, False),
            (("--show-garbage",), "show_garbage", None, False),
            (("--max-inputs",), "max_inputs", int, False),  # None: simulate.DEFAULT_INPUT_LIMIT
        ),
        ("input_bits", "exhaustive"),
    ),
    "inverse": (
        _cmd_inverse,
        "inverse simulation from all terminal lines",
        (("file", "1", "FILE"),),
        ((("--out",), "output_bits", "BITSTRING", True),),
        (),
    ),
    "metrics": (
        _cmd_metrics,
        "gate count, quantum cost, garbage, constants, logical totals",
        (("file", "1", "FILE"),),
        ((("--json",), "json", None, False),),
        (),
    ),
    "build": (
        _cmd_build,
        "emit a generated netlist",
        (("design", "1", ("ripple4", "bcd1", "bcd2", "bcd-chain")), ("digits", "?", int)),
        ((("--carry-in",), "carry_in", ("primary", "const"), False), (("-o", "--output"), "output", "FILE", False)),
        (),
    ),
    "check-adder": (
        _cmd_check_adder,
        "oracle equivalence check",
        (("file", "1", "FILE"),),
        (
            (("--kind",), "kind", ("ripple4", "bcd", "bcd-chain"), True),
            (("--digits",), "digits", int, False),
            (("--max-inputs",), "max_inputs", int, False),  # None: simulate.DEFAULT_INPUT_LIMIT
        ),
        (),
    ),
    "compare": (
        _cmd_compare,
        "metrics comparison table",
        (("files", "*", "FILE"),),
        ((("--with-literature",), "with_literature", None, False), (("--json",), "json", None, False)),
        (),
    ),
}
_HELP_OPTION = (("-h", "--help"), "help", None, False)


def _shown(kind) -> str:
    """A value's kind as help shows it."""
    if kind is int:
        return "N"
    return "{" + ",".join(kind) + "}" if type(kind) is tuple else kind


def _usage(name: str | None) -> str:
    if name is None:
        return "usage: revlogic [-h] {" + ",".join(_COMMANDS) + "} ..."
    _handler, _text, positionals, options, one_of = _COMMANDS[name]
    parts = ["usage: revlogic", name, "[-h]"]
    group = []
    for flags, dest, kind, required in options:
        text = flags[0] if kind is None else f"{flags[0]} {_shown(kind)}"
        if dest in one_of:
            group.append(text)
            if len(group) == len(one_of):
                parts.append("(" + " | ".join(group) + ")")
        else:
            parts.append(text if required else f"[{text}]")
    for _name, arity, kind in positionals:
        shown = _shown(kind)
        parts.append({"1": shown, "?": f"[{shown}]", "*": f"[{shown} ...]"}[arity])
    return " ".join(parts)


def _help(name: str | None) -> str:
    if name is None:
        lines = [_usage(None), "", "Reversible-logic netlist toolkit.", "", "commands:"]
        lines += [f"  {command:<12} {row[1]}" for command, row in _COMMANDS.items()]
        lines += ["", "'revlogic COMMAND --help' lists a command's arguments. Flags are spelled in full."]
    else:
        _handler, text, _positionals, options, _one_of = _COMMANDS[name]
        lines = [_usage(name), "", text, "", "options:"]
        for flags, _dest, kind, _required in (_HELP_OPTION, *options):
            lines.append("  " + ", ".join(flags) + ("" if kind is None else f" {_shown(kind)}"))
    return "\n".join(lines)


def _fail(name: str | None, message: str) -> NoReturn:
    """Refuse a malformed command line: usage and the error on stderr, then exit 2."""
    prog = "revlogic" if name is None else f"revlogic {name}"
    sys.stderr.write(f"{_usage(name)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _flag(token: str, flags: dict):
    """How a token reads: None for a positional, else (the option it names or None, its attached value or None)."""
    if token[:1] != "-" or token == "-":
        return None
    if token in flags:
        return flags[token], None
    name, eq, value = token.partition("=")
    if eq and name in flags:
        return flags[name], value
    if token[1] != "-" and token[:2] in flags:  # -oFILE
        return flags[token[:2]], token[2:]
    # spaced text and negative numbers are values, as the standard parser read them;
    # the pattern compiles on first use, which few command lines reach
    if " " in token or re.match(r"-\d+$|-\d*\.\d+$", token):
        return None
    return None, None


def _value(name: str, what: str, kind, token: str):
    """The value a token gives a positional or option of this kind."""
    if kind is int:
        try:
            return int(token)
        except ValueError:
            _fail(name, f"argument {what}: invalid int value: {token!r}")
    if type(kind) is tuple and token not in kind:
        _fail(name, f"argument {what}: invalid choice: {token!r} (choose from {', '.join(kind)})")
    return token


def _read_args(argv: Sequence[str]) -> SimpleNamespace:
    """Read a command line against ``_COMMANDS`` in one walk.

    Returns the command as ``command``, its handler as ``func``, and
    one attribute per positional and option.  ``-h``/``--help`` prints
    help and raises SystemExit(0); a malformed command line prints
    usage and an error to stderr and raises SystemExit(2).  A value is
    checked where it stands, and what is missing or left over once the
    walk ends, so a later ``-h`` still prints help.  Flags and
    positionals may mix; ``--`` ends the flags, and a repeated option
    keeps its last value.  The positionals are filled from the first
    run of them.  Past a flag that follows that run, a positional fills
    only a ``?`` slot that run left unfilled (``build``'s digit count),
    as the standard parser reads it from Python 3.12.7; any other is
    left over.
    """
    name = None  # the command, once read
    flags = dict.fromkeys(_HELP_OPTION[0], _HELP_OPTION)
    options: tuple = ()
    slots: list = []  # the command's positionals not yet filled
    one_of: set[str] = set()
    given: set[str] = set()
    surplus: list[str] = []
    started = ended = False  # the run of positionals that fills the slots
    reading_flags = True
    args = SimpleNamespace()
    tokens = iter(argv)
    for token in tokens:
        if reading_flags and token == "--":
            reading_flags = False
            continue
        read = _flag(token, flags) if reading_flags else None
        if read is None and name is None:
            if token not in _COMMANDS:
                _fail(None, f"argument command: invalid choice: {token!r} (choose from {', '.join(_COMMANDS)})")
            name = token
            handler, _text, positionals, options, group = _COMMANDS[name]
            args.command, args.func = name, handler
            for slot, arity, _kind in positionals:
                setattr(args, slot, [] if arity == "*" else None)
            for _flags, dest, kind, _required in options:
                setattr(args, dest, False if kind is None else None)
            slots, one_of = list(positionals), set(group)
            flags.update((flag, option) for option in options for flag in option[0])
        elif read is None:
            if not slots or ended and slots[0][1] != "?":
                surplus.append(token)
                continue
            started = True
            slot, arity, kind = slots[0]
            value = _value(name, slot, kind, token)
            if arity == "*":
                getattr(args, slot).append(value)
            else:
                setattr(args, slot, value)
                del slots[0]
        else:
            ended = started
            option, value = read
            if option is None:
                surplus.append(token)
                continue
            option_flags, dest, kind, _required = option
            what = "/".join(option_flags)
            if kind is None:
                if value is not None:
                    _fail(name, f"argument {what}: ignored explicit argument {value!r}")
                if option is _HELP_OPTION:
                    print(_help(name))
                    raise SystemExit(EXIT_OK)
                value = True
            else:
                if value is None:
                    value = next(tokens, None)
                    if value is None or _flag(value, flags) is not None:
                        _fail(name, f"argument {what}: expected one argument")
                value = _value(name, what, kind, value)
            if dest in one_of and given & one_of - {dest}:
                other = next(f[0] for f, d, _kind, _required in options if d in given & one_of)
                _fail(name, f"argument {what}: not allowed with argument {other}")
            given.add(dest)
            setattr(args, dest, value)
    if name is None:
        _fail(None, "a command is required")
    missing = [_shown(kind) for _slot, arity, kind in slots if arity == "1"]
    missing += [option_flags[0] for option_flags, dest, _kind, required in options if required and dest not in given]
    if missing:
        _fail(name, "the following arguments are required: " + ", ".join(missing))
    if one_of and not given & one_of:
        named = " ".join(f[0] for f, d, _kind, _required in options if d in one_of)
        _fail(name, f"one of the arguments {named} is required")
    if surplus:
        _fail(name, "unrecognized arguments: " + " ".join(surplus))
    return args


def main(argv: Sequence[str] | None = None) -> int:
    args = _read_args(sys.argv[1:] if argv is None else argv)
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
    except (_UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
