"""Shared test utilities: arithmetic oracles, a random-netlist generator and the argparse reference CLI parser.

The oracles here are deliberately independent of the simulator: they
work on plain integers and only use the library's bit-order helpers to
translate to and from wire patterns.  ``adder_oracle`` is the
per-pattern reference that ``builders.adder_spec`` is tested against.
"""

from __future__ import annotations

import argparse
import random
from typing import Callable

from revlogic import GateDefinition, GateInstance, LogicCost, Netlist, bits_to_int, builtin, int_to_bits
from revlogic.cli import (
    _cmd_build,
    _cmd_check_adder,
    _cmd_compare,
    _cmd_inverse,
    _cmd_metrics,
    _cmd_sim,
    _cmd_validate,
)

GATE_POOL = ("FG", "PG", "TG", "FRG", "PFAG", "HNG", "HNFG")


def binary_adder_oracle(bits):
    """4-bit binary addition: bits are a3..a0 b3..b0 cin, result s3..s0 c4."""
    total = bits_to_int(bits[0:4]) + bits_to_int(bits[4:8]) + bits[8]
    return tuple(int_to_bits(total % 16, 4) + [total // 16])


def bcd_digit_oracle(bits):
    """One-digit decimal addition: result z3..z0 cout."""
    total = bits_to_int(bits[0:4]) + bits_to_int(bits[4:8]) + bits[8]
    return tuple(int_to_bits(total % 10, 4) + [total // 10])


def bcd_digit_domain(bits):
    return bits_to_int(bits[0:4]) <= 9 and bits_to_int(bits[4:8]) <= 9


def adder_oracle(
    digits: int, radix: int = 10, carry_in: bool = True
) -> tuple[Callable[[tuple[int, ...]], tuple[int, ...]], Callable[[tuple[int, ...]], bool] | None]:
    """Oracle and domain for a ``digits``-digit adder in the bus layout of ``revlogic.builders``.

    An input pattern holds operand A then operand B, each as ``digits``
    4-bit digits (most significant digit first, each digit MSB first),
    then the carry in when ``carry_in`` is true; without it the carry in
    is 0.  The oracle returns the sum digits (A + B + cin) mod
    radix^digits in the same layout, then the carry out.  ``radix=16``
    is binary addition (``adder_oracle(1, radix=16)`` checks
    ``build_ripple_adder``) and every pattern is in its domain, so the
    domain is None; otherwise the domain admits only patterns whose
    digits are all below ``radix`` (0..9 for the BCD adders).
    """
    if type(digits) is not int or digits < 1:
        raise ValueError(f"digit count must be >= 1, got {digits}")
    if type(radix) is not int or not 2 <= radix <= 16:
        raise ValueError(f"radix must be 2..16 to fit a 4-bit digit, got {radix}")
    width = 8 * digits
    places = [radix ** (digits - 1 - j) for j in range(digits)]

    def oracle(bits: tuple[int, ...]) -> tuple[int, ...]:
        total = bits[width] if carry_in else 0
        for i in range(0, width, 4):
            total += bits_to_int(bits[i : i + 4]) * places[i // 4 % digits]
        out: list[int] = []
        for place in places:
            out += int_to_bits(total // place % radix, 4)
        out.append(total // radix**digits)
        return tuple(out)

    def domain(bits: tuple[int, ...]) -> bool:
        return all(bits_to_int(bits[i : i + 4]) < radix for i in range(0, width, 4))

    return oracle, None if radix == 16 else domain


def encode_bcd_operands(a: int, b: int, cin: int, digits: int = 1) -> list[int]:
    """Wire pattern for two decimal operands plus carry-in, MSB digit first."""
    bits: list[int] = []
    for value in (a, b):
        for j in reversed(range(digits)):
            bits.extend(int_to_bits(value // 10**j % 10, 4))
    bits.append(cin)
    return bits


def decode_bcd_result(bits, digits: int = 1) -> tuple[int, int]:
    """(sum value, carry) from a chain's primary output pattern."""
    value = 0
    for j in range(digits):
        value = value * 10 + bits_to_int(bits[4 * j : 4 * j + 4])
    return value, bits[4 * digits]


def random_gate(rng: random.Random, name: str) -> GateDefinition:
    """A custom gate of 1-8 lines: a random permutation, quantum cost and logic cost."""
    arity = rng.randint(1, 8)
    table = list(range(1 << arity))
    rng.shuffle(table)
    cost = rng.choice((None, rng.randint(0, 20)))
    return GateDefinition(name, arity, tuple(table), cost, LogicCost(*(rng.randint(0, 9) for _ in range(3))))


def random_netlist(rng: random.Random, max_gates: int = 8) -> Netlist:
    """A structurally valid netlist with random gates and wiring.

    Gates are built-ins or custom kinds, each custom kind a random table
    under its own name, used once or more.  Wires are only ever consumed
    from the defined-and-unconsumed pool, so the define-before-use and
    fan-out rules hold by construction.
    """
    inputs: list[str] = []
    constants: list[tuple[str, int]] = []
    gates: list[GateInstance] = []
    available: list[str] = []
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"w{counter}"

    def new_source() -> str:
        wire = fresh()
        if rng.random() < 0.5:
            inputs.append(wire)
        else:
            constants.append((wire, rng.randint(0, 1)))
        available.append(wire)
        return wire

    kinds = [builtin(name) for name in GATE_POOL]
    for _ in range(rng.randint(0, max_gates)):
        if rng.random() < 0.2:  # a new custom kind
            kinds.append(random_gate(rng, f"U{len(kinds) - len(GATE_POOL)}"))
            gate = kinds[-1]
        else:
            gate = rng.choice(kinds)
        while len(available) < gate.arity:
            new_source()
        rng.shuffle(available)
        ins = [available.pop() for _ in range(gate.arity)]
        outs = [fresh() for _ in range(gate.arity)]
        gates.append(GateInstance(gate, tuple(ins), tuple(outs)))
        available.extend(outs)
    for _ in range(rng.randint(0, 2)):
        new_source()

    outputs = [wire for wire in available if rng.random() < 0.5]
    return Netlist("rand", tuple(inputs), tuple(constants), tuple(gates), tuple(outputs))


# The command line grammar as argparse read it, before cli._read_args replaced it:
# the reference that the reader is tested against, copied verbatim.
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
    p.add_argument("--max-inputs", type=int)  # None: simulate.DEFAULT_INPUT_LIMIT
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
    p.add_argument("--max-inputs", type=int)  # None: simulate.DEFAULT_INPUT_LIMIT
    p.set_defaults(func=_cmd_check_adder)

    p = sub.add_parser("compare", help="metrics comparison table")
    p.add_argument("files", nargs="*")
    p.add_argument("--with-literature", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compare)

    return parser
