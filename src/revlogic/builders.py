"""Generators for the shipped adder netlists.

Three circuit families are built programmatically:

  * ``build_ripple_adder``: a 4-bit parallel adder made of four
    full-adder gates (PFAG with a zero fourth line).
  * ``build_bcd_adder``: a one-digit BCD adder in two variants that
    differ only in their copy gates.  ``bcd1`` copies with four FG
    gates; ``bcd2`` replaces two of them with a single HNFG.
  * ``build_bcd_chain``: an n-digit decimal adder chaining bcd2 stages
    through their carry wires.

Buses are declared most-significant bit first (a3 a2 a1 a0); the carry
line comes last on both sides.  Wiring and wire names are deterministic,
so repeated builds serialize byte-identically.  ``adder_oracle`` decodes
the same layout into the expected sums, for ``check_equivalence``.
"""

from __future__ import annotations

from typing import Callable

from .gates import bits_to_int, builtin, int_to_bits
from .netlist import GateInstance, Netlist


class _NetBuilder:
    """Accumulates wires and gates; wire names take the current prefix."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.inputs: list[str] = []
        self.constants: list[tuple[str, int]] = []
        self.gates: list[GateInstance] = []
        self.outputs: list[str] = []
        self.prefix = ""
        self._zero_count = 0
        self._garbage_count = 0

    def set_prefix(self, prefix: str) -> None:
        self.prefix = prefix
        self._zero_count = 0
        self._garbage_count = 0

    def input(self, wire: str) -> str:
        self.inputs.append(wire)
        return wire

    def const(self, wire: str, bit: int) -> str:
        self.constants.append((wire, bit))
        return wire

    def zero(self) -> str:
        wire = f"{self.prefix}zero{self._zero_count}"
        self._zero_count += 1
        return self.const(wire, 0)

    def garbage(self) -> str:
        wire = f"{self.prefix}g{self._garbage_count}"
        self._garbage_count += 1
        return wire

    def gate(self, name: str, inputs: list[str], outputs: list[str]) -> None:
        self.gates.append(GateInstance(builtin(name), tuple(inputs), tuple(outputs)))

    def build(self) -> Netlist:
        return Netlist(
            self.name,
            tuple(self.inputs),
            tuple(self.constants),
            tuple(self.gates),
            tuple(self.outputs),
        )


def _emit_full_adder_chain(
    nb: _NetBuilder,
    a: list[str],
    b: list[str],
    cin: str,
    sums: list[str],
    carries: list[str],
) -> None:
    """Four cascaded full adders; a, b, sums, carries are LSB first.

    Each bit is one PFAG(a_i, b_i, carry_i, 0): the first two outputs
    are garbage, the third is the sum bit, the fourth the next carry.
    """
    carry = cin
    for i in range(4):
        nb.gate(
            "PFAG",
            [a[i], b[i], carry, nb.zero()],
            [nb.garbage(), nb.garbage(), sums[i], carries[i]],
        )
        carry = carries[i]


def build_ripple_adder() -> Netlist:
    """4-bit parallel adder: inputs a3..a0, b3..b0, cin; outputs s3..s0, c4.

    Four PFAG gates, four zero constants, quantum cost 32, eight garbage
    outputs.
    """
    nb = _NetBuilder("ripple4")
    a = [f"a{i}" for i in range(4)]
    b = [f"b{i}" for i in range(4)]
    for wire in reversed(a):
        nb.input(wire)
    for wire in reversed(b):
        nb.input(wire)
    nb.input("cin")
    sums = [f"s{i}" for i in range(4)]
    carries = [f"c{i}" for i in range(1, 5)]
    _emit_full_adder_chain(nb, a, b, "cin", sums, carries)
    nb.outputs = [*reversed(sums), "c4"]
    return nb.build()


def _emit_bcd_digit(
    nb: _NetBuilder,
    design: str,
    a: list[str],
    b: list[str],
    cin: str,
    z: list[str],
    cout: str,
    reuse_spare_zero: bool = False,
) -> None:
    """One BCD digit: binary add, overflow detect, +6 correction.

    ``a``, ``b`` and ``z`` are LSB-first wire names; internal wires take
    the builder's prefix.  With ``reuse_spare_zero`` the always-zero
    fourth output of the s2 copy gate replaces one correction-stage zero
    constant (keeps the constant total at 19 when the carry in is itself
    a constant).
    """
    p = nb.prefix
    sums = [f"{p}s{i}" for i in range(4)]
    carries = [f"{p}c{i}" for i in range(1, 5)]
    _emit_full_adder_chain(nb, a, b, cin, sums, carries)
    c4 = carries[-1]

    # PFAG(s2,0,0,0) = (s2,s2,s2,0): copies s2 for the detector and the
    # correction stage; the third copy and the zero line are left over
    s2_det, s2_add = f"{p}s2x", f"{p}s2y"
    spare_zero = f"{p}t0"
    nb.gate("PFAG", [sums[2], nb.zero(), nb.zero(), nb.zero()], [s2_det, s2_add, nb.garbage(), spare_zero])

    s1_det, s1_add = f"{p}s1x", f"{p}s1y"
    s3_det, s3_add = f"{p}s3x", f"{p}s3y"
    if design == "bcd2":
        nb.gate("HNFG", [sums[1], nb.zero(), sums[3], nb.zero()], [s1_det, s1_add, s3_det, s3_add])
    else:
        nb.gate("FG", [sums[1], nb.zero()], [s1_det, s1_add])
        nb.gate("FG", [sums[3], nb.zero()], [s3_det, s3_add])

    # overflow = c4 OR s3(s2 OR s1).  PG yields x1 = s2^s1 and x2 = s2s1;
    # x1*x2 = 0, so the PFAG fourth output collapses to (s1 OR s2)s3 ^ c4,
    # and c4 never coincides with s3 when the digits are valid.
    x1, x2 = f"{p}x1", f"{p}x2"
    ov = f"{p}ov"
    nb.gate("PG", [s2_det, s1_det, nb.zero()], [nb.garbage(), x1, x2])
    nb.gate("PFAG", [x1, x2, s3_det, c4], [nb.garbage(), nb.garbage(), nb.garbage(), ov])

    # three overflow consumers: correction bits 1 and 2, and the decimal carry
    ov_bit1, ov_mid, ov_bit2 = f"{p}ov1", f"{p}ov2", f"{p}ov3"
    nb.gate("FG", [ov, nb.zero()], [ov_bit1, ov_mid])
    nb.gate("FG", [ov_mid, nb.zero()], [ov_bit2, cout])

    # correction stage: add 0·8 + ov·4 + ov·2 + 0·1 to the binary sum;
    # its final carry is garbage because the decimal carry is ov itself
    stage2_cin = spare_zero if reuse_spare_zero else nb.zero()
    addend = [nb.zero(), ov_bit1, ov_bit2, nb.zero()]
    corrected = [sums[0], s1_add, s2_add, s3_add]
    k = [f"{p}k{i}" for i in range(1, 5)]
    _emit_full_adder_chain(nb, corrected, addend, stage2_cin, z, k)


def build_bcd_adder(design: str, *, carry_in: str = "primary", wire_prefix: str = "") -> Netlist:
    """One-digit BCD adder: z = (A + B + cin) mod 10, cout = 1 on decimal overflow.

    ``design`` is ``"bcd1"`` (10 PFAG + 4 FG + 1 PG) or ``"bcd2"``
    (10 PFAG + 1 PG + 2 FG + 1 HNFG).  With ``carry_in="primary"`` the
    inputs are a3..a0, b3..b0, cin (19 zero constants); with
    ``carry_in="const"`` cin is a constant-0 line and one correction
    zero is fed from the copy gate's spare zero output, keeping the
    constant total at 19.  Outputs are z3..z0, cout either way.
    ``wire_prefix`` namespaces every wire, for embedding builds side by
    side.
    """
    if design not in ("bcd1", "bcd2"):
        raise ValueError(f"design must be 'bcd1' or 'bcd2', got {design!r}")
    if carry_in not in ("primary", "const"):
        raise ValueError(f"carry_in must be 'primary' or 'const', got {carry_in!r}")
    nb = _NetBuilder(design)
    nb.set_prefix(wire_prefix)
    a = [f"{wire_prefix}a{i}" for i in range(4)]
    b = [f"{wire_prefix}b{i}" for i in range(4)]
    for wire in reversed(a):
        nb.input(wire)
    for wire in reversed(b):
        nb.input(wire)
    if carry_in == "primary":
        cin = nb.input(f"{wire_prefix}cin")
    else:
        cin = nb.const(f"{wire_prefix}cin", 0)
    z = [f"{wire_prefix}z{i}" for i in range(4)]
    cout = f"{wire_prefix}cout"
    _emit_bcd_digit(nb, design, a, b, cin, z, cout, reuse_spare_zero=(carry_in == "const"))
    nb.outputs = [*reversed(z), cout]
    return nb.build()


def build_bcd_chain(n: int) -> Netlist:
    """n-digit decimal adder: bcd2 stages with each carry wired onward.

    Inputs are the two operands digit-major, most significant digit
    first (a{n-1}_3 .. a0_0, then b likewise), then cin; outputs are the
    sum digits in the same order, then cout.  Stage-local wires carry a
    d<stage>_ prefix.
    """
    if n < 1:
        raise ValueError(f"digit count must be >= 1, got {n}")
    nb = _NetBuilder(f"bcd_chain{n}")
    a = [[f"a{j}_{i}" for i in range(4)] for j in range(n)]
    b = [[f"b{j}_{i}" for i in range(4)] for j in range(n)]
    for digits in (a, b):
        for j in reversed(range(n)):
            for wire in reversed(digits[j]):
                nb.input(wire)
    nb.input("cin")
    carry = "cin"
    for j in range(n):
        nb.set_prefix(f"d{j}_")
        cout = "cout" if j == n - 1 else f"d{j}_cout"
        _emit_bcd_digit(nb, "bcd2", a[j], b[j], carry, [f"z{j}_{i}" for i in range(4)], cout)
        carry = cout
    outputs = []
    for j in reversed(range(n)):
        outputs.extend(f"z{j}_{i}" for i in reversed(range(4)))
    outputs.append("cout")
    nb.outputs = outputs
    return nb.build()


def adder_oracle(
    digits: int, radix: int = 10, carry_in: bool = True
) -> tuple[Callable[[tuple[int, ...]], tuple[int, ...]], Callable[[tuple[int, ...]], bool] | None]:
    """Oracle and domain for a ``digits``-digit adder in the layout built here.

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
    if digits < 1:
        raise ValueError(f"digit count must be >= 1, got {digits}")
    if not 2 <= radix <= 16:
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
