"""Known answers the benchmark checks every operation against.

Everything here is the benchmark's own code: the decimal oracles and
digit domains, a gate-by-gate evaluator built on
``GateDefinition.apply``, the mutant set for the sweep workload, and
the paper's metric rows.  None of it calls the simulator, the metrics
module or the CLI helpers under test.

Bit order follows the netlist format: wires in declaration order, each
4-bit digit most significant bit first, operands most significant digit
first, the carry line last.
"""

from __future__ import annotations

import dataclasses
import random


def _nibble(bits, start):
    return (bits[start] << 3) | (bits[start + 1] << 2) | (bits[start + 2] << 1) | bits[start + 3]


def _nibble_bits(value):
    return [(value >> 3) & 1, (value >> 2) & 1, (value >> 1) & 1, value & 1]


def ripple_oracle(bits):
    """4-bit binary add: a3..a0 b3..b0 cin -> s3..s0 c4."""
    total = _nibble(bits, 0) + _nibble(bits, 4) + bits[8]
    return tuple(_nibble_bits(total & 15) + [total >> 4])


def chain_oracle(digits, const_carry=False):
    """Decimal add of two ``digits``-digit operands -> sum digits, carry out.

    With ``const_carry`` the netlist has no carry-in wire (``--carry-in
    const``) and the carry in is 0.
    """

    def oracle(bits):
        a = b = 0
        for j in range(digits):
            a = a * 10 + _nibble(bits, 4 * j)
            b = b * 10 + _nibble(bits, 4 * (digits + j))
        total = a + b + (0 if const_carry else bits[8 * digits])
        out = []
        for j in reversed(range(digits)):
            out.extend(_nibble_bits(total // 10**j % 10))
        out.append(total // 10**digits)
        return tuple(out)

    return oracle


def chain_domain(digits):
    """True when every 4-bit operand digit is a decimal digit (0..9)."""
    starts = range(0, 8 * digits, 4)

    def domain(bits):
        # a nibble exceeds 9 exactly when its 8 bit is set with its 4 or 2 bit
        for s in starts:
            if bits[s] and (bits[s + 1] or bits[s + 2]):
                return False
        return True

    return domain


def encode_operands(a, b, cin, digits):
    """Input bits for decimal operands ``a`` and ``b`` plus a carry in."""
    bits = []
    for value in (a, b):
        for j in reversed(range(digits)):
            bits.extend(_nibble_bits(value // 10**j % 10))
    bits.append(cin)
    return bits


def random_operands(rng, digits):
    """Seeded operands (a, b, cin) of ``digits`` decimal digits each."""
    top = 10**digits
    return rng.randrange(top), rng.randrange(top), rng.randrange(2)


def random_domain_bits(rng, digits, with_carry=True):
    """Input bits for random valid decimal digits."""
    bits = []
    for _ in range(2 * digits):
        bits.extend(_nibble_bits(rng.randrange(10)))
    if with_carry:
        bits.append(rng.randrange(2))
    return bits


def evaluate(netlist, input_bits):
    """Every wire's value, gate by gate, through ``GateDefinition.apply``."""
    values = dict(zip(netlist.primary_inputs, input_bits))
    values.update(netlist.constants)
    for inst in netlist.gates:
        values.update(zip(inst.outputs, inst.gate.apply([values[w] for w in inst.inputs])))
    return values


def garbage_of(netlist):
    """Defined wires that nothing consumes and that are not outputs, in definition order."""
    consumed = set(netlist.primary_outputs)
    defined = list(netlist.primary_inputs) + [w for w, _ in netlist.constants]
    for inst in netlist.gates:
        consumed.update(inst.inputs)
        defined.extend(inst.outputs)
    return [w for w in defined if w not in consumed]


def outputs_of(netlist, values):
    return tuple(values[w] for w in netlist.primary_outputs)


def _depends(gate, line_in, line_out):
    """True when flipping input line ``line_in`` can change output line ``line_out``."""
    k = gate.arity
    for pattern in range(1 << k):
        bits = [(pattern >> (k - 1 - i)) & 1 for i in range(k)]
        flipped = list(bits)
        flipped[line_in] ^= 1
        if gate.apply(bits)[line_out] != gate.apply(flipped)[line_out]:
            return True
    return False


def reaches_output(netlist, wire):
    """Whether a change on ``wire`` can propagate to any primary output."""
    tainted = {wire}
    for inst in netlist.gates:
        hit = [i for i, w in enumerate(inst.inputs) if w in tainted]
        for j, out in enumerate(inst.outputs):
            if any(_depends(inst.gate, i, j) for i in hit):
                tainted.add(out)
    return any(w in tainted for w in netlist.primary_outputs)


@dataclasses.dataclass(frozen=True)
class Mutant:
    name: str  # the flipped constant wire
    netlist: object
    witness: tuple  # an in-domain input the mutant gets wrong


def mutant_candidates(netlist):
    """One mutant per zero constant on a PFAG's D line, that constant flipped to 1.

    Keyed by the flipped wire.  Only builds the netlists; which ones are
    observable is settled by ``confirm_mutants``.
    """
    zero = {w for w, bit in netlist.constants if bit == 0}
    candidates = {}
    for inst in netlist.gates:
        wire = inst.inputs[3] if inst.gate.name == "PFAG" else None
        if wire in zero:
            constants = tuple((w, 1 if w == wire else b) for w, b in netlist.constants)
            candidates[wire] = dataclasses.replace(netlist, name=f"{netlist.name}_{wire}", constants=constants)
    return candidates


def confirm_mutants(netlist, candidates, oracle, domain_digits, rng):
    """Split ``candidates`` into observable mutants and equivalent ones.

    The D line of a PFAG only feeds its carry (fourth) output, so a flip
    is observable exactly when that carry is consumed.  Candidates whose
    influence cone reaches no primary output are equivalent mutants and
    are returned separately; each kept mutant comes with an in-domain
    witness input found by the gate-by-gate evaluator.
    """
    kept, equivalent = [], []
    for wire, mutant in candidates.items():
        if not reaches_output(netlist, wire):
            equivalent.append(wire)
            continue
        for _ in range(256):
            bits = random_domain_bits(rng, domain_digits)
            if outputs_of(mutant, evaluate(mutant, bits)) != oracle(bits):
                kept.append(Mutant(wire, mutant, tuple(bits)))
                break
        else:
            raise RuntimeError(f"no witness found for mutant {wire}")
    return kept, equivalent


def chain_row(digits):
    """``analyze`` answer for an N-digit chain: N times the paper's bcd2 row.

    Per digit: 10 PFAG + 1 PG + 2 FG + 1 HNFG, quantum cost 88, 19 zero
    constants, 56 XOR + 21 AND; garbage by line conservation is
    inputs + constants - outputs.
    """
    inputs, constants, outputs = 8 * digits + 1, 19 * digits, 4 * digits + 1
    return {
        "gate_count": 14 * digits,
        "gates": {"FG": 2 * digits, "HNFG": digits, "PFAG": 10 * digits, "PG": digits},
        "quantum_cost": 88 * digits,
        "garbage": inputs + constants - outputs,
        "constants": constants,
        "logical": {"xor": 56 * digits, "and": 21 * digits, "not": 0},
    }


# The paper's rows for the shipped designs.  Garbage is the computed
# value (line conservation); the paper claims 24 for both BCD designs.
DESIGN_ROWS = {
    "ripple4": {
        "gate_count": 4,
        "gates": {"PFAG": 4},
        "quantum_cost": 32,
        "garbage": 8,
        "constants": 4,
        "logical": {"xor": 20, "and": 8, "not": 0},
    },
    "bcd1": {
        "gate_count": 15,
        "gates": {"FG": 4, "PFAG": 10, "PG": 1},
        "quantum_cost": 88,
        "garbage": 23,
        "constants": 19,
        "logical": {"xor": 56, "and": 21, "not": 0},
    },
    "bcd2": chain_row(1),
    # --carry-in const: the carry becomes a bound line, one correction
    # zero is fed from a copier's spare output, garbage 8 + 19 - 5
    "bcd2c": dict(chain_row(1), garbage=22),
}
CLAIMED_GARBAGE = {"ripple4": 8, "bcd1": 24, "bcd2": 24}
LITERATURE_ROWS = 6


def seeded(seed, stream):
    """An independent random stream per purpose, all fixed by the seed."""
    return random.Random(f"{seed}:{stream}")
