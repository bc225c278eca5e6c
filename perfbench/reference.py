"""One-off reference timings for the ROADMAP open-items table.

    python3 perfbench/reference.py

Times each row once (or as the median of a few repeats where a row is
fast) and prints a Markdown table.  Not part of the gated benchmark:
bcd-chain 1000 ``run_inverse`` alone takes over a minute while
``run``/``run_inverse`` stay quadratic in netlist size.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import known  # noqa: E402
from revlogic import builders, netlist, simulate, textio  # noqa: E402


def timed(fn, repeats=1):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def cli_seconds(*argv, expect=0):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "revlogic.cli", *argv], capture_output=True, text=True, env=env)
    elapsed = perf_counter() - start
    if proc.returncode != expect:
        raise RuntimeError(f"{argv}: exit {proc.returncode}: {proc.stderr}")
    return elapsed, proc


def main() -> None:
    rows = []
    bcd2 = builders.build_bcd_adder("bcd2")
    rows.append(("`validate`", "bcd2", timed(lambda: netlist.validate(bcd2), 200)))
    inputs = dict(zip(bcd2.primary_inputs, [0, 1, 0, 1, 0, 1, 1, 1, 1]))
    rows.append(("`run`", "bcd2, one pattern", timed(lambda: simulate.run(bcd2, inputs), 200)))

    chain2 = builders.build_bcd_chain(2)
    oracle, domain = known.chain_oracle(2), known.chain_domain(2)
    rows.append(("`check_equivalence`", "bcd-chain 2, 2^17 patterns, benchmark oracle", timed(lambda: simulate.check_equivalence(chain2, oracle, domain), 3)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain2.net"
        path.write_text(textio.serialize_netlist(chain2), encoding="utf-8")
        rows.append(("`check-adder` (CLI)", "bcd-chain 2", cli_seconds("check-adder", str(path), "--kind", "bcd-chain")[0]))
        rows.append(("`sim --exhaustive` (CLI)", "bcd-chain 2", cli_seconds("sim", str(path), "--exhaustive")[0]))
        path3 = Path(tmp) / "chain3.net"
        path3.write_text(textio.serialize_netlist(builders.build_bcd_chain(3)), encoding="utf-8")
        elapsed, proc = cli_seconds("check-adder", str(path3), "--kind", "bcd-chain", expect=2)
        reason = "input limit" if "exceed" in proc.stderr else proc.stderr.strip()
        rows.append(("`check-adder` (CLI)", "bcd-chain 3", f"refused ({reason}, exit 2) in {elapsed * 1000:.0f} ms"))

    big = builders.build_bcd_chain(1000)
    text = textio.serialize_netlist(big)
    rows.append(("`parse`", "bcd-chain 1000", timed(lambda: textio.parse_netlist(text), 3)))
    rows.append(("`validate`", "bcd-chain 1000", timed(lambda: netlist.validate(big), 3)))
    a, b, cin = known.random_operands(known.seeded(1, "reference"), 1000)
    bits = dict(zip(big.primary_inputs, known.encode_operands(a, b, cin, 1000)))
    result = simulate.run(big, bits)
    rows.append(("`run`", "bcd-chain 1000, one pattern", timed(lambda: simulate.run(big, bits))))
    rows.append(("`run_inverse`", "bcd-chain 1000, one pattern", timed(lambda: simulate.run_inverse(big, result.terminals))))

    print("| path | size | time |\n|---|---|---|")
    for path, size, value in rows:
        shown = value if isinstance(value, str) else (f"{value * 1000:.3g} ms" if value < 1 else f"{value:.3g} s")
        print(f"| {path} | {size} | {shown} |")


if __name__ == "__main__":
    main()
