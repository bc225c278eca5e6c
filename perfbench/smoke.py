"""Smoke run of the benchmark at its smallest sizes, so the harness cannot rot.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with ``--small
--seconds 1`` (bcd-chain 1 for ``sweep``, bcd-chain 2 for ``bigchain``,
the full ``cli`` session), and checks that each result is correct and
names exactly the metrics ``BENCHMARK.json`` declares.  It also checks
that a directory holding only the benchmark, without ``src/``, makes
the benchmark fail without printing a result.  Exits non-zero on any
problem.  Takes about 20 s.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = _run(ROOT, "--workload", workload["name"], "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small")
            label = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}\n{proc.stderr[-2000:]}")
            if got != want:
                problems.append(f"{label}: metrics {got} != declared {want}")
            print(f"ok {label}: {result['attempted']} operations checked")

    bare = HERE / ".out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    else:
        print("ok without src/: fails without a result")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
