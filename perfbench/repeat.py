"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --seeds 10 --out perfbench/baseline.json

For every workload in ``BENCHMARK.json`` (or those given with
``--workloads``), runs ``run.py`` once per seed, one run after another,
each for the ``run_seconds`` that ``BENCHMARK.json`` sets.  Reports per
metric the median, the quartiles (as ``statistics.quantiles(values,
n=4)`` gives them) and the spread: the distance between the quartiles
as a share of the median.  Compare
two commits by running this on each with the same arguments.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import ROOT, run_workload


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    summary = {"seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, _lines = run_workload(workload, seed, spec["run_seconds"], args.trace)
            ok &= result["correct"]
            runs.append(result)
            shown = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} {shown}", flush=True)
        metrics = {
            name: dict(summarise([r["metrics"][name]["value"] for r in runs]), unit=runs[0]["metrics"][name]["unit"])
            for name in runs[0]["metrics"]
        }
        summary["workloads"][workload] = {
            "seeds": [args.first_seed, args.first_seed + args.seeds - 1],
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            print(f"{workload:9} {name:24} median {m['median']:.6g} {m['unit']:5} spread {m['spread']:.3f}", flush=True)
    record = ROOT / "perfbench" / ".out" / f"{args.workloads.split(',')[0]}-seed{args.first_seed}-trace{args.trace}.json"
    if record.exists():
        meta = json.loads(record.read_text(encoding="utf-8"))["meta"]
        summary["meta"] = {k: meta[k] for k in ("nproc", "cpus_usable", "cpu_model", "python", "commit")}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
