"""Layered benchmark for revlogic.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs one workload (``sweep``, ``bigchain`` or ``cli``; all three, each
in its own process, when ``--workload`` is left out) from the root of a
source checkout, with ``src/`` on the import path.  Passes repeat until
``--seconds`` have gone by; every operation is checked against a known
answer after its pass.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from a traced run.  Human-readable lines before it
name every workload-specific metric, and the full record (run metadata,
sample counts, spans) goes to ``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

# set-up samples: a few before the first pass, then one after each pass,
# so they spread over the run like the timed samples do
SETUP_SAMPLES = 15
SETUP_FIRST = 5
# the gated timings are at reference speed (see calib.py); raw host times
# are printed and recorded beside them
END_TO_END = {"setup_s": "s", "pass_s": "s", "op_ms": "ms", "peak_rss_mb": "MB"}
CLI_COMMANDS = ("build", "validate", "metrics", "compare", "check-adder", "sim", "inverse")
BUILDERS = ("build_bcd_chain", "build_bcd_adder", "build_ripple_adder")

# operation kind -> (reported name, scale from seconds)
KIND_METRICS = {
    "verdict_pass": ("verdict_pass_s", 1),
    "verdict_fail": ("verdict_fail_ms", 1000),
    "table": ("table_s", 1),
    "save": ("save_s", 1),
    "load": ("load_s", 1),
    "fwd": ("fwd_ms", 1000),
    "inv": ("inv_ms", 1000),
    "cmd": ("cmd_p50_ms", 1000),
}

PER_LAYER = {
    "simulate.check_equivalence.self_s": "s",
    "simulate.check_equivalence.calls": "count",
    "simulate.patterns_enumerated": "count",
    "simulate.domain_accept_ratio": "frac",
    "bench.oracle.s": "s",
    "bench.oracle.calls": "count",
    "bench.domain.s": "s",
    "simulate.truth_table.self_s": "s",
    "simulate.truth_table.calls": "count",
    "simulate.run.self_s": "s",
    "simulate.run.calls": "count",
    "simulate.run_inverse.self_s": "s",
    "simulate.run_inverse.calls": "count",
    "netlist.validate.s": "s",
    "netlist.validate.calls": "count",
    "netlist.garbage_wires.s": "s",
    "textio.parse_netlist.s": "s",
    "textio.parse_netlist.calls": "count",
    "textio.serialize_netlist.s": "s",
    "textio.serialize_netlist.calls": "count",
    "metrics.analyze.self_s": "s",
    "metrics.compare.s": "s",
    **{f"builders.{b}.s": "s" for b in BUILDERS},
    **{f"builders.{b}.setup_s": "s" for b in BUILDERS},
    "cli.interp_s": "s",
    "cli.import_s": "s",
    **{f"cli.main.{c}.s": "s" for c in CLI_COMMANDS},
    "trace.overhead_frac": "frac",
}


def _declared_seconds() -> int:
    """``run_seconds`` from ``BENCHMARK.json``, the default length of a run."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sweep", "bigchain", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_declared_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="smallest sizes, for the smoke run")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _make(args, work: Path, in_process=False):
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.workload == "cli":
        return cls(args.seed, work, SRC, in_process=in_process)
    if args.small:
        return cls(args.seed, work, digits=1 if args.workload == "sweep" else 2)
    return cls(args.seed, work)


def _reference(args, in_process=False):
    """The host-speed reference a workload's operations and set-up are scaled by.

    CLI commands start an interpreter each, so they are read against a
    bare interpreter start; everything in process against the loop.
    """
    if args.workload == "cli" and not in_process:
        return calib.start_reference(dict(os.environ, PYTHONPATH=str(SRC)))
    return calib.LOOP


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _setup_probe(args) -> None:
    """Time import plus the program's set-up in this fresh process; print the seconds.

    Known answers (``prepare``) are the benchmark's own work and are left out.
    Prints the raw time and the time at reference speed.
    """
    work = _fresh_dir(Path(args.setup_probe))
    calib.sample(5)  # warm the loop up
    clock = calib.Clock(_reference(args))
    with clock.timing() as timing:
        workload = _make(args, work)
        workload.setup()
    print(json.dumps({"raw_s": timing.raw, "scaled_s": timing.scaled}))


def _setup_sample(args, index) -> dict[str, float]:
    """Import plus set-up, timed inside a fresh process."""
    probe = OUT / f"probe-{args.workload}-{os.getpid()}-{index}"
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--setup-probe", str(probe)] + (["--small"] if args.small else [])
    proc = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=120)
    shutil.rmtree(probe, ignore_errors=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _import_probes(repeats=3) -> dict[str, float]:
    """Bare interpreter start and a fresh ``import revlogic.cli`` (gate tabulation included)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import time; t = time.perf_counter(); import revlogic.cli; print(time.perf_counter() - t)"
    interp, imports = [], []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=120)
        interp.append(perf_counter() - start)
        proc = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True, env=env, timeout=120)
        imports.append(float(proc.stdout))
    return {"cli.interp_s": statistics.median(interp), "cli.import_s": statistics.median(imports)}


def tail(values):
    """(percentile, value): the highest whole percentile with at least ten samples above it.

    Nearest-rank percentile; with ten samples or fewer, the maximum is
    reported as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    p = 100 * (n - 10) // n
    return p, xs[max(1, math.ceil(p * n / 100)) - 1]


def _peak_rss_mb(workload) -> float:
    """Peak RSS of the process(es) doing the work: the CLI commands, else this one."""
    kib = getattr(workload, "peak_rss_kib", 0) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024


def _layer_values(tracer, first_span, leaves_before) -> dict[str, float]:
    totals = tracer.totals(first_span)

    def calls(name):
        return totals[name][0] if name in totals else 0

    def total(name):
        return totals[name][1] if name in totals else 0.0

    def self_time(name):
        return totals[name][2] if name in totals else 0.0

    def leaf(name):
        now = tracer.leaves.get(name, [0, 0.0])
        before = leaves_before.get(name, [0, 0.0])
        return now[0] - before[0], now[1] - before[1]

    oracle_calls, oracle_s = leaf("bench.oracle")
    domain_calls, domain_s = leaf("bench.domain")
    values = {
        "simulate.patterns_enumerated": domain_calls,
        "simulate.domain_accept_ratio": oracle_calls / domain_calls if domain_calls else 0.0,
        "bench.oracle.s": oracle_s,
        "bench.oracle.calls": oracle_calls,
        "bench.domain.s": domain_s,
        "netlist.validate.s": total("netlist.validate"),
        "netlist.garbage_wires.s": total("netlist.garbage_wires"),
        "metrics.compare.s": total("metrics.compare"),
    }
    for name in ("check_equivalence", "truth_table", "run", "run_inverse"):
        values[f"simulate.{name}.self_s"] = self_time(f"simulate.{name}")
        values[f"simulate.{name}.calls"] = calls(f"simulate.{name}")
    for name in ("netlist.validate", "textio.parse_netlist", "textio.serialize_netlist"):
        values[f"{name}.calls"] = calls(name)
    for name in ("textio.parse_netlist", "textio.serialize_netlist"):
        values[f"{name}.s"] = total(name)
    values["metrics.analyze.self_s"] = self_time("metrics.analyze")
    for b in BUILDERS:
        values[f"builders.{b}.s"] = total(f"builders.{b}")
    for c in CLI_COMMANDS:
        values[f"cli.main.{c}.s"] = total(f"cli.main.{c}")
    return values


def _metadata(args, passes) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as info:
        cpu = next((ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")), cpu)
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or commit
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "executable": Path(sys.executable).name,
        "commit": commit,
        "passes": len(passes),
    }


def measure(args) -> dict:
    import spans
    from workloads import Pass

    OUT.mkdir(exist_ok=True)
    setup_samples = [] if args.trace else [_setup_sample(args, i) for i in range(SETUP_FIRST)]
    work = _fresh_dir(OUT / f"{args.workload}-{args.seed}-{os.getpid()}")
    workload = _make(args, work, in_process=bool(args.trace))
    tracer = spans.Tracer() if args.trace else None

    with spans.installed(tracer) if tracer else contextlib.nullcontext():
        workload.setup()
    workload.prepare()
    setup_layers = {}
    if tracer:
        totals = tracer.totals()
        setup_layers = {f"builders.{b}.setup_s": totals.get(f"builders.{b}", [0, 0.0])[1] for b in BUILDERS}

    passes = []
    deadline = perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        p = Pass(calib.Clock(_reference(args, in_process=bool(args.trace))))
        first_span = len(tracer.spans) if tracer else 0
        leaves_before = {k: list(v) for k, v in tracer.leaves.items()} if tracer else {}
        start = perf_counter()
        with spans.installed(tracer) if traced else contextlib.nullcontext():
            workload.run_pass(p, tracer if traced else None)
        wall = perf_counter() - start
        p.verify()
        layers = _layer_values(tracer, first_span, leaves_before) if traced else None
        passes.append(
            {
                "wall": wall,
                "scaled": p.scaled_total(),
                "traced": traced,
                "samples": dict(p.samples),
                "scaled_samples": dict(p.scaled),
                "references": dict(p.references),
                "attempted": p.attempted,
                "errors": p.errors,
                "layers": layers,
            }
        )
        # stop before a pass that would run past the deadline
        if perf_counter() + wall >= deadline and (tracer is None or len(passes) >= 2):
            break
        if not args.trace and len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(_setup_sample(args, len(setup_samples)))
    while not args.trace and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(_setup_sample(args, len(setup_samples)))

    attempted = sum(p["attempted"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    plain = [p for p in passes if not p["traced"]]
    samples: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    for p in plain:
        for kind, xs in p["samples"].items():
            samples.setdefault(kind, []).extend(xs)
        for kind, xs in p["scaled_samples"].items():
            scaled.setdefault(kind, []).extend(xs)

    named = {}  # workload-specific metrics, by the names used in the README
    counts = {"passes": len(plain)}
    for kind, xs in samples.items():
        name, scale = KIND_METRICS[kind]
        named[name] = statistics.median(xs) * scale
        counts[name] = len(xs)
    cmd = [x * 1000 for x in samples.get("cmd", [])]
    tail_p = None
    if cmd:
        tail_p, named["cmd_tail_ms"] = tail(cmd)
    op_name = KIND_METRICS[workload.op_kind][0]  # the raw median of op_ms's samples
    named.update(
        wall_s=statistics.median(p["wall"] for p in plain),
        pass_s=statistics.median(p["scaled"] for p in plain),
        op_ms=statistics.median(scaled[workload.op_kind]) * 1000,
        peak_rss_mb=_peak_rss_mb(workload),
        fail_frac=len(errors) / attempted,
    )

    if tracer:
        traced = [p for p in passes if p["traced"]]
        layers = {k: statistics.median_low(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
        layers.update(setup_layers)
        layers.update(_import_probes())
        layers["trace.overhead_frac"] = statistics.median(p["wall"] for p in traced) / named["wall_s"] - 1
        metrics, units = {k: layers[k] for k in PER_LAYER}, PER_LAYER
        counts["traced_passes"] = len(traced)
    else:
        named["setup_s"] = statistics.median(s["scaled_s"] for s in setup_samples)
        named["setup_raw_s"] = statistics.median(s["raw_s"] for s in setup_samples)
        counts["setup_s"] = len(setup_samples)
        metrics, units = {k: named[k] for k in END_TO_END}, END_TO_END

    record = {
        "meta": _metadata(args, passes),
        "op_kind": workload.op_kind,
        "cmd_tail_percentile": tail_p,
        "setup_samples_s": setup_samples,
        "sample_counts": counts,
        "named": named,
        "metrics": metrics,
        "errors": errors,
        "pass_walls": [(p["wall"], p["traced"]) for p in passes],
        "samples_s": samples,
        "scaled_samples_s": scaled,
        "scaled_pass_s": [p["scaled"] for p in passes],
        "reference_samples_s": [p["references"] for p in passes],
    }
    if args.workload == "sweep":
        record["mutants"] = {m.name: "".join(map(str, m.witness)) for m in workload.mutants}
        record["equivalent_mutants_left_out"] = workload.equivalent
    if tracer:
        record["trace"] = tracer.dump()
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-small' if args.small else ''}.json"
    result_file.write_text(json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    for e in errors[:20]:
        print(f"FAILED {e}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} passes={len(plain)} ({counts}) -> {result_file.relative_to(ROOT)}")
    for name, value in sorted(named.items()):
        unit = {"peak_rss_mb": "MB", "fail_frac": "frac"}.get(name, name.rsplit("_", 1)[-1])
        extra = {
            "cmd_tail_ms": f" (p{tail_p}, n={len(cmd)})",
            "op_ms": f" (median of {op_name}'s n={counts.get(op_name, 0)}, at reference speed)",
            "pass_s": " (median pass, at reference speed)",
            "setup_s": " (at reference speed)",
        }
        extra = extra.get(name, "")
        print(f"{name} {value:.6g} {unit}{extra}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def run_workload(name, seed, seconds, trace, small=False):
    """Run one workload in a process of its own.

    Returns its result and the lines it printed before it, and forwards
    its standard error; exits if the workload fails.
    """
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)] + (["--small"] if small else [])
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"workload {name} exited with {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def run_all(args) -> dict:
    """Every workload, each in a process of its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("sweep", "bigchain", "cli"):
        result, lines = run_workload(name, args.seed, args.seconds, args.trace, args.small)
        print("\n".join(lines))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "revlogic" / "__init__.py").is_file():
        print(f"error: no revlogic sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        result = run_all(args)
    elif args.setup_probe:
        _setup_probe(args)
        return 0
    else:
        result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
