"""The three benchmark workloads and the per-operation bookkeeping they share.

Each workload has a ``setup``, the program's part of set-up (import
aside): building and writing the netlists, timed on its own as
``setup_s``; a ``prepare``, which computes the benchmark's known answers
and is never timed; and a ``run_pass`` that performs one fixed session of
operations.  Every operation goes through ``Pass.op``, which times it
and queues a check against a known answer; the checks run after the
pass, outside the timed region.  Each operation is also bracketed by
runs of a host-speed reference (``calib``), and its time scaled to
reference speed is kept beside the raw one.

Why these workloads:

* ``sweep`` -- exhaustive ``check_equivalence`` and ``truth_table`` on
  bcd-chain 2 (2^17 patterns), plus 14 fail-fast mutant checks.  The
  per-pattern simulation loop does nearly all the work; text I/O and
  validation almost none.
* ``bigchain`` -- build, serialize, parse, validate and analyze a
  200-digit chain, then ``run`` and ``run_inverse`` on it.  The
  per-netlist, linear-in-size paths do the work; no exhaustive sweep.
* ``cli`` -- a fixed session of ``python -m revlogic.cli`` subprocesses
  on the small designs.  Interpreter start, package import and
  per-command validation do the work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import calib
import known
from revlogic import builders, cli, metrics, netlist, simulate, textio


class Pass:
    """Timings and pending checks of one pass."""

    def __init__(self, clock: calib.Clock) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)  # raw seconds
        self.scaled: dict[str, list[float]] = defaultdict(list)  # seconds at reference speed
        self.references: dict[str, list[list[float]]] = defaultdict(list)  # reference runs around each
        self.pending: list = []
        self.errors: list[str] = []
        self.attempted = 0
        self.clock = clock

    def op(self, kind, label, fn, check):
        """Time ``fn()`` under ``kind``; queue ``check(result)`` (None or a problem)."""
        self.attempted += 1
        timing = self.clock.timing()
        try:
            with timing:
                result = fn()
        except Exception as exc:  # an operation that raises counts as failed
            self._record(kind, timing)
            self.errors.append(f"{label}: raised {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return None
        self._record(kind, timing)
        self.pending.append((label, check, result))
        return result

    def _record(self, kind, timing):
        self.samples[kind].append(timing.raw)
        self.scaled[kind].append(timing.scaled)
        self.references[kind].append(timing.samples)

    def scaled_total(self) -> float:
        """The pass at reference speed: the sum of its scaled operation times."""
        return sum(sum(xs) for xs in self.scaled.values())

    def verify(self) -> None:
        for label, check, result in self.pending:
            try:
                problem = check(result)
            except Exception as exc:
                problem = f"check raised {exc!r}"
            if problem:
                self.errors.append(f"{label}: {problem}")
        self.pending.clear()


def _bits(value, width):
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def _bitstring(bits):
    return "".join(map(str, bits))


class Sweep:
    """Exhaustive oracle check, mutant checks and full truth table of bcd-chain N."""

    name = "sweep"
    op_kind = "verdict_fail"  # the repeated operation behind op_ms

    TABLE_SAMPLES = 256  # rows checked against the gate-by-gate evaluator

    def __init__(self, seed, work, digits=2):
        self.seed, self.work, self.digits = seed, Path(work), digits
        self.rng = known.seeded(seed, "sweep")

    def setup(self):
        self.net = builders.build_bcd_chain(self.digits)
        self.candidates = known.mutant_candidates(self.net)
        for n in [self.net, *self.candidates.values()]:
            (self.work / f"{n.name}.net").write_text(textio.serialize_netlist(n), encoding="utf-8")

    def prepare(self):
        d = self.digits
        self.oracle, self.domain = known.chain_oracle(d), known.chain_domain(d)
        mutant_rng = known.seeded(self.seed, "mutants")
        self.mutants, self.equivalent = known.confirm_mutants(self.net, self.candidates, self.oracle, d, mutant_rng)
        self.width = len(self.net.primary_inputs)
        # every in-domain row is checked against the oracle, a seeded
        # sample of all rows against the gate-by-gate evaluator
        # the hex reading of a zero-padded decimal string is its BCD packing
        packed = [int(f"{v:0{d}d}", 16) for v in range(10**d)]
        self.in_domain = {(a << (4 * d + 1)) | (b << 1) | cin for a in packed for b in packed for cin in (0, 1)}
        self.sampled = {}
        for index in self.rng.sample(range(1 << self.width), self.TABLE_SAMPLES):
            values = known.evaluate(self.net, _bits(index, self.width))
            garbage = tuple(values[w] for w in known.garbage_of(self.net))
            self.sampled[index] = (known.outputs_of(self.net, values), garbage)
        self.wanted = self.in_domain | set(self.sampled)

    def callbacks(self, tracer):
        if tracer is None:
            return self.oracle, self.domain
        return tracer.leaf("bench.oracle", self.oracle), tracer.leaf("bench.domain", self.domain)

    def run_pass(self, p: Pass, tracer=None):
        oracle, domain = self.callbacks(tracer)
        p.op(
            "verdict_pass",
            f"check {self.net.name}",
            lambda: simulate.check_equivalence(self.net, oracle, domain),
            lambda r: None if r == [] else f"{len(r)} counterexamples on a correct design",
        )
        # two rounds of mutants, on either side of the table, spread the
        # short fail-fast samples over the pass
        self._mutant_round(p, oracle, domain)
        p.op("table", f"truth_table {self.net.name}", self._consume_table, self._check_table)
        self._mutant_round(p, oracle, domain)

    def _mutant_round(self, p, oracle, domain):
        order = list(self.mutants)
        self.rng.shuffle(order)
        for m in order:
            p.op(
                "verdict_fail",
                f"mutant {m.name}",
                lambda m=m: simulate.check_equivalence(m.netlist, oracle, domain, max_counterexamples=16),
                lambda r, m=m: self._check_counterexamples(m, r),
            )

    def _check_counterexamples(self, mutant, found):
        if len(found) != 16:
            return f"expected 16 counterexamples, got {len(found)}"
        for ce in found:
            bits = tuple(ce.inputs)
            if not self.domain(bits):
                return f"counterexample {_bitstring(bits)} is outside the domain"
            actual = known.outputs_of(mutant.netlist, known.evaluate(mutant.netlist, bits))
            if tuple(ce.expected) != self.oracle(bits) or tuple(ce.actual) != actual or actual == self.oracle(bits):
                return f"counterexample {_bitstring(bits)} disagrees with the evaluator"
        return None

    def _consume_table(self):
        count, kept = 0, {}
        wanted = self.wanted
        for index, row in enumerate(simulate.truth_table(self.net)):
            if index in wanted:
                kept[index] = row
            count += 1
        return count, kept

    def _check_table(self, result):
        count, kept = result
        if count != 1 << self.width:
            return f"{count} rows, expected {1 << self.width}"
        for index, row in kept.items():
            bits = _bits(index, self.width)
            if tuple(row.inputs) != bits:
                return f"row {index} has inputs {_bitstring(row.inputs)}"
            if index in self.in_domain and tuple(row.outputs) != self.oracle(bits):
                return f"row {_bitstring(bits)} disagrees with the decimal oracle"
            if index in self.sampled and (tuple(row.outputs), tuple(row.garbage)) != self.sampled[index]:
                return f"row {_bitstring(bits)} disagrees with the evaluator"
        return None


class BigChain:
    """Save/load round trip of a long chain, then one `run` and the `run_inverse` of its result."""

    name = "bigchain"
    op_kind = "inv"  # the operation that takes most of a pass

    def __init__(self, seed, work, digits=200):
        self.seed, self.work, self.digits = seed, Path(work), digits
        self.rng = known.seeded(seed, "bigchain")

    def setup(self):
        # builds are deterministic, so every pass must serialize to this text
        self.text = textio.serialize_netlist(builders.build_bcd_chain(self.digits))
        (self.work / f"bcd_chain{self.digits}.net").write_text(self.text, encoding="utf-8")

    def prepare(self):
        self.oracle = known.chain_oracle(self.digits)
        self.row = known.chain_row(self.digits)

    def run_pass(self, p: Pass, tracer=None):
        d = self.digits
        saved = p.op(
            "save",
            f"build+serialize bcd-chain {d}",
            self._save,
            lambda r: None if r[1] == self.text else "serialization differs from the set-up build",
        )
        if saved is None:
            return
        built, text = saved
        loaded = p.op("load", f"parse+validate+analyze bcd-chain {d}", lambda: self._load(text), lambda r: self._check_load(built, r))
        if loaded is None:
            return
        net = loaded[0]
        a, b, cin = known.random_operands(self.rng, d)
        bits = known.encode_operands(a, b, cin, d)
        inputs = dict(zip(net.primary_inputs, bits))
        expected = self.oracle(bits)
        result = p.op(
            "fwd",
            f"run {a}+{b}+{cin}",
            lambda: simulate.run(net, inputs),
            lambda r: None if known.outputs_of(net, r.primary_out) == expected else "wrong sum",
        )
        if result is not None:
            p.op(
                "inv",
                f"run_inverse of {a}+{b}+{cin}",
                lambda: simulate.run_inverse(net, result.terminals),
                lambda r: self._check_inverse(net, inputs, r),
            )

    def _save(self):
        built = builders.build_bcd_chain(self.digits)
        return built, textio.serialize_netlist(built)

    def _load(self, text):
        parsed = textio.parse_netlist(text)
        return parsed, netlist.validate(parsed), metrics.analyze(parsed)

    def _check_load(self, built, result):
        parsed, violations, report = result
        if parsed != built:
            return "parse(serialize(n)) != n"
        if violations:
            return f"violations on a valid chain: {violations[:3]}"
        if report.to_dict() != self.row:
            return f"metrics {report.to_dict()} != {self.row}"
        return None

    @staticmethod
    def _check_inverse(net, inputs, recovered):
        expected = dict(inputs)
        expected.update(net.constants)
        return None if recovered == expected else "inverse did not recover the operands and constants"


class Cli:
    """A fixed session of CLI commands, each one checked against a known answer."""

    name = "cli"
    op_kind = "cmd"

    FANOUT = "circuit fanout\ninputs a b\nconst k 0\ngate FG a k -> x y\ngate FG a b -> p q\noutputs x y p q\nend\n"
    # 'a' is consumed twice; the second use is line 5, token 2
    FANOUT_POSITION = "line 5, token 2"

    def __init__(self, seed, work, src, in_process=False):
        self.seed, self.work = seed, Path(work)
        self.rng = known.seeded(seed, "cli")
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.in_process = in_process
        self.peak_rss_kib = 0  # largest command process so far

    def setup(self):
        self.designs = {
            "ripple4": builders.build_ripple_adder(),
            "bcd1": builders.build_bcd_adder("bcd1"),
            "bcd2": builders.build_bcd_adder("bcd2"),
            "bcd2c": builders.build_bcd_adder("bcd2", carry_in="const"),
        }
        self.texts = {k: textio.serialize_netlist(n) for k, n in self.designs.items()}
        self.path = {k: str(self.work / f"{k}.net") for k in self.designs}
        self.path["fanout"] = str(self.work / "fanout.net")
        Path(self.path["fanout"]).write_text(self.FANOUT, encoding="utf-8")

    def prepare(self):
        bcd2 = self.designs["bcd2"]
        self.bcd2_garbage = known.garbage_of(bcd2)
        self.exhaustive = []
        for index in range(1 << len(bcd2.primary_inputs)):
            bits = _bits(index, len(bcd2.primary_inputs))
            values = known.evaluate(bcd2, bits)
            outs = known.outputs_of(bcd2, values)
            garbage = tuple(values[w] for w in self.bcd2_garbage)
            self.exhaustive.append((bits, outs, garbage))

    def invoke(self, argv):
        """Run one command; returns (exit code, stdout, stderr)."""
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()
        # output goes to files and the child is reaped with wait4, so its
        # own peak RSS is known (RUSAGE_CHILDREN would mix in set-up probes)
        with tempfile.TemporaryFile(dir=self.work) as out, tempfile.TemporaryFile(dir=self.work) as err:
            proc = subprocess.Popen([sys.executable, "-m", "revlogic.cli", *argv], stdout=out, stderr=err, env=self.env, cwd=self.work)
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read().decode(), err.read().decode()

    def session(self):
        """(argv, check) pairs for one pass; seeded bitstrings, fixed commands."""
        P, rng = self.path, self.rng
        cmds = []
        for key, args in (("ripple4", ["ripple4"]), ("bcd1", ["bcd1"]), ("bcd2", ["bcd2"]), ("bcd2c", ["bcd2", "--carry-in", "const"])):
            cmds.append((["build", *args, "-o", P[key]], self._expect_file(key)))
        for key in ("ripple4", "bcd1", "bcd2c"):
            cmds.append((["validate", P[key]], self._expect_lines(["ok"])))
        cmds.append((["validate", P["fanout"]], self._expect_fanout))
        for key in ("ripple4", "bcd2", "bcd2c"):
            cmds.append((["metrics", P[key], "--json"], self._expect_row(key)))
        cmds.append(
            (["compare", P["ripple4"], P["bcd1"], P["bcd2"], P["bcd2c"], "--with-literature", "--json"], self._expect_compare)
        )
        for key, kind in (("ripple4", "ripple4"), ("bcd1", "bcd"), ("bcd2", "bcd"), ("bcd2c", "bcd")):
            cmds.append((["check-adder", P[key], "--kind", kind], self._expect_lines(["ok"])))

        bits = [rng.randrange(2) for _ in range(9)]
        cmds.append(
            (["sim", P["ripple4"], "--in", _bitstring(bits)], self._expect_lines([f"outputs {_bitstring(known.ripple_oracle(bits))}"], skip="#"))
        )
        index = int(_bitstring(known.random_domain_bits(rng, 1)), 2)
        ins, outs, garbage = self.exhaustive[index]
        if outs != known.chain_oracle(1)(ins):
            raise RuntimeError("evaluator disagrees with the decimal oracle on bcd2")
        cmds.append(
            (
                ["sim", P["bcd2"], "--in", _bitstring(ins), "--show-garbage"],
                self._expect_lines([f"outputs {_bitstring(outs)}", f"garbage {_bitstring(garbage)}"], skip="#"),
            )
        )
        cmds.append((["sim", P["bcd2"], "--exhaustive", "--show-garbage"], self._expect_exhaustive))
        ins, outs, garbage = self.exhaustive[rng.randrange(len(self.exhaustive))]
        cmds.append((["inverse", P["bcd2"], "--out", _bitstring(outs + garbage)], self._expect_inverse("bcd2", ins)))
        ripple = self.designs["ripple4"]
        bits = tuple(rng.randrange(2) for _ in range(9))
        values = known.evaluate(ripple, bits)
        terminals = known.outputs_of(ripple, values) + tuple(values[w] for w in known.garbage_of(ripple))
        cmds.append((["inverse", P["ripple4"], "--out", _bitstring(terminals)], self._expect_inverse("ripple4", bits)))
        return cmds

    def run_pass(self, p: Pass, tracer=None):
        for argv, check in self.session():
            label = " ".join(a if not a.startswith(str(self.work)) else Path(a).name for a in argv)
            if tracer is None:
                p.op("cmd", label, lambda: self.invoke(argv), check)
            else:
                with tracer.span(f"cli.main.{argv[0]}"):
                    p.op("cmd", label, lambda: self.invoke(argv), check)

    # -- known answers -------------------------------------------------

    def _expect_file(self, key):
        def check(result):
            code, _out, err = result
            if code != 0:
                return f"exit {code}: {err.strip()}"
            return None if Path(self.path[key]).read_text(encoding="utf-8") == self.texts[key] else "file differs"

        return check

    @staticmethod
    def _expect_lines(lines, skip=None):
        def check(result):
            code, out, err = result
            got = [ln for ln in out.splitlines() if not (skip and ln.startswith(skip))]
            if code != 0 or got != lines:
                return f"exit {code}, stdout {got[:4]!r}, stderr {err.strip()[:200]!r}"
            return None

        return check

    def _expect_fanout(self, result):
        code, _out, err = result
        if code != 2 or self.FANOUT_POSITION not in err or "fan-out" not in err:
            return f"expected exit 2 with a fan-out diagnostic at {self.FANOUT_POSITION}, got {code}: {err.strip()!r}"
        return None

    def _expect_row(self, key):
        def check(result):
            code, out, _err = result
            row = json.loads(out) if code == 0 else None
            return None if row == known.DESIGN_ROWS[key] else f"exit {code}, metrics {row}"

        return check

    def _expect_compare(self, result):
        code, out, _err = result
        if code != 0:
            return f"exit {code}"
        rows = json.loads(out)
        computed = [r for r in rows if r["kind"] == "computed"]
        claimed = [r for r in rows if r["kind"] == "claimed"]
        if len(claimed) != known.LITERATURE_ROWS:
            return f"{len(claimed)} literature rows"
        for key, row in zip(("ripple4", "bcd1", "bcd2", "bcd2c"), computed, strict=True):
            want = known.DESIGN_ROWS[key]
            claim = known.CLAIMED_GARBAGE[row["label"]]
            metrics_part = {k: row[k] for k in want}
            if metrics_part != want or row["claimed_garbage"] != claim or row["garbage_discrepancy"] != (claim != want["garbage"]):
                return f"row {key}: {row}"
        return None

    def _expect_exhaustive(self, result):
        code, out, _err = result
        want = [f"{_bitstring(i)} -> {_bitstring(o)} | {_bitstring(g)}" for i, o, g in self.exhaustive]
        got = [ln for ln in out.splitlines() if not ln.startswith("#")]
        if code != 0 or got != want:
            return f"exit {code}, {len(got)} rows differ from the evaluator's {len(want)}"
        header = f"# garbage: {' '.join(self.bcd2_garbage)}"
        return None if header in out.splitlines() else "garbage header differs"

    def _expect_inverse(self, key, inputs):
        net = self.designs[key]
        constants = " ".join(f"{w}={b}" for w, b in net.constants)

        def check(result):
            code, out, _err = result
            lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
            want = [f"inputs {_bitstring(inputs)}", f"constants {constants}"]
            return None if code == 0 and lines == want else f"exit {code}, {lines!r}"

        return check


WORKLOADS = {w.name: w for w in (Sweep, BigChain, Cli)}
