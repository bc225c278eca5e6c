"""In-memory span tracing around the public functions of each revlogic module.

A function is wrapped by replacing every module attribute that refers
to it, in every revlogic module, so calls that go through another
module's globals are caught too (``simulate.run`` -> ``require_valid``
-> ``validate``).  Each call records a span (name, start, end, parent);
a span's self time is its duration minus the time its child spans
cover.  Per-pattern callbacks (the benchmark's oracle and domain) are
leaves: they are counted and timed in aggregate rather than kept as
spans, and their time is charged to the enclosing span as child time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import defaultdict
from time import perf_counter

MODULES = ("builders", "textio", "netlist", "simulate", "metrics", "cli")

TRACED = {
    "builders": ("build_ripple_adder", "build_bcd_adder", "build_bcd_chain"),
    "textio": ("parse_netlist", "serialize_netlist"),
    "netlist": ("validate", "is_valid", "require_valid", "garbage_wires"),
    "simulate": ("run", "run_inverse", "truth_table", "check_equivalence"),
    "metrics": ("analyze", "compare"),
    "cli": ("main",),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.child: list[float] = []
        self.stack: list[int] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.child.append(0.0)
        self.stack.append(index)
        return index

    def _exit(self, index: int, start: float, end: float) -> None:
        self.stack.pop()
        span = self.spans[index]
        span[1], span[2] = start, end
        if span[3] >= 0:
            self.child[span[3]] += end - start

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._enter(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(index, start, perf_counter())

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index, start, perf_counter())

        return traced

    def leaf(self, name: str, fn):
        """Aggregate timing for a per-pattern callback."""
        stats = self.leaves[name]
        stack, child = self.stack, self.child

        def timed(*args):
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
            stats[0] += 1
            stats[1] += elapsed
            if stack:
                child[stack[-1]] += elapsed
            return result

        return timed

    def totals(self, first_span: int = 0) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds] over spans from ``first_span``."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for index in range(first_span, len(self.spans)):
            name, start, end, _parent = self.spans[index]
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - self.child[index]
        return out

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "self": e - s - c}
                for (n, s, e, p), c in zip(self.spans, self.child)
            ],
            "leaves": {name: {"calls": c, "s": t} for name, (c, t) in self.leaves.items()},
        }


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every revlogic module attribute that names a traced function."""
    modules = [importlib.import_module("revlogic")]
    modules += [importlib.import_module(f"revlogic.{m}") for m in MODULES]
    patched = []
    for mod_name, names in TRACED.items():
        home = importlib.import_module(f"revlogic.{mod_name}")
        for fname in names:
            original = getattr(home, fname)
            wrapper = tracer.wrap(f"{mod_name}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
