"""Host-speed references: fixed work, timed next to every operation.

The shared hosts this benchmark runs on change speed by tens of per cent
from minute to minute, and the same code then reads that much slower or
faster.  So a fixed piece of reference work runs on either side of every
timed operation, and the gated timings are scaled to one fixed speed:

    scaled = raw * mean(reference seconds / measured seconds)

over the reference runs around the operation.  That is the time the
operation would take on a host where the reference work takes its
reference seconds; on the host the benchmark was built on, about its raw
time.  No reference imports anything from revlogic, so a program change
shows in the scaled time in full.  There are two references, one for
each kind of operation:

* ``LOOP``: a pure-Python loop that does the kind of work the program's
  hot paths do (it evaluates a fixed reversible network gate by gate, on
  tuples, lists and small dicts).  It is for operations inside the
  benchmark process.  It also runs once every ``PERIOD_S`` during an
  operation, from a timer signal, so that a long operation is read at
  the speeds it ran at; the time of those runs is left out of the
  operation's own.
* ``start_reference``: a bare interpreter start, ``python -c pass``.  It
  is for operations that start a Python process, such as a CLI command.
  Their cost follows process start-up, not the loop: on the build host
  the command time drifted by up to 25% between 20-second windows while
  its ratio to an adjacent bare start stayed within 2%.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import subprocess
import sys
from time import perf_counter

PERIOD_S = 0.05

_WIRES = 12
_rng = random.Random(20260101)
# Toffoli-like gates: (control, control, target) wire indices
_GATES = tuple(tuple(_rng.sample(range(_WIRES), 3)) for _ in range(24))
_TABLE = {(a, b, t): t ^ (a & b) for a in (0, 1) for b in (0, 1) for t in (0, 1)}
_PATTERNS = tuple(tuple((p >> i) & 1 for i in range(_WIRES)) for p in range(0, 1 << _WIRES, 97))


def _loop() -> int:
    table, seen = _TABLE, {}
    for bits in _PATTERNS:
        values = list(bits)
        for a, b, t in _GATES:
            values[t] = table[(values[a], values[b], values[t])]
        out = tuple(values)
        seen[out] = seen.get(out, 0) + 1
    return len(seen)


def _timed_loop() -> float:
    # with the collector off, so the loop never pays for the program's garbage
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _loop()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def sample(repeats: int = 3) -> float:
    """Seconds for one loop: the median of ``repeats`` timed runs."""
    return statistics.median(_timed_loop() for _ in range(repeats))


class Reference:
    """Reference work: ``sample()`` times it once; ``seconds`` is its time at reference speed."""

    def __init__(self, sample, seconds: float, ticks: bool) -> None:
        self.sample, self.seconds, self.ticks = sample, seconds, ticks


# seconds: about the median on the build host (2-vCPU Xeon, Python 3.11.7)
LOOP = Reference(sample, 0.0003, ticks=True)


def start_reference(env=None) -> Reference:
    """A bare interpreter start, with the environment the measured commands get."""

    def start() -> float:
        begin = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        return perf_counter() - begin

    return Reference(start, 0.075, ticks=False)


class Timing:
    """One timed operation: ``raw`` seconds, and ``scaled`` to reference speed.

    Use as ``with clock.timing() as t: ...``; both are set when the block
    exits, also when it raises.
    """

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.samples: list[float] = []  # reference runs around and in the operation
        self.spent = 0.0  # seconds of reference runs inside the operation
        self.raw = self.scaled = 0.0

    def _tick(self, _signum, _frame) -> None:
        start = perf_counter()
        self.samples.append(_timed_loop())
        self.spent += perf_counter() - start

    def __enter__(self) -> Timing:
        reference = self.clock.reference
        self.samples.append(self.clock.last or reference.sample())
        if reference.ticks:
            self._handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = perf_counter() - self._start
        reference = self.clock.reference
        if reference.ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)
        self.raw = elapsed - self.spent
        self.clock.last = reference.sample()
        self.samples.append(self.clock.last)
        self.scaled = self.raw * statistics.fmean(reference.seconds / s for s in self.samples)


class Clock:
    """Times operations one after another; the reference run after one is the run before the next."""

    def __init__(self, reference: Reference = LOOP) -> None:
        self.reference = reference
        self.last = 0.0

    def timing(self) -> Timing:
        return Timing(self)
