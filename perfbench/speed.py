"""Machine-speed reference for scaling measured op times.

On a shared machine the same op can run 1.8 times slower from one moment
to the next (another tenant on the sibling hardware thread), and the state
flips within a second.  The slowdown hits interpreter-bound code in
proportion, so a fixed piece of interpreter work (``reference_s``: rational
arithmetic, integer bit mixing and dict updates, like the program's inner
loops) tracks it.  ``Sampler`` times that reference right before an op
(best of two), every ``PERIOD_S`` while it runs (from a SIGALRM handler,
whose own time is taken out of the op's latency) and right after it (best
of two).  The benchmark reports

    scaled latency = latency * NOMINAL_REF_S / mean reference time during the op

that is, each op's time in reference loops, expressed in seconds at
``NOMINAL_REF_S`` per loop: about the uncontended speed of the 2-core Intel
Xeon (Python 3.11.7) the benchmark was built on, where the same loop takes
up to twice as long when the machine is contended.  A fixed nominal speed,
rather than the fastest one seen in the run, keeps a run that never sees
the machine uncontended comparable with one that does.  Raw times are
printed beside the scaled ones.  Set-up times are scaled the same way,
by the reference timed at the start and at the end of the set-up.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.1
NOMINAL_REF_S = 0.0009


def reference_s() -> float:
    """One timed run of the reference loop.  The garbage collector is held
    off for it: a collection of the op's heap would otherwise land in the
    reference and read as a slow machine."""
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i + 7)
    mix = 0
    for i in range(3000):
        mix = (mix * 31 + i) & 0xFFFFFFFF
        mix ^= mix >> 3
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    elapsed = time.perf_counter() - t0
    if collecting:
        gc.enable()
    return elapsed


def steady_reference_s() -> float:
    """The better of two back-to-back runs, so that one interrupt does not
    count as a slow machine."""
    return min(reference_s(), reference_s())


class Sampler:
    """Context manager around one op: collects reference times and the
    time its own samples took."""

    def __init__(self):
        self.refs: list[float] = []
        self.spent_s = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.refs.append(reference_s())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self.refs.append(steady_reference_s())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.refs.append(steady_reference_s())

    @property
    def mean_ref_s(self) -> float:
        return sum(self.refs) / len(self.refs)


def scaled(records: list[dict]) -> list[float]:
    """Each op's latency at the nominal reference speed."""
    return [r["latency_s"] * NOMINAL_REF_S / r["ref_s"] for r in records]
