"""Wall times corrected for the host's speed at the moment they were taken.

The benchmark runs on shared virtual machines whose speed for the same
pure-Python code drifts by a third or more, in bursts of a fraction of a
second and in swings of minutes.  A call of a second or more cannot be
timed steadily there, by best-of-N or by medians: two runs minutes apart
differ by 15-30 %, and even the fastest speed a run reaches moves by 15 %.

So, while a run is timed, an interval timer interrupts the process every
`PERIOD` seconds and runs a fixed reference loop that imports nothing from
ucfreq, and records how long the loop took.  Those samples say how fast
the host ran during each call.  A call's cost is its wall time, less the
time spent in the samples taken during it, divided by the median sample
around it: the call's length in reference loops.  Reported times are that
cost at the nominal speed `NOMINAL_S`, the reference loop's length at about
the best speed a 2-vCPU Xeon host of 2.0 GHz shows, so they read as seconds
on a quiet machine of that kind.  Work saved in ucfreq lowers them in
proportion, since the samples run no ucfreq code.

The host's slowdowns do not hit all code alike, so the reference loop
mixes, in about equal parts, the three kinds of work ucfreq does: exact
rational arithmetic on `Fraction`, a bare integer loop, and set-family work
on bitmasks (a union closure and its pairwise check).  Over eight 50 s
windows of both workloads' calls, where raw wall times spread by 0.13-0.43
(interquartile range over median), times corrected by this mix spread by
0.03-0.06; by the `Fraction` part alone, by 0.02-0.12, and by the integer
part alone, by 0.01-0.17.

The correction assumes the calls run in this one thread, as all of them do
here; work that ucfreq would move into other threads or processes could
slow the samples and is not corrected for.
"""

from __future__ import annotations

import gc
import signal
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import median
from time import perf_counter

PERIOD = 0.1    # seconds between samples
PAD = 0.25      # seconds either side of a call whose samples also count for it
MIN_NEAR = 3    # samples at least behind a call's speed
NOMINAL_S = 1.55e-3  # seconds one reference loop takes at the nominal speed


GENERATORS = (0b100000000011, 0b011000000100, 0b000111000000, 0b000000111000,
              0b110010000001, 0b001000000110, 0b000001100001)


def reference_loop() -> int:
    """About 1.5 ms of work at the nominal speed, a third of each kind."""
    q = Fraction(0)
    for i in range(1, 121):
        q += Fraction(i % 17 - 8, i % 13 + 1) * Fraction(3, i % 5 + 2)
    s = 0
    for i in range(7000):
        s += i * i % 7
    family: set[int] = set()
    for g in GENERATORS:
        family |= {g | a for a in family}
        family.add(g)
    closed = sum(a | b in family for a in family for b in family)
    return q.denominator + s + closed


class SpeedProbe:
    """Samples of the host's speed, taken on a timer while the probe is on."""

    def __init__(self) -> None:
        self.at = array("d")    # start of each sample, ascending
        self.took = array("d")  # its duration

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection would time ucfreq's heap, not the host
        start = perf_counter()
        reference_loop()
        took = perf_counter() - start
        if collecting:
            gc.enable()
        self.at.append(start)
        self.took.append(took)

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, spans: list[tuple[float, float]]) -> list[float]:
        """Times at the nominal speed of the calls that ran over `spans`
        (start, end)."""
        if not self.took:
            raise RuntimeError("no speed samples were taken")
        out = []
        for start, end in spans:
            lo, hi = bisect_left(self.at, start), bisect_right(self.at, end)
            inside = sum(self.took[lo:hi])
            lo, hi = bisect_left(self.at, start - PAD), bisect_right(self.at, end + PAD)
            while hi - lo < MIN_NEAR and (lo > 0 or hi < len(self.at)):
                lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
            out.append((end - start - inside) * NOMINAL_S / median(self.took[lo:hi]))
        return out
