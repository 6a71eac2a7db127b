"""Host-speed calibration.

A shared host can change speed by a third or more for tens of seconds
at a time (a shared 2-vCPU x86_64 VM ran the same code up to twice as
slowly from one run to the next), so two runs of the same code can
differ by more than any useful bound.  A fixed reference computation, timed
every ``PERIOD_S`` between the ops of a run, measures the host's speed
at that moment.  Every time the benchmark reports is scaled to a nominal
host on which the reference takes ``REF_NOMINAL_S``:

    reported = measured * REF_NOMINAL_S / reference time around it

where the reference time around an interval is the median of the
samples taken within ``WINDOW_S`` of it.  The reference is pure Python
in the library's own style: rational arithmetic, small objects, and
lookups spread over a table of some megabytes, so that it feels the
cache and memory contention of a busy host as the library does.  Host
speed then moves both alike (on a shared 2-vCPU x86_64 host, over
windows of a few seconds, the workloads' times followed the reference's
with a slope near 1); a change to gradedet moves only the measured
time.  Only the standard library is
imported here, so that a set-up time can be calibrated before gradedet
is imported.
"""

import bisect
import random
import statistics
import time
from fractions import Fraction

clock = time.perf_counter

REF_ROUNDS = 400
REF_NOMINAL_S = 0.002   # the reference's time on the nominal host
PERIOD_S = 0.1          # least time between two samples of a run
WINDOW_S = 0.5          # samples this close to an interval calibrate it
NEAREST = 3             # samples per side used when none is that close


class _Term:
    """A small object of the kind the library allocates per product."""

    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


_TABLE = {(i % 97, i // 97): Fraction(i % 13 + 1, i % 7 + 1)
          for i in range(40000)}
_KEYS = list(_TABLE)
random.Random(0).shuffle(_KEYS)


def reference():
    """Fixed work: REF_ROUNDS scattered table lookups, each making a
    rational product into a new small object, summed into a dict."""
    acc = {}
    for i in range(REF_ROUNDS):
        key = _KEYS[(i * 7919) % len(_KEYS)]
        term = _Term(key, _TABLE[key] * Fraction(i % 5 + 1, 3))
        acc[term.key[0]] = acc.get(term.key[0], 0) + term.value
    return acc


def time_reference():
    t0 = clock()
    reference()
    return clock() - t0


class Calibrator:
    """Reference samples of one run, in time order, and the factors that
    scale a measured interval to the nominal host."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.times = []       # midpoint of each sample
        self.seconds = []     # its duration
        self.spent = 0.0      # total time spent in samples
        self.next_at = 0.0

    def sample(self):
        t0 = clock()
        reference()
        t1 = clock()
        self.times.append((t0 + t1) / 2)
        self.seconds.append(t1 - t0)
        self.spent += t1 - t0
        self.next_at = t1 + self.period
        return t1 - t0

    def tick(self):
        """Takes a sample when one is due; returns whether it did."""
        if clock() >= self.next_at:
            self.sample()
            return True
        return False

    def factor(self, start, end):
        """REF_NOMINAL_S over the median reference time of the samples
        within WINDOW_S of [start, end]; when none is that close, of the
        NEAREST samples on each side of it."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < 1:
            lo = max(0, lo - NEAREST)
            hi = min(len(self.times), hi + NEAREST)
        return REF_NOMINAL_S / statistics.median(self.seconds[lo:hi])


def calibrated(fn, samples=5):
    """(fn(), (seconds fn took, the same scaled to the nominal host)),
    with reference samples taken just before and just after it."""
    refs = [time_reference() for _ in range(samples)]
    t0 = clock()
    value = fn()
    elapsed = clock() - t0
    refs += [time_reference() for _ in range(samples)]
    nominal = elapsed * REF_NOMINAL_S / statistics.median(refs)
    return value, (elapsed, nominal)
