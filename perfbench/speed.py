"""How fast the machine runs while a rep runs.

The host's speed drifts: the same rep runs at one of a few speeds up to
1.8x apart, for periods from a few seconds to minutes, and CPU time moves
with wall time.  A probe timed before and after a rep misses changes inside
it, so the rep samples its own speed instead.  A SIGALRM timer interrupts
it every INTERVAL_S seconds, and the handler times PROBE_SIZE steps of a
fixed pure-Python loop, about 0.4 ms, in the rep's own thread.  The loop
allocates no containers, so it never sets off the garbage collector and
what the package leaves in memory cannot slow it.

`speed` is REF_S over the trimmed mean of the samples: about 1 on the fast
state of the machine where the benchmark was defined, lower when the
machine is slower.  Multiplying a rep's times by it gives seconds at that
reference speed.  The time spent in the handler is counted in `spent`, so
that the caller can take it out of what it times.
"""

import signal
import statistics
import time

INTERVAL_S = 0.05
PROBE_SIZE = 2500
# About the probe's trimmed-mean time on the fast state of the 2-vCPU
# machine where the benchmark was defined.
REF_S = 0.00040
TRIM = 0.1

_TABLE = tuple((i * 7919) % 1009 for i in range(512))


def _mix(a, b):
    return (a * 31 + b) % 1000003


def probe_round():
    """Fixed work: integer arithmetic, tuple indexing and small calls."""
    acc = 0
    table = _TABLE
    for i in range(PROBE_SIZE):
        acc = _mix(acc, table[i & 511] + i)
    return acc


class Sampler:
    """Context manager: samples the probe's time while the block runs."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe_round()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self):
        """REF_S over the mean of the samples without the top and bottom
        TRIM of them; 1.0 when there is no sample."""
        xs = sorted(self.samples)
        if not xs:
            return 1.0
        cut = int(len(xs) * TRIM)
        return REF_S / statistics.mean(xs[cut:len(xs) - cut])
