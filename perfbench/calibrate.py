"""Machine-speed probe that puts every benchmark time on one reference speed.

The benchmark's host is shared: the same instance can take twice as long
from one minute to the next, and whole runs land in slow stretches.  The
probe is a fixed piece of interpreter-bound work that uses no library
code.  It is timed just before and just after each measured piece, and the
time is scaled by ``REFERENCE_S / mean probe time``, giving seconds at the
speed where the probe takes ``REFERENCE_S``.  A change to the library does
not move the probe, so a faster program still reads faster; a slower host
reads the same.

Every workload's hot layer is interpreter-bound: the entropy table and the
facet search are dict, tuple and generator work, and the simplex spends
its time in numpy calls on small tableaux (about 1 ms per solve at K=6).
"""

import time

REFERENCE_S = 0.020  # about what the probe takes on an unloaded 2-vCPU Xeon VM


def _work():
    counts = {}
    for i in range(64000):
        key = (i % 997, i % 13)
        counts[key] = counts.get(key, 0.0) + 1.0


def probe_s() -> float:
    """Wall time of one run of the probe."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scaled(seconds: float, probe_seconds: float) -> float:
    """`seconds` measured next to a probe, at the reference speed."""
    return seconds * REFERENCE_S / probe_seconds


def between_probes(times, probes) -> list:
    """Each of `times` scaled by the mean of the probes just before and
    after it; `probes` has one more entry than `times`."""
    return [scaled(t, (a + b) / 2) for t, a, b in zip(times, probes, probes[1:])]
