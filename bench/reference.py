"""A fixed reference task that calls no pollctl code, for speed normalisation.

The machines this benchmark runs on are shared, and their speed changes by
up to a factor of two over seconds to minutes as other tenants come and go.
Timing the reference task right before and right after each timed piece of
work measures the machine's current speed.  Scaling the work's time by
``NOMINAL_S`` over that reference time gives seconds at a fixed speed.
The task mixes the three kinds of work pollctl does: interpreted Python,
many small NumPy calls, and passes over arrays of a few MB.
"""

from __future__ import annotations

import time

import numpy as np

# Reference task time, in seconds, at the speed results are reported at:
# roughly its time on a 2-core Xeon sandbox with no other load.
NOMINAL_S = 0.1

_ARRAY = np.random.default_rng(0).random(1 << 18)


def reference_seconds() -> float:
    """Wall time of one run of the reference task."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    levels = np.ones(5)
    step = np.eye(5) * 0.5
    for _ in range(3000):
        levels = np.clip(step @ levels + 1.0, 0.0, 4.0)
    for _ in range(8):
        np.sort(_ARRAY)
        np.cumsum(_ARRAY)
    return time.perf_counter() - start


def normalised(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the nominal speed, given reference times either side."""
    return seconds * NOMINAL_S / (0.5 * (before + after))
