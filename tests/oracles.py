"""Slow reference implementations that the fast library paths are checked against."""

from __future__ import annotations

import math

import numpy as np

import pollctl as pc
from pollctl.cost import step_path


def project_to_compact_by_bisection(
    params: pc.SystemParameters, repetitions: int, ratios
) -> np.ndarray:
    """Clip to [0, 1], then for any queue still short of total one, shift its
    visits up uniformly (saturating at 1) by the smallest shift, found by 80
    bisection steps, whose floating-point sum reaches one."""
    table = pc.augment(params.table, repetitions)
    r = np.clip(np.asarray(ratios, dtype=float), 0.0, 1.0)
    for k in range(params.num_queues):
        idx = np.asarray(table.visit_stages(k))
        if r[idx].sum() >= 1.0:
            continue
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if np.clip(r[idx] + mid, 0.0, 1.0).sum() >= 1.0:
                hi = mid
            else:
                lo = mid
        r[idx] = np.clip(r[idx] + hi, 0.0, 1.0)
    return r


def recorded_path_cost(path, psi: pc.CostFunction, t0: float, t1: float) -> float:
    """Integral of ``psi`` over a recorded ``ScaledPath`` on [t0, t1), summed one
    constant step at a time: the level just after each jump of any queue, times
    the time to the next jump."""
    jumps = np.concatenate(path.times)
    bounds = np.unique(np.concatenate([[t0, t1], jumps[(jumps > t0) & (jumps < t1)]]))
    steps = psi.value(path.sample(bounds[:-1])) * np.diff(bounds)
    return math.fsum(steps)


def window_integral(
    scalar, start: int, ups: np.ndarray, downs: np.ndarray, duration: float, scale: int
) -> float:
    """Integral of ``scalar.value(level / scale)`` over one window of
    ``duration``, by merging its step path and a dot product.

    The job count starts at ``start`` and moves by +1 at each epoch of ``ups``
    and by -1 at each epoch of ``downs`` (sorted epochs relative to the
    window start; downs first at equal epochs).
    """
    times, levels = step_path(start, ups, downs)
    seq = np.concatenate([[start], levels]) / scale
    bounds = np.concatenate([[0.0], times, [duration]])
    return float(np.dot(scalar.value(seq), np.diff(bounds)))


def arrivals_before(pending: np.ndarray, completions: np.ndarray) -> np.ndarray:
    """Number of ``pending`` epochs strictly before each completion epoch.

    Equal to ``np.searchsorted(pending, completions, side="left")`` for sorted
    ``pending``, but counted from the arrival side: with non-decreasing
    ``completions``, arrival ``a`` precedes completion ``i`` exactly when the
    first completion after ``a`` has index at most ``i``.
    """
    first = completions.searchsorted(pending, "right")
    counts = np.bincount(first, minlength=completions.size + 1)
    return np.cumsum(counts[: completions.size])


def walk_first_hit(
    pending: np.ndarray, t0: float, completions: np.ndarray, done: int, drop: int
) -> int:
    """First completion of a busy-period chunk at which the net drop, services
    (``done`` before the chunk) minus arrivals since ``t0``, equals ``drop``;
    -1 when it never does.  ``completions`` are relative to ``t0``."""
    arrived = arrivals_before(pending - t0, completions)
    walk = done + 1 + np.arange(completions.size) - arrived
    hits = np.nonzero(walk == drop)[0]
    return int(hits[0]) if hits.size else -1


def arrival_epochs(rate: float, gen: np.random.Generator, count: int) -> np.ndarray:
    """The first ``count`` epochs of an arrival clock on ``gen``, from one long
    draw of whole 4 096-gap blocks: each block's gap cumsum plus its head, the
    last epoch of the block before (0 for the first), folded in sequence."""
    blocks = -(-count // 4096)
    gaps = gen.exponential(1.0 / rate, (blocks, 4096))
    epochs = []
    head = 0.0
    for row in gaps:
        epochs.append(head + np.cumsum(row))
        head = float(epochs[-1][-1])
    return np.concatenate(epochs)[:count]
