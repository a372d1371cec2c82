"""Slow reference implementations that the fast library paths are checked against."""

from __future__ import annotations

import math

import numpy as np

import pollctl as pc


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
