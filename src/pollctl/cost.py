"""Holding-cost functions and exact integration along queue-level paths.

Fluid paths are piecewise linear and simulated sample paths are piecewise
constant, so for the built-in cost families every integral is computed in
closed form, vectorised over arrays of linear pieces: linear and polynomial
costs via antiderivatives, piecewise-linear costs as sums of threshold-
activated linear terms.  Simulated paths are integrated a block of tours at a
time.  ``block_path`` is the one merge of a queue's simulated jumps: one
stable sort merges its completions and arrivals in linear time, and the tour
bounds are slotted in.  A separable cost integrates each queue on its own
merged path, where it is evaluated once per job count the path takes and
read back per piece; any other cost reads every queue's count on the union
of their paths' epochs, evaluated once per block.  Either way the pieces are
summed per tour.  A linear cost needs no step path at all: its integral is
the total time the jobs spend in the queue.  Fluid paths are
integrated through one method of every cost, ``integrals(start, end, dt)``
over arrays of linear pieces; a ``CustomCost`` of an arbitrary callable
loops adaptive Gauss-Legendre quadrature with a 1e-10 relative target over
the pieces, such as the breakpoint orbit of ``VisitRecursion.orbit``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache

import numpy as np


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 16-node Gauss-Legendre rule rescaled to [0, 1], built on first use
    so that importing the module does not load ``numpy.polynomial``."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    return (nodes + 1.0) / 2.0, weights / 2.0


class CostFunction:
    """Nonnegative, componentwise-nondecreasing cost of a queue-level vector."""

    def value(self, levels):
        """Cost at one level vector (K,) or a batch of them (T, K)."""
        raise NotImplementedError

    def integrals(self, start, end, dt) -> np.ndarray:
        """Integrals over pieces on which levels move linearly from ``start``
        to ``end`` (..., K) in time ``dt`` (...)."""
        raise NotImplementedError

    def tour_integrals(
        self,
        levels: np.ndarray,
        ups: list[np.ndarray],
        downs: list[np.ndarray],
        bounds: np.ndarray,
        scale: int,
    ) -> np.ndarray:
        """Integral of ``value(levels / scale)`` over each tour of a block.

        ``levels`` (tours + 1, K) holds every queue's count at the tour
        bounds, and ``ups`` and ``downs`` one epoch array per queue, as in
        ``ScalarCost.tour_integrals``.  The cost is evaluated once, on every
        queue's count over the deduplicated union of their paths' epochs: a
        zero-width piece would change how the pieces are grouped for summing.
        """
        paths = [
            block_path(levels[:, k], up, down, bounds)
            for k, (up, down) in enumerate(zip(ups, downs))
        ]
        grid = np.unique(np.concatenate([times for times, _, _ in paths]))
        # each queue's count on every piece: after every jump up to its start
        counts = np.column_stack(
            [path[t.searchsorted(grid[:-1], "right") - 1] for t, path, _ in paths]
        )
        pieces = self.value(counts / scale) * np.diff(grid)
        return _tour_sums(pieces, grid.searchsorted(bounds))


class ScalarCost:
    """Cost of a single queue's level; building block of separable costs."""

    def value(self, x):
        raise NotImplementedError

    def integrals(self, x0, x1, dt) -> np.ndarray:
        """Integrals over pieces moving linearly from x0 to x1 in time dt."""
        raise NotImplementedError

    def tour_integrals(
        self,
        levels: np.ndarray,
        ups: np.ndarray,
        downs: np.ndarray,
        bounds: np.ndarray,
        scale: int,
    ) -> np.ndarray:
        """Integral of ``value(level / scale)`` over each tour of a block.

        Tour ``j`` runs from ``bounds[j]`` to ``bounds[j + 1]`` and starts
        with ``levels[j]`` jobs; ``levels[-1]`` is the count at the block's
        end.  The count moves by +1 at each epoch of ``ups`` and by -1 at
        each epoch of ``downs`` (sorted absolute epochs; downs first at equal
        epochs).  An arrival at a bound belongs to the later tour.
        Completions go to the tours in order, as many to each as ``levels``
        implies: one at a bound can close the earlier tour or open the later.
        The path moves one job at a time, so its counts span at most one more
        value than it has jumps: ``value`` is taken once per count in that
        span and read back per piece, with the bits it has per piece, since
        it works element by element.
        """
        times, path, slots = block_path(levels, ups, downs, bounds)
        counts = path[:-1]
        low = counts.min()
        table = self.value(np.arange(low, counts.max() + 1) / scale)
        pieces = table[counts - low] * np.diff(times)
        return np.add.reduceat(pieces, slots[:-1])


def _tour_sums(pieces: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum of ``pieces[starts[j] : starts[j + 1]]`` for every ``j``; an empty
    run sums to zero (``reduceat`` cannot sum one)."""
    sums = np.zeros(starts.size - 1)
    live = starts[:-1] < starts[1:]
    if live.any():
        sums[live] = np.add.reduceat(pieces, starts[:-1][live])
    return sums


def _tour_counts(
    levels: np.ndarray, ups: np.ndarray, downs: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Jumps up and down in each tour of a block (see ``tour_integrals``).

    Arrivals are split at the bounds by epoch, completions by the job counts
    ``levels`` at the bounds.  Counts that do not add up raise
    ``RuntimeError``.
    """
    up_counts = np.diff(ups.searchsorted(bounds))
    down_counts = levels[:-1] + up_counts - levels[1:]
    if (
        up_counts.sum() != ups.size
        or down_counts.sum() != downs.size
        or (down_counts < 0).any()
    ):
        raise RuntimeError(
            f"a block of {bounds.size - 1} tours with {ups.size} arrivals and "
            f"{downs.size} completions cannot move the job count from "
            f"{levels[0]} through its tour start levels to {levels[-1]}"
        )
    return up_counts, down_counts


def _bound_slots(jumps: np.ndarray) -> np.ndarray:
    """Slot of each tour bound in a block's merged path, given the jumps per
    tour: bound ``j`` follows every jump of the tours before it."""
    slots = np.zeros(jumps.size + 1, dtype=np.int64)
    np.cumsum(jumps + 1, out=slots[1:])
    return slots


def block_path(
    levels: np.ndarray, ups: np.ndarray, downs: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merged step path of one queue over a block of tours (see
    ``ScalarCost.tour_integrals``).

    Returns the epoch of every slot, the job count from every slot on, and
    the slot of each tour bound (its last entry is the final slot, the
    block's end); every other slot is a jump.  Slots hold the bounds and the
    jumps in time order, and at an equal epoch in the simulator's order:
    completions, then tour bounds, then arrivals.  So downs come before ups,
    and bound ``j`` after the jumps of the tours before it and before those
    of tour ``j``: a stable sort of the downs then the ups ranks the jumps,
    which then move past the bounds before them.  A path
    that misses a tour's start level, goes negative or runs backwards in time
    raises ``RuntimeError``.
    """
    up_counts, down_counts = _tour_counts(levels, ups, downs, bounds)
    jumps = up_counts + down_counts
    slots = _bound_slots(jumps)
    # index among the jumps (downs first at ties), then past the bounds before it
    events = np.concatenate([downs, ups])
    at = np.empty(events.size, dtype=np.int64)
    at[events.argsort(kind="stable")] = np.arange(events.size)
    at += np.repeat(np.arange(1, jumps.size + 1), jumps)[at]
    times = np.empty(slots[-1] + 1)
    steps = np.zeros(times.size, dtype=np.int64)
    times[slots] = bounds
    times[at] = events
    steps[at[: downs.size]] = -1
    steps[at[downs.size :]] = 1
    steps[0] = levels[0]
    path = np.cumsum(steps)
    missed = np.flatnonzero(path[slots] != levels)
    if missed.size:
        j = missed[0]
        raise RuntimeError(
            f"merged path holds {path[slots[j]]} jobs at tour bound {j}, "
            f"not the start level {levels[j]}"
        )
    if path.min() < 0 or (np.diff(times) < 0.0).any():
        raise RuntimeError("merged path goes negative or back in time")
    return times, path, slots


@dataclass(frozen=True, eq=False)
class LinearScalar(ScalarCost):
    slope: float

    def value(self, x):
        return self.slope * np.asarray(x, dtype=float)

    def integrals(self, x0, x1, dt) -> np.ndarray:
        return self.slope * 0.5 * (np.asarray(x0) + x1) * dt

    def tour_integrals(
        self,
        levels: np.ndarray,
        ups: np.ndarray,
        downs: np.ndarray,
        bounds: np.ndarray,
        scale: int,
    ) -> np.ndarray:
        # each job present for time T adds slope * T / scale, in any order
        up_counts, down_counts = _tour_counts(levels, ups, downs, bounds)

        def held(epochs, counts):
            # time from each epoch to its tour's end, summed per tour; a block
            # of one tour, as every tour at large scales, needs no repeat
            ends = bounds[-1] if counts.size == 1 else np.repeat(bounds[1:], counts)
            return _tour_sums(ends - epochs, np.concatenate([[0], np.cumsum(counts)]))

        total = levels[:-1] * np.diff(bounds) + held(ups, up_counts)
        return self.slope * (total - held(downs, down_counts)) / scale


class PiecewiseLinearScalar(ScalarCost):
    """Cost ``p[l] * x`` on the branch where ``x`` is at least ``alpha[l]``.

    Thresholds start at 0 and increase strictly; branch slopes increase
    strictly as well, so the cost is nonnegative and nondecreasing.  At a
    threshold the steeper branch applies (the function is right-continuous;
    equivalently it is the sum of the slope increments ``h[l] = p[l]-p[l-1]``
    each activated as ``h[l] * x * 1{x >= alpha[l]}``).
    """

    def __init__(self, thresholds, slopes) -> None:
        self.thresholds = np.asarray(thresholds, dtype=float)
        self.slopes = np.asarray(slopes, dtype=float)
        if self.thresholds.ndim != 1 or self.thresholds.shape != self.slopes.shape:
            raise ValueError("thresholds and slopes must be 1-d and equally long")
        if self.thresholds[0] != 0.0:
            raise ValueError("first threshold must be 0")
        if np.any(np.diff(self.thresholds) <= 0.0):
            raise ValueError("thresholds must increase strictly")
        if self.slopes[0] < 0.0 or np.any(np.diff(self.slopes) <= 0.0):
            raise ValueError("slopes must be nonnegative and strictly increasing")
        self.slope_increments = np.diff(self.slopes, prepend=0.0)

    def branch(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.clip(
            np.searchsorted(self.thresholds, x, side="right") - 1,
            0,
            len(self.thresholds) - 1,
        )

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.slopes[self.branch(x)] * x

    def integrals(self, x0, x1, dt) -> np.ndarray:
        # Per increment h * x * 1{x >= alpha}: over a rising or falling piece
        # spanning [lo, hi] its mean is (hi - c)(hi + c) / (2 (hi - lo)) with
        # c = clip(alpha, lo, hi); a flat piece takes the value at its level.
        x0 = np.asarray(x0, dtype=float)[..., None]
        x1 = np.asarray(x1, dtype=float)[..., None]
        lo, hi = np.minimum(x0, x1), np.maximum(x0, x1)
        cut = np.clip(self.thresholds, lo, hi)
        flat = hi == lo
        ramp = (hi - cut) * (hi + cut) / (2.0 * np.where(flat, 1.0, hi - lo))
        means = np.where(flat, np.where(hi >= self.thresholds, hi, 0.0), ramp)
        return (means @ self.slope_increments) * dt


class PolynomialScalar(ScalarCost):
    """Polynomial cost with nonnegative coefficients, ascending powers."""

    def __init__(self, coefficients) -> None:
        self.coefficients = np.asarray(coefficients, dtype=float)
        if self.coefficients.ndim != 1 or self.coefficients.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        if np.any(self.coefficients < 0.0):
            raise ValueError("polynomial cost needs nonnegative coefficients")
        self._antiderivative = np.polynomial.polynomial.polyint(self.coefficients)

    def value(self, x):
        return np.polynomial.polynomial.polyval(
            np.asarray(x, dtype=float), self.coefficients
        )

    def integrals(self, x0, x1, dt) -> np.ndarray:
        x0, x1 = np.asarray(x0, dtype=float), np.asarray(x1, dtype=float)
        spread = x1 - x0
        # antiderivative differences lose every digit on near-flat pieces
        flat = np.abs(spread) <= 1e-12 * np.maximum(1.0, np.maximum(abs(x0), abs(x1)))
        anti = np.polynomial.polynomial.polyval(x1, self._antiderivative)
        anti = anti - np.polynomial.polynomial.polyval(x0, self._antiderivative)
        mean = np.where(
            flat, self.value(0.5 * (x0 + x1)), anti / np.where(flat, 1.0, spread)
        )
        return mean * dt


@dataclass(frozen=True, eq=False)
class SeparableCost(CostFunction):
    """Sum of independent per-queue scalar costs."""

    components: tuple[ScalarCost, ...]

    def value(self, levels):
        levels = np.asarray(levels, dtype=float)
        total = np.zeros(levels.shape[:-1])
        for k, comp in enumerate(self.components):
            total = total + comp.value(levels[..., k])
        return float(total) if total.ndim == 0 else total

    def integrals(self, start, end, dt) -> np.ndarray:
        """Integrals over linear segments, levels (..., K), durations (...)."""
        start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
        return sum(
            comp.integrals(start[..., k], end[..., k], dt)
            for k, comp in enumerate(self.components)
        )

    def tour_integrals(self, levels, ups, downs, bounds, scale) -> np.ndarray:
        """Each queue integrated on its own merged path, summed over queues."""
        return np.sum(
            [
                comp.tour_integrals(levels[:, k], ups[k], downs[k], bounds, scale)
                for k, comp in enumerate(self.components)
            ],
            axis=0,
        )


def linear_cost(coefficients) -> SeparableCost:
    """Weighted total backlog ``sum_k c_k q_k`` with c_k >= 0."""
    coefficients = [float(c) for c in coefficients]
    if any(c < 0.0 for c in coefficients):
        raise ValueError("linear cost needs nonnegative coefficients")
    return SeparableCost(tuple(LinearScalar(c) for c in coefficients))


def piecewise_linear_cost(thresholds, slopes) -> SeparableCost:
    """Per-queue piecewise-linear costs; one threshold/slope list per queue."""
    if len(thresholds) != len(slopes):
        raise ValueError("need one slope list per threshold list")
    return SeparableCost(
        tuple(PiecewiseLinearScalar(a, p) for a, p in zip(thresholds, slopes))
    )


def polynomial_cost(coefficients) -> SeparableCost:
    """Per-queue polynomial costs; one ascending coefficient list per queue."""
    return SeparableCost(tuple(PolynomialScalar(c) for c in coefficients))


@dataclass(frozen=True, eq=False)
class CustomCost(CostFunction):
    """Wrap an arbitrary vectorized callable ``fn((..., K)) -> (...)``.

    Piece integrals use adaptive 16-node Gauss-Legendre quadrature, split
    recursively until the halved estimate moves by less than ``REL_TOL``.
    """

    REL_TOL = 1e-10

    fn: Callable

    def value(self, levels):
        out = self.fn(np.asarray(levels, dtype=float))
        return float(out) if np.ndim(out) == 0 else np.asarray(out, dtype=float)

    def _quad(self, start, delta, a: float, b: float) -> float:
        nodes, weights = _gauss_legendre()
        u = a + (b - a) * nodes
        points = start[None, :] + u[:, None] * delta[None, :]
        return (b - a) * float(np.dot(weights, self.fn(points)))

    def _unit_integral(self, start, delta) -> float:
        """Integral of ``fn(start + u * delta)`` over ``u`` in [0, 1]."""

        def refine(a: float, b: float, whole: float, depth: int) -> float:
            mid = 0.5 * (a + b)
            left = self._quad(start, delta, a, mid)
            right = self._quad(start, delta, mid, b)
            if depth >= 30 or abs(left + right - whole) <= self.REL_TOL * max(
                abs(left + right), 1e-300
            ):
                return left + right
            return refine(a, mid, left, depth + 1) + refine(mid, b, right, depth + 1)

        return refine(0.0, 1.0, self._quad(start, delta, 0.0, 1.0), 0)

    def integrals(self, start, end, dt) -> np.ndarray:
        """Integrals over linear pieces, levels (..., K), durations (...): one
        quadrature per piece, and 0 for a piece of zero duration."""
        dt = np.asarray(dt, dtype=float)
        start = np.asarray(start, dtype=float)
        deltas = np.asarray(end, dtype=float) - start
        out = np.zeros(dt.shape)
        for j in np.ndindex(dt.shape):
            if dt[j] > 0.0:
                out[j] = dt[j] * self._unit_integral(start[j], deltas[j])
        return out


def pe_average_cost(pe, psi: CostFunction) -> float:
    """Time-average cost over one tour of a periodic equilibrium."""
    pieces = psi.integrals(pe.levels[:-1], pe.levels[1:], np.diff(pe.times))
    return float(pieces.sum()) / pe.cycle_time

