"""Holding-cost functions and exact integration along queue-level paths.

Fluid paths are piecewise linear and simulated sample paths are piecewise
constant, so for the built-in cost families every integral is computed in
closed form, vectorised over arrays of linear pieces: linear and polynomial
costs via antiderivatives, piecewise-linear costs as sums of threshold-
activated linear terms.  Arbitrary cost callables fall back to adaptive
Gauss-Legendre quadrature with a 1e-10 relative target, segment by segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES = (_GL_NODES + 1.0) / 2.0  # rescaled to [0, 1]
_GL_WEIGHTS = _GL_WEIGHTS / 2.0


class CostFunction:
    """Nonnegative, componentwise-nondecreasing cost of a queue-level vector."""

    #: smallest p with value(x) = O(1 + |x|^p); used to sanity-check moments
    growth_order: float = 1.0
    separable: bool = False

    def value(self, levels):
        """Cost at one level vector (K,) or a batch of them (T, K)."""
        raise NotImplementedError

    def segment_integral(self, start, end, duration: float) -> float:
        """Integral over one interval on which levels move linearly."""
        raise NotImplementedError

    def step_integral(self, levels: np.ndarray, durations: np.ndarray) -> float:
        """Integral over a piecewise-constant path, levels row-per-interval."""
        return float(np.dot(self.value(levels), durations))


class ScalarCost:
    """Cost of a single queue's level; building block of separable costs."""

    growth_order: float = 1.0

    def value(self, x):
        raise NotImplementedError

    def integrals(self, x0, x1, dt) -> np.ndarray:
        """Integrals over pieces moving linearly from x0 to x1 in time dt."""
        raise NotImplementedError

    def segment_integral(self, x0: float, x1: float, duration: float) -> float:
        return float(self.integrals(x0, x1, duration))


@dataclass(frozen=True, eq=False)
class LinearScalar(ScalarCost):
    slope: float

    def value(self, x):
        return self.slope * np.asarray(x, dtype=float)

    def integrals(self, x0, x1, dt) -> np.ndarray:
        return self.slope * 0.5 * (np.asarray(x0) + x1) * dt


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
        self.growth_order = float(max(1, self.coefficients.size - 1))
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

    separable = True

    @property
    def growth_order(self) -> float:  # type: ignore[override]
        return max(c.growth_order for c in self.components)

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

    def segment_integral(self, start, end, duration: float) -> float:
        return float(self.integrals(start, end, duration))

    def step_integral(self, levels: np.ndarray, durations: np.ndarray) -> float:
        return sum(
            float(np.dot(comp.value(levels[:, k]), durations))
            for k, comp in enumerate(self.components)
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


class CustomCost(CostFunction):
    """Wrap an arbitrary vectorized callable ``fn((..., K)) -> (...)``.

    Segment integrals use adaptive 16-node Gauss-Legendre quadrature, split
    recursively until the halved estimate moves by less than ``rel_tol``.
    """

    def __init__(self, fn, growth_order: float, rel_tol: float = 1e-10) -> None:
        self.fn = fn
        self.growth_order = float(growth_order)
        self.rel_tol = float(rel_tol)

    def value(self, levels):
        out = self.fn(np.asarray(levels, dtype=float))
        return float(out) if np.ndim(out) == 0 else np.asarray(out, dtype=float)

    def _quad(self, start, delta, a: float, b: float) -> float:
        u = a + (b - a) * _GL_NODES
        points = start[None, :] + u[:, None] * delta[None, :]
        return (b - a) * float(np.dot(_GL_WEIGHTS, self.fn(points)))

    def segment_integral(self, start, end, duration: float) -> float:
        if duration == 0.0:
            return 0.0
        start = np.asarray(start, dtype=float)
        delta = np.asarray(end, dtype=float) - start

        def refine(a: float, b: float, whole: float, depth: int) -> float:
            mid = 0.5 * (a + b)
            left = self._quad(start, delta, a, mid)
            right = self._quad(start, delta, mid, b)
            if depth >= 30 or abs(left + right - whole) <= self.rel_tol * max(
                abs(left + right), 1e-300
            ):
                return left + right
            return refine(a, mid, left, depth + 1) + refine(mid, b, right, depth + 1)

        whole = self._quad(start, delta, 0.0, 1.0)
        return duration * refine(0.0, 1.0, whole, 0)


def _segment_integrals(times: np.ndarray, levels: np.ndarray, psi: CostFunction):
    """Cost integral over each segment of a piecewise-linear path."""
    dt = np.diff(times)
    if isinstance(psi, SeparableCost):
        return psi.integrals(levels[:-1], levels[1:], dt)
    pieces = zip(levels[:-1], levels[1:], dt)
    return np.asarray([psi.segment_integral(*p) if p[2] > 0.0 else 0.0 for p in pieces])


def pe_average_cost(pe, psi: CostFunction) -> float:
    """Time-average cost over one tour of a periodic equilibrium."""
    return float(_segment_integrals(pe.times, pe.levels, psi).sum()) / pe.cycle_time


def trajectory_running_cost(traj, psi: CostFunction) -> tuple[np.ndarray, np.ndarray]:
    """Running average cost t -> integral/t sampled at the path breakpoints.

    The value reported at t=0 is the instantaneous cost of the initial state,
    the limit of the running average.
    """
    times = traj.times
    pieces = _segment_integrals(times, traj.levels, psi)
    cumulative = np.concatenate([[0.0], np.cumsum(pieces)])
    averages = np.full_like(cumulative, float(psi.value(traj.levels[0])))
    positive = times > 0.0
    averages[positive] = cumulative[positive] / times[positive]
    return times.copy(), averages
