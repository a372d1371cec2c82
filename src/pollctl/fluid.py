"""Fluid dynamics of binomial-exhaustive polling control.

On fluid scale a polled queue is a linear reservoir: while attended it drains
at rate ``mu_k - lambda_k``, otherwise it fills at rate ``lambda_k``.  A stage
visit therefore acts on the vector of queue levels as an affine map, one full
tour of the augmented table is a composition of such maps, and the long-run
behaviour is the unique periodic orbit of that composition.  This module
builds the stage and cycle maps, builds the periodic equilibrium's orbit from
the inter-visit recursion, and simulates arbitrary fluid trajectories.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import (
    ControlParams,
    InfeasibleParameters,
    SystemParameters,
    augment,
    check_ratios,
    cycle_length,
    traffic_intensity,
)


class NoConvergence(RuntimeError):
    """A numerical breakdown: a non-finite eigenvalue, or an equilibrium orbit
    whose solve is singular, fails to close, goes negative or misses its tour."""


# Queue levels this far below zero are treated as rounding noise and clamped;
# anything lower indicates a real bug in the dynamics.
_NEGATIVE_CLAMP = 1e-12
# Stages ``simulate_fluid`` walks at most before it gives up.
_MAX_STAGES = 1_000_000


@dataclass(frozen=True, eq=False)
class AffineMap:
    """Levels at a later polling epoch as an affine function of the current ones."""

    matrix: np.ndarray
    offset: np.ndarray

    def __call__(self, levels: np.ndarray) -> np.ndarray:
        return self.matrix @ levels + self.offset


def stage_map(params: SystemParameters, stage: int, ratio: float) -> AffineMap:
    """Affine update across one stage: serve a ``ratio`` share, then switch.

    Serving queue ``p`` for the busy time ``ratio * q_p / (mu_p - lambda_p)``
    leaves ``(1 - ratio) * q_p`` behind and feeds every other queue at its
    arrival rate; the subsequent switchover adds ``lambda_k * s_i`` to all.
    """
    queue = params.table[stage % params.num_stages]
    lam = params.arrival_array
    drain = params.drain_rates
    matrix = np.eye(params.num_queues)
    matrix[:, queue] = lam * ratio / drain[queue]
    matrix[queue, queue] = 1.0 - ratio
    offset = lam * params.switchover_means[stage % params.num_stages]
    return AffineMap(matrix, offset)


def cycle_map(params: SystemParameters, control: ControlParams) -> AffineMap:
    control.validate_for(params)
    matrix = np.eye(params.num_queues)
    offset = np.zeros(params.num_queues)
    for stage, ratio in enumerate(control.ratios):
        step = stage_map(params, stage, ratio)
        matrix = step.matrix @ matrix
        offset = step.matrix @ offset + step.offset
    return AffineMap(matrix, offset)


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a nonnegative matrix."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NoConvergence("matrix has non-finite entries")
    if np.any(m < 0.0):
        raise ValueError("spectral_radius expects a nonnegative matrix")
    radius = float(np.abs(np.linalg.eigvals(m)).max())
    if not np.isfinite(radius):
        raise NoConvergence("eigenvalue solve produced a non-finite result")
    return radius


def _clamp_levels(levels: np.ndarray, error=NoConvergence) -> np.ndarray:
    low = levels.min(initial=0.0)
    if low < -_NEGATIVE_CLAMP:
        raise error(f"queue level {low:.3e} fell below zero")
    return np.maximum(levels, 0.0)


POLL = "poll"
DEPART = "depart"
CUT = "cut"

Marker = tuple[str, int]


def _interpolate(times: np.ndarray, levels: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Piecewise-linear levels through the breakpoints at time(s) ``t``."""
    right = np.clip(np.searchsorted(times, t, side="right"), 1, len(times) - 1)
    left = right - 1
    t0 = times[left]
    t1 = times[right]
    span = np.where(t1 > t0, t1 - t0, 1.0)
    w = ((t - t0) / span)[..., None]
    return (1.0 - w) * levels[left] + w * levels[right]


@dataclass(frozen=True, eq=False)
class PECandidate:
    """Periodic equilibrium: one tour of breakpoints with q(tau) = q(0).

    ``times`` and ``levels`` trace the piecewise-linear orbit through the
    polling and departure epoch of every augmented stage, closing with the
    next tour's first polling epoch.
    """

    params: SystemParameters
    control: ControlParams
    cycle_time: float
    times: np.ndarray
    levels: np.ndarray
    markers: tuple[Marker, ...]
    busy_times: np.ndarray

    @property
    def num_stages(self) -> int:
        return len(self.busy_times)

    def polling_levels(self) -> np.ndarray:
        """Level vectors at each stage's polling epoch, shape (stages, K)."""
        return self.levels[0:-1:2]

    def value_at(self, t) -> np.ndarray:
        """Orbit levels at time(s) ``t``, extended periodically."""
        t = np.mod(np.asarray(t, dtype=float), self.cycle_time)
        return _interpolate(self.times, self.levels, t)

    def flow_balance_residual(self) -> np.ndarray:
        """Per-queue busy-time totals minus rho_k * tau; zero in equilibrium."""
        polled = self.control.augmented_table(self.params).polled
        _, per_queue = traffic_intensity(self.params)
        totals = np.bincount(polled, self.busy_times, self.params.num_queues)
        return totals - per_queue * self.cycle_time


def pe_from_params(params: SystemParameters, control: ControlParams) -> PECandidate:
    """Breakpoint orbit of the periodic equilibrium (see ``VisitRecursion.orbit``)."""
    return VisitRecursion(params, control.repetitions).orbit(control)


class VisitRecursion:
    """Periodic equilibrium of one augmented table as a function of its ratios.

    Between consecutive visits ``l`` and ``n`` of a queue, the level left
    behind plus the inflow until the next polling is the level found there:
    ``v_n = (1 - r_l) v_l + lam (s_l + sum_m (s_m + r_m v_m / d_m))`` over the
    stages ``m`` strictly in between.  This is ``A(r) v = b`` in the polled
    levels, with ``A(r) = base + coupling * r`` and ``b`` free of the ratios.
    One recursion serves every ratio vector of its table: ``orbit`` builds the
    breakpoint orbit, which a ``CustomCost`` integrates by quadrature, and
    ``average_cost`` and ``cost_and_gradient`` integrate a separable cost in
    closed form.
    """

    def __init__(self, params: SystemParameters, repetitions: int) -> None:
        self.params = params
        self.cycle_time = cycle_length(params, repetitions)
        self.num_queues = params.num_queues
        table = augment(params.table, repetitions)
        self.polled = table.polled
        self.successor = table.successor
        stages = len(table)
        self.arrivals = params.arrival_array[self.polled]
        self.drain = params.drain_rates[self.polled]
        self.switchovers = np.asarray(params.switchover_means * repetitions)
        self.base = np.eye(stages)
        # Columns and entries past the last stage stand for the next tour's
        # stages, so that stage i and the stages up to its queue's next visit
        # are the slice [i, end); the two halves of the columns fold together.
        coupling = np.zeros((stages, 2 * stages))
        drain = np.concatenate([self.drain, self.drain])
        switchovers = np.concatenate([self.switchovers, self.switchovers])
        self.rhs = np.zeros(stages)
        for i, nxt in enumerate(self.successor.tolist()):
            end = i + ((nxt - i) % stages or stages)
            lam = self.arrivals[i]
            self.base[nxt, i] -= 1.0
            coupling[nxt, i] = 1.0
            coupling[nxt, i + 1 : end] -= lam / drain[i + 1 : end]
            self.rhs[nxt] = lam * switchovers[i:end].sum()
        self.coupling = coupling[:, :stages] + coupling[:, stages:]
        self._rates = 1.0 / self.drain + 1.0 / self.arrivals
        # Piece i < stages drains stage i and piece stages + i refills after
        # it; _gather picks each piece's start level, end level and duration
        # from the concatenated orbit, queue k's pieces in _slices[k].
        visits = [idx.tolist() for idx in table.visits]
        pieces = np.array([i + s for idx in visits for s in (0, stages) for i in idx])
        ends = np.concatenate([np.arange(stages, 2 * stages), self.successor])
        self._gather = np.array([pieces, ends[pieces], pieces + 2 * stages])
        self._unpiece = np.argsort(pieces).reshape(2, -1)
        bounds = [0, *itertools.accumulate(2 * len(idx) for idx in visits)]
        self._slices = [slice(a, b) for a, b in zip(bounds, bounds[1:])]

    def _solve(self, r: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """``A(r)`` and the orbit of ``visits``."""
        check_ratios(r, self.polled, self.num_queues)
        matrix = self.base + self.coupling * r
        try:
            levels = np.linalg.solve(matrix, self.rhs)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"periodic orbit has no solution: {exc}") from exc
        residual = np.abs(matrix @ levels - self.rhs).max()
        if not residual <= 1e-9 * max(1.0, np.abs(levels).max()):  # NaN fails
            raise NoConvergence("periodic orbit failed to close on itself")
        levels = _clamp_levels(levels)
        left = (1.0 - r) * levels  # nonnegative as levels are and r <= 1
        busy = r * levels / self.drain
        tour = busy.sum() + self.switchovers.sum()
        if abs(tour - self.cycle_time) > 1e-9 * max(1.0, self.cycle_time):
            raise NoConvergence("tour duration disagrees with switchover budget")
        refill = (levels[self.successor] - left) / self.arrivals
        return matrix, (levels, left, busy, refill)

    def visits(self, ratios) -> tuple[np.ndarray, ...]:
        """Per stage: polled level, level left, busy time, time to next poll.

        Checks the ratios as ``ControlParams.validate_for`` does, and the
        orbit: closure (as a solve residual), nonnegative levels and the tour
        length.
        """
        return self._solve(np.asarray(ratios, dtype=float))[1]

    def orbit(self, control: ControlParams) -> PECandidate:
        """Breakpoint orbit of the periodic equilibrium, in closed form.

        ``visits`` gives every stage's level left and busy time, and so every
        polling and departure epoch.  Between its visits a queue refills
        linearly, so its level at a breakpoint is the level left at its latest
        departure plus the inflow since; before its first departure in the
        tour that is its last departure of the previous tour.  Every level is
        thus a sum of nonnegative terms, and a visit that empties its queue
        leaves 0.
        """
        _, left, busy, _ = self.visits(control.ratio_array)
        stages = len(busy)
        tau = self.cycle_time
        epochs = np.concatenate([[0.0], np.cumsum(busy + self.switchovers)[:-1]])
        times = np.append(np.column_stack([epochs, epochs + busy]).ravel(), tau)
        latest = np.full((2 * stages, self.num_queues), -1)
        latest[2 * np.arange(stages) + 1, self.polled] = np.arange(stages)
        latest = np.maximum.accumulate(latest, axis=0)
        wrapped = latest < 0
        latest = np.where(wrapped, latest[-1], latest)
        since = times[:-1, None] - times[2 * latest + 1] + tau * wrapped
        levels = left[latest] + self.params.arrival_array * since
        markers = [(kind, i) for i in range(stages) for kind in (POLL, DEPART)]
        return PECandidate(
            params=self.params,
            control=control,
            cycle_time=tau,
            times=times,
            levels=_clamp_levels(np.vstack([levels, levels[0]])),
            markers=(*markers, (POLL, 0)),
            busy_times=busy,
        )

    def average_cost(self, ratios, psi) -> float:
        """Time-average orbit cost under a ``SeparableCost`` ``psi``.

        Each queue's level is a sawtooth: per visit a linear drain to the
        level left, then a linear refill until its next polling.
        """
        return self._integrate(self._pieces(self.visits(ratios)), psi)

    def cost_and_gradient(self, ratios, psi) -> tuple[float, np.ndarray]:
        """``average_cost`` and its gradient in the ratios.

        With ``Phi`` the antiderivative of the polled queue's cost, stage
        ``i`` adds ``(Phi(v_i) - Phi(l_i)) / d_i + (Phi(v_next) - Phi(l_i)) /
        lam_i`` per tour, ``l_i = (1 - r_i) v_i``.  Its partial derivatives
        need only the cost values at ``v`` and ``l``; the dependence of ``v``
        on ``r`` through ``A(r) v = b`` costs one adjoint solve.
        """
        r = np.asarray(ratios, dtype=float)
        matrix, orbit = self._solve(r)
        levels = orbit[0]
        pieces = self._pieces(orbit)
        starts = pieces[0]
        at_poll, at_left = np.concatenate(
            [comp.value(starts[s]) for comp, s in zip(psi.components, self._slices)]
        )[self._unpiece]
        # v_i starts stage i's drain and ends its predecessor visit's refill
        # (same queue, same lam); l_i = (1 - r_i) v_i
        by_levels = self._rates * (at_poll - (1.0 - r) * at_left)
        adjoint = np.linalg.solve(matrix.T, by_levels)
        gradient = self._rates * at_left * levels - (adjoint @ self.coupling) * levels
        return self._integrate(pieces, psi), gradient / self.cycle_time

    def _pieces(self, orbit) -> np.ndarray:
        """Start level, end level and duration of every sawtooth piece."""
        return np.concatenate(orbit)[self._gather]

    def _integrate(self, pieces: np.ndarray, psi) -> float:
        x0, x1, dt = pieces
        total = sum(
            float(comp.integrals(x0[s], x1[s], dt[s]).sum())
            for comp, s in zip(psi.components, self._slices)
        )
        return total / self.cycle_time


@dataclass(frozen=True, eq=False)
class FluidTrajectory:
    """Piecewise-linear fluid path from an arbitrary starting level."""

    params: SystemParameters
    control: ControlParams
    times: np.ndarray
    levels: np.ndarray
    markers: tuple[Marker, ...]
    cycle_start_times: np.ndarray

    def value_at(self, t) -> np.ndarray:
        t = np.clip(np.asarray(t, dtype=float), self.times[0], self.times[-1])
        return _interpolate(self.times, self.levels, t)

    def cycle_start_levels(self) -> np.ndarray:
        """Level vectors at each tour-start polling epoch."""
        starts = np.searchsorted(self.times, self.cycle_start_times, side="left")
        return self.levels[starts]


def simulate_fluid(
    params: SystemParameters,
    control: ControlParams,
    initial_levels,
    horizon: float,
) -> FluidTrajectory:
    """Apply the stage maps from ``initial_levels`` until ``horizon``.

    Every polling and departure epoch becomes a breakpoint; zero-duration
    stages leave coincident breakpoints rather than being dropped.  Whole
    stages are walked until one ends at or after ``horizon``; a path that
    runs past it is cut there by one ``CUT`` breakpoint.  The walk refuses to
    cross ``_MAX_STAGES`` stages, which guards against the accumulation of
    infinitesimally short cycles when all switchovers vanish.
    """
    control.validate_for(params)
    q = _clamp_levels(np.asarray(initial_levels, dtype=float), InfeasibleParameters)
    if q.shape != (params.num_queues,):
        raise ValueError(f"initial levels must have shape ({params.num_queues},)")
    stages = len(control.ratios)
    maps = [stage_map(params, i, r) for i, r in enumerate(control.ratios)]
    polled = control.augmented_table(params).polled
    busy_per_level = control.ratio_array / params.drain_rates[polled]
    times = [0.0]
    levels = [q.copy()]
    markers: list[Marker] = [(POLL, 0)]
    cycle_starts = [0.0]
    t = 0.0
    stage = 0
    while t < horizon:
        if len(markers) > 2 * _MAX_STAGES:
            raise RuntimeError(f"exceeded {_MAX_STAGES} stages before the horizon")
        times.append(t + busy_per_level[stage] * q[polled[stage]])
        levels.append(maps[stage].matrix @ q)
        markers.append((DEPART, stage))
        t = times[-1] + params.switchover_means[stage % params.num_stages]
        q = levels[-1] + maps[stage].offset
        stage = (stage + 1) % stages
        times.append(t)
        levels.append(q)
        markers.append((POLL, stage))
        if stage == 0:
            if t == cycle_starts[-1]:
                raise AssertionError(
                    "server tour of zero duration; requires a positive switchover"
                )
            cycle_starts.append(t)
    # keep the breakpoints at or before the horizon (the start always), and
    # cut the stage that runs past it there
    times, levels = np.asarray(times), np.asarray(levels)
    kept = max(1, int(times.searchsorted(horizon, side="right")))
    if kept < times.size:
        levels = np.vstack([levels[:kept], _interpolate(times, levels, horizon)])
        times = np.append(times[:kept], horizon)
        markers = markers[:kept] + [(CUT, markers[kept - 1][1])]
    starts = np.asarray(cycle_starts)
    starts = starts[: max(1, starts.searchsorted(horizon, side="right"))]
    return FluidTrajectory(params, control, times, levels, tuple(markers), starts)


def visit_busy_shares(pe: PECandidate, queue: int) -> np.ndarray:
    """Fraction of a queue's equilibrium service done at each of its visits."""
    stages = pe.control.augmented_table(pe.params).visits[queue]
    busy = pe.busy_times[stages]
    total = busy.sum()
    if total <= 0.0:
        return np.zeros_like(busy)
    return busy / total


def convergence_distance(trajectory: FluidTrajectory, pe: PECandidate) -> np.ndarray:
    """Sup-norm distance between the path and the orbit, per started tour.

    Entry m compares the trajectory over the tour ``[u_m, u_m + tau]`` against
    the periodic orbit started in phase at ``u_m``; both are piecewise linear,
    so the supremum is attained on the union of their breakpoints.
    """
    window = pe.cycle_time
    end = trajectory.times[-1]
    distances = []
    offsets = np.unique(np.concatenate([pe.times, [0.0]]))
    for u in trajectory.cycle_start_times:
        if u + window > end + 1e-12 * max(1.0, end):
            break
        inside = trajectory.times[
            (trajectory.times >= u) & (trajectory.times <= u + window)
        ]
        probe = np.unique(np.concatenate([inside - u, offsets, [window]]))
        probe = probe[(probe >= 0.0) & (probe <= window)]
        gap = trajectory.value_at(u + probe) - pe.value_at(probe)
        distances.append(float(np.abs(gap).max()))
    return np.asarray(distances)
