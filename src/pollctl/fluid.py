"""Fluid dynamics of binomial-exhaustive polling control.

On fluid scale a polled queue is a linear reservoir: while attended it drains
at rate ``mu_k - lambda_k``, otherwise it fills at rate ``lambda_k``.  A stage
visit therefore acts on the vector of queue levels as an affine map, one full
tour of the augmented table is a composition of such maps, and the long-run
behaviour is the unique periodic orbit of that composition.  This module
builds the stage and cycle maps, computes the periodic equilibrium by three
independent routes, and simulates arbitrary fluid trajectories.
"""

from __future__ import annotations

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
    validate,
)


class NoConvergence(RuntimeError):
    """An eigenvalue computation produced a non-finite result."""


# Queue levels this far below zero are treated as rounding noise and clamped;
# anything lower indicates a real bug in the dynamics.
_NEGATIVE_CLAMP = 1e-12


@dataclass(frozen=True, eq=False)
class AffineStageMap:
    """Levels at the next polling epoch as an affine function of the current ones."""

    matrix: np.ndarray
    offset: np.ndarray

    def __call__(self, levels: np.ndarray) -> np.ndarray:
        return self.matrix @ levels + self.offset


@dataclass(frozen=True, eq=False)
class CycleMap:
    """Composition of all stage maps over one augmented-table tour."""

    matrix: np.ndarray
    offset: np.ndarray

    def __call__(self, levels: np.ndarray) -> np.ndarray:
        return self.matrix @ levels + self.offset


def stage_map(params: SystemParameters, stage: int, ratio: float) -> AffineStageMap:
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
    return AffineStageMap(matrix, offset)


def cycle_map(params: SystemParameters, control: ControlParams) -> CycleMap:
    control.validate_for(params)
    matrix = np.eye(params.num_queues)
    offset = np.zeros(params.num_queues)
    for stage, ratio in enumerate(control.ratios):
        step = stage_map(params, stage, ratio)
        matrix = step.matrix @ matrix
        offset = step.matrix @ offset + step.offset
    return CycleMap(matrix, offset)


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


def _clamp_levels(levels: np.ndarray) -> np.ndarray:
    low = levels.min(initial=0.0)
    if low < -_NEGATIVE_CLAMP:
        raise InfeasibleParameters(f"queue level {low:.3e} fell below zero")
    return np.maximum(levels, 0.0)


def pe_fixed_point(params: SystemParameters, control: ControlParams) -> np.ndarray:
    """Queue levels at the tour-start polling epoch of the periodic orbit."""
    validate(params)
    composed = cycle_map(params, control)
    eye = np.eye(params.num_queues)
    levels = np.linalg.solve(eye - composed.matrix, composed.offset)
    return _clamp_levels(levels)


POLL = "poll"
DEPART = "depart"
CUT = "cut"

Marker = tuple[str, int]


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

    def polling_epochs(self) -> np.ndarray:
        return self.times[0:-1:2]

    def polling_levels(self) -> np.ndarray:
        """Level vectors at each stage's polling epoch, shape (stages, K)."""
        return self.levels[0:-1:2]

    def departure_levels(self) -> np.ndarray:
        return self.levels[1::2]

    def value_at(self, t) -> np.ndarray:
        """Orbit levels at time(s) ``t``, extended periodically."""
        t = np.mod(np.asarray(t, dtype=float), self.cycle_time)
        right = np.searchsorted(self.times, t, side="right")
        right = np.clip(right, 1, len(self.times) - 1)
        left = right - 1
        t0 = self.times[left]
        t1 = self.times[right]
        span = np.where(t1 > t0, t1 - t0, 1.0)
        w = ((t - t0) / span)[..., None]
        return (1.0 - w) * self.levels[left] + w * self.levels[right]

    def flow_balance_residual(self) -> np.ndarray:
        """Per-queue busy-time totals minus rho_k * tau; zero in equilibrium."""
        table = self.control.augmented_table(self.params)
        _, per_queue = traffic_intensity(self.params)
        totals = np.zeros(self.params.num_queues)
        np.add.at(totals, np.asarray(table.stages), self.busy_times)
        return totals - per_queue * self.cycle_time


def _walk_stage(
    params: SystemParameters,
    stage: int,
    ratio: float,
    t: float,
    levels: np.ndarray,
) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Advance through one stage: (departure time, levels, switch end, levels)."""
    queue = params.table[stage % params.num_stages]
    lam = params.arrival_array
    busy = ratio * levels[queue] / params.drain_rates[queue]
    after_busy = levels + lam * busy
    after_busy[queue] = (1.0 - ratio) * levels[queue]
    s = params.switchover_means[stage % params.num_stages]
    after_switch = after_busy + lam * s
    return t + busy, after_busy, t + busy + s, after_switch


def pe_from_params(params: SystemParameters, control: ControlParams) -> PECandidate:
    """Roll the fixed point through one tour, recording every breakpoint."""
    start = pe_fixed_point(params, control)
    tau = cycle_length(params, control.repetitions)
    stages = len(control.ratios)
    times = np.zeros(2 * stages + 1)
    levels = np.zeros((2 * stages + 1, params.num_queues))
    markers: list[Marker] = []
    busy = np.zeros(stages)
    t = 0.0
    q = start.copy()
    for i, ratio in enumerate(control.ratios):
        times[2 * i] = t
        levels[2 * i] = q
        markers.append((POLL, i))
        t_depart, q_depart, t, q = _walk_stage(params, i, ratio, t, q)
        times[2 * i + 1] = t_depart
        levels[2 * i + 1] = q_depart
        markers.append((DEPART, i))
        busy[i] = t_depart - times[2 * i]
    times[-1] = t
    levels[-1] = q
    markers.append((POLL, 0))
    scale = max(1.0, float(np.abs(start).max()))
    if np.abs(q - start).max() > 1e-9 * scale:
        raise InfeasibleParameters("periodic orbit failed to close on itself")
    if abs(t - tau) > 1e-9 * max(1.0, tau):
        raise InfeasibleParameters("tour duration disagrees with switchover budget")
    # Snap the roll-forward endpoint so downstream interpolation sees an
    # exactly periodic orbit.
    times[-1] = tau
    levels[-1] = start
    return PECandidate(
        params=params,
        control=control,
        cycle_time=tau,
        times=times,
        levels=_clamp_levels(levels),
        markers=tuple(markers),
        busy_times=busy,
    )


def ratios_from_pe(pe: PECandidate) -> np.ndarray:
    """Served share of the polled queue at each stage of the orbit.

    Stages that poll an empty queue serve nothing; their ratio is reported
    as 0 by convention.
    """
    table = pe.control.augmented_table(pe.params)
    polled = np.asarray(table.stages)
    at_poll = pe.polling_levels()[np.arange(pe.num_stages), polled]
    at_depart = pe.departure_levels()[np.arange(pe.num_stages), polled]
    ratios = np.zeros(pe.num_stages)
    positive = at_poll > 0.0
    ratios[positive] = (at_poll[positive] - at_depart[positive]) / at_poll[positive]
    return ratios


class VisitRecursion:
    """Periodic equilibrium of one augmented table as a function of its ratios.

    Between consecutive visits ``l`` and ``n`` of a queue, the level left
    behind plus the inflow until the next polling is the level found there:
    ``v_n = (1 - r_l) v_l + lam (s_l + sum_m (s_m + r_m v_m / d_m))`` over the
    stages ``m`` strictly in between.  This is ``A(r) v = b`` in the polled
    levels, with ``A(r) = base + coupling * r`` and ``b`` free of the ratios.
    """

    def __init__(self, params: SystemParameters, repetitions: int) -> None:
        self.cycle_time = cycle_length(params, repetitions)
        self.num_queues = params.num_queues
        table = augment(params.table, repetitions)
        self.polled = np.asarray(table.stages)
        stages = len(self.polled)
        self.arrivals = params.arrival_array[self.polled]
        self.drain = params.drain_rates[self.polled]
        self.switchovers = np.asarray(params.switchover_means * repetitions)
        self.successor = np.arange(stages)
        visits = [np.asarray(table.visit_stages(k)) for k in range(self.num_queues)]
        for idx in visits:
            self.successor[idx] = np.roll(idx, -1)
        self.base = np.eye(stages)
        self.coupling = np.zeros((stages, stages))
        self.rhs = np.zeros(stages)
        for here, nxt in enumerate(self.successor):
            between = (here + np.arange(1, (nxt - here) % stages or stages)) % stages
            lam = self.arrivals[here]
            self.base[nxt, here] -= 1.0
            self.coupling[nxt, here] += 1.0
            self.coupling[nxt, between] -= lam / self.drain[between]
            self.rhs[nxt] = lam * self.switchovers[np.append(here, between)].sum()
        # Queue k's sawtooth pieces, per visit a drain then a refill, sit in
        # pieces[bounds[k]:bounds[k + 1]] of the stacked (drain, refill) arrays.
        self._pieces = np.concatenate([np.concatenate([i, i + stages]) for i in visits])
        self._bounds = np.cumsum([0] + [2 * len(i) for i in visits])

    def visits(self, ratios) -> tuple[np.ndarray, ...]:
        """Per stage: polled level, level left, busy time, time to next poll.

        Checks the ratios as ``ControlParams.validate_for`` and the orbit as
        ``pe_from_params`` does: closure (as a solve residual), nonnegative
        levels and the tour length.
        """
        r = np.asarray(ratios, dtype=float)
        check_ratios(r, self.polled, self.num_queues)
        matrix = self.base + self.coupling * r
        levels = np.linalg.solve(matrix, self.rhs)
        residual = np.abs(matrix @ levels - self.rhs).max()
        if not residual <= 1e-9 * max(1.0, np.abs(levels).max()):  # NaN fails
            raise InfeasibleParameters("periodic orbit failed to close on itself")
        levels = _clamp_levels(levels)
        left = (1.0 - r) * levels  # nonnegative as levels are and r <= 1
        busy = r * levels / self.drain
        tour = busy.sum() + self.switchovers.sum()
        if abs(tour - self.cycle_time) > 1e-9 * max(1.0, self.cycle_time):
            raise InfeasibleParameters("tour duration disagrees with switchover budget")
        return levels, left, busy, (levels[self.successor] - left) / self.arrivals

    def average_cost(self, ratios, psi) -> float:
        """Time-average orbit cost under a ``SeparableCost`` ``psi``.

        Each queue's level is a sawtooth: per visit a linear drain to the
        level left, then a linear refill until its next polling.
        """
        return self._integrate(self.visits(ratios), psi)

    def cost_and_gradient(self, ratios, psi) -> tuple[float, np.ndarray]:
        """``average_cost`` and its gradient in the ratios.

        With ``Phi`` the antiderivative of the polled queue's cost, stage
        ``i`` adds ``(Phi(v_i) - Phi(l_i)) / d_i + (Phi(v_next) - Phi(l_i)) /
        lam_i`` per tour, ``l_i = (1 - r_i) v_i``.  Its partial derivatives
        need only the cost values at ``v`` and ``l``; the dependence of ``v``
        on ``r`` through ``A(r) v = b`` costs one adjoint solve.
        """
        r = np.asarray(ratios, dtype=float)
        orbit = self.visits(r)
        levels, left, _, _ = orbit
        stacked = np.concatenate([levels, left])[self._pieces]
        values = np.empty(stacked.size)
        values[self._pieces] = np.concatenate(
            [
                comp.value(stacked[a:b])
                for comp, a, b in zip(psi.components, self._bounds, self._bounds[1:])
            ]
        )
        at_poll, at_left = np.split(values, 2)
        rates = 1.0 / self.drain + 1.0 / self.arrivals
        # v_i starts stage i's drain and ends its predecessor visit's refill
        # (same queue, same lam); l_i = (1 - r_i) v_i
        by_levels = rates * (at_poll - (1.0 - r) * at_left)
        adjoint = np.linalg.solve((self.base + self.coupling * r).T, by_levels)
        gradient = rates * at_left * levels - (adjoint @ self.coupling) * levels
        return self._integrate(orbit, psi), gradient / self.cycle_time

    def _integrate(self, orbit, psi) -> float:
        levels, left, busy, refill = orbit
        x0 = np.concatenate([levels, left])[self._pieces]
        x1 = np.concatenate([left, levels[self.successor]])[self._pieces]
        dt = np.concatenate([busy, refill])[self._pieces]
        total = sum(
            float(comp.integrals(x0[a:b], x1[a:b], dt[a:b]).sum())
            for comp, a, b in zip(psi.components, self._bounds, self._bounds[1:])
        )
        return total / self.cycle_time


def polling_values_by_recursion(
    params: SystemParameters, control: ControlParams
) -> tuple[np.ndarray, np.ndarray]:
    """Periodic equilibrium via the inter-visit linear recursion.

    Independent of the fixed-point route: ``VisitRecursion`` gives the polled
    level at every stage, and a queue's tour-start level is its level at its
    first visit less the inflow before it.  Returns (per-stage polled levels,
    tour-start vector).
    """
    recursion = VisitRecursion(params, control.repetitions)
    values, _, busy, _ = recursion.visits(control.ratio_array)
    epochs = np.concatenate([[0.0], np.cumsum(busy + recursion.switchovers)[:-1]])
    first = np.unique(recursion.polled, return_index=True)[1]
    start = values[first] - params.arrival_array * epochs[first]
    return values, _clamp_levels(start)


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
        right = np.searchsorted(self.times, t, side="right")
        right = np.clip(right, 1, len(self.times) - 1)
        left = right - 1
        t0 = self.times[left]
        t1 = self.times[right]
        span = np.where(t1 > t0, t1 - t0, 1.0)
        w = ((t - t0) / span)[..., None]
        return (1.0 - w) * self.levels[left] + w * self.levels[right]

    def cycle_start_levels(self) -> np.ndarray:
        """Level vectors at each tour-start polling epoch."""
        starts = np.searchsorted(self.times, self.cycle_start_times, side="left")
        return self.levels[starts]


def simulate_fluid(
    params: SystemParameters,
    control: ControlParams,
    initial_levels,
    horizon: float,
    max_stages: int = 1_000_000,
) -> FluidTrajectory:
    """Run the stage walk from ``initial_levels`` until ``horizon``.

    Every polling and departure epoch becomes a breakpoint; zero-duration
    stages leave coincident breakpoints rather than being dropped.  The walk
    refuses to cross ``max_stages`` events, which guards against the
    accumulation of infinitesimally short cycles when all switchovers vanish.
    """
    control.validate_for(params)
    q = _clamp_levels(np.asarray(initial_levels, dtype=float).copy())
    if q.shape != (params.num_queues,):
        raise ValueError(f"initial levels must have shape ({params.num_queues},)")
    stages = len(control.ratios)
    times = [0.0]
    levels = [q.copy()]
    markers: list[Marker] = [(POLL, 0)]
    cycle_starts = [0.0]
    t = 0.0
    stage = 0
    steps = 0
    while t < horizon:
        ratio = control.ratios[stage]
        t_depart, q_depart, t_next, q_next = _walk_stage(params, stage, ratio, t, q)
        if t_depart > horizon:
            # Horizon falls inside the busy period; all levels move linearly.
            frac = (horizon - t) / (t_depart - t)
            times.append(horizon)
            levels.append(q + frac * (q_depart - q))
            markers.append((CUT, stage))
            t = horizon
            break
        times.append(t_depart)
        levels.append(q_depart)
        markers.append((DEPART, stage))
        if t_next > horizon:
            times.append(horizon)
            levels.append(q_depart + params.arrival_array * (horizon - t_depart))
            markers.append((CUT, stage))
            t = horizon
            break
        t = t_next
        q = q_next
        stage = (stage + 1) % stages
        times.append(t)
        levels.append(q.copy())
        markers.append((POLL, stage))
        if stage == 0:
            if t == cycle_starts[-1]:
                raise AssertionError(
                    "server tour of zero duration; requires a positive switchover"
                )
            cycle_starts.append(t)
        steps += 1
        if steps > max_stages:
            raise RuntimeError(f"exceeded {max_stages} stages before the horizon")
    return FluidTrajectory(
        params=params,
        control=control,
        times=np.asarray(times),
        levels=np.asarray(levels),
        markers=tuple(markers),
        cycle_start_times=np.asarray(cycle_starts),
    )


def visit_busy_shares(pe: PECandidate, queue: int) -> np.ndarray:
    """Fraction of a queue's equilibrium service done at each of its visits."""
    table = pe.control.augmented_table(pe.params)
    stages = np.asarray(table.visit_stages(queue))
    busy = pe.busy_times[stages]
    total = busy.sum()
    if total <= 0.0:
        return np.zeros_like(busy)
    return busy / total


def convergence_distance(
    trajectory: FluidTrajectory, pe: PECandidate, window: float | None = None
) -> np.ndarray:
    """Sup-norm distance between the path and the orbit, per started tour.

    Entry m compares the trajectory over ``[u_m, u_m + window]`` against the
    periodic orbit started in phase at ``u_m``; both are piecewise linear, so
    the supremum is attained on the union of their breakpoints.
    """
    if window is None:
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
