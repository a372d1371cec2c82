"""Slow reference implementations that the fast library paths are checked against."""

from __future__ import annotations

import math

import numpy as np

import pollctl as pc
from pollctl import des
from pollctl.cost import block_path
from pollctl.fluid import _clamp_levels
from pollctl.model import check_ratios


def project_to_compact_by_bisection(
    params: pc.SystemParameters, repetitions: int, ratios
) -> np.ndarray:
    """Euclidean projection onto the ratios in [0, 1] with per-queue sums >= 1:
    per queue, ``clip(y + t, 0, 1)`` with the least shift ``t >= 0`` of the
    unclipped visits ``y`` whose floating-point sum reaches one, found by 80
    bisection steps."""
    table = pc.augment(params.table, repetitions)
    y = np.asarray(ratios, dtype=float)
    r = np.clip(y, 0.0, 1.0)
    for k in range(params.num_queues):
        idx = np.asarray(table.visit_stages(k))
        if r[idx].sum() >= 1.0:
            continue
        lo, hi = 0.0, 1.0 - y[idx].min()
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if np.clip(y[idx] + mid, 0.0, 1.0).sum() >= 1.0:
                hi = mid
            else:
                lo = mid
        r[idx] = np.clip(y[idx] + hi, 0.0, 1.0)
    return r


def project_to_compact_by_masks(
    params: pc.SystemParameters, repetitions: int, ratios
) -> np.ndarray:
    """``pc.project_to_compact`` as first written, with the table and each
    queue's visit mask rebuilt on every call."""
    stages = pc.augment(params.table, repetitions).polled
    y = np.asarray(ratios, dtype=float)
    r = np.clip(y, 0.0, 1.0)
    for k in np.flatnonzero(np.bincount(stages, r, params.num_queues) < 1.0):
        at = stages == k
        v = np.maximum(y[at] - y[at].max(), -1.0)
        kinks = np.sort(np.concatenate([-v, 1.0 - v]))
        sums = np.clip(v + kinks[:, None], 0.0, 1.0).sum(axis=1)
        j = np.searchsorted(sums, 1.0)
        i = j - 1
        t = kinks[i] + (kinks[j] - kinks[i]) * (1.0 - sums[i]) / (sums[j] - sums[i])
        r[at] = np.clip(v + t, 0.0, 1.0)
    short = np.bincount(stages, r, params.num_queues) < 1.0
    while short.any():
        lift = short[stages] & (r > 0.0)
        r[lift] = np.nextafter(r[lift], 1.0)
        short = np.bincount(stages, r, params.num_queues) < 1.0
    return r


def pe_fixed_point(
    params: pc.SystemParameters, control: pc.ControlParams
) -> np.ndarray:
    """Queue levels at the tour-start polling epoch of the periodic orbit, as
    the fixed point of the composed stage maps (``pc.cycle_map``): a route
    independent of the visit recursion that ``pc.pe_from_params`` solves."""
    pc.validate(params)
    composed = pc.cycle_map(params, control)
    eye = np.eye(params.num_queues)
    levels = np.linalg.solve(eye - composed.matrix, composed.offset)
    return _clamp_levels(levels)


class LoopVisitRecursion:
    """``pc.VisitRecursion`` as first written: ``A(r)`` built one stage at a
    time, rebuilt for the adjoint solve, and the sawtooth pieces gathered
    anew for the cost values, the integrals and the gradient."""

    def __init__(self, params: pc.SystemParameters, repetitions: int) -> None:
        self.cycle_time = pc.cycle_length(params, repetitions)
        self.num_queues = params.num_queues
        table = pc.augment(params.table, repetitions)
        self.polled = table.polled
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
        self._pieces = np.concatenate([np.concatenate([i, i + stages]) for i in visits])
        self._bounds = np.cumsum([0] + [2 * len(i) for i in visits])

    def visits(self, ratios) -> tuple[np.ndarray, ...]:
        r = np.asarray(ratios, dtype=float)
        check_ratios(r, self.polled, self.num_queues)
        matrix = self.base + self.coupling * r
        levels = np.linalg.solve(matrix, self.rhs)
        residual = np.abs(matrix @ levels - self.rhs).max()
        if not residual <= 1e-9 * max(1.0, np.abs(levels).max()):
            raise pc.InfeasibleParameters("periodic orbit failed to close on itself")
        levels = _clamp_levels(levels)
        left = (1.0 - r) * levels
        busy = r * levels / self.drain
        tour = busy.sum() + self.switchovers.sum()
        if abs(tour - self.cycle_time) > 1e-9 * max(1.0, self.cycle_time):
            raise pc.InfeasibleParameters("tour duration disagrees with switchovers")
        return levels, left, busy, (levels[self.successor] - left) / self.arrivals

    def average_cost(self, ratios, psi) -> float:
        return self._integrate(self.visits(ratios), psi)

    def cost_and_gradient(self, ratios, psi) -> tuple[float, np.ndarray]:
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


def slsqp_search_cost(
    params: pc.SystemParameters,
    psi: pc.CostFunction,
    repetitions: int,
    budget: int,
    seed: int,
) -> float:
    """Cheapest equilibrium cost that SciPy's SLSQP reaches from the starts of
    ``solve_rfcp``: all ones plus ``budget`` seeded random points.

    Bounds [0, 1] and a linear constraint per queue keep ratio sums at least
    one; each iterate is projected onto that set before its evaluation, and
    each end point once more.  Separable costs give SLSQP their adjoint
    gradient, other costs SciPy's finite differences.
    """
    from scipy import optimize

    dim = params.num_stages * repetitions
    stages = pc.augment(params.table, repetitions).polled
    gen = np.random.default_rng((seed, repetitions))

    def project(x):
        return pc.project_to_compact(params, repetitions, x)

    def cost(x):
        return pc.control_cost(params, pc.ControlParams(repetitions, tuple(x)), psi)

    separable = isinstance(psi, pc.SeparableCost)
    if separable:
        with_gradient = pc.VisitRecursion(params, repetitions).cost_and_gradient

    def objective(x):
        x = project(x)
        return with_gradient(x, psi) if separable else cost(x)

    sums = optimize.LinearConstraint(
        np.equal.outer(np.arange(params.num_queues), stages).astype(float), lb=1.0
    )
    starts = [np.ones(dim)] + [project(gen.uniform(size=dim)) for _ in range(budget)]
    best = np.inf
    for x0 in starts:
        result = optimize.minimize(
            objective,
            x0,
            method="SLSQP",
            jac=separable,
            bounds=[(0.0, 1.0)] * dim,
            constraints=sums,
            options={"ftol": 1e-12},
        )
        best = min(best, cost(project(result.x)))
    return best


def recorded_path_cost(path, psi: pc.CostFunction, t0: float, t1: float) -> float:
    """Integral of ``psi`` over a recorded ``ScaledPath`` on [t0, t1), summed one
    constant step at a time: the level just after each jump of any queue, times
    the time to the next jump."""
    jumps = np.concatenate(path.times)
    bounds = np.unique(np.concatenate([[t0, t1], jumps[(jumps > t0) & (jumps < t1)]]))
    steps = psi.value(path.sample(bounds[:-1])) * np.diff(bounds)
    return math.fsum(steps)


def step_path(
    start: int, ups: np.ndarray, downs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Jump epochs and job counts after each jump of a +1/-1 step path, by one
    stable sort: at equal epochs the -1 jumps (``downs``) come before the +1
    jumps."""
    times = np.concatenate([downs, ups])
    deltas = np.concatenate(
        [np.full(downs.size, -1, dtype=np.int64), np.ones(ups.size, dtype=np.int64)]
    )
    order = np.argsort(times, kind="stable")
    return times[order], start + np.cumsum(deltas[order])


def scalar_tour_integrals(
    scalar, levels: np.ndarray, ups, downs, bounds: np.ndarray, scale: int
) -> np.ndarray:
    """``ScalarCost.tour_integrals`` as first written: the cost evaluated on
    every piece of the block's merged path, not once per job count."""
    times, path, slots = block_path(levels, ups, downs, bounds)
    pieces = scalar.value(path[:-1] / scale) * np.diff(times)
    return np.add.reduceat(pieces, slots[:-1])


def joint_tour_integrals(
    psi: pc.CostFunction, levels: np.ndarray, ups, downs, bounds: np.ndarray, scale: int
) -> np.ndarray:
    """Integral of ``psi.value(levels / scale)`` over each tour of a block (see
    ``CostFunction.tour_integrals``), one tour at a time: every queue's jumps
    in the tour, relative to its start, merged by one stable sort of each
    queue's downs then ups, and a dot product."""
    up_before = np.array([u.searchsorted(bounds) for u in ups]).T
    down_before = levels[0] + up_before - levels
    costs = np.empty(bounds.size - 1)
    for j in range(costs.size):
        moves = [
            (u[a[j] : a[j + 1]] - bounds[j], d[b[j] : b[j + 1]] - bounds[j])
            for u, d, a, b in zip(ups, downs, up_before.T, down_before.T)
        ]
        times = np.concatenate([np.concatenate([d, u]) for u, d in moves])
        columns = np.repeat(np.arange(len(moves)), [d.size + u.size for u, d in moves])
        jumps = np.concatenate([np.repeat([-1, 1], [d.size, u.size]) for u, d in moves])
        order = np.argsort(times, kind="stable")
        steps = np.zeros((times.size + 1, len(moves)), dtype=np.int64)
        steps[1:][np.arange(order.size), columns[order]] = jumps[order]
        path = levels[j] + np.cumsum(steps, axis=0)
        edges = np.concatenate([[0.0], times[order], [bounds[j + 1] - bounds[j]]])
        costs[j] = np.dot(psi.value(path / scale), np.diff(edges))
    return costs


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
    -1 when it never does.  ``completions`` are relative to ``t0``, and each
    is compared with the arrivals at its absolute epoch ``t0 + c``."""
    arrived = arrivals_before(pending, completions + t0)
    walk = done + 1 + np.arange(completions.size) - arrived
    hits = np.nonzero(walk == drop)[0]
    return int(hits[0]) if hits.size else -1


def cycle_start_levels(trajectory) -> np.ndarray:
    """Level vectors of a ``FluidTrajectory`` at each tour-start polling
    epoch: the first breakpoint at each tour's start time."""
    starts = np.searchsorted(trajectory.times, trajectory.cycle_start_times, "left")
    return trajectory.levels[starts]


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


class SampleBuffer:
    """``des._SampleBuffer`` as first written: every short ``take`` joins the
    unread values and the new draws into a new array by ``np.concatenate``,
    and a ``rollback`` copies the unread values out once a refill's worth
    has been used."""

    CHUNK = 1024

    def __init__(self, dist, gen: np.random.Generator, worker=None):
        self._dist = dist
        self._gen = gen
        self._worker = worker
        self._next = None
        self._values = np.empty(0)
        self._ptr = 0

    @staticmethod
    def _sample(dist, gen: np.random.Generator, count: int) -> np.ndarray:
        values = np.empty(count)
        dist.fill(gen, values)
        return values

    def take(self, count: int) -> np.ndarray:
        short = self._ptr + count - self._values.size
        if short > 0:
            parts = [self._values[self._ptr :]]
            if self._worker is None:
                size = max(short, self.CHUNK)
                parts.append(self._sample(self._dist, self._gen, size))
            else:
                if self._next is not None:
                    parts.append(self._worker.result(self._next))
                    short -= des.AHEAD_REFILL
                if short > 0:
                    parts.append(self._sample(self._dist, self._gen, short))
                self._next = self._worker.submit(
                    self._sample, self._dist, self._gen, des.AHEAD_REFILL
                )
            self._values = np.concatenate(parts)
            self._ptr = 0
        view = self._values[self._ptr : self._ptr + count]
        self._ptr += count
        return view

    def rollback(self, count: int) -> None:
        if not 0 <= count <= self._ptr:
            raise RuntimeError(f"cannot roll back {count} of {self._ptr} draws")
        self._ptr -= count
        if self._ptr >= des.AHEAD_REFILL:
            self._values = self._values[self._ptr :].copy()
            self._ptr = 0


def busy_period(engine, queue: int, drop: int, t0: float) -> tuple[float, int]:
    """``des._Engine._busy_period`` as first written: each chunk's completions
    in a new array, the chunks of a busy period joined by ``np.concatenate``
    and shifted to absolute epochs.  The joined array is copied to the end of
    the queue's completion store, so a block's store holds what ``_flush``
    once joined from these arrays."""
    clock = engine._clocks[queue]
    buffer = engine._services[queue]
    load = engine._loads[queue]
    expected = drop / (1.0 - load)
    spread = math.sqrt(expected * load / (1.0 - load) ** 2 + 1.0)
    chunk = max(32, int(expected + 4.0 * spread) + 8)
    done = 0
    tail = 0.0
    parts = []
    while True:
        draws = buffer.take(chunk)
        completions = np.add.accumulate(draws)
        if tail:
            completions += tail
        pending = clock.peek_until(t0 + completions[-1])
        hit = des._first_passage(pending, t0, completions, drop - done - 1)
        if hit >= 0:
            buffer.rollback(draws.size - hit - 1)
            parts.append(completions[: hit + 1])
            joined = parts[0] if len(parts) == 1 else np.concatenate(parts)
            duration = float(completions[hit])
            joined += t0
            store = engine._downs[queue]
            store._room(joined.size)[:] = joined
            store._end += joined.size
            return duration, done + hit + 1
        done += draws.size
        tail = float(completions[-1])
        parts.append(completions)
        chunk = min(chunk * 2, 1 << 22)
