"""Search for cost-minimising service-ratio controls.

The decision variables are the repetition count of the visit table and one
thinning ratio per augmented stage.  Equilibrium cost is evaluated exactly
through the fluid periodic orbit, so the optimisation is a low-dimensional
program over [0, 1] ratios with per-queue sums at least one (the compact
subset; restricting to it loses no equilibrium cost and makes the minimum
attained).  A spectral projected gradient method solves it from several
seeded starts, on the Euclidean projection onto that set, with the exact
adjoint gradient of the visit recursion for separable costs and forward
differences otherwise.  It needs NumPy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .cost import (
    CostFunction,
    LinearScalar,
    PiecewiseLinearScalar,
    PolynomialScalar,
    SeparableCost,
    pe_average_cost,
)
from .fluid import VisitRecursion
from .model import (
    ControlParams,
    InvalidControl,
    SystemParameters,
    augment,
    cycle_length,
    validate,
)


def _cost_of_ratios(params: SystemParameters, repetitions: int, psi: CostFunction):
    """Equilibrium cost as a function of the ratios, and the same function
    returning its gradient too, if there is one: closed form and adjoint
    gradient for separable costs, quadrature along the breakpoint orbit and
    no gradient otherwise.  Both come from one ``VisitRecursion``."""
    recursion = VisitRecursion(params, repetitions)
    if isinstance(psi, SeparableCost):
        return (
            partial(recursion.average_cost, psi=psi),
            partial(recursion.cost_and_gradient, psi=psi),
        )

    def cost(r):
        return pe_average_cost(recursion.orbit(ControlParams(repetitions, r)), psi)

    return cost, None


def control_cost(
    params: SystemParameters, control: ControlParams, psi: CostFunction
) -> float:
    """Long-run average cost of one policy in periodic equilibrium."""
    return _cost_of_ratios(params, control.repetitions, psi)[0](control.ratios)


def project_to_compact(
    params: SystemParameters, repetitions: int, ratios: np.ndarray
) -> np.ndarray:
    """Euclidean projection onto the ratios in [0, 1] with per-queue sums >= 1.

    Queues partition the stages, so the projection separates into one capped
    simplex per queue (Wang & Lu, arXiv:1503.01002): ``clip(y + t, 0, 1)``
    of the queue's visits ``y``, with the least shift ``t >= 0`` whose sum
    reaches one.  The sum is piecewise linear in ``t`` with kinks at ``-y``
    and ``1 - y``, so ``t`` interpolates between the two sorted kinks around
    one.  The positive visits of a queue whose floating-point sum still falls
    short move up by one ulp until it does not.
    """
    return _compact_projection(params, repetitions)(ratios)


def _compact_projection(params: SystemParameters, repetitions: int):
    """``project_to_compact`` for one augmented table, reading the table's
    polled queues and per-queue visits."""
    table = augment(params.table, repetitions)
    polled, visits = table.polled, table.visits
    queues = params.num_queues

    def project(ratios) -> np.ndarray:
        y = np.asarray(ratios, dtype=float)
        r = np.clip(y, 0.0, 1.0)
        for k in np.flatnonzero(np.bincount(polled, r, queues) < 1.0):
            # measured from the largest visit, which reaches 1 at shift 1, with
            # the visits more than 1 below it, which stay at 0, raised to -1
            at = visits[k]
            own = y[at]
            v = np.maximum(own - own.max(), -1.0)
            kinks = np.sort(np.concatenate([-v, 1.0 - v]))
            sums = np.clip(v + kinks[:, None], 0.0, 1.0).sum(axis=1)
            j = np.searchsorted(sums, 1.0)
            i = j - 1
            t = kinks[i] + (kinks[j] - kinks[i]) * (1.0 - sums[i]) / (sums[j] - sums[i])
            r[at] = np.clip(v + t, 0.0, 1.0)
        short = np.bincount(polled, r, queues) < 1.0
        while short.any():
            lift = short[polled] & (r > 0.0)
            r[lift] = np.nextafter(r[lift], 1.0)
            short = np.bincount(polled, r, queues) < 1.0
        return r

    return project


def exhaustive_shortcut(
    params: SystemParameters,
    psi: CostFunction,
    repetition_set: tuple[int, ...] | None = None,
) -> ControlParams | None:
    """Return the known-optimal policy when theory settles the search.

    On a table that visits every queue exactly once, emptying each queue at
    each visit is optimal for separable convex costs; with a single table
    pass it is optimal for any nondecreasing separable cost, convex or not.
    Repeating the table with all-ones ratios replays the same orbit, so the
    smallest admissible repetition count is returned.  ``None`` means the
    numerical search is required.
    """
    validate(params)
    if len(params.table) != params.num_queues:
        return None
    reps = sorted({int(v) for v in repetition_set}) if repetition_set else [1]
    if not isinstance(psi, SeparableCost):
        return None
    certifiably_convex = all(
        isinstance(c, (LinearScalar, PolynomialScalar)) for c in psi.components
    )
    if certifiably_convex:
        return ControlParams.exhaustive(params, reps[0])
    if reps == [1]:
        return ControlParams.exhaustive(params, 1)
    return None


def relaxation_bound_cyclic(
    params: SystemParameters, repetitions: int, psi: SeparableCost
) -> float:
    """Lower bound on equilibrium cost over all ratio controls.

    Valid for tables visiting each queue once and costs built from
    threshold-linear pieces ``h * x * 1{x >= alpha}``.  Relaxing the orbit to
    independent per-queue sawtooth paths, each visit must still clear a
    ``1/repetitions`` share of the queue's per-tour inflow; the cheapest such
    tooth spends as long as possible below each threshold, leaving the
    closed-form area below.  Exhaustive service attains the bound for pieces
    with zero threshold.
    """
    validate(params)
    if len(params.table) != params.num_queues:
        raise InvalidControl("bound requires a table visiting each queue once")
    if not isinstance(psi, SeparableCost):
        raise ValueError("bound requires a separable threshold-linear cost")
    tau = cycle_length(params, repetitions)
    reps = float(repetitions)
    total = 0.0
    for k, comp in enumerate(psi.components):
        if isinstance(comp, LinearScalar):
            thresholds = np.array([0.0])
            increments = np.array([comp.slope])
        elif isinstance(comp, PiecewiseLinearScalar):
            thresholds = comp.thresholds
            increments = comp.slope_increments
        else:
            raise ValueError("bound requires linear or piecewise-linear pieces")
        lam = params.arrival_rates[k]
        drain = params.drain_rates[k]
        idle = 1.0 - params.arrival_rates[k] / params.service_rates[k]
        for alpha, h in zip(thresholds, increments):
            reach = max(tau - reps * (alpha / lam + alpha / drain), 0.0)
            total += h * reps * 0.5 * idle * lam * (reach / reps) ** 2
    return total / tau


#: the search's nonmonotone memory, Armijo constant, Barzilai-Borwein step
#: bounds, projected-step tolerance (above the noise of forward differences),
#: iterations per start and forward-difference step; steps and tolerance are
#: for the cost divided by its value at the start
_MEMORY = 10
_ARMIJO = 1e-4
_STEP_MIN, _STEP_MAX = 1e-10, 1e10
_TOLERANCE = 1e-7
_ITERATIONS = 200
_DIFFERENCE = np.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class StartOutcome:
    """Where one start of the search ended."""

    cost: float  # equilibrium cost of the cheapest iterate
    evaluations: int  # orbit solves of the start, dim + 1 per difference gradient
    success: bool  # the projected gradient step fell below tolerance


@dataclass(frozen=True)
class RepetitionSearch:
    """Best policy found for one repetition count."""

    repetitions: int
    ratios: tuple[float, ...]
    cost: float
    evaluations: int
    starts: tuple[StartOutcome, ...]


@dataclass(frozen=True)
class RFCPSolution:
    """Winner across the repetition set, with per-count diagnostics."""

    repetitions: int
    ratios: tuple[float, ...]
    cost: float
    evaluations: int
    searches: tuple[RepetitionSearch, ...]

    @property
    def control(self) -> ControlParams:
        return ControlParams(self.repetitions, self.ratios)


def _forward_differences(cost, r: np.ndarray) -> tuple[float, np.ndarray]:
    """``cost(r)`` and its gradient by forward differences, ``r.size + 1``
    evaluations; a step that would leave [0, 1] is taken backwards."""
    value = cost(r)
    moved = r + np.diag(np.where(r + _DIFFERENCE <= 1.0, _DIFFERENCE, -_DIFFERENCE))
    return value, np.array([cost(m) - value for m in moved]) / (np.diag(moved) - r)


def _spectral_projected_gradient(objective, project, x: np.ndarray):
    """Nonmonotone spectral projected gradient (Birgin, Martinez & Raydan,
    SIAM J. Optim. 10(4), 2000, SPG2) from the feasible point ``x``.

    Each iteration steps along ``project(x - step * gradient) - x`` with the
    Barzilai-Borwein ``step``, backtracking until the cost clears the Armijo
    condition against the last ``_MEMORY`` costs.  A rejected trial moves to
    where the tangents at both ends meet (a kink of a threshold cost), or
    halfway when that is not nearer.  Steps and tolerance see the cost in
    units of its value at ``x``, so scaling the cost changes no iterate.
    Returns the cheapest iterate, its cost, and whether ``project(x -
    gradient / unit) - x``, with ``unit`` that value, fell below tolerance.
    """
    cost, gradient = objective(x)
    unit = abs(cost) or 1.0
    best, best_cost, recent = x, cost, [cost]
    gap = np.abs(project(x - gradient / unit) - x).max()
    step = 1.0 / max(gap, 1.0 / _STEP_MAX)
    for _ in range(_ITERATIONS):
        if gap <= _TOLERANCE:
            return best, best_cost, True
        ceiling = max(recent[-_MEMORY:])
        direction = project(x - step / unit * gradient) - x
        slope = gradient @ direction
        alpha = 1.0
        while True:
            trial = x + alpha * direction
            if (trial == x).all():  # no step left that moves
                return best, best_cost, False
            trial_cost, trial_gradient = objective(trial)
            if trial_cost <= ceiling + _ARMIJO * alpha * slope:
                break
            far = trial_gradient @ direction
            meet = (
                (trial_cost - cost - far * alpha) / (slope - far) if far > slope else 0
            )
            alpha = meet if 0.0 < meet <= 0.5 * alpha else 0.5 * alpha
        moved = trial - x
        curvature = moved @ (trial_gradient - gradient)
        step = _STEP_MAX
        if curvature > 0.0:
            step = min(max(unit * (moved @ moved) / curvature, _STEP_MIN), _STEP_MAX)
        x, cost, gradient = trial, trial_cost, trial_gradient
        recent.append(cost)
        if cost < best_cost:
            best, best_cost = x, cost
        gap = np.abs(project(x - gradient / unit) - x).max()
    return best, best_cost, False


def _search_single(
    params: SystemParameters,
    psi: CostFunction,
    repetitions: int,
    budget: int | None,
    seed: int,
) -> RepetitionSearch:
    dim = params.num_stages * repetitions
    if budget is None:
        budget = 20 + 5 * dim
    gen = np.random.default_rng((seed, repetitions))
    project = _compact_projection(params, repetitions)
    cost_of, with_gradient = _cost_of_ratios(params, repetitions, psi)
    fun = with_gradient or partial(_forward_differences, cost_of)
    solves = 1 if with_gradient else dim + 1  # orbits per cost and gradient
    evaluations = 0

    def objective(x: np.ndarray):
        nonlocal evaluations
        evaluations += solves
        return fun(x)

    starts = [np.ones(dim)]
    starts += [project(gen.uniform(size=dim)) for _ in range(budget)]
    outcomes = []
    incumbent, incumbent_cost = starts[0], np.inf
    for x0 in starts:
        before = evaluations
        finalist, cost, success = _spectral_projected_gradient(objective, project, x0)
        outcomes.append(StartOutcome(float(cost), evaluations - before, success))
        if cost < incumbent_cost:
            incumbent, incumbent_cost = finalist, cost

    return RepetitionSearch(
        repetitions=repetitions,
        ratios=tuple(float(v) for v in incumbent),
        cost=float(incumbent_cost),
        evaluations=evaluations,
        starts=tuple(outcomes),
    )


def solve_rfcp(
    params: SystemParameters,
    psi: CostFunction,
    repetition_set: tuple[int, ...] = (1,),
    *,
    budget: int | None = None,
    seed: int = 0,
) -> RFCPSolution:
    """Minimise equilibrium cost over repetition counts and stage ratios.

    For each repetition count the search runs the spectral projected gradient
    method from the all-ones policy plus ``budget`` seeded random starts,
    projected onto the compact subset, and keeps the cheapest iterate of all.
    Separable costs supply their exact gradient; other costs use forward
    differences.  Reported costs are exact equilibrium evaluations, and
    ``evaluations`` counts orbit solves: one per cost with its exact
    gradient, one per ratio plus one per difference gradient.  Ties between
    repetition counts go to the smaller one.  Results are deterministic for
    fixed inputs.
    """
    validate(params)
    reps = sorted({int(v) for v in repetition_set})
    if not reps:
        raise InvalidControl("repetition set must be nonempty")
    if reps[0] < 1:
        raise InvalidControl("repetition counts must be >= 1")

    searches = tuple(
        _search_single(params, psi, reps_count, budget, seed) for reps_count in reps
    )
    best = searches[0]
    for search in searches[1:]:
        if search.cost < best.cost - 1e-12 * max(1.0, abs(best.cost)):
            best = search
    return RFCPSolution(
        repetitions=best.repetitions,
        ratios=best.ratios,
        cost=best.cost,
        evaluations=sum(s.evaluations for s in searches),
        searches=searches,
    )
