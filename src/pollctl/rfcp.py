"""Search for cost-minimising service-ratio controls.

The decision variables are the repetition count of the visit table and one
thinning ratio per augmented stage.  Equilibrium cost is evaluated exactly
through the fluid periodic orbit, so the optimisation is a low-dimensional
deterministic problem; multi-start Nelder-Mead with a soft penalty keeping
iterates near the compact subset (per-queue ratio sums at least one) is
robust to its piecewise-smooth structure.  Restricting to that subset loses
no equilibrium cost and makes the minimum attained.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import optimize

from .cost import (
    CostFunction,
    LinearScalar,
    PiecewiseLinearScalar,
    PolynomialScalar,
    SeparableCost,
    pe_average_cost,
)
from .fluid import VisitRecursion, pe_from_params
from .model import (
    ControlParams,
    InvalidControl,
    SystemParameters,
    augment,
    cycle_length,
    validate,
)


def _cost_of_ratios(params: SystemParameters, repetitions: int, psi: CostFunction):
    """Equilibrium cost as a function of the ratios: closed form for separable
    costs, quadrature along the breakpoint orbit otherwise."""
    if isinstance(psi, SeparableCost):
        return partial(VisitRecursion(params, repetitions).average_cost, psi=psi)
    return lambda r: pe_average_cost(
        pe_from_params(params, ControlParams(repetitions, r)), psi
    )


def control_cost(
    params: SystemParameters, control: ControlParams, psi: CostFunction
) -> float:
    """Long-run average cost of one policy in periodic equilibrium."""
    return _cost_of_ratios(params, control.repetitions, psi)(control.ratios)


def project_to_compact(
    params: SystemParameters, repetitions: int, ratios: np.ndarray
) -> np.ndarray:
    """Euclidean projection onto [0,1] ratios with per-queue sums >= 1.

    Queues partition the stages, so the projection separates: clip, then for
    any queue still short of total one, shift its visits up uniformly
    (saturating at 1) until the sum reaches one.
    """
    table = augment(params.table, repetitions)
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


@dataclass(frozen=True)
class RepetitionSearch:
    """Best policy found for one repetition count."""

    repetitions: int
    ratios: tuple[float, ...]
    cost: float
    evaluations: int


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
    table = augment(params.table, repetitions)
    stage_queue = np.asarray(table.stages)
    gen = np.random.default_rng((seed, repetitions))
    evaluations = [0]
    weight = [1e4]
    cost_of = _cost_of_ratios(params, repetitions, psi)

    def queue_sums(r: np.ndarray) -> np.ndarray:
        return np.bincount(stage_queue, r, params.num_queues)

    def true_cost(r: np.ndarray) -> float:
        evaluations[0] += 1
        return cost_of(r)

    def objective(x: np.ndarray) -> float:
        r = np.clip(x, 0.0, 1.0)
        sums = queue_sums(r)
        deficit = np.maximum(0.0, 1e-9 - sums)
        if deficit.any():
            # no orbit exists near a starved queue; steer back hard
            return 1e12 * (1.0 + float(deficit.sum()))
        shortfall = np.maximum(0.0, 1.0 - sums)
        return true_cost(r) + weight[0] * float(np.dot(shortfall, shortfall))

    starts = [np.ones(dim)]
    starts += [
        project_to_compact(params, repetitions, gen.uniform(size=dim))
        for _ in range(budget)
    ]

    def explore(x0: np.ndarray, tight: bool) -> np.ndarray:
        options = (
            {"xatol": 1e-10, "fatol": 1e-12, "maxfev": 400 * dim}
            if tight
            else {"xatol": 1e-4, "fatol": 1e-8, "maxfev": 200 * dim}
        )
        result = optimize.minimize(
            objective,
            0.98 * x0 + 0.01,  # off the corner so the initial simplex has volume
            method="Nelder-Mead",
            bounds=[(0.0, 1.0)] * dim,
            options=options,
        )
        return np.clip(result.x, 0.0, 1.0)

    finalists: list[np.ndarray] = []
    for x0 in starts:
        finalists.append(x0)
        finalists.append(explore(x0, tight=False))

    def best_projected(points: list[np.ndarray]) -> tuple[np.ndarray, float]:
        best_r: np.ndarray | None = None
        best_c = np.inf
        for point in points:
            projected = project_to_compact(params, repetitions, point)
            cost = true_cost(projected)
            if cost < best_c:
                best_r, best_c = projected, cost
        assert best_r is not None
        return best_r, best_c

    incumbent, incumbent_cost = best_projected(finalists)
    raw_best = min(finalists, key=objective)
    if np.any(queue_sums(raw_best) < 1.0 - 1e-6):
        # the penalty was too soft to pin the active constraint; harden and retry
        weight[0] *= 2.0
        retry = explore(incumbent, tight=False)
        candidate, cost = best_projected([retry])
        if cost < incumbent_cost:
            incumbent, incumbent_cost = candidate, cost

    polished = explore(incumbent, tight=True)
    candidate, cost = best_projected([polished])
    if cost < incumbent_cost:
        incumbent, incumbent_cost = candidate, cost

    return RepetitionSearch(
        repetitions=repetitions,
        ratios=tuple(float(v) for v in incumbent),
        cost=float(incumbent_cost),
        evaluations=evaluations[0],
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

    For each repetition count the search runs Nelder-Mead from the all-ones
    policy plus ``budget`` seeded random feasible starts, projects every
    finalist onto the compact subset, polishes the winner and re-projects.
    Reported costs are exact penalty-free equilibrium evaluations.  Ties
    between repetition counts go to the smaller one.  Results are
    deterministic for fixed inputs.
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
