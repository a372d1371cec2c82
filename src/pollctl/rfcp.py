"""Search for cost-minimising service-ratio controls.

The decision variables are the repetition count of the visit table and one
thinning ratio per augmented stage.  Equilibrium cost is evaluated exactly
through the fluid periodic orbit, so the optimisation is a low-dimensional
smooth program over [0, 1] ratios with per-queue sums at least one (the
compact subset; restricting to it loses no equilibrium cost and makes the
minimum attained).  SLSQP solves it from several seeded starts, with the
exact adjoint gradient of the visit recursion for separable costs and
finite differences otherwise.
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
    """Equilibrium cost as a function of the ratios, and the same function
    returning its gradient too, if there is one: closed form and adjoint
    gradient for separable costs, quadrature along the breakpoint orbit and
    no gradient otherwise."""
    if isinstance(psi, SeparableCost):
        recursion = VisitRecursion(params, repetitions)
        return (
            partial(recursion.average_cost, psi=psi),
            partial(recursion.cost_and_gradient, psi=psi),
        )

    def cost(r):
        return pe_average_cost(pe_from_params(params, ControlParams(repetitions, r)), psi)

    return cost, None


def control_cost(
    params: SystemParameters, control: ControlParams, psi: CostFunction
) -> float:
    """Long-run average cost of one policy in periodic equilibrium."""
    return _cost_of_ratios(params, control.repetitions, psi)[0](control.ratios)


def project_to_compact(
    params: SystemParameters, repetitions: int, ratios: np.ndarray
) -> np.ndarray:
    """Clip to [0, 1], then project onto the ratios with per-queue sums >= 1.

    Queues partition the stages, so the projection separates into one capped
    simplex per queue (Wang & Lu, arXiv:1503.01002): shift the queue's visits
    up uniformly, each capped at 1, until their sum reaches one.  Once they
    are clipped to [0, 1] with a sum below one, the shift ``(1 - sum) /
    visits`` leaves every visit at most 1, so no cap binds and the shift is
    exact.  Visits of a queue whose floating-point sum still falls short move
    up by one ulp until it does not.
    """
    stages = np.asarray(augment(params.table, repetitions).stages)
    r = np.clip(np.asarray(ratios, dtype=float), 0.0, 1.0)
    sums = np.bincount(stages, r, params.num_queues)
    shift = np.maximum(1.0 - sums, 0.0) / np.bincount(stages)
    r = np.minimum(r + shift[stages], 1.0)
    short = np.bincount(stages, r, params.num_queues) < 1.0
    while short.any():
        r[short[stages]] = np.nextafter(r[short[stages]], 1.0)
        short = np.bincount(stages, r, params.num_queues) < 1.0
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
class StartOutcome:
    """Where one start of the search ended."""

    cost: float  # equilibrium cost of the projected end point
    evaluations: int  # orbit solves SLSQP made, without the final evaluation
    success: bool  # SLSQP's own convergence flag


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
    stages = np.asarray(augment(params.table, repetitions).stages)
    gen = np.random.default_rng((seed, repetitions))
    cost_of, with_gradient = _cost_of_ratios(params, repetitions, psi)
    fun = with_gradient or cost_of
    evaluations = 0

    def objective(x: np.ndarray):
        nonlocal evaluations
        evaluations += 1
        # SLSQP may step slightly past the sum constraints; no queue may starve
        return fun(project_to_compact(params, repetitions, x))

    sums = optimize.LinearConstraint(
        np.equal.outer(np.arange(params.num_queues), stages).astype(float), lb=1.0
    )
    starts = [np.ones(dim)]
    starts += [
        project_to_compact(params, repetitions, gen.uniform(size=dim))
        for _ in range(budget)
    ]
    outcomes = []
    incumbent, incumbent_cost = starts[0], np.inf
    for x0 in starts:
        before = evaluations
        result = optimize.minimize(
            objective,
            x0,
            method="SLSQP",
            jac=with_gradient is not None,
            bounds=[(0.0, 1.0)] * dim,
            constraints=sums,
            # converge to round-off, so equal optima of two repetition counts tie
            options={"ftol": 1e-12},
        )
        spent = evaluations - before
        finalist = project_to_compact(params, repetitions, result.x)
        evaluations += 1
        cost = cost_of(finalist)
        outcomes.append(StartOutcome(float(cost), spent, bool(result.success)))
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

    For each repetition count the search runs SLSQP from the all-ones policy
    plus ``budget`` seeded random feasible starts, on the projection of each
    iterate onto the compact subset, and keeps the best projected end point.
    Separable costs supply their exact gradient; other costs use finite
    differences.  Reported costs are exact equilibrium evaluations, and
    ``evaluations`` counts orbit solves, with or without a gradient.  Ties
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
