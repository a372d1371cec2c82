from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pollctl as pc
from conftest import random_cyclic_params, random_instance, random_pwl_cost
from oracles import (
    LoopVisitRecursion,
    project_to_compact_by_bisection,
    project_to_compact_by_masks,
    slsqp_search_cost,
)
from pollctl import fluid
from pollctl.config import cost_from, load_config, system_from

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads"


# -- projection onto the compact control subset ---------------------------------


def test_projection_keeps_feasible_points(revisit_params):
    ratios = np.array([1.0, 0.4, 0.7, 0.8, 0.5])
    out = pc.project_to_compact(revisit_params, 1, ratios)
    np.testing.assert_array_equal(out, ratios)


def test_projection_on_cyclic_table_yields_exhaustive(symmetric_params):
    out = pc.project_to_compact(symmetric_params, 1, np.array([0.2, 0.7]))
    np.testing.assert_array_equal(out, [1.0, 1.0])


def test_projection_shifts_uniformly_and_saturates(revisit_params):
    # queue 1 sits at stages 1 and 3; shortfall is split evenly between them
    ratios = np.array([1.0, 0.1, 1.0, 0.3, 1.0])
    out = pc.project_to_compact(revisit_params, 1, ratios)
    assert out[1] - 0.1 == pytest.approx(out[3] - 0.3, abs=1e-9)
    assert out[[1, 3]].sum() >= 1.0
    assert out[[1, 3]].sum() == pytest.approx(1.0, abs=1e-9)
    # saturation: one visit pinned at 1 pushes the rest of the shift elsewhere
    ratios = np.array([1.0, 0.95, 1.0, 0.0, 1.0])
    out = pc.project_to_compact(revisit_params, 1, ratios)
    assert out[[1, 3]].sum() >= 1.0
    assert out[1] <= 1.0
    # the shift is of the unclipped visits: a far-negative visit stays at 0
    single = pc.SystemParameters((1.0,), (4.0,), (0, 0, 0), (1.0,) * 3)
    out = pc.project_to_compact(single, 1, np.array([-5.0, 0.2, 0.3]))
    np.testing.assert_allclose(out, [0.0, 0.45, 0.55], rtol=0.0, atol=1e-15)
    # far below [0, 1], only the largest visit reaches one
    out = pc.project_to_compact(single, 1, np.array([-1e20, -3e19, -1e20]))
    np.testing.assert_array_equal(out, [0.0, 1.0, 0.0])


def test_projection_clips_and_is_idempotent(revisit_params):
    gen = np.random.default_rng(3)
    for _ in range(25):
        raw = gen.uniform(-0.5, 1.5, 5)
        out = pc.project_to_compact(revisit_params, 1, raw)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        control = pc.ControlParams(1, tuple(out))
        control.validate_for(revisit_params)
        assert np.all(control.queue_ratio_sums(revisit_params) >= 1.0 - 1e-12)
        again = pc.project_to_compact(revisit_params, 1, out)
        np.testing.assert_allclose(again, out, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), spread=st.floats(0.0, 6.0))
def test_projection_meets_its_optimality_conditions(seed, spread):
    # r = clip(y + t, 0, 1) per queue, with t >= 0 and t * (sum r - 1) = 0:
    # either t = 0 and r = clip(y), or some t >= 0 reproduces r and the
    # queue's sum is one, short of the one-ulp nudge
    gen = np.random.default_rng(seed)
    params, control = random_instance(gen, max_queues=5)
    y = gen.uniform(-spread, 1.0 + spread, len(control.ratios))
    y[gen.random(y.size) < 0.3] *= 0.1
    r = pc.project_to_compact(params, control.repetitions, y)
    sums = pc.ControlParams(control.repetitions, tuple(r)).queue_ratio_sums(params)
    table = pc.augment(params.table, control.repetitions)
    for k in range(params.num_queues):
        idx = np.asarray(table.visit_stages(k))
        assert sums[k] >= 1.0
        if sums[k] > 1.0 + 1e-12:
            assert r[idx].tobytes() == np.clip(y[idx], 0.0, 1.0).tobytes()
            continue
        v, shifted = r[idx], (r - y)[idx]
        zero, one = v == 0.0, v == 1.0
        free = ~zero & ~one
        low = np.max(np.r_[0.0, 1.0 - y[idx][one], shifted[free]])
        high = np.min(np.r_[np.inf, -y[idx][zero], shifted[free]])
        assert low <= high + 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), spread=st.floats(0.0, 1.0))
def test_projection_matches_bisection_on_random_tables(seed, spread):
    gen = np.random.default_rng(seed)
    params, control = random_instance(gen, max_queues=5)
    raw = gen.uniform(-spread, 1.0 + spread, len(control.ratios))
    raw[gen.random(raw.size) < 0.3] *= 0.1  # push some queues short of one
    out = pc.project_to_compact(params, control.repetitions, raw)
    oracle = project_to_compact_by_bisection(params, control.repetitions, raw)
    np.testing.assert_allclose(out, oracle, rtol=0.0, atol=1e-12)
    sums = pc.ControlParams(control.repetitions, tuple(out)).queue_ratio_sums(params)
    assert np.all(sums >= 1.0)
    again = pc.project_to_compact(params, control.repetitions, out)
    assert again.tobytes() == out.tobytes()


def test_evaluation_kernels_keep_every_bit_of_the_loop_oracles():
    # the search's cost, gradient and projection against the versions that
    # rebuild A(r), regather the pieces and rebuild the table on every call;
    # tables of up to 10 stages over 2-4 queues, so that the stages between
    # two visits of a queue reach 9, past the 8 that NumPy sums one at a time
    gen = np.random.default_rng(2018)
    longest = 0
    for _ in range(40):
        queues = int(gen.integers(2, 5))
        table = [int(q) for q in gen.permutation(queues)]
        for q in gen.integers(0, queues, int(gen.integers(1, 7))):
            table.insert(int(gen.integers(0, len(table) + 1)), int(q))
        lam = gen.uniform(0.2, 1.2, queues)
        mu = lam / (gen.uniform(0.35, 0.9) * gen.dirichlet(np.ones(queues)))
        s = gen.uniform(0.1, 1.5, len(table))
        params = pc.SystemParameters(tuple(lam), tuple(mu), tuple(table), tuple(s))
        reps = int(gen.integers(1, 4))
        fast, oracle = pc.VisitRecursion(params, reps), LoopVisitRecursion(params, reps)
        for name in ("base", "coupling", "rhs", "successor"):
            assert getattr(fast, name).tobytes() == getattr(oracle, name).tobytes()
        stages = oracle.successor.size
        spans = (oracle.successor - np.arange(stages)) % stages
        longest = max(longest, int(np.where(spans == 0, stages, spans).max()))
        thresholds = [[0.0, *sorted(gen.uniform(0.05, 3.0, 2))] for _ in range(queues)]
        costs = (
            pc.linear_cost(gen.uniform(0.2, 3.0, queues)),
            pc.polynomial_cost(gen.uniform(0.0, 1.0, (queues, 3))),
            pc.piecewise_linear_cost(
                thresholds, np.cumsum(gen.uniform(0.2, 2.0, (queues, 3)), axis=1)
            ),
        )
        dim = len(table) * reps
        for _ in range(3):
            ratios = gen.uniform(0.05, 1.0, dim)
            ratios[gen.random(dim) < 0.2] = 1.0
            ratios = pc.project_to_compact(params, reps, ratios)
            for psi in costs:
                cost, gradient = fast.cost_and_gradient(ratios, psi)
                expected, expected_gradient = oracle.cost_and_gradient(ratios, psi)
                assert cost == expected
                assert gradient.tobytes() == expected_gradient.tobytes()
                average = fast.average_cost(ratios, psi)
                assert average == oracle.average_cost(ratios, psi)
            raw = gen.uniform(-2.0, 3.0, dim)
            raw[gen.random(dim) < 0.4] *= 0.05  # push some queues short of one
            projected = pc.project_to_compact(params, reps, raw)
            expected = project_to_compact_by_masks(params, reps, raw)
            assert projected.tobytes() == expected.tobytes()
    assert longest >= 9


# -- closed-form shortcut --------------------------------------------------------


def test_shortcut_cyclic_linear_cost(symmetric_params):
    psi = pc.linear_cost([1.0, 2.0])
    control = pc.exhaustive_shortcut(symmetric_params, psi, (2, 1))
    assert control == pc.ControlParams.exhaustive(symmetric_params, 1)
    control = pc.exhaustive_shortcut(symmetric_params, psi, (2,))
    assert control == pc.ControlParams.exhaustive(symmetric_params, 2)


def test_shortcut_cyclic_polynomial_cost(symmetric_params):
    psi = pc.polynomial_cost([[0.0, 1.0, 0.5], [0.0, 2.0]])
    control = pc.exhaustive_shortcut(symmetric_params, psi, (1, 2, 3))
    assert control == pc.ControlParams.exhaustive(symmetric_params, 1)


def test_shortcut_piecewise_only_for_single_pass(symmetric_params):
    psi = pc.piecewise_linear_cost(
        [[0.0, 2.0], [0.0, 1.0]], [[1.0, 3.0], [1.0, 2.0]]
    )
    assert pc.exhaustive_shortcut(symmetric_params, psi, (1,)) == (
        pc.ControlParams.exhaustive(symmetric_params, 1)
    )
    assert pc.exhaustive_shortcut(symmetric_params, psi, (1, 2)) is None


def test_shortcut_declines_revisit_tables_and_joint_costs(
    symmetric_params, revisit_params
):
    assert pc.exhaustive_shortcut(revisit_params, pc.linear_cost([1.0] * 3)) is None
    joint = pc.CustomCost(lambda q: q.sum(axis=-1))
    assert pc.exhaustive_shortcut(symmetric_params, joint) is None


# -- relaxation lower bound -------------------------------------------------------


def test_bound_hand_values(symmetric_params):
    assert pc.relaxation_bound_cyclic(
        symmetric_params, 1, pc.linear_cost([1.0, 1.0])
    ) == pytest.approx(3.0, abs=1e-12)
    assert pc.relaxation_bound_cyclic(
        symmetric_params, 1, pc.linear_cost([1.0, 0.0])
    ) == pytest.approx(1.5, abs=1e-12)


def test_bound_equals_exhaustive_cost_for_linear_cyclic():
    gen = np.random.default_rng(21)
    for _ in range(15):
        params = random_cyclic_params(gen)
        psi = random_pwl_cost(gen, params.num_queues, single_piece=True)
        bound = pc.relaxation_bound_cyclic(params, 1, psi)
        cost = pc.control_cost(params, pc.ControlParams.exhaustive(params), psi)
        assert bound == pytest.approx(cost, rel=1e-9)


def test_bound_is_unreachable_threshold_insensitive(symmetric_params):
    tau = pc.cycle_length(symmetric_params)
    # queue 1 never reaches level 3 on any sawtooth of period tau
    high = tau / (1.0 / 1.0 + 1.0 / 3.0) + 1.0
    psi = pc.piecewise_linear_cost(
        [[0.0, high], [0.0]], [[1.0, 50.0], [1.0]]
    )
    base = pc.relaxation_bound_cyclic(symmetric_params, 1, psi)
    assert base == pytest.approx(3.0, abs=1e-12)


def test_bound_lower_bounds_exhaustive_for_piecewise_costs():
    gen = np.random.default_rng(33)
    for _ in range(15):
        params = random_cyclic_params(gen)
        psi = random_pwl_cost(gen, params.num_queues, single_piece=False)
        bound = pc.relaxation_bound_cyclic(params, 1, psi)
        cost = pc.control_cost(params, pc.ControlParams.exhaustive(params), psi)
        assert cost >= bound - 1e-9 * max(1.0, abs(cost))


def test_bound_linear_cost_invariant_in_repetitions(symmetric_params):
    psi = pc.linear_cost([2.0, 0.7])
    one = pc.relaxation_bound_cyclic(symmetric_params, 1, psi)
    two = pc.relaxation_bound_cyclic(symmetric_params, 2, psi)
    assert two == pytest.approx(one, rel=1e-12)


def test_bound_rejects_bad_inputs(symmetric_params, revisit_params):
    psi = pc.linear_cost([1.0, 1.0, 1.0])
    with pytest.raises(pc.InvalidControl, match="each queue once"):
        pc.relaxation_bound_cyclic(revisit_params, 1, psi)
    joint = pc.CustomCost(lambda q: q.sum(axis=-1))
    with pytest.raises(ValueError, match="separable"):
        pc.relaxation_bound_cyclic(symmetric_params, 1, joint)
    smooth = pc.polynomial_cost([[0.0, 0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="piecewise-linear"):
        pc.relaxation_bound_cyclic(symmetric_params, 1, smooth)


# -- full search -------------------------------------------------------------------


def test_solve_recovers_exhaustive_on_cyclic_linear(symmetric_params):
    psi = pc.linear_cost([1.0, 1.0])
    solution = pc.solve_rfcp(symmetric_params, psi, (1,), budget=6, seed=4)
    assert solution.repetitions == 1
    np.testing.assert_allclose(solution.ratios, [1.0, 1.0], atol=1e-3)
    assert solution.cost == pytest.approx(3.0, rel=1e-5)
    assert solution.cost >= pc.relaxation_bound_cyclic(
        symmetric_params, 1, psi
    ) - 1e-9


def test_solve_never_beats_feasible_optimum_and_is_deterministic(revisit_params):
    psi = pc.linear_cost([1.0, 1.0, 8.0])
    first = pc.solve_rfcp(revisit_params, psi, (1,), budget=6, seed=9)
    second = pc.solve_rfcp(revisit_params, psi, (1,), budget=6, seed=9)
    assert first.ratios == second.ratios
    assert first.cost == second.cost
    assert first.evaluations == second.evaluations
    exhaustive_cost = pc.control_cost(
        revisit_params, pc.ControlParams.exhaustive(revisit_params), psi
    )
    assert first.cost <= exhaustive_cost + 1e-12
    # pricey queue 2: its revisits stay exhaustive while queue 1 gets thinned
    assert first.ratios[1] < 1.0 - 1e-3
    assert first.control.validate_for(revisit_params) is None


def test_solve_prefers_smaller_repetition_count_on_ties(symmetric_params):
    psi = pc.linear_cost([1.0, 1.0])
    solution = pc.solve_rfcp(symmetric_params, psi, (2, 1), budget=3, seed=1)
    assert solution.repetitions == 1
    assert [s.repetitions for s in solution.searches] == [1, 2]
    assert solution.evaluations == sum(s.evaluations for s in solution.searches)


def test_solve_rejects_bad_repetition_sets(symmetric_params):
    psi = pc.linear_cost([1.0, 1.0])
    with pytest.raises(pc.InvalidControl, match="nonempty"):
        pc.solve_rfcp(symmetric_params, psi, ())
    with pytest.raises(pc.InvalidControl, match=">= 1"):
        pc.solve_rfcp(symmetric_params, psi, (0, 1))


def test_search_accounts_for_every_evaluation(revisit_params):
    psi = pc.linear_cost([1.0, 1.0, 8.0])
    solution = pc.solve_rfcp(revisit_params, psi, (1, 2), budget=3, seed=5)
    for search in solution.searches:
        assert len(search.starts) == 1 + 3
        assert sum(start.evaluations for start in search.starts) == search.evaluations
        assert search.cost == min(start.cost for start in search.starts)


def test_solve_with_custom_cost_reaches_linear_optimum(revisit_params, monkeypatch):
    slopes = np.array([1.0, 1.0, 8.0])
    custom = pc.CustomCost(lambda q: q @ slopes)
    linear = pc.solve_rfcp(revisit_params, pc.linear_cost(slopes), (1,), budget=2)
    orbits = []
    orbit = pc.VisitRecursion.orbit

    def recording(self, control):
        orbits.append(control)
        return orbit(self, control)

    monkeypatch.setattr(pc.VisitRecursion, "orbit", recording)
    solution = pc.solve_rfcp(revisit_params, custom, (1,), budget=2)
    # forward differences: every gradient costs one orbit per ratio plus one
    assert solution.evaluations == len(orbits)
    assert solution.evaluations % (len(solution.ratios) + 1) == 0
    assert solution.cost == pytest.approx(linear.cost, rel=1e-6)
    assert solution.cost == pytest.approx(
        pc.control_cost(revisit_params, solution.control, custom), rel=1e-12
    )


def test_custom_cost_search_builds_one_recursion_per_table(revisit_params, monkeypatch):
    custom = pc.CustomCost(lambda q: q @ np.array([1.0, 1.0, 8.0]))
    builds = []
    init, orbit = fluid.VisitRecursion.__init__, fluid.VisitRecursion.orbit

    def counting(self, params, repetitions):
        builds.append(repetitions)
        init(self, params, repetitions)

    monkeypatch.setattr(fluid.VisitRecursion, "__init__", counting)
    reused = pc.solve_rfcp(revisit_params, custom, (1, 2), budget=1)
    assert builds == [1, 2]

    def rebuilt(self, control):
        return orbit(fluid.VisitRecursion(self.params, control.repetitions), control)

    # a recursion built afresh for every orbit gives the same search
    builds.clear()
    monkeypatch.setattr(fluid.VisitRecursion, "orbit", rebuilt)
    fresh = pc.solve_rfcp(revisit_params, custom, (1, 2), budget=1)
    assert len(builds) == 2 + fresh.evaluations
    assert (fresh.cost, fresh.evaluations) == (reused.cost, reused.evaluations)
    assert fresh.ratios == reused.ratios


def scaled_costs(scale: float) -> dict[str, pc.CostFunction]:
    slopes = np.array([1.0, 1.0, 8.0])
    return {
        "linear": pc.linear_cost(scale * slopes),
        "polynomial": pc.polynomial_cost(
            [[0.0, scale * a, 0.1 * scale * a] for a in slopes]
        ),
        "piecewise-linear": pc.piecewise_linear_cost(
            [[0.0, 3.0]] * 3, [[scale * a, 3 * scale * a] for a in slopes]
        ),
        "custom": pc.CustomCost(lambda q: scale * (q @ slopes)),
    }


@pytest.mark.parametrize("kind", ["linear", "polynomial", "piecewise-linear", "custom"])
def test_solve_is_blind_to_the_unit_of_the_cost(revisit_params, kind):
    # scaling every cost coefficient leaves the optimal policy where it was
    psi = scaled_costs(1.0)[kind]
    base = pc.solve_rfcp(revisit_params, psi, (1, 2), budget=4, seed=3)
    for scale in (1e-8, 1e8):
        psi = scaled_costs(scale)[kind]
        solution = pc.solve_rfcp(revisit_params, psi, (1, 2), budget=4, seed=3)
        assert solution.repetitions == base.repetitions
        np.testing.assert_allclose(solution.ratios, base.ratios, rtol=0, atol=1e-6)
        assert solution.cost / scale == pytest.approx(base.cost, rel=1e-9)


def random_revisit_problem(gen: np.random.Generator, kind: str):
    """A system like the README's, whose dearest queue is visited twice, so
    thinning the visits in between can pay, and a cost of the given kind."""
    queues = int(gen.integers(3, 5))
    table = list(range(queues))
    table += [q for q in range(1, queues - 1) if gen.random() < 0.7] + [queues - 1]
    lam = gen.uniform(1.0, 3.0, queues)
    mu = lam / (gen.uniform(0.5, 0.85) * gen.dirichlet(np.full(queues, 3.0)))
    s = gen.uniform(0.5, 3.0, len(table))
    params = pc.SystemParameters(tuple(lam), tuple(mu), tuple(table), tuple(s))
    weights = gen.uniform(0.5, 2.0, queues)
    weights[-1] *= gen.uniform(3.0, 12.0)
    if kind == "linear":
        return params, pc.linear_cost(weights)
    if kind == "polynomial":
        return params, pc.polynomial_cost(
            [[0.0, w, gen.uniform(0.0, 0.2) * w] for w in weights]
        )
    if kind == "piecewise-linear":
        # thresholds inside the range of each queue's sawtooth
        tour = pc.cycle_length(params)
        thresholds = [
            [0.0, *sorted(gen.uniform(0.1, 1.0, int(gen.integers(1, 3))) * rate * tour)]
            for rate in lam
        ]
        slopes = [
            np.cumsum([w, *gen.uniform(0.5, 3.0, len(a) - 1) * w]).tolist()
            for w, a in zip(weights, thresholds)
        ]
        return params, pc.piecewise_linear_cost(thresholds, slopes)
    return params, pc.CustomCost(lambda q: q @ weights)


def test_solve_is_never_worse_than_slsqp_on_random_revisit_systems():
    gen = np.random.default_rng(17)
    kinds = ("linear", "polynomial", "piecewise-linear", "custom")
    thinned = 0
    for draw in range(16):
        params, psi = random_revisit_problem(gen, kinds[draw % 4])
        solution = pc.solve_rfcp(params, psi, (1, 2), budget=2, seed=draw)
        for search in solution.searches:
            oracle = slsqp_search_cost(params, psi, search.repetitions, 2, draw)
            assert search.cost <= oracle + 1e-9 * abs(oracle), (draw, search)
            thinned += min(search.ratios) < 0.99
    assert thinned >= 12  # most optima thin some visit, so the search has work


def test_solve_reproduces_committed_revisit_optimum():
    # the benchmark's optimize workload: repetition set {1, 2}, budget 1
    resolved = load_config(str(WORKLOADS / "optimize-revisit.json"))
    reference = json.loads((WORKLOADS / "optimize-revisit.reference.json").read_text())
    settings = resolved["optimize"]
    solution = pc.solve_rfcp(
        system_from(resolved["system"]),
        cost_from(resolved["cost"]),
        tuple(settings["repetition_set"]),
        budget=settings["budget"],
        seed=reference["seed"],
    )
    assert solution.repetitions == reference["repetitions"]
    assert solution.cost == pytest.approx(reference["cost"], rel=1e-9)
    # the reference count traces the Nelder-Mead search of an earlier version
    assert solution.evaluations == 28
    assert solution.evaluations <= reference["evaluations"] // 50
