from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pollctl as pc
from conftest import random_cyclic_params, random_instance, random_pwl_cost
from oracles import project_to_compact_by_bisection
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
    joint = pc.CustomCost(lambda q: q.sum(axis=-1), growth_order=1.0)
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
    joint = pc.CustomCost(lambda q: q.sum(axis=-1), growth_order=1.0)
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
        # every start ends in one evaluation of its projected end point
        spent = sum(start.evaluations for start in search.starts)
        assert spent + len(search.starts) == search.evaluations
        assert search.cost == min(start.cost for start in search.starts)


def test_solve_with_custom_cost_reaches_linear_optimum(revisit_params, monkeypatch):
    slopes = np.array([1.0, 1.0, 8.0])
    custom = pc.CustomCost(lambda q: q @ slopes, growth_order=1.0)
    linear = pc.solve_rfcp(revisit_params, pc.linear_cost(slopes), (1,), budget=2)
    minimize = pc.rfcp.optimize.minimize
    jacobians = []

    def recording(*args, **kwargs):
        jacobians.append(kwargs["jac"])
        return minimize(*args, **kwargs)

    monkeypatch.setattr(pc.rfcp.optimize, "minimize", recording)
    solution = pc.solve_rfcp(revisit_params, custom, (1,), budget=2)
    assert jacobians == [False] * 3  # SciPy's finite differences
    assert solution.cost == pytest.approx(linear.cost, rel=1e-6)
    assert solution.cost == pytest.approx(
        pc.control_cost(revisit_params, solution.control, custom), rel=1e-12
    )


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
    # the reference count traces the Nelder-Mead search SLSQP replaced
    assert solution.evaluations == 41
    assert solution.evaluations <= reference["evaluations"] // 50
