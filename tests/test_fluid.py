from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pollctl as pc
from conftest import random_instance
from oracles import pe_fixed_point


@pytest.fixture
def symmetric_pe(symmetric_params):
    return pc.pe_from_params(
        symmetric_params, pc.ControlParams.exhaustive(symmetric_params)
    )


# -- hand-checked oracle: 2 symmetric queues, exhaustive ----------------------


def test_stage_map_matches_hand_computation(symmetric_params):
    step = pc.stage_map(symmetric_params, 0, 1.0)
    np.testing.assert_allclose(step.matrix, [[0.0, 0.0], [1.0 / 3.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(step.offset, [1.0, 1.0], atol=1e-15)
    # serving from (3, 1): queue 0 empties, queue 1 collects 1 during the busy
    # time plus 1 during the switchover
    np.testing.assert_allclose(step([3.0, 1.0]), [1.0, 3.0], atol=1e-15)


def test_cycle_map_matches_hand_computation(symmetric_params):
    ctrl = pc.ControlParams.exhaustive(symmetric_params)
    composed = pc.cycle_map(symmetric_params, ctrl)
    np.testing.assert_allclose(
        composed.matrix, [[1.0 / 9.0, 1.0 / 3.0], [0.0, 0.0]], atol=1e-15
    )
    np.testing.assert_allclose(composed.offset, [7.0 / 3.0, 1.0], atol=1e-15)
    first = pc.stage_map(symmetric_params, 0, 1.0)
    second = pc.stage_map(symmetric_params, 1, 1.0)
    np.testing.assert_allclose(composed.matrix, second.matrix @ first.matrix)
    np.testing.assert_allclose(
        composed.offset, second.matrix @ first.offset + second.offset
    )


def test_spectral_radius_hand_value(symmetric_params):
    ctrl = pc.ControlParams.exhaustive(symmetric_params)
    radius = pc.spectral_radius(pc.cycle_map(symmetric_params, ctrl).matrix)
    assert radius == pytest.approx(1.0 / 9.0, abs=1e-10)


def test_spectral_radius_of_imprimitive_matrix():
    # eigenvalues +-sqrt(2): power iteration oscillates and never settles
    assert pc.spectral_radius([[0.0, 2.0], [1.0, 0.0]]) == pytest.approx(
        np.sqrt(2.0), rel=1e-14
    )
    with pytest.raises(pc.NoConvergence, match="non-finite"):
        pc.spectral_radius([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="nonnegative"):
        pc.spectral_radius([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="square"):
        pc.spectral_radius(np.ones((2, 3)))


def test_pe_hand_oracle(symmetric_params, symmetric_pe):
    pe = symmetric_pe
    assert pe.cycle_time == pytest.approx(4.0, abs=1e-9)
    np.testing.assert_allclose(pe.times, [0.0, 1.0, 2.0, 3.0, 4.0], atol=1e-9)
    np.testing.assert_allclose(
        pe.levels,
        [[3.0, 1.0], [0.0, 2.0], [1.0, 3.0], [2.0, 0.0], [3.0, 1.0]],
        atol=1e-9,
    )
    np.testing.assert_allclose(pe.busy_times, [1.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(
        pe_fixed_point(symmetric_params, pe.control), [3.0, 1.0], atol=1e-9
    )
    markers = [m for m, _ in pe.markers]
    assert markers == ["poll", "depart", "poll", "depart", "poll"]


def test_recursion_route_hand_oracle(symmetric_params):
    ctrl = pc.ControlParams.exhaustive(symmetric_params)
    pe = pc.pe_from_params(symmetric_params, ctrl)
    np.testing.assert_allclose(pe.polling_levels(), [[3.0, 1.0], [1.0, 3.0]], atol=1e-9)
    np.testing.assert_allclose(pe.levels[0], [3.0, 1.0], atol=1e-9)


def test_pe_interpolation_and_flow_balance(symmetric_pe):
    pe = symmetric_pe
    np.testing.assert_allclose(pe.value_at(0.5), [1.5, 1.5], atol=1e-12)
    np.testing.assert_allclose(pe.value_at(4.0), pe.levels[0], atol=1e-12)
    np.testing.assert_allclose(pe.value_at(6.0), pe.value_at(2.0), atol=1e-12)
    assert np.abs(pe.flow_balance_residual()).max() < 1e-10


# -- consistency of the three equilibrium routes ------------------------------


def test_three_routes_agree_on_random_instances():
    gen = np.random.default_rng(2024)
    checked = 0
    while checked < 40:
        params, control = random_instance(gen, max_queues=4)
        radius = pc.spectral_radius(pc.cycle_map(params, control).matrix)
        if radius > 0.65:
            continue
        checked += 1
        fixed = pe_fixed_point(params, control)
        scale = 1.0 + np.abs(fixed).max()

        level = np.zeros(params.num_queues)
        mapping = pc.cycle_map(params, control)
        for _ in range(50):
            level = mapping(level)
        assert np.abs(level - fixed).max() < 1e-8 * scale

        pe = pc.pe_from_params(params, control)
        assert np.abs(pe.levels[0] - fixed).max() < 1e-8 * scale
        polled = control.augmented_table(params).polled
        values = pe.polling_levels()[np.arange(pe.num_stages), polled]
        recursion = pc.VisitRecursion(params, control.repetitions)
        solved = recursion.visits(control.ratio_array)[0]
        assert np.abs(values - solved).max() < 1e-8 * scale


def test_closed_form_orbit_matches_roll_forward():
    """The breakpoints built from the visit recursion against the stage maps
    rolled forward from the cycle map's fixed point, on AC2's population."""
    gen = np.random.default_rng(202408)
    for _ in range(1000):
        params, control = random_instance(gen)
        pe = pc.pe_from_params(params, control)
        start = pe_fixed_point(params, control)
        traj = pc.simulate_fluid(params, control, start, horizon=pe.cycle_time)
        first = 2 * pe.num_stages
        gap = np.abs(traj.levels[:first] - pe.levels[:first]).max()
        assert gap <= 1e-12 * np.abs(pe.levels).max()
        lag = np.abs(traj.times[:first] - pe.times[:first]).max()
        assert lag <= 1e-12 * pe.cycle_time


def test_contraction_rate_in_eigenbasis():
    gen = np.random.default_rng(77)
    checked = 0
    while checked < 25:
        params, control = random_instance(gen, max_queues=4)
        matrix = pc.cycle_map(params, control).matrix
        radius = pc.spectral_radius(matrix)
        assert radius < 1.0
        eigenvalues, basis = np.linalg.eig(matrix)
        if np.linalg.cond(basis) > 1e8:
            continue
        checked += 1
        pe = pc.pe_from_params(params, control)
        fixed = pe.levels[0]
        offset = gen.uniform(0.3, 1.0, params.num_queues) * (1.0 + np.abs(fixed))
        traj = pc.simulate_fluid(
            params, control, fixed + offset, horizon=6.5 * pe.cycle_time
        )
        starts = traj.cycle_start_levels()
        inverse = np.linalg.inv(basis)
        errors = [np.abs(inverse @ (lv - fixed)).max() for lv in starts]
        for before, after in zip(errors, errors[1:]):
            if before < 1e-10 * (1.0 + np.abs(fixed).max()):
                break
            assert after <= (radius + 1e-6) * before


# -- visit-recursion kernel against the breakpoint orbit -----------------------


def _revisit_instance(gen, repetitions):
    """Random system whose table revisits a queue, plus admissible ratios
    with some exact zeros and ones."""
    while True:
        params, _ = random_instance(gen, max_queues=4)
        if params.num_stages > params.num_queues:
            break
    stages = params.num_stages * repetitions
    ratios = gen.uniform(0.05, 1.0, stages)
    ratios[gen.random(stages) < 0.25] = 0.0
    ratios[gen.random(stages) < 0.25] = 1.0
    polled = np.asarray(params.table * repetitions)
    for k in range(params.num_queues):
        visits = np.flatnonzero(polled == k)
        if ratios[visits].sum() == 0.0:
            ratios[visits[0]] = 1.0
    return params, pc.ControlParams(repetitions, tuple(ratios))


def _costs_touching_orbit(gen, params, control):
    """One cost per family; thresholds sit on levels the orbit attains."""
    queues = params.num_queues
    levels, left, _, _ = pc.VisitRecursion(params, control.repetitions).visits(
        control.ratio_array
    )
    polled = np.asarray(params.table * control.repetitions)
    thresholds, slopes = [], []
    for k in range(queues):
        touched = np.concatenate([levels[polled == k], left[polled == k]])
        touched = np.unique(touched[touched > 0.0])[:2]
        extra = gen.uniform(0.1, 1.5 * touched.max(initial=1.0), 1)
        thresholds.append([0.0] + sorted(set(touched) | set(extra)))
        slopes.append(np.cumsum(gen.uniform(0.2, 2.0, len(thresholds[-1]))))
    return (
        (pc.linear_cost(gen.uniform(0.2, 3.0, queues)), 1e-12),
        (pc.piecewise_linear_cost(thresholds, slopes), 1e-12),
        (pc.polynomial_cost(gen.uniform(0.0, 1.0, (queues, 4))), 1e-10),
    )


@pytest.mark.parametrize("repetitions", [1, 2, 3])
def test_kernel_cost_matches_breakpoint_orbit(repetitions):
    gen = np.random.default_rng(100 + repetitions)
    for _ in range(30):
        params, control = _revisit_instance(gen, repetitions)
        pe = pc.pe_from_params(params, control)
        for psi, rel in _costs_touching_orbit(gen, params, control):
            kernel = pc.control_cost(params, control, psi)
            assert kernel == pytest.approx(pc.pe_average_cost(pe, psi), rel=rel)


def test_kernel_rejects_what_the_orbit_rejects(revisit_params):
    psi = pc.linear_cost([1.0, 1.0, 1.0])
    cases = (
        ((1.0, 0.0, 1.0, 0.0, 1.0), pc.InvalidControl),  # queue 1 starved
        ((1.0, 0.5, 1.2, 0.5, 1.0), pc.InvalidControl),
        ((1.0, 0.5, np.nan, 0.5, 1.0), pc.InvalidControl),
        ((1.0, 0.5, 1.0, 0.5), pc.MismatchedDimensions),
    )
    for ratios, error in cases:
        control = pc.ControlParams(1, ratios)
        with pytest.raises(error):
            pc.pe_average_cost(pc.pe_from_params(revisit_params, control), psi)
        with pytest.raises(error):
            pc.control_cost(revisit_params, control, psi)


def test_kernel_orbit_checks_fire(revisit_params):
    ratios = np.array([0.9, 0.3, 1.0, 0.8, 0.4])

    def broken(attribute, value):
        recursion = pc.VisitRecursion(revisit_params, 1)
        setattr(recursion, attribute, value(getattr(recursion, attribute)))
        return recursion

    with pytest.raises(pc.NoConvergence, match="close"):
        broken("coupling", lambda c: c * np.nan).visits(ratios)
    with pytest.raises(pc.NoConvergence, match="below zero"):
        broken("rhs", lambda b: -b).visits(ratios)
    with pytest.raises(pc.NoConvergence, match="tour duration"):
        broken("switchovers", lambda s: 1.01 * s).visits(ratios)
    # without the ratios' terms, A(r) is singular
    with pytest.raises(pc.NoConvergence, match="no solution"):
        broken("coupling", lambda c: 0.0 * c).visits(ratios)


# -- adjoint gradient of the kernel cost ---------------------------------------


def _costs_away_from_orbit(gen, params, recursion, ratios):
    """One cost per family; thresholds sit midway between the levels the
    orbit attains, so small ratio changes cross none of them."""
    queues = params.num_queues
    levels, left, _, _ = recursion.visits(ratios)
    thresholds, slopes = [], []
    for k in range(queues):
        touched = np.unique(np.concatenate([levels, left])[np.tile(recursion.polled, 2) == k])
        cuts = 0.5 * (touched[:-1] + touched[1:])
        cuts = np.append(cuts[cuts > 0.0], 1.5 * touched.max() + 0.1)
        thresholds.append([0.0] + sorted(set(cuts)))
        slopes.append(np.cumsum(gen.uniform(0.2, 2.0, len(thresholds[-1]))))
    return (
        pc.linear_cost(gen.uniform(0.2, 3.0, queues)),
        pc.piecewise_linear_cost(thresholds, slopes),
        pc.polynomial_cost(gen.uniform(0.0, 1.0, (queues, 4))),
    )


@pytest.mark.parametrize("repetitions", [1, 2])
def test_gradient_matches_central_differences(repetitions):
    gen = np.random.default_rng(500 + repetitions)
    step = 1e-6
    for _ in range(20):
        params, control = _revisit_instance(gen, repetitions)
        recursion = pc.VisitRecursion(params, repetitions)
        ratios = gen.uniform(0.1, 0.9, len(control.ratios))
        for psi in _costs_away_from_orbit(gen, params, recursion, ratios):
            cost, gradient = recursion.cost_and_gradient(ratios, psi)
            assert cost == recursion.average_cost(ratios, psi)
            central = np.array(
                [
                    recursion.average_cost(ratios + step * e, psi)
                    - recursion.average_cost(ratios - step * e, psi)
                    for e in np.eye(ratios.size)
                ]
            ) / (2.0 * step)
            np.testing.assert_allclose(
                gradient, central, rtol=1e-6, atol=1e-6 * np.abs(central).max()
            )


def test_gradient_rejects_what_visits_rejects(revisit_params):
    psi = pc.linear_cost([1.0, 1.0, 1.0])
    recursion = pc.VisitRecursion(revisit_params, 1)
    cases = (
        (1.0, 0.0, 1.0, 0.0, 1.0),
        (1.0, 0.5, 1.2, 0.5, 1.0),
        (1.0, 0.5, np.nan, 0.5, 1.0),
        (1.0, 0.5, 1.0, 0.5),
    )
    for ratios in cases:
        with pytest.raises(Exception) as expected:
            recursion.visits(ratios)
        with pytest.raises(expected.type):
            recursion.cost_and_gradient(ratios, psi)
    broken = pc.VisitRecursion(revisit_params, 1)
    broken.rhs = -broken.rhs
    with pytest.raises(pc.NoConvergence, match="below zero"):
        broken.cost_and_gradient([0.9, 0.3, 1.0, 0.8, 0.4], psi)


# -- trajectories -------------------------------------------------------------


def test_simulate_fluid_reaches_horizon_with_cut(symmetric_params):
    ctrl = pc.ControlParams.exhaustive(symmetric_params)
    traj = pc.simulate_fluid(symmetric_params, ctrl, [5.0, 2.0], horizon=9.7)
    assert traj.times[-1] == pytest.approx(9.7)
    assert traj.markers[-1][0] == "cut"
    assert np.all(np.diff(traj.times) >= -1e-12)
    assert np.all(traj.levels >= -1e-12)


def test_the_horizon_cuts_the_longer_path(symmetric_params):
    # inside a busy period, on a departure, inside a switchover, on a tour start
    ctrl = pc.ControlParams.exhaustive(symmetric_params)
    whole = pc.simulate_fluid(symmetric_params, ctrl, [5.0, 2.0], horizon=30.0)
    depart, poll, tour = whole.times[1], whole.times[2], whole.cycle_start_times[1]
    for horizon in (0.5 * depart, depart, 0.5 * (depart + poll), tour):
        traj = pc.simulate_fluid(symmetric_params, ctrl, [5.0, 2.0], horizon=horizon)
        kept = int(whole.times.searchsorted(horizon, side="right"))
        cut = (("cut", 0),) if horizon != tour else ()
        assert traj.markers == whole.markers[:kept] + cut
        np.testing.assert_array_equal(
            traj.times, np.append(whole.times[:kept], [horizon] * len(cut))
        )
        np.testing.assert_allclose(
            traj.levels, whole.value_at(traj.times), rtol=1e-15, atol=1e-15
        )
        np.testing.assert_array_equal(
            traj.cycle_start_times,
            whole.cycle_start_times[whole.cycle_start_times <= horizon],
        )


def test_trajectory_started_at_pe_stays_on_orbit(symmetric_params, symmetric_pe):
    ctrl = symmetric_pe.control
    traj = pc.simulate_fluid(
        symmetric_params, ctrl, symmetric_pe.levels[0], horizon=3 * 4.0
    )
    probe = np.linspace(0.0, 12.0, 97)
    gap = traj.value_at(probe) - symmetric_pe.value_at(probe)
    assert np.abs(gap).max() < 1e-9


def test_convergence_distance_decreases(symmetric_params, symmetric_pe):
    ctrl = symmetric_pe.control
    traj = pc.simulate_fluid(symmetric_params, ctrl, [9.0, 0.0], horizon=40.0)
    distances = pc.convergence_distance(traj, symmetric_pe)
    assert len(distances) >= 8
    assert distances[-1] < 1e-6 * distances[0]
    assert np.all(np.diff(distances[:5]) <= 1e-12)


def test_workload_drains_at_constant_rate_without_switchovers(symmetric_params):
    # switchover-free variant: constructible, though not a steady-state model
    params = pc.SystemParameters(
        symmetric_params.arrival_rates,
        symmetric_params.service_rates,
        symmetric_params.table,
        (0.0, 0.0),
    )
    ctrl = pc.ControlParams.exhaustive(params)
    start = np.array([6.0, 3.0])
    rho, _ = pc.traffic_intensity(params)
    workload = start / params.service_array
    horizon = 0.9 * workload.sum() / (1.0 - rho)
    traj = pc.simulate_fluid(params, ctrl, start, horizon=horizon)
    loads = traj.levels / params.service_array
    drift = loads.sum(axis=1) - (workload.sum() - (1.0 - rho) * traj.times)
    assert np.abs(drift).max() < 1e-9


def test_fully_drained_system_cannot_tour_without_switchovers(symmetric_params):
    params = pc.SystemParameters(
        symmetric_params.arrival_rates,
        symmetric_params.service_rates,
        symmetric_params.table,
        (0.0, 0.0),
    )
    ctrl = pc.ControlParams.exhaustive(params)
    with pytest.raises(AssertionError, match="zero duration"):
        pc.simulate_fluid(params, ctrl, [6.0, 3.0], horizon=1e9)


# -- randomized invariants -----------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_pe_invariants_on_random_instances(seed):
    gen = np.random.default_rng(seed)
    params, control = random_instance(gen, max_queues=5)
    pe = pc.pe_from_params(params, control)
    assert pe.cycle_time == pc.cycle_length(params, control.repetitions)
    assert np.all(pe.levels >= 0.0)
    assert np.abs(pe.levels[-1] - pe.levels[0]).max() < 1e-9 * (
        1.0 + np.abs(pe.levels[0]).max()
    )
    assert np.abs(pe.flow_balance_residual()).max() < 1e-10 * (1.0 + pe.cycle_time)
    assert pc.spectral_radius(pc.cycle_map(params, control).matrix) < 1.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(0.0, 20.0))
def test_trajectory_levels_never_negative(seed, scale):
    gen = np.random.default_rng(seed)
    params, control = random_instance(gen, max_queues=4)
    start = gen.uniform(0.0, 1.0 + scale, params.num_queues)
    tau = pc.cycle_length(params, control.repetitions)
    traj = pc.simulate_fluid(params, control, start, horizon=3.0 * tau)
    assert np.all(traj.levels >= -1e-12)
    assert traj.times[-1] == pytest.approx(3.0 * tau)
