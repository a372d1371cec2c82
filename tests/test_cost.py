from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import pollctl as pc
from pollctl.cost import LinearScalar, PiecewiseLinearScalar, PolynomialScalar


def quad_oracle(scalar, x0: float, x1: float, duration: float) -> float:
    """Integrate scalar cost along a linear path with adaptive quadrature."""

    def integrand(t: float) -> float:
        return float(scalar.value(x0 + (x1 - x0) * t / duration))

    breaks = getattr(scalar, "thresholds", np.empty(0))
    lo, hi = min(x0, x1), max(x0, x1)
    inner = breaks[(breaks > lo) & (breaks < hi)]
    points = sorted((a - x0) / (x1 - x0) * duration for a in inner)
    total, err = quad(integrand, 0.0, duration, points=points or None, limit=200)
    assert err < 1e-9 * max(1.0, abs(total))
    return total


# -- scalar pieces -------------------------------------------------------------


def test_linear_scalar_trapezoid():
    lin = LinearScalar(2.5)
    assert lin.value(3.0) == 7.5
    assert lin.segment_integral(1.0, 3.0, 2.0) == pytest.approx(10.0, abs=1e-15)


def test_piecewise_linear_branches_and_right_continuity():
    pwl = PiecewiseLinearScalar([0.0, 2.0, 5.0], [1.0, 3.0, 4.0])
    np.testing.assert_array_equal(pwl.branch([0.0, 1.9, 2.0, 4.9, 5.0, 9.0]),
                                  [0, 0, 1, 1, 2, 2])
    # at a threshold the steeper branch applies
    assert pwl.value(2.0) == pytest.approx(6.0)
    assert pwl.value(5.0) == pytest.approx(20.0)
    np.testing.assert_allclose(pwl.slope_increments, [1.0, 2.0, 1.0])


def test_piecewise_linear_indicator_decomposition():
    pwl = PiecewiseLinearScalar([0.0, 1.5, 4.0], [0.5, 2.0, 3.5])
    xs = np.linspace(0.0, 8.0, 321)
    summed = sum(
        h * xs * (xs >= alpha)
        for h, alpha in zip(pwl.slope_increments, pwl.thresholds)
    )
    np.testing.assert_allclose(pwl.value(xs), summed, atol=1e-12)


@pytest.mark.parametrize(
    "thresholds,slopes,message",
    [
        ([1.0, 2.0], [1.0, 2.0], "first threshold"),
        ([0.0, 2.0, 2.0], [1.0, 2.0, 3.0], "increase strictly"),
        ([0.0, 2.0], [2.0, 2.0], "strictly increasing"),
        ([0.0, 2.0], [-1.0, 2.0], "nonnegative"),
        ([0.0, 2.0], [1.0, 2.0, 3.0], "equally long"),
    ],
)
def test_piecewise_linear_rejects_bad_shapes(thresholds, slopes, message):
    with pytest.raises(ValueError, match=message):
        PiecewiseLinearScalar(thresholds, slopes)


def test_piecewise_segment_integral_matches_quadrature():
    pwl = PiecewiseLinearScalar([0.0, 1.0, 3.0, 6.0], [0.5, 1.0, 2.5, 4.0])
    cases = [
        (0.2, 7.5, 3.0),   # crosses every threshold upward
        (7.5, 0.2, 0.7),   # downward
        (1.2, 2.8, 5.0),   # stays inside one branch
        (2.0, 2.0, 4.0),   # flat segment
        (0.0, 1.0, 1.0),   # lands exactly on a threshold
    ]
    for x0, x1, duration in cases:
        exact = pwl.segment_integral(x0, x1, duration)
        if x0 == x1:
            assert exact == pytest.approx(pwl.value(x0) * duration, rel=1e-12)
        else:
            assert exact == pytest.approx(
                quad_oracle(pwl, x0, x1, duration), rel=1e-10
            )
    assert pwl.segment_integral(0.2, 7.5, 0.0) == 0.0


def test_polynomial_scalar_value_and_integral():
    poly = PolynomialScalar([1.0, 0.0, 2.0])  # 1 + 2 x^2
    assert poly.value(3.0) == pytest.approx(19.0)
    assert poly.growth_order == 2.0
    # mean of 1 + 2 x^2 over x in [1, 4] is 1 + 2 * (64 - 1) / 9 = 15
    assert poly.segment_integral(1.0, 4.0, 2.0) == pytest.approx(30.0, rel=1e-12)
    assert poly.segment_integral(2.0, 2.0, 3.0) == pytest.approx(27.0, rel=1e-12)
    assert poly.segment_integral(1.0, 4.0, 2.0) == pytest.approx(
        quad_oracle(poly, 1.0, 4.0, 2.0), rel=1e-10
    )


def test_integrals_vectorise_over_pieces():
    pwl = PiecewiseLinearScalar([0.0, 1.0, 3.0, 6.0], [0.5, 1.0, 2.5, 4.0])
    poly = PolynomialScalar([0.5, 1.0, 0.0, 0.25])
    lin = LinearScalar(1.5)
    # crossings both ways, starts and ends on thresholds, flat pieces (also
    # flat on a threshold) and a zero duration
    x0 = np.array([0.2, 7.5, 1.2, 1.0, 0.0, 3.0, 6.0, 2.0, 3.0, 0.4])
    x1 = np.array([7.5, 0.2, 2.8, 3.0, 1.0, 0.5, 6.0, 2.0, 3.0, 5.0])
    dt = np.array([3.0, 0.7, 5.0, 1.0, 1.0, 2.0, 1.5, 4.0, 2.0, 0.0])
    for scalar in (pwl, poly, lin):
        batch = scalar.integrals(x0, x1, dt)
        assert batch.shape == x0.shape
        for j in range(len(x0)):
            one = scalar.segment_integral(x0[j], x1[j], dt[j])
            assert batch[j] == pytest.approx(one, rel=1e-14, abs=0.0)
            if dt[j] == 0.0:
                assert batch[j] == 0.0
            elif x0[j] == x1[j]:
                assert batch[j] == pytest.approx(scalar.value(x0[j]) * dt[j])
            else:
                assert batch[j] == pytest.approx(
                    quad_oracle(scalar, x0[j], x1[j], dt[j]), rel=1e-10
                )
    psi = pc.SeparableCost((pwl, poly))
    start, end = np.stack([x0, x1], axis=1), np.stack([x1, x0], axis=1)
    np.testing.assert_allclose(
        psi.integrals(start, end, dt),
        pwl.integrals(x0, x1, dt) + poly.integrals(x1, x0, dt),
        rtol=1e-15,
    )


def test_polynomial_rejects_bad_coefficients():
    with pytest.raises(ValueError, match="nonnegative"):
        PolynomialScalar([1.0, -0.5])
    with pytest.raises(ValueError, match="nonempty"):
        PolynomialScalar([])


# -- separable assemblies --------------------------------------------------------


def test_linear_cost_vectorized_value():
    psi = pc.linear_cost([1.0, 2.0])
    assert psi.separable
    assert psi.value([3.0, 4.0]) == pytest.approx(11.0)
    batch = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    np.testing.assert_allclose(psi.value(batch), [1.0, 2.0, 6.0])
    with pytest.raises(ValueError, match="nonnegative"):
        pc.linear_cost([1.0, -1.0])


def test_piecewise_linear_cost_requires_matching_lists():
    with pytest.raises(ValueError, match="per threshold list"):
        pc.piecewise_linear_cost([[0.0]], [[1.0], [2.0]])


def test_separable_growth_order_is_max():
    psi = pc.SeparableCost(
        (LinearScalar(1.0), PolynomialScalar([0.0, 0.0, 0.0, 1.0]))
    )
    assert psi.growth_order == 3.0


def test_step_integral_matches_direct_sum():
    gen = np.random.default_rng(5)
    psi = pc.piecewise_linear_cost(
        [[0.0, 1.0], [0.0, 2.0, 4.0]], [[1.0, 2.0], [0.5, 1.5, 3.0]]
    )
    levels = gen.uniform(0.0, 6.0, (40, 2))
    durations = gen.uniform(0.0, 1.0, 40)
    direct = float(np.dot(psi.value(levels), durations))
    assert psi.step_integral(levels, durations) == pytest.approx(direct, rel=1e-12)


def test_custom_cost_matches_separable_on_segments():
    smooth = pc.polynomial_cost([[0.0, 1.0, 0.5], [0.0, 2.0, 0.0, 0.3]])
    kinked = pc.piecewise_linear_cost(
        [[0.0, 1.0, 2.5], [0.0, 3.0]], [[0.5, 1.0, 2.0], [1.0, 4.0]]
    )
    gen = np.random.default_rng(11)
    for _ in range(20):
        start = gen.uniform(0.0, 5.0, 2)
        end = gen.uniform(0.0, 5.0, 2)
        duration = float(gen.uniform(0.1, 3.0))
        for psi, rel in ((smooth, 1e-9), (kinked, 2e-6)):
            a = psi.segment_integral(start, end, duration)
            b = pc.CustomCost(psi.value, psi.growth_order).segment_integral(
                start, end, duration
            )
            # kinks defeat the quadrature's error estimate, hence the looser bar
            assert b == pytest.approx(a, rel=rel, abs=1e-12)


def test_custom_cost_joint_function():
    def worst_queue(levels):
        return np.asarray(levels, dtype=float).max(axis=-1)

    custom = pc.CustomCost(worst_queue, growth_order=1.0)
    # max(2 - 2t, 2t) on the unit interval integrates to 3/2 per unit time
    assert custom.segment_integral([2.0, 0.0], [0.0, 2.0], 3.0) == pytest.approx(
        4.5, rel=1e-9
    )
    assert custom.value([1.0, 5.0]) == 5.0


# -- integration along orbits and trajectories ----------------------------------


@pytest.fixture
def symmetric_pe(symmetric_params):
    return pc.pe_from_params(
        symmetric_params, pc.ControlParams.exhaustive(symmetric_params)
    )


def test_pe_average_cost_hand_values(symmetric_pe):
    assert pc.pe_average_cost(symmetric_pe, pc.linear_cost([1.0, 1.0])) == (
        pytest.approx(3.0, abs=1e-12)
    )
    quadratic = pc.polynomial_cost([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    assert pc.pe_average_cost(symmetric_pe, quadratic) == pytest.approx(
        6.0, abs=1e-12
    )


def test_segment_loop_and_vectorised_path_agree(revisit_params):
    control = pc.ControlParams(2, (0.9, 0.3, 1.0, 0.8, 0.4, 1.0, 0.0, 0.7, 0.5, 1.0))
    pe = pc.pe_from_params(revisit_params, control)
    traj = pc.simulate_fluid(revisit_params, control, [9.0, 0.0, 4.0], horizon=90.0)
    psi = pc.piecewise_linear_cost(
        [[0.0, 2.0], [0.0, 1.0, 5.0], [0.0]], [[1.0, 3.0], [0.5, 1.0, 4.0], [2.0]]
    )
    # CustomCost stays on the per-segment quadrature loop
    custom = pc.CustomCost(psi.value, growth_order=1.0)
    assert pc.pe_average_cost(pe, custom) == pytest.approx(
        pc.pe_average_cost(pe, psi), rel=1e-8
    )
    _, vectorised = pc.trajectory_running_cost(traj, psi)
    _, looped = pc.trajectory_running_cost(traj, custom)
    np.testing.assert_allclose(looped, vectorised, rtol=1e-8)


def test_running_cost_starts_at_instantaneous_value(symmetric_params, symmetric_pe):
    psi = pc.linear_cost([1.0, 1.0])
    traj = pc.simulate_fluid(
        symmetric_params, symmetric_pe.control, [5.0, 0.0], horizon=12.0
    )
    times, averages = pc.trajectory_running_cost(traj, psi)
    assert times[0] == 0.0
    assert averages[0] == pytest.approx(5.0)
    assert len(times) == len(averages)


def test_running_cost_on_orbit_equals_cycle_average(symmetric_params, symmetric_pe):
    psi = pc.linear_cost([1.0, 1.0])
    traj = pc.simulate_fluid(
        symmetric_params, symmetric_pe.control, symmetric_pe.levels[0], horizon=12.0
    )
    times, averages = pc.trajectory_running_cost(traj, psi)
    assert times[-1] == pytest.approx(12.0)
    assert averages[-1] == pytest.approx(3.0, abs=1e-10)


def test_running_cost_converges_to_orbit_average(symmetric_params, symmetric_pe):
    psi = pc.linear_cost([1.0, 1.0])
    traj = pc.simulate_fluid(
        symmetric_params, symmetric_pe.control, [12.0, 0.0], horizon=2000.0
    )
    _, averages = pc.trajectory_running_cost(traj, psi)
    assert averages[-1] == pytest.approx(3.0, abs=2e-2)


# -- randomized properties -------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    x0=st.floats(0.0, 10.0),
    x1=st.floats(0.0, 10.0),
    split=st.floats(0.05, 0.95),
)
def test_segment_integral_time_additivity(seed, x0, x1, split):
    gen = np.random.default_rng(seed)
    pieces = int(gen.integers(1, 4))
    thresholds = np.concatenate([[0.0], np.sort(gen.uniform(0.5, 8.0, pieces - 1))])
    slopes = np.cumsum(gen.uniform(0.1, 2.0, pieces))
    pwl = PiecewiseLinearScalar(thresholds, slopes)
    duration = 2.0
    mid = x0 + split * (x1 - x0)
    whole = pwl.segment_integral(x0, x1, duration)
    parts = pwl.segment_integral(x0, mid, split * duration) + pwl.segment_integral(
        mid, x1, (1.0 - split) * duration
    )
    assert parts == pytest.approx(whole, rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_pwl_value_nonnegative_and_nondecreasing(seed):
    gen = np.random.default_rng(seed)
    pieces = int(gen.integers(1, 5))
    thresholds = np.concatenate([[0.0], np.sort(gen.uniform(0.2, 9.0, pieces - 1))])
    if np.any(np.diff(thresholds) <= 0.0):
        thresholds = np.arange(pieces, dtype=float)
    slopes = np.cumsum(gen.uniform(0.05, 2.0, pieces))
    pwl = PiecewiseLinearScalar(thresholds, slopes)
    xs = np.sort(gen.uniform(0.0, 12.0, 64))
    values = pwl.value(xs)
    assert np.all(values >= 0.0)
    assert np.all(np.diff(values) >= -1e-12)
