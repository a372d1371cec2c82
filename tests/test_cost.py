from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import pollctl as pc
from oracles import joint_tour_integrals, step_path, window_integral
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
    assert lin.integrals(1.0, 3.0, 2.0) == pytest.approx(10.0, abs=1e-15)


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
        exact = pwl.integrals(x0, x1, duration)
        if x0 == x1:
            assert exact == pytest.approx(pwl.value(x0) * duration, rel=1e-12)
        else:
            assert exact == pytest.approx(
                quad_oracle(pwl, x0, x1, duration), rel=1e-10
            )
    assert pwl.integrals(0.2, 7.5, 0.0) == 0.0


def test_polynomial_scalar_value_and_integral():
    poly = PolynomialScalar([1.0, 0.0, 2.0])  # 1 + 2 x^2
    assert poly.value(3.0) == pytest.approx(19.0)
    # mean of 1 + 2 x^2 over x in [1, 4] is 1 + 2 * (64 - 1) / 9 = 15
    assert poly.integrals(1.0, 4.0, 2.0) == pytest.approx(30.0, rel=1e-12)
    assert poly.integrals(2.0, 2.0, 3.0) == pytest.approx(27.0, rel=1e-12)
    assert poly.integrals(1.0, 4.0, 2.0) == pytest.approx(
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
            one = scalar.integrals(x0[j], x1[j], dt[j])
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
    assert isinstance(psi, pc.SeparableCost)
    assert psi.value([3.0, 4.0]) == pytest.approx(11.0)
    batch = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    np.testing.assert_allclose(psi.value(batch), [1.0, 2.0, 6.0])
    with pytest.raises(ValueError, match="nonnegative"):
        pc.linear_cost([1.0, -1.0])


def test_piecewise_linear_cost_requires_matching_lists():
    with pytest.raises(ValueError, match="per threshold list"):
        pc.piecewise_linear_cost([[0.0]], [[1.0], [2.0]])


# -- simulated windows -------------------------------------------------------------


def test_step_path_puts_completions_first():
    times, levels = step_path(2, np.array([0.5, 1.0]), np.array([1.0, 1.5]))
    np.testing.assert_array_equal(times, [0.5, 1.0, 1.0, 1.5])
    np.testing.assert_array_equal(levels, [3, 2, 3, 2])
    times, levels = step_path(4, np.array([0.25, 0.75]), np.empty(0))
    np.testing.assert_array_equal(times, [0.25, 0.75])
    np.testing.assert_array_equal(levels, [5, 6])


def test_default_tour_integrals_by_hand():
    pwl = PiecewiseLinearScalar([0.0, 3.0], [1.0, 2.0])
    # tour 0 on [0, 2): levels 2, 3, 3, 2 over four half-unit pieces; tour 1
    # on [2, 3) takes the arrival at its bound and ends on a completion, so it
    # holds 3 jobs throughout
    ups, downs = np.array([0.5, 1.0, 2.0]), np.array([1.0, 1.5, 3.0])
    levels, bounds = np.array([2, 2, 2]), np.array([0.0, 2.0, 3.0])
    np.testing.assert_allclose(
        pwl.tour_integrals(levels, ups, downs, bounds, 1), [8.0, 6.0], rtol=1e-15
    )
    # scale 2 halves every level: 1, 1.5, 1.5, 1 and 1.5, all below the threshold
    np.testing.assert_allclose(
        pwl.tour_integrals(levels, ups, downs, bounds, 2), [2.5, 1.5], rtol=1e-15
    )
    np.testing.assert_allclose(
        LinearScalar(1.0).tour_integrals(levels, ups, downs, bounds, 1),
        [5.0, 3.0],
        rtol=1e-15,
    )


SCALARS = {
    "linear": LinearScalar(1.5),
    # integer thresholds: scale-1 levels land on them
    "piecewise": PiecewiseLinearScalar([0.0, 1.0, 3.0, 6.0], [0.5, 1.0, 2.5, 4.0]),
    "polynomial": PolynomialScalar([0.5, 1.0, 0.0, 0.25]),
}


def random_block(gen: np.random.Generator, tours: int, events: int, scale: int):
    """A block of tours with a nonnegative step path: (levels, ups, downs,
    bounds).  Half the blocks lie on a quarter grid, so epochs tie with each
    other and with the bounds.  Tours may be empty or of zero length,
    arrivals may sit on the bound that opens their tour and completions on
    the bound that closes theirs (a zero-length switchover)."""
    grid = gen.random() < 0.5
    if grid:
        bounds = np.cumsum(gen.integers(0, 12, tours + 1)) / 4.0
    else:
        bounds = np.cumsum(gen.uniform(0.0, 8.0, tours + 1))
    levels, ups, downs = queue_block(gen, bounds, events, scale, grid)
    return levels, ups, downs, bounds


def queue_block(
    gen: np.random.Generator,
    bounds: np.ndarray,
    events: int,
    scale: int,
    grid: bool,
    empty: int | None = None,
):
    """One queue's (levels, ups, downs) over the tours between ``bounds`` (see
    ``random_block``); tour ``empty``, if given, holds no jumps."""
    tours = bounds.size - 1
    level = scale * int(gen.integers(0, 4)) + int(gen.integers(0, 3))
    levels, ups, downs = [level], [], []
    counts = gen.multinomial(events, gen.dirichlet(np.ones(tours)))
    if empty is not None:
        counts[empty] = 0
    for j, count in enumerate(counts):
        lo, hi = bounds[j], bounds[j + 1]
        if grid:
            times = lo + gen.integers(0, 4.0 * (hi - lo) + 1, count) / 4.0
        else:
            times = gen.uniform(lo, hi, count)
            times[gen.random(count) < 0.1] = lo
            times[gen.random(count) < 0.1] = hi
        kinds = gen.random(count) < 0.5  # True: a completion
        kinds[times == hi] = True  # an arrival at ``hi`` opens the next tour
        # downs first at equal epochs; drop completions from an empty queue
        for t, down in sorted(zip(times, kinds), key=lambda e: (e[0], not e[1])):
            if not down:
                ups.append(t)
                level += 1
            elif level > 0:
                downs.append(t)
                level -= 1
        levels.append(level)
    return np.array(levels), np.array(ups), np.array(downs)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tours=st.integers(1, 6),
    events=st.integers(0, 80),
    scale=st.sampled_from([1, 7, 500]),
    name=st.sampled_from(list(SCALARS)),
)
def test_tour_integrals_match_the_per_tour_oracle(seed, tours, events, scale, name):
    scalar = SCALARS[name]
    levels, ups, downs, bounds = random_block(
        np.random.default_rng(seed), tours, events, scale
    )
    block = scalar.tour_integrals(levels, ups, downs, bounds, scale)
    assert block.shape == (tours,)
    # the oracle merges one tour at a time, epochs relative to its start
    done = levels[0] + np.searchsorted(ups, bounds) - levels
    for j in range(tours):
        lo, hi = bounds[j], bounds[j + 1]
        tour_ups = ups[(ups >= lo) & (ups < hi)]
        tour_downs = downs[done[j] : done[j + 1]]
        expected = window_integral(
            scalar, levels[j], tour_ups - lo, tour_downs - lo, hi - lo, scale
        )
        assert block[j] == pytest.approx(expected, rel=1e-12, abs=0.0)


JOINT = pc.CustomCost(lambda x: np.max(x, axis=-1) ** 2 + x[..., 0] * x[..., 1])
SEPARABLE = pc.piecewise_linear_cost(
    [[0.0, 1.0, 3.0], [0.0, 2.0], [0.0, 1.0]], [[0.5, 1.0, 2.5], [1.0, 3.0], [2.0, 4.0]]
)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tours=st.integers(1, 6),
    events=st.integers(0, 40),
    scale=st.sampled_from([1, 7, 500]),
)
def test_joint_tour_integrals_match_the_per_tour_oracle(seed, tours, events, scale):
    # three queues on a quarter grid, so epochs tie across queues and with the
    # bounds, completions sit on the bound that closes their tour, and one
    # queue has no jumps in one tour
    gen = np.random.default_rng(seed)
    bounds = np.cumsum(gen.integers(0, 12, tours + 1)) / 4.0
    empty = int(gen.integers(0, tours))
    queues = [
        queue_block(gen, bounds, events, scale, True, empty if k == 0 else None)
        for k in range(3)
    ]
    levels = np.column_stack([q[0] for q in queues])
    ups, downs = [q[1] for q in queues], [q[2] for q in queues]
    block = JOINT.tour_integrals(levels, ups, downs, bounds, scale)
    expected = joint_tour_integrals(JOINT, levels, ups, downs, bounds, scale)
    assert block.shape == (tours,)
    np.testing.assert_allclose(block, expected, rtol=1e-12, atol=0.0)
    custom = pc.CustomCost(SEPARABLE.value)
    np.testing.assert_allclose(
        custom.tour_integrals(levels, ups, downs, bounds, scale),
        SEPARABLE.tour_integrals(levels, ups, downs, bounds, scale),
        rtol=1e-12,
        atol=0.0,
    )


def test_block_path_rejects_paths_the_levels_contradict():
    ups, downs, bounds = np.array([0.5]), np.array([0.25]), np.array([0.0, 1.0])
    pwl = PiecewiseLinearScalar([0.0, 1.0], [1.0, 2.0])
    # one arrival cannot lift the count from 1 to 3, and no tour can gain a
    # job without arrivals, even when the block's totals add up
    for scalar in (pwl, LinearScalar(1.0)):
        with pytest.raises(RuntimeError, match="cannot move the job count"):
            scalar.tour_integrals(np.array([1, 3]), ups, downs, bounds, 1)
        with pytest.raises(RuntimeError, match="cannot move the job count"):
            scalar.tour_integrals(
                np.array([1, 2, 0]), ups[:0], downs, np.array([0.0, 1.0, 2.0]), 1
            )
    # the completion at 0.25 comes before the arrival it would serve
    with pytest.raises(RuntimeError, match="goes negative"):
        pwl.tour_integrals(np.array([0, 0]), ups, downs, bounds, 1)


def test_custom_cost_matches_separable_on_segments():
    smooth = pc.polynomial_cost([[0.0, 1.0, 0.5], [0.0, 2.0, 0.0, 0.3]])
    kinked = pc.piecewise_linear_cost(
        [[0.0, 1.0, 2.5], [0.0, 3.0]], [[0.5, 1.0, 2.0], [1.0, 4.0]]
    )
    gen = np.random.default_rng(11)
    pieces = [
        (gen.uniform(0.0, 5.0, 2), gen.uniform(0.0, 5.0, 2), gen.uniform(0.1, 3.0))
        for _ in range(20)
    ]
    pieces.append((pieces[0][0], pieces[0][1], 0.0))
    start, end, duration = (np.array(column) for column in zip(*pieces))
    for psi, rel in ((smooth, 1e-9), (kinked, 2e-6)):
        custom = pc.CustomCost(psi.value)
        # the 20 segments and a zero-duration piece in one call
        batch = custom.integrals(start, end, duration)
        assert batch.shape == duration.shape
        assert batch[-1] == 0.0
        for j in range(duration.size):
            one = custom.integrals(start[j], end[j], duration[j])
            assert batch[j] == one
            # kinks defeat the quadrature's error estimate, hence the looser bar
            assert one == pytest.approx(
                psi.integrals(start[j], end[j], duration[j]), rel=rel, abs=1e-12
            )


def test_custom_cost_joint_function():
    def worst_queue(levels):
        return np.asarray(levels, dtype=float).max(axis=-1)

    custom = pc.CustomCost(worst_queue)
    # max(2 - 2t, 2t) on the unit interval integrates to 3/2 per unit time
    assert custom.integrals([2.0, 0.0], [0.0, 2.0], 3.0) == pytest.approx(
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
    # CustomCost integrates piece by piece by quadrature
    custom = pc.CustomCost(psi.value)
    assert pc.pe_average_cost(pe, custom) == pytest.approx(
        pc.pe_average_cost(pe, psi), rel=1e-8
    )
    pieces = (traj.levels[:-1], traj.levels[1:], np.diff(traj.times))
    np.testing.assert_allclose(
        custom.integrals(*pieces), psi.integrals(*pieces), rtol=1e-8
    )


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
    whole = pwl.integrals(x0, x1, duration)
    parts = pwl.integrals(x0, mid, split * duration) + pwl.integrals(
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
