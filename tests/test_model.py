from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pollctl as pc


def test_basic_properties(symmetric_params):
    p = symmetric_params
    assert p.num_queues == 2
    assert p.num_stages == 2
    assert p.switchover_total == 2.0
    rho, per_queue = pc.traffic_intensity(p)
    assert rho == 0.5
    assert per_queue.tolist() == [0.25, 0.25]
    np.testing.assert_allclose(p.drain_rates, [3.0, 3.0])


def test_dimension_mismatch_raises():
    with pytest.raises(pc.MismatchedDimensions):
        pc.SystemParameters((1.0,), (4.0, 4.0), (0, 1), (1.0, 1.0))
    with pytest.raises(pc.MismatchedDimensions):
        pc.SystemParameters((1.0, 1.0), (4.0, 4.0), (0, 1), (1.0,))


def test_validate_rejects_bad_inputs():
    with pytest.raises(pc.InfeasibleParameters, match="positive"):
        pc.validate(pc.SystemParameters((0.0, 1.0), (4.0, 4.0), (0, 1), (1.0, 1.0)))
    with pytest.raises(pc.NonCoveringTable):
        pc.validate(pc.SystemParameters((1.0, 1.0), (4.0, 4.0), (0, 0), (1.0, 1.0)))
    with pytest.raises(pc.NonCoveringTable, match="out of range"):
        pc.validate(pc.SystemParameters((1.0, 1.0), (4.0, 4.0), (0, 2), (1.0, 1.0)))
    # a queue at or above capacity
    with pytest.raises(pc.InfeasibleParameters):
        pc.validate(pc.SystemParameters((4.0, 1.0), (4.0, 4.0), (0, 1), (1.0, 1.0)))
    # total load at or above one
    with pytest.raises(pc.InfeasibleParameters, match="load"):
        pc.validate(pc.SystemParameters((2.0, 2.0), (4.0, 4.0), (0, 1), (1.0, 1.0)))


def test_switchovers_may_vanish_per_stage_but_not_in_total():
    ok = pc.SystemParameters((1.0, 1.0), (4.0, 4.0), (0, 1), (0.0, 2.0))
    pc.validate(ok)
    # constructible (for transient studies) but not a valid steady-state model
    degenerate = pc.SystemParameters((1.0, 1.0), (4.0, 4.0), (0, 1), (0.0, 0.0))
    with pytest.raises(pc.InfeasibleParameters, match="switchover"):
        pc.validate(degenerate)
    with pytest.raises(pc.InfeasibleParameters):
        pc.validate(pc.SystemParameters((1.0, 1.0), (4.0, 4.0), (0, 1), (-1.0, 2.0)))


def test_augmented_table():
    table = pc.augment((0, 1, 2, 1), 2)
    assert len(table) == 8
    assert table.polled.tolist() == [0, 1, 2, 1] * 2
    assert table.visit_stages(1) == (1, 3, 5, 7)
    assert table.visit_stages(2) == (2, 6)
    assert [v.tolist() for v in table.visits] == [[0, 4], [1, 3, 5, 7], [2, 6]]
    # the next visit of stage i's queue; the last visit wraps into the next tour
    assert table.successor.tolist() == [4, 3, 6, 5, 0, 7, 2, 1]
    single = pc.augment((1, 0), 1)
    assert [v.tolist() for v in single.visits] == [[1], [0]]
    assert single.successor.tolist() == [0, 1]
    with pytest.raises(pc.InvalidControl):
        pc.augment((0, 1), 0)


def test_cycle_length(symmetric_params):
    assert pc.cycle_length(symmetric_params) == 4.0
    assert pc.cycle_length(symmetric_params, repetitions=3) == 12.0
    with pytest.raises(pc.InvalidControl):
        pc.cycle_length(symmetric_params, repetitions=0)


def test_exhaustive_control(symmetric_params):
    ctrl = pc.ControlParams.exhaustive(symmetric_params, repetitions=2)
    assert ctrl.ratios == (1.0,) * 4
    ctrl.validate_for(symmetric_params)


def test_control_validation(symmetric_params):
    with pytest.raises(pc.MismatchedDimensions):
        pc.ControlParams(1, (1.0,)).validate_for(symmetric_params)
    with pytest.raises(pc.InvalidControl, match=r"\[0, 1\]"):
        pc.ControlParams(1, (1.5, 1.0)).validate_for(symmetric_params)
    with pytest.raises(pc.InvalidControl, match="zero total ratio"):
        pc.ControlParams(1, (0.0, 1.0)).validate_for(symmetric_params)


def test_queue_ratio_sums_and_compact_membership(revisit_params):
    ctrl = pc.ControlParams(1, (1.0, 0.25, 0.5, 0.5, 0.5))
    sums = ctrl.queue_ratio_sums(revisit_params)
    np.testing.assert_allclose(sums, [1.0, 0.75, 1.0])


@settings(max_examples=50, deadline=None)
@given(
    loads=st.lists(st.floats(0.05, 0.3), min_size=2, max_size=5),
    scale=st.floats(0.5, 5.0),
)
def test_traffic_intensity_scales_with_rates(loads, scale):
    queues = len(loads)
    lam = tuple(scale * (k + 1) * 0.1 for k in range(queues))
    mu = tuple(l / load for l, load in zip(lam, loads))
    params = pc.SystemParameters(lam, mu, tuple(range(queues)), (1.0,) * queues)
    rho, per_queue = pc.traffic_intensity(params)
    assert rho == pytest.approx(sum(loads))
    np.testing.assert_allclose(per_queue, loads)
    if rho < 1.0:
        tau = pc.cycle_length(params)
        assert tau == pytest.approx(queues / (1.0 - rho))


def test_export_list_is_sorted_and_resolves():
    assert pc.__all__ == sorted(set(pc.__all__))
    for name in pc.__all__:
        assert getattr(pc, name) is not None
    # helpers deleted for want of callers stay deleted
    assert not {"mean_ci", "ratios_from_pe"} & set(pc.__all__)
    assert not hasattr(pc.PECandidate, "departure_levels")
    assert not hasattr(pc.ControlParams, "in_compact_set")
