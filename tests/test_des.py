from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import os
import sys
import threading
import types
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pollctl as pc
import oracles
from oracles import arrival_epochs, recorded_path_cost, walk_first_hit
from pollctl import cost as cost_module
from pollctl import des
from pollctl.distributions import (
    KIND_OPTIONS,
    Deterministic,
    Distribution,
    Exponential,
    Gamma,
    LogNormal,
)


@pytest.fixture
def symmetric_scaled(symmetric_params):
    return pc.scaled_system(symmetric_params, 1)


def exhaustive(params):
    return pc.ControlParams.exhaustive(params)


# -- sampling distributions ------------------------------------------------------

#: one valid value per distribution option
OPTION_VALUES = {"shape": 3.0, "cv": 0.5, "width": 0.3}
#: every distribution kind, its options at those values
KINDS = [
    (kind, {name: OPTION_VALUES[name] for name in names})
    for kind, names in KIND_OPTIONS.items()
]


def draws(dist, gen, size, part=None):
    """``size`` values of ``dist`` drawn by ``fill``, ``part`` at a time."""
    out = np.empty(size)
    part = part or size
    for start in range(0, size, part):
        dist.fill(gen, out[start : start + part])
    return out


def test_distribution_means_match_parameterisation():
    gen = np.random.default_rng(0)
    for kind, options in KINDS:
        dist = pc.make_distribution(kind, 2.5, **options)
        assert dist.mean == 2.5
        values = draws(dist, gen, 200_000)
        assert np.all(values >= 0.0)
        assert values.mean() == pytest.approx(2.5, rel=0.02)


def test_binomial_with_ratio_one_returns_n():
    # a stage whose ratio is exactly 1 clears its level without a draw
    gen = np.random.default_rng(3)
    counts = [0] + gen.integers(1, 10**7, 200, endpoint=True).tolist() + [10**7]
    for n in counts:
        assert gen.binomial(n, 1.0) == n


@pytest.mark.parametrize(
    "kind, options",
    # gamma also at a small shape, which NumPy draws by another method
    sorted([*KINDS, ("gamma", {"shape": 0.02})], key=lambda case: case[0]),
)
def test_block_draws_equal_scalar_draws(kind, options):
    # 3 000 draws cross two refills of a buffer drawing inline; a zero mean
    # draws a point mass at zero whatever the kind
    size = 3000
    for mean in (2.5, 0.0):
        dist = pc.make_distribution(kind, mean, **options)
        scalar = draws(dist, np.random.default_rng(21), size, part=1)
        whole = draws(dist, np.random.default_rng(21), size)
        assert whole.tobytes() == scalar.tobytes()
        # one at a time, as the switchovers are read
        buffer = des._SampleBuffer(dist, np.random.default_rng(21))
        single = np.array([float(buffer.take(1)[0]) for _ in range(size)])
        assert single.tobytes() == scalar.tobytes()
        # takes of up to 400 values, each rolled back by up to all of it
        buffer = des._SampleBuffer(dist, np.random.default_rng(21))
        steps, used = np.random.default_rng(2), []
        while sum(u.size for u in used) < size:
            values = buffer.take(int(steps.integers(1, 400)))
            keep = int(steps.integers(0, values.size + 1))
            used.append(values[:keep].copy())
            buffer.rollback(values.size - keep)
        mixed = np.concatenate(used)[:size]
        assert mixed.tobytes() == scalar.tobytes()


def test_exponential_draws_equal_numpys_exponential_bitwise():
    for seed in range(5):
        for mean in (1e-3, 0.125, 1.0, 2.5, 7.0e4):
            dist = Exponential(mean)
            drawn = draws(dist, np.random.default_rng(seed), 200_000)
            expected = np.random.default_rng(seed).exponential(mean, 200_000)
            assert drawn.tobytes() == expected.tobytes()
            gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            scalar = draws(dist, gen, 50, part=1)
            assert scalar.tolist() == [ref.exponential(mean) for _ in range(50)]


def numpy_draws(dist, gen, size):
    """``size`` values of ``dist`` from NumPy's own sampler of its kind."""
    if isinstance(dist, Deterministic):
        return np.full(size, dist.mean)
    if isinstance(dist, Exponential):
        return gen.exponential(dist.mean, size)
    if isinstance(dist, Gamma):
        return gen.gamma(dist.shape, dist.mean / dist.shape, size)
    if isinstance(dist, LogNormal):
        log_var = math.log1p(dist.cv**2)
        mu = math.log(dist.mean) - 0.5 * log_var
        return gen.lognormal(mu, math.sqrt(log_var), size)
    half = dist.mean * dist.width
    return gen.uniform(dist.mean - half, dist.mean + half, size)


@pytest.mark.parametrize(
    "kind, options",
    [
        ("deterministic", {}),
        ("exponential", {}),
        *[("gamma", {"shape": shape}) for shape in (1e-3, 0.02, 0.5, 1.0, 2.0, 4.0)],
        *[("lognormal", {"cv": cv}) for cv in (0.0, 0.5, 2.0)],
        *[("uniform", {"width": width}) for width in (0.0, 0.3, 1.0)],
    ],
)
def test_every_kind_draws_equal_numpys_sampler_bitwise(kind, options):
    # in one call, and in parts of 7 as the stores' refills split a stream
    size = 5000
    for seed in range(3):
        for mean in (1e-3, 0.25, 2.5, 7.0e4):
            dist = pc.make_distribution(kind, mean, **options)
            expected = numpy_draws(dist, np.random.default_rng(seed), size)
            for part in (None, 7):
                drawn = draws(dist, np.random.default_rng(seed), size, part)
                assert drawn.tobytes() == expected.tobytes()


def test_make_distribution_rejects_bad_requests():
    with pytest.raises(ValueError, match="unknown distribution"):
        pc.make_distribution("cauchy", 1.0)
    for mean in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="mean must be finite and nonnegative"):
            pc.make_distribution("exponential", mean)
    assert pc.make_distribution("exponential", 0.0) == Deterministic(0.0)
    # options under which the kind draws NaN, or its variance overflows
    for kind, option, value in (
        ("gamma", "shape", math.inf),
        ("lognormal", "cv", math.inf),
        ("lognormal", "cv", 1e155),
    ):
        with pytest.raises(ValueError, match=f"^{option} must"):
            pc.make_distribution(kind, 1.0, **{option: value})


def test_scaled_system_checks_means(symmetric_params):
    good = pc.scaled_system(symmetric_params, 10)
    assert good.scale == 10
    assert all(d.mean == 0.25 for d in good.service)
    assert all(d.mean == 10.0 for d in good.switchover)
    with pytest.raises(pc.InfeasibleParameters, match="1/mu"):
        pc.ScaledSystem(
            symmetric_params,
            1,
            (Exponential(0.3), Exponential(0.25)),
            (Deterministic(1.0), Deterministic(1.0)),
        )
    with pytest.raises(pc.InfeasibleParameters, match="scale"):
        pc.ScaledSystem(
            symmetric_params,
            2,
            (Exponential(0.25), Exponential(0.25)),
            (Deterministic(1.0), Deterministic(1.0)),
        )


# -- busy-period counting -----------------------------------------------------------


quarters = st.integers(0, 40).map(lambda v: v / 4.0)


class ListClock:
    """What the chunk kernels read of an ``_ArrivalClock``: the mirror
    ``_epochs`` of ``epochs``, its first ``shown`` entries drawn and one more
    per ``_ensure`` until the horizon, the last drawn, passes ``t``; ``_ptr``
    counts the epochs consumed before the busy period."""

    def __init__(self, epochs, shown: int, ptr: int):
        self._all = list(epochs)
        self._epochs = self._all[:shown]
        self._horizon = self._epochs[-1] if self._epochs else -math.inf
        self._ptr = ptr

    def _ensure(self, t: float) -> None:
        while not self._horizon > t:
            self._horizon = self._all[len(self._epochs)]
            self._epochs.append(self._horizon)

    def peek_until(self, t: float) -> np.ndarray:
        self._ensure(t)
        epochs = self._epochs
        return np.array(epochs[self._ptr : bisect.bisect_left(epochs, t, self._ptr)])


def kernel_chunk(kernel, services, tail, t0, arrivals, done, drop, shown=0):
    """One chunk of ``kernel`` against a ``ListClock`` that holds ``arrivals``
    after two consumed epochs, then none before ``t0 + 1e6``, and has drawn
    ``shown`` of the arrivals.  Returns the passage, its completion and what
    the kernel keeps for the block."""
    consumed = [t0 - 2.0, t0 - 1.0]
    later = [t0 + 1e6 + i for i in range(len(services) + 16)]
    clock = ListClock(consumed + list(arrivals) + later, 2 + shown, 2)
    if kernel is des._walk_first_passage:
        downs, draws = ([], [], []), list(services)
    else:
        downs, draws = des._Store(), np.array(services, dtype=float)
    return *kernel(draws, tail, t0, clock, downs, done, drop), downs


def walk_chunk(services, tail, t0, arrivals, done, drop, shown=0):
    """The completions ``des._walk_first_passage`` keeps of one chunk (see
    ``kernel_chunk``), and its passage; a passage logs ``t0`` and the busy
    period's count, and the passage's completion is returned."""
    kernel = des._walk_first_passage
    hit, last, (walked, starts, counts) = kernel_chunk(
        kernel, services, tail, t0, arrivals, done, drop, shown
    )
    assert last == walked[hit]
    assert (starts, counts) == (([t0], [done + hit + 1]) if hit >= 0 else ([], []))
    return walked, hit


def whole_chunk(completions, t0, arrivals, shift) -> int:
    """The first passage over the whole chunk, from the arrivals before its
    window's end."""
    arrivals = np.asarray(arrivals, dtype=float)
    pending = arrivals[arrivals < t0 + completions[-1]]
    return des._first_passage(pending, t0, np.asarray(completions), shift)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rounding=st.booleans())
def test_first_passage_equals_the_walk_oracle(data, rounding):
    # on a quarter-unit grid every epoch is exact and ties between arrivals
    # and completions are common; from t0 = 2**40 to 2**56, with services of
    # a few ulps, t0 plus a completion rounds, often onto an arrival, where
    # ``a - t0 >= c`` and ``a >= t0 + c`` differ
    if rounding:
        t0 = 2.0 ** data.draw(st.integers(40, 56))
        unit, units = math.ulp(t0), st.floats(0.0, 4.0, allow_subnormal=False)
        spread = st.floats(0.0, 60.0)
    else:
        t0, unit, units = data.draw(quarters), 0.25, st.integers(0, 8)
        spread = st.integers(0, 160)
    services = [unit * u for u in data.draw(st.lists(units, min_size=1, max_size=40))]
    tail = unit * data.draw(units)
    completions = np.array([tail + c for c in itertools.accumulate(services)])
    pending = np.sort([t0 + unit * u for u in data.draw(st.lists(spread, max_size=60))])
    drop = data.draw(st.integers(1, completions.size))
    # services of earlier chunks: any count the walk can carry below ``drop``
    first = int(pending.searchsorted(t0 + completions[0], "left"))
    done = data.draw(st.integers(0, first + drop - 1))
    shift = drop - done - 1
    hit = des._first_passage(pending, t0, completions, shift)
    assert hit == walk_first_hit(pending, t0, completions, done, drop)
    # the arrivals past the window's end decide nothing
    assert whole_chunk(completions, t0, pending, shift) == hit
    # the kernels on the services, with part of the arrivals drawn
    shown = data.draw(st.integers(0, pending.size))
    walked, passage = walk_chunk(services, tail, t0, pending, done, drop, shown)
    assert passage == hit
    assert walked == completions[: hit + 1 if hit >= 0 else None].tolist()
    kernel = des._array_first_passage
    assert kernel_chunk(kernel, services, tail, t0, pending, done, drop)[0] == hit


def test_first_passage_when_pending_arrivals_run_out():
    completions = np.array([1.0, 2.0, 3.0, 4.0])
    # two arrivals: the walk is 0, 0, 1, 2 and first reaches 2 at the end
    pending = np.array([10.5, 11.5])
    assert des._first_passage(pending, 10.0, completions, 1) == 3
    assert walk_first_hit(pending, 10.0, completions, 0, 2) == 3
    # a drop beyond the chunk's reach
    assert des._first_passage(pending, 10.0, completions, 5) == -1
    assert walk_first_hit(pending, 10.0, completions, 0, 6) == -1
    services = [1.0] * 4
    assert walk_chunk(services, 0.0, 10.0, pending, 0, 2) == ([1.0, 2.0, 3.0, 4.0], 3)
    assert walk_chunk(services, 0.0, 10.0, pending, 0, 6) == ([1.0, 2.0, 3.0, 4.0], -1)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_walk_equals_the_whole_chunk_rule_under_rounding(data):
    # services of up to a few ulps of a large t0: t0 plus a completion
    # rounds, often onto an arrival, and the walk must still stop where the
    # whole chunk's comparison does
    t0 = 2.0 ** data.draw(st.integers(40, 56))
    ulp = math.ulp(t0)
    units = st.floats(0.0, 4.0, allow_subnormal=False)
    services = [ulp * u for u in data.draw(st.lists(units, min_size=1, max_size=30))]
    arrivals = sorted(
        t0 + ulp * u for u in data.draw(st.lists(st.floats(0.0, 60.0), max_size=40))
    )
    done = data.draw(st.integers(0, 5))
    drop = data.draw(st.integers(1, len(services) + 1))
    tail = ulp * data.draw(st.sampled_from([0.0, 0.5, 3.0]))
    completions = [tail + c for c in itertools.accumulate(services)]
    expected = whole_chunk(completions, t0, arrivals, drop - done - 1)
    walked, passage = walk_chunk(services, tail, t0, arrivals, done, drop)
    assert passage == expected
    assert walked == completions[: passage + 1 if passage >= 0 else None]


@pytest.mark.parametrize("services", [[1.25, 0.5], [1.25, 0.0], [1.25, 0.0, 0.5]])
@pytest.mark.parametrize("kernel", ["walk", "array"])
def test_a_completion_rounded_onto_an_arrival_precedes_it(services, kernel):
    # t0 = 2**52, whose ulp is 1: the first completion, t0 + 1.25, rounds to
    # t0 + 1, the arrival's epoch, so it precedes the arrival and ends a busy
    # period of drop 1, whatever the services after it.  The count there
    # falls by its completions minus the arrivals before it: by exactly 1.
    t0 = 2.0**52
    arrivals = [t0 + 1.0]
    completions = list(itertools.accumulate(services))
    assert whole_chunk(completions, t0, arrivals, 0) == 0
    kernel = getattr(des, f"_{kernel}_first_passage")
    for shown in (0, 1):
        hit, last, _ = kernel_chunk(kernel, services, 0.0, t0, arrivals, 0, 1, shown)
        assert (hit, last) == (0, 1.25)
        assert hit + 1 - bisect.bisect_left(arrivals, t0 + last) == 1


def consume(clock, requests, tour_every=0):
    """Advance ``clock`` to each request in turn (peeking first), taking a tour
    every ``tour_every`` requests; returns every epoch consumed, in order.  A
    tour is a view valid until the next request, so each is copied."""
    tours = []
    for step, t in enumerate(requests):
        peeked = clock.peek_until(t).copy()
        assert clock.advance_to(t) == peeked.size
        if tour_every and step % tour_every == 0:
            tours.append(clock.take_tour().copy())
    tours.append(clock.take_tour().copy())
    return np.concatenate(tours)


def test_arrival_clock_epochs_equal_the_seed_only_oracle():
    # about 30 blocks of 4 096 gaps: many refills, tour marks that move and a
    # store that grows, then is reused
    rate = 40.0
    clock = des._ArrivalClock(rate, np.random.default_rng(11))
    stores = [clock._store]
    requests = np.cumsum(np.tile([0.4, 3.0, 11.0, 0.1, 60.0], 40))
    tours = []
    for step, t in enumerate(requests):
        tours.append(consume(clock, [t]))
        if clock._store is not stores[-1]:
            stores.append(clock._store)
    consumed = np.concatenate(tours)
    expected = arrival_epochs(rate, np.random.default_rng(11), consumed.size + 1)
    assert expected[-2] < requests[-1] <= expected[-1]
    # the store grows until it holds a block of pending epochs and the block
    # drawn behind them, a quarter more, then keeps its array
    assert 3 <= len(stores) <= 4 and stores[-1].size > stores[1].size
    assert stores[-1].size <= 2 * clock.BLOCK * 5 // 4
    assert consumed.tobytes() == expected[:-1].tobytes()


def test_arrival_epochs_do_not_depend_on_the_requests():
    # many tiny advances, one block per refill, against a few large jumps,
    # the last of which refills some 50 blocks in one call
    rate, end = 50.0, 4000.0
    tiny = consume(
        des._ArrivalClock(rate, np.random.default_rng(5)),
        np.arange(0.37, end, 0.37),
        tour_every=97,
    )
    jumps = consume(
        des._ArrivalClock(rate, np.random.default_rng(5)), [1.0, 5000.0 / rate, end]
    )
    shared = min(tiny.size, jumps.size)
    assert shared > 40 * 4096
    assert tiny[:shared].tobytes() == jumps[:shared].tobytes()


class WorkerOnly(des._RefillThread):
    """Reads every refill from the worker thread: it waits for a refill still
    queued instead of drawing it on the calling thread."""

    def result(self, refill):
        refill[0].result()
        return super().result(refill)


@pytest.mark.parametrize("worker_type", [WorkerOnly, des._RefillThread])
def test_arrival_epochs_drawn_ahead_equal_the_seed_only_oracle(worker_type):
    # requests of up to 24 000 epochs, tours taken every few of them, with a
    # refill in flight from the first request on
    rate = 40.0
    worker = worker_type()
    clock = des._ArrivalClock(rate, np.random.default_rng(11), worker)
    requests = np.cumsum(np.tile([0.4, 3.0, 110.0, 0.1, 600.0], 12))
    try:
        consumed = np.concatenate(
            [consume(clock, part) for part in np.split(requests, 20)]
        )
    finally:
        worker.close()
    assert clock._next is not None
    if worker_type is WorkerOnly:
        assert worker.refills > 5
    expected = arrival_epochs(rate, np.random.default_rng(11), consumed.size + 1)
    assert expected[-2] < requests[-1] <= expected[-1]
    assert consumed.tobytes() == expected[:-1].tobytes()


def test_arrival_epochs_drawn_ahead_do_not_depend_on_the_requests():
    # the jumps above, and jumps of 1 500 to 9 000 epochs with tours taken
    # between, drawn ahead on the worker: the epochs of tiny inline advances
    rate, end = 50.0, 4000.0
    tiny = consume(
        des._ArrivalClock(rate, np.random.default_rng(5)),
        np.arange(0.37, end, 0.37),
        tour_every=97,
    )
    worker = WorkerOnly()
    steps = np.random.default_rng(8).uniform(30.0, 180.0, 40)
    try:
        jumps = consume(
            des._ArrivalClock(rate, np.random.default_rng(5), worker),
            [1.0, 5000.0 / rate, end],
        )
        clock = des._ArrivalClock(rate, np.random.default_rng(5), worker)
        mixed = np.concatenate(
            [consume(clock, part) for part in np.split(np.cumsum(steps), 10)]
        )
    finally:
        worker.close()
    assert worker.refills >= 5
    for ahead in (jumps, mixed):
        shared = min(tiny.size, ahead.size)
        assert shared > 40 * 4096
        assert tiny[:shared].tobytes() == ahead[:shared].tobytes()


def reuse_clock(worker):
    """Request 2 000 epochs at a time, taking a tour every ten requests: every
    refill needs room, a block or a refill's worth, which the clock should
    make at the front of its store once the store has grown, not in a new
    store.  Checks the tours against the seed-only oracle and returns the
    stores the clock used and the request at which it last changed store."""
    rate = 40.0
    clock = des._ArrivalClock(rate, np.random.default_rng(3), worker)
    stores, tours, grown = [clock._store], [], 0
    try:
        for step, t in enumerate(np.arange(1, 401) * 50.0):
            clock.advance_to(t)
            if step % 10 == 9:
                tours.append(clock.take_tour().copy())
            if clock._store is not stores[-1]:
                stores.append(clock._store)
                grown = step
    finally:
        if worker is not None:
            worker.close()
    consumed = np.concatenate(tours)
    expected = arrival_epochs(rate, np.random.default_rng(3), consumed.size + 1)
    assert expected[-2] < 400 * 50.0 <= expected[-1]
    assert consumed.tobytes() == expected[:-1].tobytes()
    return stores, grown


def test_a_clock_drawing_ahead_reuses_its_store():
    worker = WorkerOnly()
    stores, grown = reuse_clock(worker)
    assert worker.refills >= 20
    assert len(stores) <= 4 and grown < 10


def test_an_inline_clock_reuses_its_store():
    # the store grows a block at a time over the first two tours
    stores, grown = reuse_clock(None)
    assert len(stores) <= 6 and grown < 20


# -- conservation and determinism --------------------------------------------------


def test_job_counts_are_conserved_between_cycles(symmetric_scaled, symmetric_params):
    result = pc.run(
        symmetric_scaled,
        exhaustive(symmetric_params),
        warmup_cycles=0,
        measured_cycles=60,
        seed=3,
    )
    for before, after in zip(result.records, result.records[1:]):
        flow = np.array(before.start_levels) + before.arrivals - before.services
        np.testing.assert_array_equal(flow, np.array(after.start_levels))
        np.testing.assert_array_equal(
            before.polling_levels[0], np.array(before.start_levels)
        )
    first = result.records[0]
    assert first.start_levels == (0, 0)
    assert result.warmup_cycles == 0


def test_exhaustive_control_empties_attended_queue(revisit_params):
    scaled = pc.scaled_system(revisit_params, 1)
    result = pc.run(
        scaled,
        exhaustive(revisit_params),
        warmup_cycles=5,
        measured_cycles=40,
        seed=11,
    )
    table = exhaustive(revisit_params).augmented_table(revisit_params)
    # exhaustive service leaves nothing of the polled queue at the next stage
    # except what arrived during the switchover afterwards; with the final
    # level of the tour checked against the next tour start
    for record, nxt in zip(result.records, result.records[1:]):
        for i in range(len(table) - 1):
            queue = table.polled[i]
            follow = record.polling_levels[i + 1][queue]
            assert follow <= record.polling_levels[i][queue] + record.arrivals[queue]


def test_identical_seeds_reproduce_bitwise(symmetric_scaled, symmetric_params):
    runs = [
        pc.run(
            symmetric_scaled,
            exhaustive(symmetric_params),
            pc.linear_cost([1.0, 1.0]),
            warmup_cycles=20,
            measured_cycles=100,
            seed=5,
            record_path_cycles=2,
        )
        for _ in range(2)
    ]
    a, b = runs
    np.testing.assert_array_equal(a.durations, b.durations)
    np.testing.assert_array_equal(a.costs, b.costs)
    np.testing.assert_array_equal(a.polling_array, b.polling_array)
    np.testing.assert_array_equal(a.busy_array, b.busy_array)
    assert a.warmup_cycles == b.warmup_cycles
    for ta, tb in zip(a.path.times, b.path.times):
        np.testing.assert_array_equal(ta, tb)


@pytest.mark.parametrize(
    "control",
    [None, pc.ControlParams(1, (0.7, 0.5, 1.0, 0.6, 0.9))],
    ids=["exhaustive", "binomial"],
)
def test_linear_cost_matches_custom_cost_of_same_function(revisit_params, control):
    control = control or exhaustive(revisit_params)
    scaled = pc.scaled_system(revisit_params, 20)
    weights = np.array([1.0, 1.0, 8.0])
    runs = [
        pc.run(
            scaled,
            control,
            psi,
            warmup_cycles=5,
            measured_cycles=30,
            seed=4,
        )
        for psi in (
            pc.linear_cost(weights),
            pc.CustomCost(lambda x: x @ weights),
        )
    ]
    closed, joint = runs
    for a, b in zip(closed.records, joint.records):
        np.testing.assert_array_equal(a.polling_levels, b.polling_levels)
        np.testing.assert_array_equal(a.arrivals, b.arrivals)
        np.testing.assert_array_equal(a.services, b.services)
    np.testing.assert_array_equal(closed.durations, joint.durations)
    np.testing.assert_array_equal(closed.busy_array, joint.busy_array)
    np.testing.assert_allclose(closed.costs, joint.costs, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "psi",
    [
        pc.linear_cost([1.0, 1.0, 8.0]),
        pc.piecewise_linear_cost(
            [[0.0, 1.0]] * 3, [[1.0, 2.0], [1.0, 3.0], [2.0, 5.0]]
        ),
    ],
    ids=["linear", "piecewise"],
)
def test_costs_do_not_depend_on_path_recording(revisit_params, psi):
    scaled = pc.scaled_system(revisit_params, 10)
    control = exhaustive(revisit_params)
    plain, recorded = (
        pc.run(
            scaled,
            control,
            psi,
            warmup_cycles=3,
            measured_cycles=12,
            seed=9,
            record_path_cycles=cycles,
        )
        for cycles in (0, 12)
    )
    assert recorded.path is not None
    np.testing.assert_array_equal(plain.costs, recorded.costs)


BINOMIAL = pc.ControlParams(1, (0.7, 0.5, 1.0, 0.6, 0.9))
#: the revisit table at a quarter of its rates and switchovers: tours of 10
#: at scale 1, with 5 arrivals per queue, so every queue is walked up to
#: scale 7; the revisit system itself holds 80 per tour from scale 1 on
SLOW_REVISIT = pc.SystemParameters(
    (0.5, 0.5, 0.5), (2.0, 2.0, 2.0), (0, 1, 2, 1, 2), (0.5,) * 5
)
WEIGHTS = np.array([1.0, 1.0, 8.0])
COSTS = {
    "linear": pc.linear_cost(WEIGHTS),
    "piecewise": pc.piecewise_linear_cost(
        [[0.0, 1.0]] * 3, [[1.0, 2.0], [1.0, 3.0], [2.0, 5.0]]
    ),
    "polynomial": pc.polynomial_cost(
        [[0.0, 1.0, 0.5], [0.5, 1.0], [0.0, 2.0, 0.0, 0.3]]
    ),
    "custom": pc.CustomCost(lambda x: x @ WEIGHTS + 0.2 * x[..., 0] * x[..., 2]),
}


@pytest.mark.parametrize("scale", [1, 100])
@pytest.mark.parametrize("control", [None, BINOMIAL], ids=["exhaustive", "binomial"])
@pytest.mark.parametrize("name", list(COSTS))
def test_tour_costs_match_recorded_path_integral(revisit_params, scale, control, name):
    control = control or exhaustive(revisit_params)
    tours = 6 if scale == 1 else 3
    result = pc.run(
        pc.scaled_system(revisit_params, scale),
        control,
        COSTS[name],
        warmup_cycles=4,
        measured_cycles=tours,
        seed=scale + 17,
        record_path_cycles=tours,
    )
    t0 = 0.0
    for record in result.records:
        t1 = t0 + record.duration
        expected = recorded_path_cost(result.path, COSTS[name], t0, t1)
        assert record.cost == pytest.approx(expected, rel=1e-12, abs=0.0)
        t0 = t1
    assert result.path.end_time == pytest.approx(t0, rel=1e-12)


@pytest.mark.parametrize("control", [None, BINOMIAL], ids=["exhaustive", "binomial"])
def test_cost_integration_leaves_observables_bitwise_unchanged(revisit_params, control):
    control = control or exhaustive(revisit_params)
    scaled = pc.scaled_system(revisit_params, 30)
    plain, costed = (
        pc.run(scaled, control, psi, warmup_cycles=3, measured_cycles=20, seed=6)
        for psi in (None, COSTS["piecewise"])
    )
    for a, b in zip(plain.records, costed.records):
        assert a.start_levels == b.start_levels
        np.testing.assert_array_equal(a.polling_levels, b.polling_levels)
        np.testing.assert_array_equal(a.arrivals, b.arrivals)
        np.testing.assert_array_equal(a.services, b.services)
    np.testing.assert_array_equal(plain.durations, costed.durations)
    np.testing.assert_array_equal(plain.busy_array, costed.busy_array)
    np.testing.assert_array_equal(plain.switchover_array, costed.switchover_array)
    assert np.isnan(plain.costs).all() and plain.cost_passes == 0
    assert np.isfinite(costed.costs).all()


@dataclass(frozen=True)
class Drawing(Distribution):
    """Draws ``value`` whatever its mean, as a faulty distribution might."""

    value: float = math.nan

    def fill(self, gen, out):
        out.fill(self.value)


@pytest.mark.parametrize(
    "field, index, value",
    # an infinite switchover before the tour's last stage gives the next
    # stage an epoch that no refill of an arrival clock passes; a walked
    # chunk ends with no passage after a NaN or an infinite service, and
    # asks for its end
    [
        ("service", 0, math.nan),
        ("service", 0, math.inf),
        ("switchover", 1, math.inf),
    ],
)
def test_draws_that_are_not_finite_are_a_runtime_error(
    revisit_params, field, index, value
):
    # the revisit system at scale 2, read as arrays, and ``SLOW_REVISIT``,
    # walked on Python floats
    for params, mode in [(revisit_params, des.INLINE), (SLOW_REVISIT, des.WALK)]:
        scaled = pc.scaled_system(params, 2)
        control = exhaustive(params)
        assert des._stream_modes(scaled, control, 1) == [mode] * 3
        dists = list(getattr(scaled, field))
        dists[index] = Drawing(dists[index].mean, value)
        with pytest.raises(RuntimeError, match="epoch .* is not finite"):
            pc.run(
                replace(scaled, **{field: tuple(dists)}),
                control,
                pc.linear_cost([1.0, 1.0, 8.0]),
                warmup_cycles=0,
                measured_cycles=5,
            )


@dataclass(frozen=True)
class ShiftedDown(Distribution):
    """Exponential moved down by 5 % of its mean, so that about one draw in
    twenty is negative; with ``refill`` set, only in fills of that size."""

    refill: int = 0

    def fill(self, gen, out):
        gen.standard_exponential(out=out)
        out *= self.mean
        if self.refill in (0, out.size):
            out -= 0.05 * self.mean


@pytest.mark.parametrize(
    "field, index, scale, cpus, refill",
    # a stage-1 switchover; a queue-1 service drawn inline, and drawn ahead
    # with negative draws only in the refills the worker draws
    [
        ("switchover", 1, 2, 1, 0),
        ("service", 0, 2, 1, 0),
        ("service", 0, 500, 2, des.AHEAD_REFILL),
    ],
)
def test_negative_draws_are_a_runtime_error(
    revisit_params, field, index, scale, cpus, refill
):
    scaled = pc.scaled_system(revisit_params, scale)
    control = exhaustive(revisit_params)
    mode = des.AHEAD if cpus > 1 else des.INLINE
    assert des._stream_modes(scaled, control, cpus)[0] == mode
    dists = list(getattr(scaled, field))
    dists[index] = ShiftedDown(dists[index].mean, refill)
    with pytest.raises(RuntimeError, match="drew a negative time"):
        pc.run(
            replace(scaled, **{field: tuple(dists)}),
            control,
            pc.linear_cost([1.0, 1.0, 8.0]),
            warmup_cycles=0,
            measured_cycles=5,
            cpus=cpus,
        )


def test_level_mismatch_after_busy_period_is_a_runtime_error(
    symmetric_params, monkeypatch
):
    # stop the busy period at the first passage of drop + 1, on queues walked
    # on Python floats (scale 1) and on queues read as arrays (scale 20)
    control = exhaustive(symmetric_params)
    for scale, mode, name in [
        (1, des.WALK, "_walk_first_passage"),
        (20, des.INLINE, "_first_passage"),
    ]:
        scaled = pc.scaled_system(symmetric_params, scale)
        assert des._stream_modes(scaled, control, 2) == [mode] * 2
        found = getattr(des, name)
        with monkeypatch.context() as patch:
            patch.setattr(
                des,
                name,
                lambda *args, found=found: found(*args[:-1], args[-1] + 1),
            )
            with pytest.raises(RuntimeError, match="holds .* jobs, not"):
                pc.run(scaled, control, warmup_cycles=0, measured_cycles=5, seed=0)


def test_busy_period_limit_is_a_runtime_error(symmetric_params, monkeypatch):
    # busy periods drawn one service first and allowed no more: on queues
    # walked on Python floats (scale 1) and on queues read as arrays
    # (scale 20), the first that needs a second chunk gives up
    monkeypatch.setattr(des, "BUSY_LIMIT", 0)
    monkeypatch.setattr(des, "_first_chunk", lambda load, drop: 1)
    control = exhaustive(symmetric_params)
    for scale, mode in [(1, des.WALK), (20, des.INLINE)]:
        scaled = pc.scaled_system(symmetric_params, scale)
        assert des._stream_modes(scaled, control, 2) == [mode] * 2
        with pytest.raises(RuntimeError, match="busy period failed to terminate"):
            pc.run(scaled, control, warmup_cycles=0, measured_cycles=5, seed=0)


def test_corrupted_polling_levels_are_a_runtime_error(revisit_params, monkeypatch):
    # one service too many before every stage but the first of a tour (five
    # stages), so only the polled levels checked mid-tour disagree
    found = des._served_before

    def off_by_one(served):
        before = found(served)
        before[np.arange(before.shape[0]) % 5 > 0] += 1
        return before

    monkeypatch.setattr(des, "_served_before", off_by_one)
    with pytest.raises(RuntimeError, match="rebuilt polling levels disagree"):
        pc.run(
            pc.scaled_system(revisit_params, 1),
            BINOMIAL,
            warmup_cycles=0,
            measured_cycles=5,
            seed=0,
        )


def test_corrupted_block_merge_is_a_runtime_error(revisit_params, monkeypatch):
    # every tour bound after the first one slot late in the merged path
    found = cost_module._bound_slots
    monkeypatch.setattr(
        cost_module,
        "_bound_slots",
        lambda jumps: found(jumps) + (np.arange(jumps.size + 1) > 0),
    )
    with pytest.raises(RuntimeError, match="merged path holds"):
        pc.run(
            pc.scaled_system(revisit_params, 1),
            exhaustive(revisit_params),
            COSTS["piecewise"],
            warmup_cycles=0,
            measured_cycles=5,
            seed=0,
        )


@pytest.mark.parametrize("name", list(COSTS))
def test_records_do_not_depend_on_the_block_size(revisit_params, name, monkeypatch):
    def simulate():
        return pc.run(
            pc.scaled_system(revisit_params, 1),
            BINOMIAL,
            COSTS[name],
            warmup_cycles=7,
            measured_cycles=60,
            seed=5,
            record_path_cycles=25,
        )

    whole = simulate()
    monkeypatch.setattr(des._Engine, "BLOCK_EVENTS", 40)
    split = simulate()
    # a block of 40 events holds at most one tour
    assert split.cost_passes == 67 > whole.cost_passes
    for a, b in zip(whole.records, split.records):
        assert a.cost == b.cost and a.start_levels == b.start_levels
        np.testing.assert_array_equal(a.arrivals, b.arrivals)
        np.testing.assert_array_equal(a.services, b.services)
    for k in range(3):
        np.testing.assert_array_equal(whole.path.times[k], split.path.times[k])
        np.testing.assert_array_equal(whole.path.values[k], split.path.values[k])
    assert whole.path.end_time == split.path.end_time


@pytest.mark.parametrize("scale", [1, 7])
@pytest.mark.parametrize("control", [None, BINOMIAL], ids=["exhaustive", "binomial"])
def test_polling_levels_equal_the_recorded_path(revisit_params, scale, control):
    control = control or exhaustive(revisit_params)
    tours = 40
    result = pc.run(
        pc.scaled_system(revisit_params, scale),
        control,
        warmup_cycles=3,
        measured_cycles=tours,
        seed=scale + 2,
        record_path_cycles=tours,
    )
    origin = result.records[0].start_time
    for record in result.records:
        # each stage's polling epoch, just before which the path holds the
        # levels the server found
        spans = np.cumsum(record.busy_times + record.switchover_times)
        epochs = record.start_time - origin + np.concatenate([[0.0], spans[:-1]])
        found = np.rint(result.path.sample(epochs - 1e-9) * scale)
        np.testing.assert_array_equal(found, record.polling_levels)


def test_clock_advances_per_tour_are_bounded(revisit_params, monkeypatch):
    calls = []
    advance = des._ArrivalClock.advance_to

    def counted(clock, t):
        calls.append(t)
        return advance(clock, t)

    monkeypatch.setattr(des._ArrivalClock, "advance_to", counted)
    tours = 50
    for params, mode in [(SLOW_REVISIT, des.WALK), (revisit_params, des.INLINE)]:
        scaled = pc.scaled_system(params, 1)
        assert des._stream_modes(scaled, BINOMIAL, 2) == [mode] * 3
        calls.clear()
        pc.run(scaled, BINOMIAL, warmup_cycles=0, measured_cycles=tours, seed=1)
        stages, queues = 5, 3
        # the polled queue at its polling epoch and after its busy period,
        # then every queue at the tour's end
        assert stages + queues <= len(calls) / tours <= 2 * stages + queues


def test_rolling_back_more_than_was_taken_is_a_runtime_error():
    buffer = des._SampleBuffer(Exponential(1.0), np.random.default_rng(0))
    buffer.take(3)
    buffer.rollback(2)
    with pytest.raises(RuntimeError, match="cannot roll back 2 of 1"):
        buffer.rollback(2)


@pytest.mark.parametrize("worker_type", [None, WorkerOnly])
def test_rollback_drops_a_refills_worth_of_used_values(worker_type):
    dist = Exponential(1.0)
    used = des.AHEAD_REFILL + 3
    worker = worker_type() if worker_type else None
    try:
        buffer = des._SampleBuffer(dist, np.random.default_rng(4), worker=worker)
        buffer.take(used + 7)
        buffer.rollback(7)
        # only the seven values rolled back are kept
        assert buffer._ptr == 0
        assert buffer._end - buffer._start == 7
        later = np.concatenate(
            [buffer.take(5).copy(), buffer.take(2 * des.AHEAD_REFILL)]
        )
    finally:
        if worker is not None:
            worker.close()
    fresh = des._SampleBuffer(dist, np.random.default_rng(4))
    fresh.take(used)
    assert later.tobytes() == fresh.take(later.size).tobytes()


@pytest.mark.parametrize("worker_type", [None, des._RefillThread, WorkerOnly])
@pytest.mark.parametrize(
    "dist, oracle",
    [
        (Exponential(0.3), lambda gen, size: gen.exponential(0.3, size)),
        (Gamma(0.3, shape=0.5), lambda gen, size: gen.gamma(0.5, 0.6, size)),
    ],
    ids=["exponential", "gamma"],
)
def test_services_equal_the_seed_only_oracle(worker_type, dist, oracle):
    # takes of 1 to 60 000 values, each rolled back by up to all of it: the
    # reads cross refill boundaries, fill the store and move it to the front
    rng = np.random.default_rng(12)
    worker = worker_type() if worker_type else None
    buffer = des._SampleBuffer(dist, np.random.default_rng(6), worker=worker)
    used = []
    try:
        for size in rng.integers(1, 60_000, 150) // rng.choice([1, 10, 1000], 150):
            values = buffer.take(int(size) + 1)
            keep = int(rng.integers(0, values.size + 1))
            used.append(values[:keep].copy())
            buffer.rollback(values.size - keep)
    finally:
        if worker is not None:
            worker.close()
    if worker_type is WorkerOnly:
        assert worker.refills > 10
    consumed = np.concatenate(used)
    assert consumed.size > 8 * des.AHEAD_REFILL
    expected = oracle(np.random.default_rng(6), consumed.size)
    assert consumed.tobytes() == expected.tobytes()


# -- refills drawn ahead on a worker thread -----------------------------------------


def use_refills(monkeypatch, mode):
    """Stream modes of the runs that follow, whatever the scale and the CPUs:
    every queue walked on Python floats, drawn inline, drawn ahead, or drawn
    ahead with every refill read from the worker."""
    stream_mode = des.AHEAD if mode == "worker" else mode
    monkeypatch.setattr(
        des,
        "_stream_modes",
        lambda scaled, control, cpus: [stream_mode] * scaled.params.num_queues,
    )
    if mode == "worker":
        monkeypatch.setattr(des, "_RefillThread", WorkerOnly)


def run_bytes(result):
    """Every record field and the recorded path of ``result``, as bytes."""
    parts = []
    for r in result.records:
        parts += [np.array([r.index, r.start_time, r.duration, r.cost]).tobytes()]
        parts += [np.array(r.start_levels).tobytes()]
        parts += [
            np.asarray(v).tobytes()
            for v in (
                r.polling_levels,
                r.busy_times,
                r.switchover_times,
                r.arrivals,
                r.services,
            )
        ]
    path = result.path
    parts += [np.array([path.end_time]).tobytes(), path.start_levels.tobytes()]
    parts += [a.tobytes() for a in path.times + path.values]
    return b"".join(parts)


SERVICE_KINDS = [
    ("deterministic", {}),
    ("exponential", {}),
    ("gamma", {"shape": 0.5}),
    ("lognormal", {"cv": 1.5}),
    ("uniform", {"width": 0.5}),
]


@pytest.mark.parametrize("scale, tours", [(1, 200), (7, 40), (500, 3)])
@pytest.mark.parametrize(
    "kind, options", SERVICE_KINDS, ids=[kind for kind, _ in SERVICE_KINDS]
)
def test_refills_ahead_keep_every_bit(
    revisit_params, monkeypatch, scale, tours, kind, options
):
    scaled = pc.scaled_system(
        revisit_params, scale, service_kind=kind, service_options=options
    )
    for control in (exhaustive(revisit_params), BINOMIAL):
        runs = {}
        for mode in ("walk", "inline", "ahead", "worker"):
            with monkeypatch.context() as patch:
                use_refills(patch, mode)
                runs[mode] = pc.run(
                    scaled,
                    control,
                    COSTS["linear"],
                    warmup_cycles=1,
                    measured_cycles=tours,
                    seed=3,
                    record_path_cycles=2,
                )
        # every queue takes the forced mode, whatever mode its tours would
        # choose: no stream goes ahead but when forced, and the worker makes
        # the refills
        assert runs["walk"].refills_ahead == runs["inline"].refills_ahead == 0
        assert runs["worker"].refills_ahead >= 6
        expected = run_bytes(runs["inline"])
        assert run_bytes(runs["walk"]) == expected
        assert run_bytes(runs["ahead"]) == expected
        assert run_bytes(runs["worker"]) == expected


@pytest.mark.parametrize("scale", [1, 7])
def test_walked_busy_periods_keep_every_bit_across_chunks(
    revisit_params, monkeypatch, scale
):
    # every busy period starts with a chunk of one service, so it runs to
    # several chunks, each doubling, with completions past the first chunk's
    # shifted by the tail before them
    monkeypatch.setattr(des, "_first_chunk", lambda load, drop: 1)
    scaled = pc.scaled_system(
        revisit_params, scale, service_kind="lognormal", service_options={"cv": 1.5}
    )
    runs = {}
    for mode in ("walk", "inline"):
        with monkeypatch.context() as patch:
            use_refills(patch, mode)
            runs[mode] = pc.run(
                scaled,
                BINOMIAL,
                COSTS["piecewise"],
                warmup_cycles=2,
                measured_cycles=60,
                seed=scale,
                record_path_cycles=3,
            )
    assert run_bytes(runs["walk"]) == run_bytes(runs["inline"])


def test_refills_ahead_keep_every_bit_under_fast_thread_switches(
    revisit_params, monkeypatch
):
    # the simulator and the worker hand the interpreter lock to each other
    # every 10 µs, so a refill read before the worker has written it, or a
    # generator drawn by both threads at once, would move bits
    scaled = pc.scaled_system(revisit_params, 500)
    runs = {}
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for mode in ("inline", "worker"):
            with monkeypatch.context() as patch:
                use_refills(patch, mode)
                runs[mode] = pc.run(
                    scaled,
                    BINOMIAL,
                    COSTS["linear"],
                    warmup_cycles=0,
                    measured_cycles=4,
                    seed=9,
                    record_path_cycles=2,
                )
    finally:
        sys.setswitchinterval(interval)
    assert runs["worker"].refills_ahead >= 6
    assert run_bytes(runs["worker"]) == run_bytes(runs["inline"])


def pinned_run(name, revisit_params):
    """The run whose ``run_bytes`` digest ``PINNED_RUNS[name]`` holds."""
    if name == "cyclic-pwl-s1":
        # the benchmark workload of that name: three queues visited in turn
        params = pc.SystemParameters(
            (1.0, 2.0, 1.5), (6.0, 8.0, 5.0), (0, 1, 2), (1.0, 2.0, 1.5)
        )
        psi = pc.piecewise_linear_cost(
            [[0.0, 2.0], [0.0, 3.0], [0.0, 2.0]], [[1.0, 5.0], [1.0, 3.0], [2.0, 9.0]]
        )
        return pc.run(
            pc.scaled_system(params, 1),
            pc.ControlParams(1, (0.7, 0.5, 1.0)),
            psi,
            warmup_cycles=50,
            measured_cycles=3000,
            seed=0,
            record_path_cycles=2,
            cpus=1,
        )
    if name == "adaptive-s1":
        # default warmup at load 6/7: the 23 tours the fluid transient needs
        params = pc.SystemParameters(
            (2.0, 2.0, 2.0), (7.0, 7.0, 7.0), (0, 1, 2, 1, 2), (2.0,) * 5
        )
        return pc.run(
            pc.scaled_system(params, 1),
            BINOMIAL,
            COSTS["linear"],
            warmup_cycles=None,
            measured_cycles=300,
            seed=22,
            record_path_cycles=2,
            cpus=1,
        )
    if name == "mixed-s100":
        # three queues whose tours hold about 15, 760 and 4 560 arrivals: one
        # walked, one drawn inline and one drawn ahead in the same run
        params = pc.SystemParameters(
            (0.02, 1.0, 6.0), (4.0, 10.0, 12.0), (0, 1, 2), (1.0, 1.0, 1.0)
        )
        return pc.run(
            pc.scaled_system(params, 100),
            pc.ControlParams(1, (0.7, 0.5, 1.0)),
            COSTS["linear"],
            warmup_cycles=0,
            measured_cycles=40,
            seed=13,
            record_path_cycles=2,
            cpus=2,
        )
    kind, scale = name.split("-s")
    options = {"gamma": {"shape": 0.5}, "uniform": {"width": 0.5}}.get(kind)
    scaled = pc.scaled_system(
        revisit_params,
        int(scale),
        switchover_kind=kind,
        switchover_options=options,
    )
    return pc.run(
        scaled,
        BINOMIAL,
        COSTS["linear"],
        warmup_cycles=0,
        measured_cycles=1500 if scale == "1" else 20,
        seed=3,
        record_path_cycles=2,
        cpus=2,
    )


#: SHA-256 of ``run_bytes`` from the simulator that drew switchovers from a
#: generator of their own: random switchover kinds at scale 1, scale 60 with
#: every stream drawn ahead, and the ``cyclic-pwl-s1`` benchmark run; a run
#: with the default warmup, pinned where it equalled the same run with
#: ``warmup_cycles=23`` on the simulator before the warmup was counted from
#: the fluid; and a run whose queues take each stream mode, pinned on the
#: simulator before any queue was walked
PINNED_RUNS = {
    "exponential-s1": (
        "c24906a6df7a58833070414509dee15e"
        "56bbba5cd397f3d47f0f16661aa6a300"
    ),
    "gamma-s1": (
        "b1bed9669ec6d7f08ca45fe7d7c55548"
        "2b1ec4b143433246ba421a6abd006b91"
    ),
    "uniform-s1": (
        "29e048c6f8eea691e0369f23a538888d"
        "401c5cd1e40b396f9004c75f7a033878"
    ),
    "lognormal-s1": (
        "644c0460323e854c25415ee145b76ae5"
        "6a6aefc26aaeaee4d9a89e479ba52abd"
    ),
    "gamma-s60": (
        "d3b9f3dfeaedc8c0d1c59c6b82897e36"
        "5ddace4eb8c4e4ec45cb33f13692115d"
    ),
    "cyclic-pwl-s1": (
        "7cfae74ce2fe91d45b687f1b8f812181"
        "ea523e7a41fef8668983d88d6ea99f9b"
    ),
    "adaptive-s1": (
        "0f366c75bda0eb46c9f4c6c1d3913f0b"
        "f698ad68529a6c6134277b5705f6bd7b"
    ),
    "mixed-s100": (
        "69cff22cab509b20f321efecf5f6dd9a"
        "898215745acf29ba1a709d42564965a1"
    ),
}


@pytest.mark.parametrize("name", list(PINNED_RUNS))
def test_runs_keep_their_pinned_bits(revisit_params, name):
    result = pinned_run(name, revisit_params)
    if name in ("gamma-s60", "mixed-s100"):
        assert result.refills_ahead > 0
    if name == "mixed-s100":
        modes = des._stream_modes(result.scaled, result.control, 2)
        assert modes == [des.WALK, des.INLINE, des.AHEAD]
    if name == "adaptive-s1":
        assert result.warmup_cycles == 23
    assert hashlib.sha256(run_bytes(result)).hexdigest() == PINNED_RUNS[name]


def test_drawn_inline_counts_the_values_the_caller_drew():
    # the worker's one thread is held, so every refill sent stays queued and
    # is drawn by the caller when it is needed
    worker = des._RefillThread()
    release = threading.Event()
    try:
        worker.submit(release.wait, 10.0)
        buffer = des._SampleBuffer(Exponential(1.0), np.random.default_rng(1), worker)
        buffer.take(10)
        assert worker.drawn_inline == 10
        # the queued refill, then a top-up of the 100 values it leaves short
        buffer.take(des.AHEAD_REFILL + 100)
        assert worker.drawn_inline == 10 + des.AHEAD_REFILL + 100
        clock = des._ArrivalClock(40.0, np.random.default_rng(1), worker)
        clock.advance_to(1.0)
        assert worker.drawn_inline == 10 + des.AHEAD_REFILL + 100 + clock.BLOCK
        assert worker.refills == 0
    finally:
        release.set()
        worker.close()


def capture_downs(monkeypatch, psi):
    """Copies of the completion epochs each block hands ``psi``, per queue."""
    blocks = []
    integrals = psi.tour_integrals

    def captured(self, levels, ups, downs, bounds, scale):
        blocks.append([d.copy() for d in downs])
        return integrals(levels, ups, downs, bounds, scale)

    monkeypatch.setattr(type(psi), "tour_integrals", captured)
    return blocks


@pytest.mark.parametrize("mode", ["inline", "worker"])
def test_block_store_completions_equal_the_per_busy_period_arrays(
    revisit_params, monkeypatch, mode
):
    # scale 500 lies past the gate: tours of 40 000 arrivals per queue, busy
    # periods of up to tens of thousands of services in one or more chunks
    scaled = pc.scaled_system(revisit_params, 500)
    runs, downs = {}, {}
    for version in ("stores", "oracle"):
        with monkeypatch.context() as patch:
            use_refills(patch, mode)
            if version == "oracle":
                patch.setattr(des, "_SampleBuffer", oracles.SampleBuffer)
                patch.setattr(des._Engine, "_busy_period", oracles.busy_period)
            downs[version] = capture_downs(patch, COSTS["linear"])
            runs[version] = pc.run(
                scaled,
                exhaustive(revisit_params),
                COSTS["linear"],
                warmup_cycles=0,
                measured_cycles=10,
                seed=5,
                record_path_cycles=2,
            )
    assert len(downs["stores"]) == len(downs["oracle"]) == 10
    for block, expected in zip(downs["stores"], downs["oracle"]):
        assert [d.tobytes() for d in block] == [d.tobytes() for d in expected]
    assert run_bytes(runs["stores"]) == run_bytes(runs["oracle"])


@pytest.mark.parametrize("mode", ["inline", "worker"])
def test_stores_are_reused_across_blocks(revisit_params, monkeypatch, mode):
    # scale 200: every tour, of about 16 000 arrivals and as many services
    # per queue, is a block of its own; the stores grow over the first tours
    # out of the empty start, then keep their arrays
    use_refills(monkeypatch, mode)
    seen = []
    flush = des._Engine._flush

    def recorded(engine):
        flush(engine)
        stores = engine._clocks + engine._services + engine._downs
        seen.append([store._store for store in stores])

    monkeypatch.setattr(des._Engine, "_flush", recorded)
    result = pc.run(
        pc.scaled_system(revisit_params, 200),
        exhaustive(revisit_params),
        COSTS["linear"],
        warmup_cycles=5,
        measured_cycles=20,
        seed=8,
    )
    assert len(seen) == 27
    tour_events = max(max(r.arrivals.max(), r.services.max()) for r in result.records)
    grown = seen[5]
    for arrays in seen[5:]:
        assert all(a is b for a, b in zip(arrays, grown))
    # one tour's values, one refill in flight and one topped up, a quarter more
    bound = (tour_events + 2 * des.AHEAD_REFILL) * 5 // 4
    assert all(a.size <= bound for a in grown)


def test_streams_go_ahead_from_the_gate_with_a_cpu_to_spare(revisit_params):
    # a tour of the revisit system lasts 40 * scale in equilibrium, whatever
    # the ratios, and holds 80 * scale arrivals per queue: the gate's 4 096
    # from scale 52 on, and from 26 on with the table run twice per tour
    twice = pc.ControlParams(2, BINOMIAL.ratios * 2)
    for control, scale, cpus, mode in [
        (BINOMIAL, 51, 2, des.INLINE),
        (BINOMIAL, 52, 2, des.AHEAD),
        (exhaustive(revisit_params), 52, 2, des.AHEAD),
        (twice, 25, 2, des.INLINE),
        (twice, 26, 2, des.AHEAD),
        (BINOMIAL, 500, 1, des.INLINE),
        (BINOMIAL, 500, 64, des.AHEAD),
    ]:
        scaled = pc.scaled_system(revisit_params, scale)
        assert des._stream_modes(scaled, control, cpus) == [mode] * 3
    params = pc.SystemParameters((1.0, 3.0), (4.0, 6.0), (0, 1), (1.0, 1.0))
    # tours of 8 * scale at load 3/4: queue 2 reaches the gate from scale 171
    scaled = pc.scaled_system(params, 171)
    control = pc.ControlParams.exhaustive(params)
    assert des._stream_modes(scaled, control, 2) == [des.INLINE, des.AHEAD]


def test_short_tours_walk_below_the_gate(revisit_params):
    # tours of 8 * scale at load 3/4 hold 8 * scale and 24 * scale arrivals:
    # below the walk gate of 40 a queue walks, whatever the CPUs
    params = pc.SystemParameters((1.0, 3.0), (4.0, 6.0), (0, 1), (1.0, 1.0))
    control = pc.ControlParams.exhaustive(params)
    assert des.WALK_GATE == 40
    for scale, cpus, modes in [
        (1, 1, [des.WALK, des.WALK]),
        (1, 64, [des.WALK, des.WALK]),
        (2, 2, [des.WALK, des.INLINE]),
        (4, 2, [des.WALK, des.INLINE]),
        (5, 2, [des.INLINE, des.INLINE]),
    ]:
        scaled = pc.scaled_system(params, scale)
        assert des._stream_modes(scaled, control, cpus) == modes
    # the revisit system's tours hold 80 arrivals per queue from scale 1 on
    scaled = pc.scaled_system(revisit_params, 1)
    assert des._stream_modes(scaled, BINOMIAL, 1) == [des.INLINE] * 3


def test_small_tours_start_no_refill_thread(revisit_params, monkeypatch):
    def no_thread(*args):
        raise AssertionError("a refill went to the worker")

    monkeypatch.setattr(des._RefillThread, "submit", no_thread)
    # scale 51 holds 4 080 arrivals per queue and tour, just short of the
    # gate; scale 500 holds 40 000, but a run given one CPU keeps it to itself
    for scale, tours, cpus in ((1, 300, 2), (7, 300, 2), (51, 20, 2), (500, 2, 1)):
        result = pc.run(
            pc.scaled_system(revisit_params, scale),
            BINOMIAL,
            COSTS["linear"],
            warmup_cycles=0,
            measured_cycles=tours,
            seed=2,
            cpus=cpus,
        )
        assert result.refills_ahead == result.drawn_inline == 0
        assert result.refill_wait_s == 0.0


class ThirdDrawFails(Exception):
    pass


class FailsOnThirdDraw(Distribution):
    """Exponential draws, until the third call of ``fill`` raises; with
    ``off_main``, every call made off the main thread raises instead.  A
    refill still queued when it is needed is drawn on the main thread, so
    which refills the worker draws depends on timing: failing each of them,
    not the third, makes any run that reads one raise."""

    def __init__(self, mean: float, off_main: bool = False):
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "off_main", off_main)
        object.__setattr__(self, "calls", itertools.count(1))

    def fill(self, gen, out):
        if self.off_main:
            fails = threading.current_thread() is not threading.main_thread()
        else:
            fails = next(self.calls) == 3
        if fails:
            raise ThirdDrawFails("a failing draw of the service stream")
        out[:] = gen.exponential(self.mean, out.size)


def failing_services(scaled, off_main=False):
    # every queue's services share one distribution, so its third call fails
    # whichever stream makes it
    dist = FailsOnThirdDraw(scaled.service[0].mean, off_main)
    return pc.ScaledSystem(
        scaled.params, scaled.scale, (dist,) * len(scaled.service), scaled.switchover
    )


@pytest.mark.parametrize("mode", ["default", "inline", "ahead", "worker"])
def test_no_refill_thread_outlives_a_run(revisit_params, monkeypatch, mode):
    if mode == "default":
        # scale 500 fills a refill per tour, so a spare CPU sends it ahead
        affinity = getattr(os, "sched_getaffinity", None)
        ahead = (len(affinity(0)) if affinity else os.cpu_count() or 1) > 1
    else:
        use_refills(monkeypatch, mode)
        ahead = mode != "inline"
    submitted = []
    submit = des._RefillThread.submit

    def counted(self, *args):
        submitted.append(args[0])
        return submit(self, *args)

    monkeypatch.setattr(des._RefillThread, "submit", counted)
    before = threading.active_count()
    scaled = pc.scaled_system(revisit_params, 500)
    pc.run(scaled, BINOMIAL, warmup_cycles=0, measured_cycles=3, seed=4)
    assert threading.active_count() == before
    assert bool(submitted) == ahead
    submitted.clear()
    with pytest.raises(ThirdDrawFails):
        pc.run(
            failing_services(scaled), BINOMIAL, warmup_cycles=0, measured_cycles=3
        )
    assert threading.active_count() == before
    assert bool(submitted) == ahead


@pytest.mark.parametrize(
    "mode, off_main",
    [("inline", False), ("ahead", False), ("ahead", True), ("worker", True)],
)
def test_refill_errors_reach_run_unchanged(revisit_params, monkeypatch, mode, off_main):
    use_refills(monkeypatch, mode)
    scaled = failing_services(pc.scaled_system(revisit_params, 500), off_main)
    with pytest.raises(ThirdDrawFails) as raised:
        pc.run(scaled, BINOMIAL, warmup_cycles=0, measured_cycles=3, seed=4)
    assert type(raised.value) is ThirdDrawFails
    assert str(raised.value) == "a failing draw of the service stream"


def test_different_seeds_decorrelate(symmetric_scaled, symmetric_params):
    a = pc.run(
        symmetric_scaled,
        exhaustive(symmetric_params),
        warmup_cycles=0,
        measured_cycles=50,
        seed=1,
    )
    b = pc.run(
        symmetric_scaled,
        exhaustive(symmetric_params),
        warmup_cycles=0,
        measured_cycles=50,
        seed=2,
    )
    assert not np.array_equal(a.durations, b.durations)


def test_deterministic_switchovers_recorded_exactly(symmetric_params):
    scaled = pc.scaled_system(symmetric_params, 4)
    result = pc.run(
        scaled,
        exhaustive(symmetric_params),
        warmup_cycles=0,
        measured_cycles=10,
        seed=0,
    )
    # scaled switchovers are n * s_i long; recorded durations divide by n
    np.testing.assert_allclose(result.switchover_array, 1.0, rtol=1e-12)


@pytest.mark.parametrize("scale", [1, 200])
def test_columns_equal_the_stacked_records(revisit_params, scale):
    # at scale 200 every tour, of about 16 000 arrivals, is a block of its own
    result = pc.run(
        pc.scaled_system(revisit_params, scale),
        BINOMIAL,
        COSTS["piecewise"],
        warmup_cycles=4,
        measured_cycles=300 if scale == 1 else 6,
        seed=12,
        record_path_cycles=2,
    )
    records = result.records
    if scale == 200:
        assert result.cost_passes == 10
    assert [r.index for r in records] == list(range(4, 4 + len(records)))
    for r in records:
        assert type(r.index) is int and type(r.start_time) is float
        assert all(type(level) is int for level in r.start_levels)
        for values in (r.polling_levels, r.arrivals, r.services):
            assert values.dtype == np.int64
    pairs = [
        (result.durations, np.array([r.duration for r in records])),
        (result.costs, np.array([r.cost for r in records])),
        (result.polling_array, np.stack([r.polling_levels for r in records])),
        (result.busy_array, np.stack([r.busy_times for r in records])),
        (result.switchover_array, np.stack([r.switchover_times for r in records])),
    ]
    for column, stacked in pairs:
        assert column.shape == stacked.shape and column.dtype == stacked.dtype
        assert column.tobytes() == stacked.tobytes()


@pytest.mark.parametrize("seed", [0, 7])
def test_binomial_at_an_empty_queue_draws_nothing(seed):
    # the simulator skips ``binomial`` at an empty queue: NumPy gives 0 there
    # and leaves the generator where it was, so skipping keeps every bit
    used = np.random.default_rng(seed)
    for ratio in (0.0, 0.1, 0.5, 0.7, 0.999, 1.0):
        assert used.binomial(0, ratio) == 0
    fresh = np.random.default_rng(seed)
    for n, ratio in ((30, 0.5), (400, 0.999), (5, 0.1)):
        assert used.binomial(n, ratio, size=50).tolist() == (
            fresh.binomial(n, ratio, size=50).tolist()
        )
    assert used.random(4).tobytes() == fresh.random(4).tobytes()


# -- warmup control ----------------------------------------------------------------


def test_explicit_warmup_is_respected(symmetric_scaled, symmetric_params):
    result = pc.run(
        symmetric_scaled,
        exhaustive(symmetric_params),
        warmup_cycles=7,
        measured_cycles=5,
        seed=0,
    )
    assert result.warmup_cycles == 7
    assert len(result.records) == 5
    assert result.records[0].index == 7


#: fluid-optimal ratios of the README system (``revisit_params``) for the
#: linear cost (1, 1, 8) at one repetition
README_OPTIMAL = pc.ControlParams(1, (1.0, 0.1261682310223152, 1.0, 1.0, 1.0))


@pytest.mark.parametrize(("scale", "runs"), [(4, 300), (64, 60)])
def test_mean_levels_from_empty_follow_the_fluid_tour_map(revisit_params, scale, runs):
    # the fluid stage map is a stage's conditional mean, so the mean levels
    # at the start of tour m of a run from empty are n * F^m(0) exactly
    tour = pc.cycle_map(revisit_params, README_OPTIMAL)
    expected = [np.zeros(3)]
    for _ in range(7):
        expected.append(tour(expected[-1]))
    scaled = pc.scaled_system(revisit_params, scale)
    levels = np.array(
        [
            pc.run(
                scaled,
                README_OPTIMAL,
                warmup_cycles=0,
                measured_cycles=8,
                seed=seed,
                cpus=1,
            ).start_levels
            for seed in range(runs)
        ]
    )
    assert not levels[:, 0].any()
    error = levels[:, 1:].std(axis=0, ddof=1) / np.sqrt(runs)
    z = (levels[:, 1:].mean(axis=0) - scale * np.array(expected[1:])) / error
    assert np.abs(z).max() < 4.0


def fluid_warmup_count(params, control, tolerance=1e-3):
    """Fewest tours m with max|F^m(0) - q0| <= tolerance * max|q0|."""
    tour = pc.cycle_map(params, control)
    target = pc.pe_from_params(params, control).levels[0]
    levels, m = np.zeros_like(target), 0
    while np.abs(levels - target).max() > tolerance * np.abs(target).max():
        levels, m = tour(levels), m + 1
    return m


def test_default_warmup_is_the_fluid_transient_count(revisit_params):
    # the README system, and the ``adaptive-s1`` pinned system at load 6/7
    slower = pc.SystemParameters((2.0,) * 3, (7.0,) * 3, (0, 1, 2, 1, 2), (2.0,) * 5)
    for params, control, count in (
        (revisit_params, exhaustive(revisit_params), 7),
        (revisit_params, README_OPTIMAL, 8),
        (slower, BINOMIAL, 23),
    ):
        assert fluid_warmup_count(params, control) == count
        for scale, seed in ((1, 0), (30, 5)):
            result = pc.run(
                pc.scaled_system(params, scale),
                control,
                measured_cycles=5,
                seed=seed,
            )
            assert result.warmup_cycles == count
            assert result.warmup_converged is True
            assert result.records[0].index == count


def test_unsettled_adaptive_warmup_is_reported(revisit_params, monkeypatch):
    monkeypatch.setattr(des, "WARMUP_LIMIT", 5)
    with pytest.warns(RuntimeWarning, match=r"stopped at 5 cycles .* by 0\.00\d+ of"):
        result = pc.run(
            pc.scaled_system(revisit_params, 1),
            exhaustive(revisit_params),
            measured_cycles=5,
            seed=0,
        )
    assert result.warmup_converged is False
    assert result.warmup_cycles == 5


def test_settled_and_fixed_warmups_report_convergence(
    symmetric_scaled, symmetric_params
):
    # no warning either: tier-1 turns every warning into an error
    settled = pc.run(
        symmetric_scaled, exhaustive(symmetric_params), measured_cycles=5, seed=0
    )
    assert settled.warmup_converged is True
    assert settled.warmup_cycles == fluid_warmup_count(
        symmetric_params, exhaustive(symmetric_params)
    )
    fixed = pc.run(
        symmetric_scaled,
        exhaustive(symmetric_params),
        warmup_cycles=3,
        measured_cycles=5,
        seed=0,
    )
    assert fixed.warmup_converged is True


def test_measured_cycles_must_be_positive(symmetric_scaled, symmetric_params):
    with pytest.raises(ValueError, match="positive"):
        pc.run(
            symmetric_scaled,
            exhaustive(symmetric_params),
            warmup_cycles=0,
            measured_cycles=0,
        )
    # nor may the other run lengths be negative
    for name, value in (("warmup_cycles", -5), ("record_path_cycles", -1)):
        with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
            pc.run(
                symmetric_scaled,
                exhaustive(symmetric_params),
                measured_cycles=5,
                **{name: value},
            )


@pytest.mark.parametrize("cpus", [0, -3, 1.5, "2"])
def test_cpus_must_be_an_integer_of_at_least_one(
    symmetric_scaled, symmetric_params, cpus
):
    with pytest.raises(ValueError, match="cpus must be an integer of at least 1"):
        pc.run(
            symmetric_scaled,
            exhaustive(symmetric_params),
            warmup_cycles=0,
            measured_cycles=5,
            cpus=cpus,
        )


# -- recorded paths -----------------------------------------------------------------


def test_recorded_path_is_right_continuous_step_function(
    symmetric_scaled, symmetric_params
):
    result = pc.run(
        symmetric_scaled,
        exhaustive(symmetric_params),
        warmup_cycles=10,
        measured_cycles=4,
        seed=8,
        record_path_cycles=3,
    )
    path = result.path
    assert path is not None
    expected_end = sum(r.duration for r in result.records[:3])
    assert path.end_time == pytest.approx(expected_end, rel=1e-12)
    at_zero = path.sample(np.array([0.0]))[0]
    np.testing.assert_array_equal(at_zero, path.start_levels)
    # just after the first event of queue 0 the sampled level matches it
    t0 = path.times[0][0]
    assert path.sample(np.array([t0]))[0, 0] == path.values[0][0]
    grid = np.linspace(0.0, path.end_time, 300)
    sampled = path.sample(grid)
    assert np.all(sampled >= 0.0)
    assert np.all(sampled == np.round(sampled))  # scale 1: integer levels


def test_scaled_path_converges_to_fluid_orbit(symmetric_params):
    control = exhaustive(symmetric_params)
    pe = pc.pe_from_params(symmetric_params, control)
    scaled = pc.scaled_system(symmetric_params, 1000)
    result = pc.run(
        scaled,
        control,
        warmup_cycles=200,
        measured_cycles=2,
        seed=0,
        record_path_cycles=2,
    )
    horizon = min(result.path.end_time, 2.0 * pe.cycle_time)
    grid = np.linspace(0.0, horizon, 801)
    gap = result.path.sample(grid) - pe.value_at(grid)
    assert np.abs(gap).max() < 0.5


# -- cycle observables vs the fluid orbit --------------------------------------------


def test_long_run_cost_matches_cycle_ratio(symmetric_scaled, symmetric_params):
    result = pc.run(
        symmetric_scaled,
        exhaustive(symmetric_params),
        pc.linear_cost([1.0, 1.0]),
        warmup_cycles=100,
        measured_cycles=400,
        seed=2,
    )
    estimate, half_width = pc.long_run_cost(result)
    assert estimate == pytest.approx(result.costs.sum() / result.durations.sum())
    assert half_width > 0.0
    assert np.isfinite(result.costs).all()


def test_polling_epoch_stats_layout_and_agreement(symmetric_params):
    control = exhaustive(symmetric_params)
    pe = pc.pe_from_params(symmetric_params, control)
    scaled = pc.scaled_system(symmetric_params, 1)
    result = pc.run(
        scaled, control, warmup_cycles=300, measured_cycles=2000, seed=12
    )
    rows = pc.polling_epoch_stats(result, pe)
    stages = len(pe.busy_times)
    queues = symmetric_params.num_queues
    assert len(rows) == stages * queues + stages + 1
    kinds = {row["kind"] for row in rows}
    assert kinds == {"polling_level", "busy_time", "duration"}
    duration_row = rows[-1]
    assert duration_row["stage"] == -1 and duration_row["queue"] == -1
    assert duration_row["fluid"] == pytest.approx(pe.cycle_time)
    for row in rows:
        assert row["std_error"] > 0.0
        assert abs(row["z"]) < 6.0


def test_a_row_without_spread_scores_zero_only_on_the_fluid(revisit_params):
    # stage 1 serves nothing at ratio 0: every busy time, its mean, its
    # standard error and the fluid's are exactly 0
    control = pc.ControlParams(1, (1.0, 0.0, 1.0, 1.0, 1.0))
    pe = pc.pe_from_params(revisit_params, control)
    scaled = pc.scaled_system(revisit_params, 2)
    result = pc.run(scaled, control, warmup_cycles=10, measured_cycles=200, seed=0)
    idle = [row for row in pc.polling_epoch_stats(result, pe) if row["std_error"] == 0]
    assert [(row["kind"], row["stage"]) for row in idle] == [("busy_time", 1)]
    assert idle[0]["estimate"] == idle[0]["fluid"] == 0.0
    assert idle[0]["z"] == 0.0
    # the same rows against a fluid that misses the estimate either way
    for miss, z in ((0.5, -np.inf), (-0.5, np.inf)):
        busy = pe.busy_times.copy()
        busy[1] = miss
        shifted = types.SimpleNamespace(
            polling_levels=pe.polling_levels, busy_times=busy, cycle_time=pe.cycle_time
        )
        rows = pc.polling_epoch_stats(result, shifted)
        assert [row["z"] for row in rows if row["std_error"] == 0] == [z]
