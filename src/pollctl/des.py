"""Discrete-event simulation of the polling system at a given scale.

The simulator advances the server stage by stage.  Within a stage it first
draws the binomially thinned number of jobs to clear, serves the attended
queue until its count has fallen by that many (located by one shifted ``>=``
comparison of completions with arrivals per chunk of draws), then samples
the switchover.  A window (busy period or switchover) only moves each
queue's level by its arrivals minus completions.  The cost does not feed
back into the dynamics, so it is integrated a block of tours at a time:
tours are simulated until the block holds more than ``_Engine.BLOCK_EVENTS``
arrivals and completions (or the run ends), then each queue's cost is
integrated over the whole block in one vectorised pass, from the block's
arrival epochs (one contiguous slice of the queue's clock) and completion
epochs, and the block's tour records are built.  A non-separable cost keeps
one joint merge per tour, and recorded paths are merged once per block.

Event-order convention at coincident epochs: service completions precede
arrivals (the ``>=`` above), which precede switchover ends.  All sampled
epochs are continuous, so ties have probability zero; the convention only
pins down the semantics of window and tour boundaries (an arrival exactly at
a boundary belongs to the next window, and so to the next tour).

Randomness is split into named substreams per source (queue arrivals, queue
services, per-stage switchovers and binomial thinnings), so runs are
reproducible and individual sources can be varied without disturbing the
rest.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import rng
from .cost import CostFunction, step_path
from .distributions import Distribution, ScaledSystem
from .fluid import PECandidate
from .model import ControlParams, validate
from .stats import batch_means, geweke_z, ratio_ci


def _first_passage(pending, t0: float, completions, shift: int) -> int:
    """First ``j`` where absolute arrival ``pending[j - shift]`` is at or after
    completion ``completions[j]`` (relative to ``t0``) or does not exist; -1 if
    none.  ``_Engine._busy_period`` explains why that ends the busy period."""
    lo, first = max(shift, 0), max(-shift, 0)
    n = max(min(completions.size - lo, pending.size - first), 0)
    reached = pending[first : first + n] - t0 >= completions[lo : lo + n]
    if reached.any():
        return lo + int(reached.argmax())
    return lo + n if lo + n < completions.size else -1


class _SampleBuffer:
    """Sequential i.i.d. draws with rollback of unused values.

    ``take`` may over-draw; ``rollback`` returns the tail to the stream so the
    next ``take`` sees exactly the same values.  Consumption therefore depends
    only on how many draws were actually used.
    """

    def __init__(self, dist: Distribution, gen: np.random.Generator, chunk: int = 1024):
        self._dist = dist
        self._gen = gen
        self._chunk = chunk
        self._values = np.empty(0)
        self._ptr = 0

    def take(self, count: int) -> np.ndarray:
        short = self._ptr + count - self._values.size
        if short > 0:
            block = np.asarray(
                self._dist.sample(self._gen, max(short, self._chunk)), dtype=float
            )
            self._values = np.concatenate([self._values[self._ptr :], block])
            self._ptr = 0
        view = self._values[self._ptr : self._ptr + count]
        self._ptr += count
        return view

    def rollback(self, count: int) -> None:
        if not 0 <= count <= self._ptr:
            raise RuntimeError(f"cannot roll back {count} of {self._ptr} draws")
        self._ptr -= count


class _ArrivalClock:
    """Poisson arrival epochs for one queue, consumed in time order.

    ``peek_until(t)`` returns the pending epochs strictly before ``t`` without
    advancing; ``advance_to(t)`` consumes them and returns their count.  The
    epochs consumed since the tour mark stay buffered, and ``take_tour``
    returns them as one view and moves the mark to the read pointer.  The
    simulator takes them once per block of tours, so the mark stays at the
    first tour whose cost is not yet integrated.
    """

    def __init__(self, rate: float, gen: np.random.Generator, chunk: int = 4096):
        self._scale = 1.0 / float(rate)
        self._gen = gen
        self._chunk = chunk
        self._store = self._times = np.empty(0)
        self._mark = 0
        self._ptr = 0
        self._horizon = 0.0

    def _ensure(self, t: float) -> None:
        # one refill in blocks doubling from ``chunk``, each drawn, summed and shifted
        # in place; epochs' last bits depend on where refills start.  A full store of
        # the epochs from the tour mark on is replaced by one a quarter larger
        if self._horizon > t:
            return
        end = self._times.size
        block_size = self._chunk
        while self._horizon <= t:
            if end + block_size > self._store.size:
                kept = self._store[self._mark : end]
                self._store = np.empty((kept.size + block_size) * 5 // 4)
                self._store[: kept.size] = kept
                self._ptr, self._mark, end = self._ptr - self._mark, 0, kept.size
            block = self._store[end : end + block_size]
            self._gen.standard_exponential(out=block)
            block *= self._scale
            np.cumsum(block, out=block)
            block += self._horizon
            self._horizon = float(block[-1])
            end += block_size
            block_size = min(block_size * 2, 1 << 20)
        self._times = self._store[:end]

    def peek_until(self, t: float) -> np.ndarray:
        self._ensure(t)
        return self._times[self._ptr : self._times.searchsorted(t, "left")]

    def advance_to(self, t: float) -> int:
        self._ensure(t)
        ptr, self._ptr = self._ptr, int(self._times.searchsorted(t, "left"))
        return self._ptr - ptr

    def take_tour(self) -> np.ndarray:
        view, self._mark = self._times[self._mark : self._ptr], self._ptr
        return view


@dataclass(frozen=True)
class CycleRecord:
    """Observables of one server tour.

    Queue counts are raw job numbers; times and the cost integral are divided
    by the scale, so ``cost / duration`` estimates the long-run cost rate of
    the scaled process directly.
    """

    index: int
    start_time: float
    duration: float
    cost: float
    start_levels: tuple[int, ...]
    polling_levels: np.ndarray
    busy_times: np.ndarray
    switchover_times: np.ndarray
    arrivals: np.ndarray
    services: np.ndarray


@dataclass(frozen=True)
class ScaledPath:
    """Piecewise-constant scaled queue path over the recorded span.

    Times are measured from the start of recording and divided by the scale;
    levels are job counts divided by the scale.
    """

    end_time: float
    start_levels: np.ndarray
    times: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]

    def sample(self, at: np.ndarray) -> np.ndarray:
        """Right-continuous levels at the given scaled times, (len, K)."""
        at = np.asarray(at, dtype=float)
        out = np.empty((at.size, self.start_levels.size))
        for k in range(self.start_levels.size):
            seq = np.concatenate([[self.start_levels[k]], self.values[k]])
            out[:, k] = seq[np.searchsorted(self.times[k], at, side="right")]
        return out


class _PathRecorder:
    def __init__(self, num_queues: int):
        self.origin: float | None = None
        self.start: np.ndarray | None = None
        self.end = 0.0
        self._times: list[list[np.ndarray]] = [[] for _ in range(num_queues)]
        self._values: list[list[np.ndarray]] = [[] for _ in range(num_queues)]

    def begin(self, t: float, levels: np.ndarray) -> None:
        if self.origin is None:
            self.origin = t
            self.start = levels.copy()

    def add(self, end: float, paths: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Append per-queue step paths of consecutive tours (absolute epochs,
        counts)."""
        self.end = end
        for k, (times, levels) in enumerate(paths):
            self._times[k].append(times)
            self._values[k].append(levels)

    def finalize(self, scale: int) -> ScaledPath:
        assert self.origin is not None and self.start is not None
        times = tuple((np.concatenate(c) - self.origin) / scale for c in self._times)
        values = tuple(np.concatenate(c) / scale for c in self._values)
        return ScaledPath(
            end_time=(self.end - self.origin) / scale,
            start_levels=self.start / scale,
            times=times,
            values=values,
        )


class _Tour(NamedTuple):
    """A simulated tour whose record waits for its block's costs."""

    start: float
    levels: np.ndarray
    recorded: bool
    #: every ``CycleRecord`` field but the cost and the arrivals
    fields: dict


class _Engine:
    #: arrivals plus completions a block of tours may hold before its costs
    #: are integrated and its records built; bounds the memory the block keeps
    BLOCK_EVENTS = 1 << 14

    def __init__(
        self,
        scaled: ScaledSystem,
        control: ControlParams,
        psi: CostFunction | None,
        seed: int,
    ):
        params = scaled.params
        table = control.augmented_table(params)
        self._params = params
        self._scaled = scaled
        self._table = table
        self._ratios = control.ratio_array
        self._psi = psi
        self._components = psi.components if psi is not None and psi.separable else None

        k_range = range(params.num_queues)
        self._clocks = [
            _ArrivalClock(params.arrival_rates[k], rng.substream(seed, rng.ARRIVALS, k))
            for k in k_range
        ]
        self._services = [
            _SampleBuffer(scaled.service[k], rng.substream(seed, rng.SERVICES, k))
            for k in k_range
        ]
        self._switch_gens = [
            rng.substream(seed, rng.SWITCHOVERS, i) for i in range(len(table))
        ]
        self._binomial_gens = [
            rng.substream(seed, rng.BINOMIALS, i) for i in range(len(table))
        ]

        self._t = 0.0
        self._levels = np.zeros(params.num_queues, dtype=np.int64)
        self.cycles_run = 0
        self.recorder: _PathRecorder | None = None
        self.cost_integrations = 0
        self.cost_passes = 0
        # the block: tours whose records wait for their costs, and the
        # absolute completion epochs of its visits, one list per queue
        self._block: list[_Tour] = []
        self._block_events = 0
        self._downs: list[list[np.ndarray]] = [[] for _ in k_range]
        self._finished: list[CycleRecord] = []

    # -- window machinery ---------------------------------------------------

    def _busy_period(self, queue: int, drop: int) -> tuple[float, int, np.ndarray]:
        """Serve ``queue`` until its count first falls by ``drop`` jobs.

        Returns (duration, services used, completion epochs relative to the
        window start).  Works chunk-wise on drawn services, rolling back unused
        ones.  With ``done`` services in earlier chunks and ``A(c)`` arrivals
        before ``c``, the count has fallen by ``done + j + 1 - A(c_j)`` at
        completion ``j``.  Rising at most one per completion, that walk first
        reaches ``drop`` where pending arrival ``done + j + 1 - drop`` (0-based)
        is at or after ``c_j`` or does not exist: ``>=`` puts completions first.
        """
        clock = self._clocks[queue]
        buffer = self._services[queue]
        t0 = self._t
        load = self._params.arrival_rates[queue] / self._params.service_rates[queue]
        # mean plus four standard deviations of an M/M/1 busy period's services
        expected = drop / (1.0 - load)
        spread = math.sqrt(expected * load / (1.0 - load) ** 2 + 1.0)
        chunk = max(32, int(expected + 4.0 * spread) + 8)
        done = 0
        tail = 0.0
        parts: list[np.ndarray] = []
        while True:
            draws = buffer.take(chunk)
            completions = tail + np.cumsum(draws)
            pending = clock.peek_until(t0 + completions[-1])
            hit = _first_passage(pending, t0, completions, drop - done - 1)
            if hit >= 0:
                buffer.rollback(draws.size - hit - 1)
                parts.append(completions[: hit + 1])
                joined = parts[0] if len(parts) == 1 else np.concatenate(parts)
                return float(completions[hit]), done + hit + 1, joined
            done += draws.size
            tail = float(completions[-1])
            parts.append(completions)
            if done > 100_000_000:
                raise RuntimeError("busy period failed to terminate")
            chunk = min(chunk * 2, 1 << 22)

    def _process_window(self, duration: float) -> None:
        """Advance time by ``duration``, counting in every queue's arrivals."""
        self._t += duration
        self._levels += [clock.advance_to(self._t) for clock in self._clocks]

    def _flush(self) -> None:
        """Integrate the block's costs in one pass per queue, then finish its
        records; every clock's tour mark moves to the block's end."""
        block, self._block, self._block_events = self._block, [], 0
        if not block:
            return
        ups = [clock.take_tour() for clock in self._clocks]
        downs = []
        for parts in self._downs:
            downs.append(np.concatenate(parts) if parts else np.empty(0))
            parts.clear()
        bounds = np.array([tour.start for tour in block] + [self._t])
        levels = np.array([tour.levels for tour in block] + [self._levels])
        # arrivals and completions of each queue before every bound; an
        # arrival at a bound opens the later tour, as in ``advance_to``
        ups_before = np.array([u.searchsorted(bounds) for u in ups]).T
        downs_before = levels[0] + ups_before - levels
        recorded = [j for j, tour in enumerate(block) if tour.recorded]
        if recorded and self.recorder is not None:
            # the recorded tours run on from the first one: one path per queue
            i, j = recorded[0], recorded[-1] + 1
            paths = [
                step_path(start, u[a[i] : a[j]], d[b[i] : b[j]])
                for start, u, d, a, b in zip(
                    levels[i], ups, downs, ups_before.T, downs_before.T
                )
            ]
            self.recorder.add(bounds[j], paths)
        costs = self._block_costs(levels, ups, downs, bounds, ups_before, downs_before)
        scale = self._scaled.scale
        arrivals = np.diff(ups_before, axis=0)
        for cost, came, tour in zip(costs, arrivals, block):
            self._finished.append(
                CycleRecord(cost=cost / scale, arrivals=came, **tour.fields)
            )

    def _block_costs(
        self, levels, ups, downs, bounds, ups_before, downs_before
    ) -> np.ndarray:
        """Each tour's cost integral in unscaled time."""
        tours = bounds.size - 1
        if self._psi is None:
            return np.full(tours, math.nan)
        self.cost_passes += 1
        scale = self._scaled.scale
        if self._components is not None:
            self.cost_integrations += tours * len(self._components)
            return np.sum(
                [
                    comp.tour_integrals(levels[:, k], ups[k], downs[k], bounds, scale)
                    for k, comp in enumerate(self._components)
                ],
                axis=0,
            )
        # a non-separable cost keeps one joint merge per tour
        self.cost_integrations += tours
        costs = np.empty(tours)
        for j in range(tours):
            moves = [
                (u[a[j] : a[j + 1]] - bounds[j], d[b[j] : b[j + 1]] - bounds[j])
                for u, d, a, b in zip(ups, downs, ups_before.T, downs_before.T)
            ]
            costs[j] = self._joint_integral(levels[j], moves, bounds[j + 1] - bounds[j])
        return costs

    def _joint_integral(self, start: np.ndarray, moves, duration: float) -> float:
        """One tour's integral of a non-separable cost; ``moves`` holds each
        queue's (ups, downs) relative to the tour start."""
        # a stable sort of every queue's downs-then-ups keeps downs first at
        # equal epochs
        times = np.concatenate([np.concatenate([d, u]) for u, d in moves])
        columns = np.repeat(np.arange(start.size), [d.size + u.size for u, d in moves])
        signs = [np.repeat([-1.0, 1.0], [d.size, u.size]) for u, d in moves]
        jumps = np.concatenate(signs)
        order = np.argsort(times, kind="stable")
        steps = np.zeros((times.size + 1, start.size))
        steps[1:][np.arange(order.size), columns[order]] = jumps[order]
        path = start + np.cumsum(steps, axis=0)
        bounds = np.concatenate([[0.0], times[order], [duration]])
        scale = self._scaled.scale
        return float(np.dot(self._psi.value(path / scale), np.diff(bounds)))

    # -- cycle driver ---------------------------------------------------------

    def cycle(self, record_path: bool = False) -> np.ndarray:
        """Run one full server tour and return its start levels.

        Its record is finished once its block's costs are integrated, when
        the block exceeds ``BLOCK_EVENTS`` or at ``take_records``.
        """
        if record_path:
            if self.recorder is None:
                self.recorder = _PathRecorder(self._levels.size)
            self.recorder.begin(self._t, self._levels)

        table = self._table
        scale = self._scaled.scale
        start_t = self._t
        start_levels = self._levels.copy()
        num_stages = len(table)
        polling = np.empty((num_stages, start_levels.size), dtype=np.int64)
        busy = np.zeros(num_stages)
        switch = np.empty(num_stages)
        services = np.zeros(start_levels.size, dtype=np.int64)

        basic = len(table.basic)
        for i in range(num_stages):
            polling[i] = self._levels
            queue = table.polled_queue(i)
            cleared = int(
                self._binomial_gens[i].binomial(self._levels[queue], self._ratios[i])
            )
            if cleared > 0:
                duration, served, completions = self._busy_period(queue, cleared)
                before = self._levels[queue]
                self._downs[queue].append(self._t + completions)
                self._process_window(duration)
                self._levels[queue] -= served
                if self._levels[queue] != before - cleared:
                    raise RuntimeError(
                        f"stage {i}: queue {queue} holds {self._levels[queue]} jobs, "
                        f"not {before} - {cleared}"
                    )
                services[queue] += served
                busy[i] = duration
            pause = float(
                self._scaled.switchover[i % basic].sample(self._switch_gens[i])
            )
            if pause > 0.0:
                self._process_window(pause)
            switch[i] = pause

        fields = dict(
            index=self.cycles_run,
            start_time=start_t / scale,
            duration=(self._t - start_t) / scale,
            start_levels=tuple(int(v) for v in start_levels),
            polling_levels=polling,
            busy_times=busy / scale,
            switchover_times=switch / scale,
            services=services,
        )
        self.cycles_run += 1
        self._block.append(_Tour(start_t, start_levels, record_path, fields))
        # arrivals are the count's rise plus the completions
        self._block_events += int((self._levels - start_levels + 2 * services).sum())
        if self._block_events > self.BLOCK_EVENTS:
            self._flush()
        return start_levels

    def take_records(self) -> list[CycleRecord]:
        """Finish the open block and hand over every record finished since
        the last call."""
        self._flush()
        records, self._finished = self._finished, []
        return records


@dataclass
class SimulationResult:
    """Measured cycles of one run, plus the optional recorded path."""

    scaled: ScaledSystem
    control: ControlParams
    seed: int
    warmup_cycles: int
    records: list[CycleRecord] = field(repr=False)
    path: ScaledPath | None = None
    #: False when adaptive warmup reached ``warmup_limit`` with the Geweke
    #: score still at 3 or more; a fixed ``warmup_cycles`` is taken as given
    warmup_converged: bool = True
    #: cost integrals over all tours: one per queue for a separable cost
    cost_integrations: int = 0
    #: blocks of tours whose costs were integrated together
    cost_passes: int = 0

    @cached_property
    def durations(self) -> np.ndarray:
        return np.array([r.duration for r in self.records])

    @cached_property
    def costs(self) -> np.ndarray:
        return np.array([r.cost for r in self.records])

    @cached_property
    def polling_array(self) -> np.ndarray:
        """(cycles, stages, queues) job counts at every polling epoch."""
        return np.stack([r.polling_levels for r in self.records])

    @cached_property
    def busy_array(self) -> np.ndarray:
        return np.stack([r.busy_times for r in self.records])

    @cached_property
    def switchover_array(self) -> np.ndarray:
        return np.stack([r.switchover_times for r in self.records])


def run(
    scaled: ScaledSystem,
    control: ControlParams,
    psi: CostFunction | None = None,
    *,
    warmup_cycles: int | None = None,
    measured_cycles: int = 1000,
    seed: int = 0,
    record_path_cycles: int = 0,
    warmup_limit: int = 2000,
) -> SimulationResult:
    """Simulate ``measured_cycles`` server tours after warmup.

    The system starts empty with the server about to poll stage 0.  With
    ``warmup_cycles=None`` at least 500 tours are discarded and warmup is
    extended in steps of 250 (up to ``warmup_limit``) until the Geweke score
    of the total queue length at tour starts drops below 3.  If it never
    does, ``warmup_converged`` is False and a ``RuntimeWarning`` is issued.
    """
    params = scaled.params
    validate(params)
    control.validate_for(params)
    if measured_cycles < 1:
        raise ValueError("measured_cycles must be positive")

    engine = _Engine(scaled, control, psi, seed)
    converged = True
    if warmup_cycles is None:
        totals: list[int] = []
        target = 500
        while True:
            while engine.cycles_run < target:
                totals.append(int(engine.cycle().sum()))
            z = geweke_z(np.array(totals, dtype=float))
            if abs(z) < 3.0:
                break
            if target >= warmup_limit:
                converged = False
                warnings.warn(
                    f"adaptive warmup stopped at warmup_limit={warmup_limit} "
                    f"cycles with Geweke |z| = {abs(z):.2f} >= 3; the measured "
                    "cycles may still carry the empty initial state",
                    RuntimeWarning,
                    stacklevel=2,
                )
                break
            target = min(target + 250, warmup_limit)
    else:
        for _ in range(warmup_cycles):
            engine.cycle()
    warmup_used = engine.cycles_run
    engine.take_records()

    for m in range(measured_cycles):
        engine.cycle(record_path=m < record_path_cycles)
    records = engine.take_records()
    path = None
    if record_path_cycles > 0 and engine.recorder is not None:
        path = engine.recorder.finalize(scaled.scale)
    return SimulationResult(
        scaled=scaled,
        control=control,
        seed=seed,
        warmup_cycles=warmup_used,
        records=records,
        path=path,
        warmup_converged=converged,
        cost_integrations=engine.cost_integrations,
        cost_passes=engine.cost_passes,
    )


def long_run_cost(
    result: SimulationResult, batches: int = 20, confidence: float = 0.95
) -> tuple[float, float]:
    """Long-run cost rate estimate with a t confidence half-width."""
    return ratio_ci(result.costs, result.durations, batches, confidence)


def polling_epoch_stats(
    result: SimulationResult, pe: PECandidate, batches: int = 20
) -> list[dict[str, float | int | str]]:
    """Compare per-stage simulated means with periodic-equilibrium values.

    For every stage the scaled queue levels at the polling epoch and the busy
    time are averaged with batch-means standard errors and standardised
    against the fluid prediction, which the stationary means match exactly at
    every scale.  The tour duration row checks the cycle mean the same way.
    """
    scale = result.scaled.scale
    rows: list[dict[str, float | int | str]] = []

    def _row(kind: str, stage: int, queue: int, samples: np.ndarray, fluid: float):
        means = batch_means(samples, batches)
        estimate = float(means.mean())
        error = float(means.std(ddof=1)) / math.sqrt(means.size)
        z = (estimate - fluid) / error if error > 0 else math.inf
        rows.append(
            {
                "kind": kind,
                "stage": stage,
                "queue": queue,
                "estimate": estimate,
                "std_error": error,
                "fluid": fluid,
                "z": float(z),
            }
        )

    fluid_polling = pe.polling_levels()
    stages, queues = fluid_polling.shape
    for i in range(stages):
        for k in range(queues):
            _row(
                "polling_level",
                i,
                k,
                result.polling_array[:, i, k] / scale,
                float(fluid_polling[i, k]),
            )
        _row("busy_time", i, -1, result.busy_array[:, i], float(pe.busy_times[i]))
    _row("duration", -1, -1, result.durations, float(pe.cycle_time))
    return rows
