"""Discrete-event simulation of the polling system at a given scale.

The simulator advances the server stage by stage.  Within a stage it first
draws the binomially thinned number of jobs to clear, serves the attended
queue until its count has fallen by that many (located by one shifted ``>=``
comparison of completions with arrivals per chunk of draws), then samples
the switchover.  A window (busy period or switchover) only moves each
queue's level by its arrivals minus completions, and only the polled queue's
count is needed online: its arrival clock is advanced at its polling epoch
(the ``n`` of the binomial) and at the end of its busy period (where the
count is checked), and every clock once at the tour's end.

The other queues' levels at each polling epoch, and the cost, do not feed
back into the dynamics, so a tour only logs what the dynamics produce: one
row per stage (polling epoch, the polled queue's level then, its services,
busy time and switchover) and one entry per tour (start levels, and whether
its path is recorded).  Tours are simulated until the block holds more than
``_Engine.BLOCK_EVENTS`` arrivals and completions (or the run ends).  Then
the tours' record columns are built from the log's arrays: every queue's
polling levels come from one ``searchsorted`` of its arrivals over the
block's polling epochs minus its services in the stages before (checked
against the levels used online), and the cost is integrated over the whole
block by ``CostFunction.tour_integrals``, from the block's arrival epochs
(one contiguous slice of each queue's clock) and completion epochs.  A
recorded path keeps the jumps of each queue's ``cost.block_path`` over the
recorded tours, so every simulated path is merged in one place.

Event order at an equal epoch, as rounded: service completions, then window
ends and tour bounds, then arrivals.  So completion ``j`` of a busy period
from ``t0`` precedes an arrival at ``t0 + c_j`` (the ``>=`` above), and an
arrival at a polling epoch or a tour bound comes after it, in the next
window and the next tour.  All sampled epochs are continuous, so ties have
probability zero, but rounding at large epochs makes them.

Randomness is split into named substreams per source (queue arrivals, queue
services, per-stage switchovers and binomial thinnings), so runs are
reproducible and individual sources can be varied without disturbing the
rest.  Arrival epochs are cumulated in blocks aligned with their substream's
draw index, so they depend on the seed alone, not on when the simulator
asks for them.

Each queue's arrival and service streams are therefore functions of the seed
alone, and a stream may be drawn before it is needed.  Every stream, a
stage's switchovers too, and each queue's completion epochs in the open
block live in reused arrays (``_Store``): values are drawn, cumulated and
accumulated straight into them and read as views, each valid until the
owner's next request.

Each queue reads its streams in one of three modes, chosen once per run by
``_stream_modes`` from the arrivals its tours are expected to hold:

- ``WALK``, below ``WALK_GATE``: a busy period there takes a few dozen
  services, and a dozen NumPy calls on arrays that short cost more than the
  work.  The queue's services are one lazy stream of Python floats, read
  ``CHUNK`` at a time as every stage's switchovers are, its arrival epochs
  are mirrored as a list, and a busy period walks each chunk on floats:
  ``itertools.accumulate`` sums the services that cannot end it, then a
  loop adds one completion at a time and compares it with its arrival,
  stopping at the first passage, so no service after it is read.  The
  chunks, sums, comparisons and ties are those of the arrays, so every value
  keeps its bits.
- ``AHEAD``, from ``AHEAD_GATE`` on with a CPU to spare: the queue keeps the
  next ``AHEAD_REFILL`` values of both its streams in flight on one worker
  thread per run, written into the free tails of their stores, where NumPy
  fills and cumsums run without the interpreter lock; the simulator thread
  keeps the busy-period ``accumulate``, the first-passage comparison, the
  binomials and switchovers and ``_flush``, and moves a store's values only
  while no refill is in flight.
- ``INLINE`` otherwise, and for every queue of a run with a single CPU: the
  streams are drawn as arrays on the simulator thread.  Below ``AHEAD_GATE``
  the simulator makes many small NumPy calls, and handing the interpreter
  lock to the worker between them costs more than the overlap saves.

The worker is started on the first refill sent to it and stopped when
``run`` returns or raises; an error in a refill the run reads is raised by
``run`` unchanged.
"""

from __future__ import annotations

import math
import os
import struct
import time
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, islice, repeat
from numbers import Integral

import numpy as np

from . import rng
from .cost import CostFunction, block_path
from .distributions import Distribution, ScaledSystem
from .fluid import PECandidate, cycle_map, pe_from_params
from .model import ControlParams, SystemParameters, cycle_length, validate
from .stats import batch_means, ratio_ci


def _first_passage(pending, t0: float, completions, shift: int) -> int:
    """First ``j`` where absolute arrival ``pending[j - shift]`` is at or after
    ``t0`` plus completion ``completions[j]`` or does not exist; -1 if none.
    ``_Engine._busy_period`` explains why that ends the busy period."""
    lo, first = max(shift, 0), max(-shift, 0)
    n = max(min(completions.size - lo, pending.size - first), 0)
    if n > 0:
        reached = pending[first : first + n] >= completions[lo : lo + n] + t0
        j = int(reached.argmax())
        if reached[j]:
            return lo + j
    return lo + n if lo + n < completions.size else -1


def _array_first_passage(
    buffer, size: int, tail: float, t0: float, clock, downs, done: int, drop: int
) -> tuple[int, float]:
    """One chunk of a busy period read as arrays (see ``_Engine._busy_period``):
    ``size`` services are taken from the queue's ``_SampleBuffer``, their
    completions relative to ``t0`` accumulated straight into its ``_Store`` of
    the block, and ``_first_passage`` decides on the arrivals the
    ``_ArrivalClock`` holds before ``t0`` plus the last one.  Returns the
    passage's index and completion, or -1 and the last completion.  A passage
    rolls back the services after it and shifts the busy period's completions
    in the store, ``done`` of earlier chunks and this chunk's up to it, by
    ``t0`` in place."""
    draws = buffer.take(size)
    completions = np.add.accumulate(draws, out=downs._room(size))
    if tail:
        completions += tail
    pending = clock.peek_until(t0 + completions[-1])
    hit = _first_passage(pending, t0, completions, drop - done - 1)
    if hit < 0:
        downs._end += size
        return hit, float(completions[-1])
    buffer.rollback(size - hit - 1)
    duration = float(completions[hit])
    downs._end += hit + 1
    downs._store[downs._end - done - hit - 1 : downs._end] += t0
    return hit, duration


def _walk_first_passage(
    services, size: int, tail: float, t0: float, clock, downs, done: int, drop: int
) -> tuple[int, float]:
    """``_array_first_passage`` on Python floats, with the chunk's ``size``
    services pulled from the queue's ``_floats`` stream only up to the
    passage, so none is rolled back: each completion ``c_j`` is compared, as
    it is added, with arrival ``a``, number ``j - drop + done + 1`` past the
    clock's ``_ptr`` in its ``_epochs``, drawn as needed.  The completions go
    to ``downs[0]``, the queue's list of the block; a passage logs ``t0`` and
    the busy period's completions in ``downs[1]`` and ``downs[2]``, for
    ``_flush`` to add up as the arrays are."""
    shift = drop - done - 1
    sums = accumulate(islice(services, size))
    if tail:
        sums = map(tail.__add__, sums)
    completions = list(islice(sums, max(shift, 0)))
    add = completions.append
    epochs = clock._epochs
    relative, starts, counts = downs
    # the arrival that completion 0 is compared with
    first = clock._ptr - shift
    while len(completions) < size:
        at = first + len(completions)
        if at >= len(epochs):
            clock._ensure(clock._horizon)
            continue
        # arrival first: zip stops on a drained mirror before it pulls a service
        for a, c in zip(epochs[at : first + size], sums):
            add(c)
            if a >= t0 + c:
                relative += completions
                starts.append(t0)
                counts.append(done + len(completions))
                return len(completions) - 1, c
    relative += completions
    return -1, completions[-1]


def process_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


class _RefillThread:
    """One worker thread that draws an engine's random streams ahead.

    Each stream keeps at most one refill in flight and reads it through
    ``result``, which re-raises the refill's exception unchanged.  A refill
    still queued behind other streams' refills when it is needed is drawn
    on the calling thread instead, from the same arguments, so the caller
    never waits on a queue.  The pool is started on the first ``submit``;
    ``close`` cancels the refills still queued and waits for the running
    one.  A refill left unread holds values the run never used, so its
    exception is dropped with it, as an inline stream would never have drawn
    them.
    """

    def __init__(self):
        self._pool = None
        #: refills read from the worker, and seconds spent waiting for them
        self.refills = 0
        self.wait_s = 0.0
        #: values of the streams drawn ahead that the calling thread drew
        #: itself: top-ups of short requests and refills still queued
        self.drawn_inline = 0

    def submit(self, fn, *args):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(1, thread_name_prefix="pollctl-refill")
        return self._pool.submit(fn, *args), fn, args

    def result(self, refill):
        future, fn, args = refill
        if future.cancel():
            # still queued behind other streams' refills: made here instead
            self.drawn_inline += AHEAD_REFILL
            return fn(*args)
        start = time.perf_counter()
        value = future.result()
        self.wait_s += time.perf_counter() - start
        self.refills += 1
        return value

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


#: values in each refill of a stream drawn ahead
AHEAD_REFILL = 32768
#: arrivals a queue's tours are expected to hold before its streams are drawn
#: ahead: on the README system the worker loses below 3 200 arrivals per tour
#: and wins from 6 400 on
AHEAD_GATE = 4096
#: arrivals a queue's tours are expected to hold below which it is walked on
#: Python floats: walking every queue of the ``cyclic-pwl-s1`` benchmark
#: system won at scale 1 (16 to 32 arrivals per tour) and lost at scale 2
#: (32 to 64); on the README system it tied at scale 1 (80) and lost from 2
WALK_GATE = 40

#: how a queue's streams are read: walked on Python floats, or as arrays
#: drawn inline or ahead on the worker thread
WALK, INLINE, AHEAD = "walk", "inline", "ahead"


def _stream_modes(scaled: ScaledSystem, control: ControlParams, cpus: int) -> list[str]:
    """Per queue, how its streams are read, from the arrivals its tours are
    expected to hold: ``WALK`` below ``WALK_GATE``; from ``AHEAD_GATE`` on,
    with a CPU to spare, ``AHEAD``; else ``INLINE``.  At scale ``n`` a tour
    lasts ``n`` fluid tour lengths in equilibrium, whatever the ratios."""
    params = scaled.params
    tour = scaled.scale * cycle_length(params, control.repetitions)
    modes = []
    for rate in params.arrival_rates:
        arrivals = rate * tour
        if arrivals < WALK_GATE:
            modes.append(WALK)
        elif cpus >= 2 and arrivals >= AHEAD_GATE:
            modes.append(AHEAD)
        else:
            modes.append(INLINE)
    return modes


class _Store:
    """Values of one stream in a reused array: the live ones are
    ``_store[_start:_end]``, and the owner counts its own positions from
    ``_start``.

    ``_room(size)`` hands out the ``size`` slots after ``_end``, which the
    owner fills before it moves ``_end`` past them.  When they do not fit,
    the live values move to the front of the array, or, when they and the
    request do not fit there either, to a new array a quarter larger than
    they and the request; either way ``_start`` becomes 0.  A view of the
    store is therefore valid until the owner's next request.  With a
    ``worker``, the owner keeps one refill in flight (``_next``), written
    into the ``AHEAD_REFILL`` slots after ``_end``; it makes room only after
    ``_land``, so the store moves only while no refill is in flight.
    """

    def __init__(self, worker: _RefillThread | None = None):
        self._store = np.empty(0)
        self._start = self._end = 0
        self._worker = worker
        self._next = None

    def _room(self, size: int) -> np.ndarray:
        if self._end + size > self._store.size:
            live = self._store[self._start : self._end]
            if live.size + size > self._store.size:
                self._store = np.empty((live.size + size) * 5 // 4)
            self._store[: live.size] = live
            self._start, self._end = 0, live.size
        return self._store[self._end : self._end + size]

    def _land(self):
        """Read the refill in flight into the live values; return its result."""
        value = self._worker.result(self._next)
        self._next = None
        self._end += AHEAD_REFILL
        return value


def _fill(dist: Distribution, gen: np.random.Generator, out: np.ndarray) -> None:
    """``dist.fill(gen, out)``, raising ``RuntimeError`` on a negative draw.
    A NaN passes here and is caught by the epoch it gives."""
    dist.fill(gen, out)
    low = out.min(initial=0.0)
    if low < 0.0:
        raise RuntimeError(f"{dist} drew a negative time {low}")


class _SampleBuffer(_Store):
    """Sequential i.i.d. draws with rollback of unused values.

    ``take`` may over-draw; it returns a view of the store, and ``rollback``
    moves the read pointer back so the next ``take`` sees exactly the same
    values.  Consumption therefore depends only on how many draws were
    actually used.  The live values are the unread ones and those of the
    takes since the last refill: a refill drops the values read before it,
    and a rollback drops them once they are a refill's worth.

    Without a ``worker``, refills are drawn inline, at least ``CHUNK`` at a
    time.  With one, a short ``take`` lands the ``AHEAD_REFILL`` values in
    flight on the worker, draws what they leave short inline and puts the
    next refill in flight.  Every refill is drawn straight into the store by
    ``Distribution.fill``, which gives the same values in parts as at once,
    so no value depends on where refills fall.
    """

    CHUNK = 1024

    def __init__(
        self,
        dist: Distribution,
        gen: np.random.Generator,
        worker: _RefillThread | None = None,
    ):
        super().__init__(worker)
        self._dist = dist
        self._gen = gen
        self._ptr = 0

    def _draw(self, size: int) -> None:
        _fill(self._dist, self._gen, self._room(size))
        self._end += size

    def take(self, count: int) -> np.ndarray:
        ptr = self._start + self._ptr
        short = ptr + count - self._end
        if short > 0:
            self._start, self._ptr = ptr, 0
            worker = self._worker
            if worker is None:
                self._draw(max(short, self.CHUNK))
            else:
                if self._next is not None:
                    self._land()
                    short -= AHEAD_REFILL
                if short > 0:
                    self._draw(short)
                    worker.drawn_inline += short
                self._next = worker.submit(
                    _fill, self._dist, self._gen, self._room(AHEAD_REFILL)
                )
            ptr = self._start
        self._ptr += count
        return self._store[ptr : ptr + count]

    def rollback(self, count: int) -> None:
        if not 0 <= count <= self._ptr:
            raise RuntimeError(f"cannot roll back {count} of {self._ptr} draws")
        self._ptr -= count
        if self._ptr >= AHEAD_REFILL:
            self._start += self._ptr
            self._ptr = 0


def _floats(dist: Distribution, gen: np.random.Generator):
    """Draws of ``dist`` in order as Python floats, one lazy stream read from
    a ``_SampleBuffer`` ``CHUNK`` at a time."""
    buffer = _SampleBuffer(dist, gen)
    blocks = map(buffer.take, repeat(buffer.CHUNK))
    return chain.from_iterable(map(np.ndarray.tolist, blocks))


def _cumulate(rows: np.ndarray, gen: np.random.Generator, scale: float, head: float):
    """Fill ``rows`` (blocks, BLOCK) with the arrival epochs after ``head``:
    a row-wise cumsum of scaled exponential gaps, then the heads folded in
    sequence.  Returns the last epoch."""
    gen.standard_exponential(out=rows)
    rows *= scale
    np.cumsum(rows, axis=1, out=rows)
    heads = np.empty(rows.shape[0] + 1)
    heads[0] = head
    heads[1:] = rows[:, -1]
    np.cumsum(heads, out=heads)
    rows += heads[:-1, None]
    return float(heads[-1])


class _ArrivalClock(_Store):
    """Poisson arrival epochs for one queue, consumed in time order.

    ``peek_until(t)`` returns the pending epochs strictly before ``t`` without
    advancing; ``advance_to(t)`` consumes them and returns their count.  The
    live epochs start at the tour mark: those consumed since it stay in the
    store, and ``take_tour`` returns them as one view and moves the mark to
    the read pointer.  The simulator takes them once per block of tours, so
    the mark stays at the first tour whose cost is not yet integrated.

    Epochs are cumulated in blocks of ``BLOCK`` gaps that line up with the
    substream's draw index: an epoch is its block's head (the last epoch of
    the block before, 0 for the first) plus the cumsum of its block's gaps up
    to it.  Every epoch is therefore a function of the seed alone, whatever
    the requests that trigger the refills.  Refills are inline, doubling up
    to 256 blocks per pass.  With a ``worker``, the clock keeps the next
    ``AHEAD_REFILL`` epochs in flight, cumulated on the worker straight into
    the store; a request they leave short is topped up inline, and the next
    refill sent.  Either way the clock reuses its store, and a view holds its
    epochs until the next request.  With ``walk``, the live epochs are also
    kept as a list of Python floats, ``_epochs``, extended at each refill and
    cut at each tour mark, and ``advance_to`` bisects it.  Every epoch the
    simulator reaches is asked for here: the tours' ends, the ends of busy
    periods, and the end of every chunk of services a busy period reads
    whole (a walked chunk that holds the first passage is read only up to
    it).  So an epoch that is not finite, from a draw that is not, raises
    ``RuntimeError`` once the simulator reads it.
    """

    BLOCK = 4096

    def __init__(
        self,
        rate: float,
        gen: np.random.Generator,
        worker: _RefillThread | None = None,
        walk: bool = False,
    ):
        super().__init__(worker)
        self._scale = 1.0 / float(rate)
        self._gen = gen
        self._times = self._store
        self._epochs: list[float] | None = [] if walk else None
        self._ptr = 0
        self._horizon = 0.0

    def _rows(self, size: int) -> np.ndarray:
        """Room for ``size`` epochs, as (blocks, BLOCK) rows."""
        return self._room(size).reshape(-1, self.BLOCK)

    def _ensure(self, t: float) -> None:
        if self._horizon > t:
            return
        if not math.isfinite(t):
            # no horizon would pass it
            raise RuntimeError(f"simulated epoch {t} is not finite")
        if self._next is not None:
            self._horizon = self._land()
        worker = self._worker
        blocks = 1
        while self._horizon <= t:
            rows = self._rows(blocks * self.BLOCK)
            self._horizon = _cumulate(rows, self._gen, self._scale, self._horizon)
            self._end += rows.size
            if worker is not None:
                worker.drawn_inline += rows.size
            blocks = min(blocks * 2, 256)
        if worker is not None:
            # the next refill, cumulated on the worker behind the last one
            rows = self._rows(AHEAD_REFILL)
            self._next = worker.submit(
                _cumulate, rows, self._gen, self._scale, self._horizon
            )
        self._times = self._store[self._start : self._end]
        if self._epochs is not None:
            self._epochs += self._times[len(self._epochs) :].tolist()

    def peek_until(self, t: float) -> np.ndarray:
        self._ensure(t)
        return self._times[self._ptr : self._times.searchsorted(t, "left")]

    def advance_to(self, t: float) -> int:
        if not self._horizon > t:
            self._ensure(t)
        ptr = self._ptr
        if self._epochs is None:
            self._ptr = int(self._times.searchsorted(t, "left"))
        else:
            self._ptr = bisect_left(self._epochs, t, ptr)
        return self._ptr - ptr

    def take_tour(self) -> np.ndarray:
        ptr = self._ptr
        view, self._times = self._times[:ptr], self._times[ptr:]
        if self._epochs is not None:
            del self._epochs[:ptr]
        self._start += ptr
        self._ptr = 0
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
    def __init__(self, origin: float, start: np.ndarray):
        self.origin = origin
        self.start = start
        self.end = origin
        #: per block of recorded tours, each queue's (epochs, counts) step path
        self.blocks: list[list[tuple[np.ndarray, np.ndarray]]] = []

    def finalize(self, scale: int) -> ScaledPath:
        queues = [tuple(zip(*paths)) for paths in zip(*self.blocks)]
        return ScaledPath(
            end_time=(self.end - self.origin) / scale,
            start_levels=self.start / scale,
            times=tuple((np.concatenate(t) - self.origin) / scale for t, _ in queues),
            values=tuple(np.concatenate(v) / scale for _, v in queues),
        )


#: services a busy period may use before it is taken not to terminate
BUSY_LIMIT = 100_000_000


def _first_chunk(load: float, drop: int) -> int:
    """Services a busy period that clears ``drop`` jobs draws first: the mean
    plus four standard deviations of an M/M/1 busy period's services."""
    expected = drop / (1.0 - load)
    spread = math.sqrt(expected * load / (1.0 - load) ** 2 + 1.0)
    return max(32, int(expected + 4.0 * spread) + 8)


def _doubles(values: list[float]) -> np.ndarray:
    """``values`` as a float64 array: packed by ``struct``, which is two to
    three times faster than ``np.array`` on a list of Python floats."""
    return np.frombuffer(struct.pack(f"{len(values)}d", *values))


def _served_before(served: np.ndarray) -> np.ndarray:
    """Services of each queue before every stage of a block and at its end:
    the exclusive cumsum of ``served`` (stages, queues) down the stages."""
    before = np.zeros((served.shape[0] + 1, served.shape[1]), dtype=np.int64)
    np.cumsum(served, axis=0, out=before[1:])
    return before


class _Engine:
    """The simulator between tours.  Its stores: per queue an ``_ArrivalClock``,
    a ``_SampleBuffer`` of services and the block's completion epochs (for a
    queue walked on Python floats, a ``_floats`` stream of services and
    lists); per stage a ``_floats`` stream of switchovers.  ``cycle``
    runs the dynamics and logs them; ``_flush`` turns a block's log into its
    tours' record fields and path."""

    #: arrivals plus completions a block of tours may hold before its costs
    #: are integrated and its columns built; bounds the memory the block keeps
    BLOCK_EVENTS = 1 << 14

    def __init__(
        self,
        scaled: ScaledSystem,
        control: ControlParams,
        psi: CostFunction | None,
        seed: int,
        cpus: int,
    ):
        params = scaled.params
        table = control.augmented_table(params)
        self._scaled = scaled
        self._psi = psi

        k_range = range(params.num_queues)
        #: the worker that draws the streams of some queues ahead
        self.refill_thread = _RefillThread()
        modes = _stream_modes(scaled, control, cpus)
        self._walks = [mode == WALK for mode in modes]
        workers = [self.refill_thread if mode == AHEAD else None for mode in modes]
        self._clocks = [
            _ArrivalClock(
                params.arrival_rates[k],
                rng.substream(seed, rng.ARRIVALS, k),
                worker=workers[k],
                walk=self._walks[k],
            )
            for k in k_range
        ]
        self._services = [
            _floats(scaled.service[k], rng.substream(seed, rng.SERVICES, k))
            if self._walks[k]
            else _SampleBuffer(
                scaled.service[k],
                rng.substream(seed, rng.SERVICES, k),
                worker=workers[k],
            )
            for k in k_range
        ]
        self._loads = [
            params.arrival_rates[k] / params.service_rates[k] for k in k_range
        ]
        #: per queue, the first chunk of a busy period by its drop
        self._chunks: list[dict[int, int]] = [{} for _ in k_range]
        basic = len(table.basic)
        self._polled = table.polled
        #: per stage: polled queue, ratio, binomial substream and switchovers
        self._stages = [
            (
                int(self._polled[i]),
                float(ratio),
                rng.substream(seed, rng.BINOMIALS, i),
                _floats(
                    scaled.switchover[i % basic],
                    rng.substream(seed, rng.SWITCHOVERS, i),
                ),
            )
            for i, ratio in enumerate(control.ratio_array)
        ]

        self._t = 0.0
        self._levels = [0] * params.num_queues
        self.cycles_run = 0
        #: the recorded path, started by the first recorded tour's block
        self.recorder: _PathRecorder | None = None
        self.cost_passes = 0
        # the block's log: per stage a row (polling epoch, the polled queue's
        # level then, its services, busy time, switchover; counts stay exact
        # as floats below 2**53), per tour its start levels and whether its
        # path is recorded; and the absolute completion epochs of its visits,
        # one store per queue reused by every block
        self._log: list[tuple[float, int, int, float, float]] = []
        self._tours: list[tuple[tuple[int, ...], bool]] = []
        self._block_events = 0
        self._downs = [([], [], []) if walk else _Store() for walk in self._walks]
        #: per block flushed since ``take_columns``, its tours' record fields
        self._blocks: list[tuple[np.ndarray, ...]] = []

    # -- window machinery ---------------------------------------------------

    def _busy_period(self, queue: int, drop: int, t0: float) -> tuple[float, int]:
        """Serve ``queue`` from ``t0`` until its count first falls by ``drop``.

        Returns (duration, services used).  Works chunk-wise: the queue's
        chunk kernel, ``_walk_first_passage`` or ``_array_first_passage``,
        takes a chunk's services, sums its completions relative to ``t0``
        after the last of the chunks before, keeps them for the block, finds
        the first passage and closes the busy period there, leaving the
        services after it unread.  With ``done`` services in earlier chunks
        and ``A(t)`` arrivals before ``t``, the count has fallen by
        ``done + j + 1 - A(t0 + c_j)`` at completion ``j``.  Rising at most
        one per completion, that walk first reaches ``drop`` where pending
        arrival ``done + j + 1 - drop`` (0-based) is at or after ``t0 + c_j``
        or does not exist: ``>=`` puts completions first.  A chunk without
        the passage asks the clock for its end, so a completion that is not
        finite raises.
        """
        clock = self._clocks[queue]
        services = self._services[queue]
        downs = self._downs[queue]
        passage = _walk_first_passage if self._walks[queue] else _array_first_passage
        chunks = self._chunks[queue]
        chunk = chunks.get(drop) or chunks.setdefault(
            drop, _first_chunk(self._loads[queue], drop)
        )
        done = 0
        tail = 0.0
        while True:
            # the passage's completion, the duration, or the chunk's last one
            hit, tail = passage(services, chunk, tail, t0, clock, downs, done, drop)
            if hit >= 0:
                return tail, done + hit + 1
            done += chunk
            horizon = t0 + tail
            if not clock._horizon > horizon:
                clock._ensure(horizon)
            if done > BUSY_LIMIT:
                raise RuntimeError("busy period failed to terminate")
            chunk = min(chunk * 2, 1 << 22)

    def _flush(self) -> None:
        """Build the block's record columns from its log: rebuild every
        queue's polling levels, add the recorded tours to the path (starting
        it at the first), integrate the block's costs in one
        ``tour_integrals`` call, then append the columns; every clock's tour
        mark moves to the block's end."""
        tours, self._tours, self._block_events = self._tours, [], 0
        if not tours:
            return
        log, self._log = np.array(self._log, dtype=float), []
        epochs = np.append(log[:, 0], self._t)
        stages = np.arange(log.shape[0])
        polled = self._polled[stages % self._polled.size]
        served = np.zeros((stages.size, len(self._clocks)), dtype=np.int64)
        served[stages, polled] = log[:, 2]
        ups = [clock.take_tour() for clock in self._clocks]
        # views of the reused stores, and the walked queues' epochs, each a
        # busy period's start plus its relative completions: nothing below
        # keeps one
        downs = []
        for walk, store in zip(self._walks, self._downs):
            if walk:
                relative, starts, counts = store
                downs.append(_doubles(relative) + np.repeat(starts, counts))
                for part in store:
                    part.clear()
            else:
                downs.append(store._store[: store._end])
                store._end = 0
        # every queue's level at every polling epoch and at the block's end:
        # arrivals before it (one at the epoch comes after it, as in
        # ``advance_to``) minus services in the stages before it
        ups_before = np.array([u.searchsorted(epochs) for u in ups]).T
        starts = np.array([start for start, _ in tours] + [self._levels])
        levels = starts[0] + ups_before - _served_before(served)
        # the online levels: each polled queue's, and all at tour bounds
        tour_rows = slice(None, None, self._polled.size)
        if (levels[stages, polled] != log[:, 1]).any() or (
            levels[tour_rows] != starts
        ).any():
            raise RuntimeError(
                "rebuilt polling levels disagree with the simulated ones"
            )
        bounds = epochs[tour_rows]
        recorded = [j for j, (_, record_path) in enumerate(tours) if record_path]
        if recorded:
            # the recorded tours run on from the first one: the jump slots of
            # each queue's merged path between their bounds
            i, j = recorded[0], recorded[-1] + 1
            if self.recorder is None:
                self.recorder = _PathRecorder(bounds[i], starts[i])
            paths = []
            for start, u, d in zip(starts.T, ups, downs):
                times, path, slots = block_path(start, u, d, bounds)
                jumps = np.delete(np.arange(slots[i], slots[j]), slots[i:j] - slots[i])
                paths.append((times[jumps], path[jumps]))
            self.recorder.end = bounds[j]
            self.recorder.blocks.append(paths)
        scale = self._scaled.scale
        if self._psi is None:
            costs = np.full(len(tours), math.nan)
        else:
            self.cost_passes += 1
            costs = self._psi.tour_integrals(starts, ups, downs, bounds, scale)
        busy, switch = (log[:, 3:] / scale).T.reshape(2, len(tours), -1)
        self._blocks.append(
            (
                np.arange(self.cycles_run - len(tours), self.cycles_run),
                bounds[:-1] / scale,
                np.diff(bounds) / scale,
                costs / scale,
                starts[:-1],
                levels[:-1].reshape(len(tours), self._polled.size, -1),
                busy,
                switch,
                np.diff(ups_before[tour_rows], axis=0),
                served.reshape(len(tours), self._polled.size, -1).sum(axis=1),
            )
        )

    # -- cycle driver ---------------------------------------------------------

    def cycle(self, record_path: bool = False) -> tuple[int, ...]:
        """Run one full server tour and return its start levels.

        Only the polled queue's clock is advanced within the tour, at its
        polling epoch and at the end of its busy period; every clock is
        advanced at the tour's end.  The tour logs one row per stage and its
        start levels; ``_flush`` builds its record fields from the block's log
        once the block exceeds ``BLOCK_EVENTS``, or at ``take_columns``.
        """
        levels = self._levels
        start_levels = tuple(levels)
        t = self._t
        clocks = self._clocks
        log = self._log
        served = 0
        for i, (queue, ratio, binomials, pauses) in enumerate(self._stages):
            clock = clocks[queue]
            epoch = t
            level = levels[queue] + clock.advance_to(t)
            if ratio == 1.0 or level == 0:
                # binomial(0, ratio) is 0 and draws nothing
                cleared = level
            else:
                cleared = int(binomials.binomial(level, ratio))
            duration, done = 0.0, 0
            if cleared > 0:
                duration, done = self._busy_period(queue, cleared, t)
                t += duration
                left = level + clock.advance_to(t) - done
                if left != level - cleared:
                    raise RuntimeError(
                        f"stage {i}: queue {queue} holds {left} jobs, "
                        f"not {level} - {cleared}"
                    )
            levels[queue] = level - cleared
            pause = next(pauses)
            t += pause
            log.append((epoch, level, done, duration, pause))
            served += done
        for k, clock in enumerate(clocks):
            levels[k] += clock.advance_to(t)
        self._t = t
        self.cycles_run += 1
        self._tours.append((start_levels, record_path))
        # arrivals are the count's rise plus the completions
        self._block_events += sum(levels) - sum(start_levels) + 2 * served
        if self._block_events > self.BLOCK_EVENTS:
            self._flush()
        return start_levels

    def take_columns(self) -> list[np.ndarray]:
        """Finish the open block and hand over the tours since the last call:
        one array per ``CycleRecord`` field in order, none without tours."""
        self._flush()
        blocks, self._blocks = self._blocks, []
        return [np.concatenate(parts) for parts in zip(*blocks)]


@dataclass
class SimulationResult:
    """Measured cycles of one run, plus the optional recorded path: the
    ``CycleRecord`` fields of its tours as columns (``indices`` to
    ``services``, a row per tour), and the ``records`` built on first read."""

    scaled: ScaledSystem
    control: ControlParams
    seed: int
    warmup_cycles: int
    indices: np.ndarray = field(repr=False)
    start_times: np.ndarray = field(repr=False)
    durations: np.ndarray = field(repr=False)
    costs: np.ndarray = field(repr=False)
    start_levels: np.ndarray = field(repr=False)
    #: (cycles, stages, queues) job counts at every polling epoch
    polling_array: np.ndarray = field(repr=False)
    busy_array: np.ndarray = field(repr=False)
    switchover_array: np.ndarray = field(repr=False)
    arrivals: np.ndarray = field(repr=False)
    services: np.ndarray = field(repr=False)
    path: ScaledPath | None = None
    #: False when a default warmup stopped at ``WARMUP_LIMIT`` tours with the
    #: mean levels still off; a fixed ``warmup_cycles`` is taken as given
    warmup_converged: bool = True
    #: blocks of tours whose costs were integrated together
    cost_passes: int = 0
    #: refills of arrival and service streams drawn ahead on a worker thread
    refills_ahead: int = 0
    #: seconds the simulator waited for those refills
    refill_wait_s: float = 0.0
    #: values of the streams drawn ahead that the simulator drew itself
    drawn_inline: int = 0

    @cached_property
    def records(self) -> list[CycleRecord]:
        return [
            CycleRecord(*row)
            for row in zip(
                self.indices.tolist(),
                self.start_times.tolist(),
                self.durations.tolist(),
                self.costs,
                map(tuple, self.start_levels.tolist()),
                self.polling_array,
                self.busy_array,
                self.switchover_array,
                self.arrivals,
                self.services,
            )
        ]


#: tours a default warmup may discard
WARMUP_LIMIT = 2000
#: distance of the mean levels from the equilibrium's, relative to its
#: largest level, at which a default warmup ends
WARMUP_TOLERANCE = 1e-3


def _fluid_warmup(params: SystemParameters, control: ControlParams) -> tuple[int, bool]:
    """Fewest tours ``m <= WARMUP_LIMIT`` after which the mean levels of a run
    from empty, ``n * F^m(0)`` with ``F`` the fluid tour map, are within
    ``WARMUP_TOLERANCE`` of the equilibrium's at stage 0's polling epoch; and
    whether there is such an ``m``.  The fluid stage map is a stage's
    conditional mean at every scale and for every distribution.
    """
    tour = cycle_map(params, control)
    target = pe_from_params(params, control).levels[0]
    levels = np.zeros_like(target)
    for m in range(WARMUP_LIMIT + 1):
        gap = np.abs(levels - target).max() / np.abs(target).max()
        if gap <= WARMUP_TOLERANCE:
            return m, True
        levels = tour(levels)
    warnings.warn(
        f"warmup stopped at {WARMUP_LIMIT} cycles with the mean levels off the "
        f"equilibrium's by {gap:.3g} of its largest level; the measured cycles "
        "may still carry the empty initial state",
        RuntimeWarning,
        stacklevel=3,
    )
    return WARMUP_LIMIT, False


def run(
    scaled: ScaledSystem,
    control: ControlParams,
    psi: CostFunction | None = None,
    *,
    warmup_cycles: int | None = None,
    measured_cycles: int = 1000,
    seed: int = 0,
    record_path_cycles: int = 0,
    cpus: int | None = None,
) -> SimulationResult:
    """Simulate ``measured_cycles`` server tours after warmup.

    The system starts empty with the server about to poll stage 0.  With
    ``warmup_cycles=None`` the tours that ``_fluid_warmup`` counts from the
    fluid alone are discarded; if ``WARMUP_LIMIT`` tours are not enough,
    ``warmup_converged`` is False and a ``RuntimeWarning`` is issued.
    ``cpus`` is the number of CPUs the run may keep busy, an integer of at
    least 1, by default ``process_cpus()``; with two or more, the streams of
    queues with large tours are drawn ahead on a worker thread.
    """
    params = scaled.params
    validate(params)
    control.validate_for(params)
    if measured_cycles < 1:
        raise ValueError("measured_cycles must be positive")
    if warmup_cycles is not None and warmup_cycles < 0:
        raise ValueError("warmup_cycles must be nonnegative")
    if record_path_cycles < 0:
        raise ValueError("record_path_cycles must be nonnegative")
    if cpus is not None and not (isinstance(cpus, Integral) and cpus >= 1):
        raise ValueError(f"cpus must be an integer of at least 1, not {cpus!r}")
    converged = True
    if warmup_cycles is None:
        warmup_cycles, converged = _fluid_warmup(params, control)

    if cpus is None:
        cpus = process_cpus()
    engine = _Engine(scaled, control, psi, seed, cpus)
    try:
        for _ in range(warmup_cycles):
            engine.cycle()
        engine.take_columns()

        for m in range(measured_cycles):
            engine.cycle(record_path=m < record_path_cycles)
        columns = engine.take_columns()
        path = None
        if record_path_cycles > 0:
            path = engine.recorder.finalize(scaled.scale)
    finally:
        engine.refill_thread.close()
    return SimulationResult(
        scaled,
        control,
        seed,
        warmup_cycles,
        *columns,
        path=path,
        warmup_converged=converged,
        cost_passes=engine.cost_passes,
        refills_ahead=engine.refill_thread.refills,
        refill_wait_s=engine.refill_thread.wait_s,
        drawn_inline=engine.refill_thread.drawn_inline,
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
        # with no spread, agreement scores 0 and any miss a signed infinity
        gap = estimate - fluid
        z = gap / error if error > 0 else math.copysign(math.inf, gap) if gap else 0.0
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
