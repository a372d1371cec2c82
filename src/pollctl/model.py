"""Core model types for polling systems with switchover times.

A polling system here is a single server attending K queues according to a
fixed visit table.  Stage i of the table polls queue ``table[i]``; after the
server departs a queue it incurs the stage's switchover time before polling
the next stage.  Control is binomial-exhaustive: visiting a queue holding N
jobs, the server serves ``Binomial(N, r_i)`` of them (each together with the
arrivals occurring during its service) and moves on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class MismatchedDimensions(ValueError):
    """Parameter vectors disagree on the number of queues or stages."""


class InfeasibleParameters(ValueError):
    """Parameters violate stability or positivity requirements."""


class NonCoveringTable(ValueError):
    """Some queue is never polled by the visit table."""


class InvalidControl(ValueError):
    """Service ratios are outside [0, 1] or starve a queue entirely."""


def _as_float_tuple(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class SystemParameters:
    """Static description of one polling system.

    Queue and stage indices are 0-based internally; command-line I/O uses
    1-based labels.  ``table[i]`` is the queue polled at stage ``i`` of the
    basic visit table and ``switchover_means[i]`` is the mean switchover
    incurred when leaving that stage.
    """

    arrival_rates: tuple[float, ...]
    service_rates: tuple[float, ...]
    table: tuple[int, ...]
    switchover_means: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arrival_rates", _as_float_tuple(self.arrival_rates))
        object.__setattr__(self, "service_rates", _as_float_tuple(self.service_rates))
        object.__setattr__(self, "table", tuple(int(q) for q in self.table))
        object.__setattr__(
            self, "switchover_means", _as_float_tuple(self.switchover_means)
        )
        if len(self.arrival_rates) != len(self.service_rates):
            raise MismatchedDimensions(
                f"{len(self.arrival_rates)} arrival rates vs "
                f"{len(self.service_rates)} service rates"
            )
        if len(self.switchover_means) != len(self.table):
            raise MismatchedDimensions(
                f"{len(self.switchover_means)} switchover means for "
                f"{len(self.table)} table stages"
            )
        if not self.table:
            raise MismatchedDimensions("visit table is empty")

    @property
    def num_queues(self) -> int:
        return len(self.arrival_rates)

    @property
    def num_stages(self) -> int:
        return len(self.table)

    @property
    def switchover_total(self) -> float:
        return float(sum(self.switchover_means))

    @cached_property
    def arrival_array(self) -> np.ndarray:
        return np.asarray(self.arrival_rates, dtype=float)

    @cached_property
    def service_array(self) -> np.ndarray:
        return np.asarray(self.service_rates, dtype=float)

    @cached_property
    def drain_rates(self) -> np.ndarray:
        """Net depletion rate mu_k - lambda_k of an attended queue."""
        return self.service_array - self.arrival_array


def traffic_intensity(params: SystemParameters) -> tuple[float, np.ndarray]:
    """Total load rho and the per-queue loads rho_k = lambda_k / mu_k."""
    per_queue = params.arrival_array / params.service_array
    return float(per_queue.sum()), per_queue


def validate(params: SystemParameters) -> None:
    """Reject parameter sets that have no stable operating regime.

    Raises ``InfeasibleParameters`` when rates are non-positive, switchover
    means are negative or all zero, or the total load reaches 1; raises
    ``NonCoveringTable`` when a queue never appears in the visit table.
    """
    if min(params.arrival_rates) <= 0.0:
        raise InfeasibleParameters("arrival rates must be positive")
    if min(params.service_rates) <= 0.0:
        raise InfeasibleParameters("service rates must be positive")
    if min(params.switchover_means) < 0.0:
        raise InfeasibleParameters("switchover means must be nonnegative")
    if params.switchover_total <= 0.0:
        raise InfeasibleParameters("at least one switchover mean must be positive")
    bad = [q for q in params.table if q < 0 or q >= params.num_queues]
    if bad:
        raise NonCoveringTable(f"table entries out of range: {bad}")
    missing = sorted(set(range(params.num_queues)) - set(params.table))
    if missing:
        raise NonCoveringTable(f"queues never polled: {missing}")
    rho, per_queue = traffic_intensity(params)
    if np.any(per_queue >= 1.0):
        raise InfeasibleParameters("some queue has per-queue load >= 1")
    if rho >= 1.0:
        raise InfeasibleParameters(f"total load {rho:.6g} >= 1")


@dataclass(frozen=True)
class AugmentedTable:
    """The basic visit table concatenated with itself ``repetitions`` times.

    Its stage structure is cached as arrays of augmented stage indices:
    ``polled[i]`` is the queue stage ``i`` polls, ``visits[k]`` queue ``k``'s
    stages in order, and ``successor[i]`` the stage of the next visit to
    stage ``i``'s queue, wrapping into the next tour (``i`` itself for a
    queue polled once per tour).
    """

    basic: tuple[int, ...]
    repetitions: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "basic", tuple(int(q) for q in self.basic))
        if self.repetitions < 1:
            raise InvalidControl(f"repetitions must be >= 1, got {self.repetitions}")

    def __len__(self) -> int:
        return len(self.basic) * self.repetitions

    @cached_property
    def polled(self) -> np.ndarray:
        return np.array(self.basic * self.repetitions)

    @cached_property
    def visits(self) -> tuple[np.ndarray, ...]:
        stages = [[] for _ in range(max(self.basic) + 1)]
        for i, queue in enumerate(self.basic * self.repetitions):
            stages[queue].append(i)
        return tuple(np.array(s, dtype=int) for s in stages)

    @cached_property
    def successor(self) -> np.ndarray:
        successor = np.empty(len(self), dtype=int)
        for stages in self.visits:
            successor[stages[:-1]] = stages[1:]
            successor[stages[-1:]] = stages[:1]
        return successor

    def visit_stages(self, queue: int) -> tuple[int, ...]:
        """Augmented stage indices at which ``queue`` is polled, in order."""
        return tuple(self.visits[queue].tolist())


def augment(table, repetitions: int) -> AugmentedTable:
    return AugmentedTable(tuple(table), repetitions)


def cycle_length(params: SystemParameters, repetitions: int = 1) -> float:
    """Duration of one augmented-table tour in the fluid model.

    Switchover time is conserved over a tour while service keeps up with the
    inflow, which forces the tour length ``repetitions * s / (1 - rho)``
    regardless of the service ratios.
    """
    validate(params)
    if repetitions < 1:
        raise InvalidControl(f"repetitions must be >= 1, got {repetitions}")
    rho, _ = traffic_intensity(params)
    return repetitions * params.switchover_total / (1.0 - rho)


def check_ratios(ratios: np.ndarray, polled: np.ndarray, num_queues: int) -> None:
    """Reject ratios outside the admissible set of an augmented table.

    ``polled`` holds the queue polled at each augmented stage.  Every ratio
    must lie in [0, 1] and every queue must get a positive total ratio over
    its visits, otherwise it would never be served.
    """
    if ratios.shape != polled.shape:
        raise MismatchedDimensions(
            f"{ratios.size} ratios for {polled.size} augmented stages"
        )
    if not (ratios.min() >= 0.0 and ratios.max() <= 1.0):  # NaN fails too
        raise InvalidControl("ratios must lie in [0, 1]")
    sums = np.bincount(polled, ratios, num_queues)
    if not sums.min() > 0.0:
        starved = np.flatnonzero(sums <= 0.0)
        raise InvalidControl(f"queues with zero total ratio: {starved.tolist()}")


@dataclass(frozen=True)
class ControlParams:
    """A binomial-exhaustive policy: table repetitions plus per-stage ratios."""

    repetitions: int
    ratios: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise InvalidControl(f"repetitions must be >= 1, got {self.repetitions}")
        object.__setattr__(self, "ratios", _as_float_tuple(self.ratios))

    @classmethod
    def exhaustive(cls, params: SystemParameters, repetitions: int = 1) -> ControlParams:
        """All-ones ratios: every polled queue is emptied at every visit."""
        return cls(repetitions, (1.0,) * (params.num_stages * repetitions))

    @cached_property
    def ratio_array(self) -> np.ndarray:
        return np.asarray(self.ratios, dtype=float)

    def augmented_table(self, params: SystemParameters) -> AugmentedTable:
        return AugmentedTable(params.table, self.repetitions)

    def validate_for(self, params: SystemParameters) -> None:
        """Check membership in the admissible ratio set (see ``check_ratios``)."""
        polled = self.augmented_table(params).polled
        check_ratios(self.ratio_array, polled, params.num_queues)

    def queue_ratio_sums(self, params: SystemParameters) -> np.ndarray:
        """Per-queue sums of ratios over the queue's visit stages."""
        polled = self.augmented_table(params).polled
        return np.bincount(polled, self.ratio_array, params.num_queues)
