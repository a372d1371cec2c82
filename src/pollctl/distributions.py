"""Mean-parameterised sampling distributions for the discrete simulator.

Only the means of service and switchover times enter the fluid model, so the
simulator accepts any nonnegative distribution with a prescribed mean.  All
samplers here are parameterised by that mean directly; shape parameters, where
they exist, are dimensionless and checked where the kind is built.  Each kind
draws one way, ``fill(gen, out)``, and filling an array in consecutive parts
gives the same values as filling it at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .model import InfeasibleParameters, SystemParameters


@dataclass(frozen=True)
class Distribution:
    """Base class: nonnegative distribution with known mean.  A bad option
    raises a ``ValueError`` whose message starts with the option's name."""

    mean: float

    def fill(self, gen: np.random.Generator, out: np.ndarray) -> None:
        """Draw ``out.size`` values into ``out``."""
        raise NotImplementedError


@dataclass(frozen=True)
class Deterministic(Distribution):
    """Point mass at ``mean``.  Consumes no randomness."""

    def fill(self, gen: np.random.Generator, out: np.ndarray) -> None:
        out.fill(self.mean)


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential with given mean.  Standard exponentials scaled in place
    equal ``gen.exponential(mean, size)`` bit for bit, and cost less."""

    def fill(self, gen: np.random.Generator, out: np.ndarray) -> None:
        gen.standard_exponential(out=out)
        out *= self.mean


@dataclass(frozen=True)
class Gamma(Distribution):
    """Gamma with given mean and shape > 0; variance = mean^2 / shape.
    Standard gammas scaled in place equal ``gen.gamma`` bit for bit."""

    shape: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.shape < math.inf:
            raise ValueError(f"shape must be finite and > 0, got {self.shape}")

    def fill(self, gen: np.random.Generator, out: np.ndarray) -> None:
        gen.standard_gamma(self.shape, out=out)
        out *= self.mean / self.shape


@dataclass(frozen=True)
class LogNormal(Distribution):
    """Lognormal with given mean and coefficient of variation cv >= 0, whose
    square, and so the variance, is a finite float."""

    cv: float = 1.0

    def __post_init__(self) -> None:
        if not (self.cv >= 0.0 and math.isfinite(self.cv * self.cv)):
            raise ValueError(f"cv must be >= 0 with a finite square, got {self.cv}")

    def fill(self, gen: np.random.Generator, out: np.ndarray) -> None:
        log_var = math.log1p(self.cv**2)
        mu = math.log(self.mean) - 0.5 * log_var
        # drawn whole: NumPy takes its exp from the C library, which
        # ``np.exp`` on normals drawn in place need not match bit for bit
        out[:] = gen.lognormal(mu, math.sqrt(log_var), out.size)


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform on [mean*(1-width), mean*(1+width)], width in [0, 1].  Unit
    uniforms scaled and shifted in place equal ``gen.uniform`` bit for bit."""

    width: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.width <= 1.0:
            raise ValueError(f"width must lie in [0, 1], got {self.width}")

    def fill(self, gen: np.random.Generator, out: np.ndarray) -> None:
        half = self.mean * self.width
        low, high = self.mean - half, self.mean + half
        gen.random(out=out)
        out *= high - low
        out += low


_KINDS = {
    "deterministic": Deterministic,
    "exponential": Exponential,
    "gamma": Gamma,
    "lognormal": LogNormal,
    "uniform": Uniform,
}

#: the options each kind takes besides its mean: its dataclass fields
KIND_OPTIONS = {
    kind: tuple(f.name for f in fields(cls) if f.name != "mean")
    for kind, cls in _KINDS.items()
}


def make_distribution(kind: str, mean: float, **options: float) -> Distribution:
    """Build a distribution by name, checking its options.  A zero mean
    always degenerates to a point mass at zero regardless of ``kind``."""
    if kind not in _KINDS:
        raise ValueError(f"unknown distribution kind {kind!r}")
    if not 0.0 <= mean < math.inf:
        raise ValueError(f"mean must be finite and nonnegative, got {mean}")
    dist = _KINDS[kind](mean, **options)
    return dist if mean > 0.0 else Deterministic(0.0)


@dataclass(frozen=True)
class ScaledSystem:
    """A concrete system at scale ``n``.

    Arrival rates stay fixed while switchover means are inflated to
    ``n * s_i``; queue lengths divided by ``n`` and time divided by ``n``
    then approach the fluid dynamics as ``n`` grows.
    """

    params: SystemParameters
    scale: int
    service: tuple[Distribution, ...]
    switchover: tuple[Distribution, ...]

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise InfeasibleParameters("scale must be a positive integer")
        if len(self.service) != self.params.num_queues:
            raise InfeasibleParameters("one service distribution per queue")
        if len(self.switchover) != self.params.num_stages:
            raise InfeasibleParameters("one switchover distribution per stage")
        for k, dist in enumerate(self.service):
            target = 1.0 / self.params.service_rates[k]
            if not math.isclose(dist.mean, target, rel_tol=1e-12):
                raise InfeasibleParameters(
                    f"service mean for queue {k} must equal 1/mu"
                )
        for i, dist in enumerate(self.switchover):
            target = self.scale * self.params.switchover_means[i]
            if not math.isclose(dist.mean, target, rel_tol=1e-12, abs_tol=0.0):
                raise InfeasibleParameters(
                    f"switchover mean for stage {i} must equal scale * s_i"
                )


def scaled_system(
    params: SystemParameters,
    scale: int,
    service_kind: str = "exponential",
    switchover_kind: str = "deterministic",
    service_options: dict[str, float] | None = None,
    switchover_options: dict[str, float] | None = None,
) -> ScaledSystem:
    """Assemble a ``ScaledSystem`` with homogeneous distribution families."""
    service = tuple(
        make_distribution(service_kind, 1.0 / mu, **(service_options or {}))
        for mu in params.service_rates
    )
    switchover = tuple(
        make_distribution(switchover_kind, scale * s, **(switchover_options or {}))
        for s in params.switchover_means
    )
    return ScaledSystem(params, scale, service, switchover)
