"""Output analysis for regenerative-like cycle data.

Cycle-level observables from the simulator are dependent in general, so
confidence intervals use batch means; long-run averages of ratio form
(cost per unit time) use the sectioning estimator on batched numerator and
denominator sums.
"""

from __future__ import annotations

import numpy as np


def t_quantile(confidence: float, df: int) -> float:
    """Two-sided Student t quantile: the half-width factor of a
    ``confidence`` interval on ``df`` degrees of freedom.  SciPy is imported
    on the first call, not with the module, as it takes most of a CLI
    process's start-up."""
    from scipy.special import stdtrit

    return float(stdtrit(df, 0.5 * (1.0 + confidence)))


def batch_means(samples: np.ndarray, batches: int = 20) -> np.ndarray:
    """Means of ``batches`` equal contiguous batches (remainder dropped)."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if batches < 2:
        raise ValueError("need at least two batches")
    size = samples.size // batches
    if size < 1:
        raise ValueError("fewer samples than batches")
    trimmed = samples[: size * batches].reshape(batches, size)
    return trimmed.mean(axis=1)


def mean_ci(
    samples: np.ndarray, batches: int = 20, confidence: float = 0.95
) -> tuple[float, float]:
    """(point estimate, half-width) for the mean via batch means."""
    means = batch_means(samples, batches)
    estimate = float(means.mean())
    scale = float(means.std(ddof=1)) / np.sqrt(means.size)
    quantile = t_quantile(confidence, means.size - 1)
    return estimate, float(quantile * scale)


def ratio_ci(
    numerators: np.ndarray,
    denominators: np.ndarray,
    batches: int = 20,
    confidence: float = 0.95,
) -> tuple[float, float]:
    """Sectioning estimator for sum(num)/sum(den) with a t interval.

    The point estimate is the overall ratio; the spread is taken over the
    per-batch ratios, which is consistent for weakly dependent cycles.
    """
    numerators = np.asarray(numerators, dtype=float)
    denominators = np.asarray(denominators, dtype=float)
    if numerators.shape != denominators.shape:
        raise ValueError("numerator and denominator lengths differ")
    estimate = float(numerators.sum() / denominators.sum())
    ratios = batch_means(numerators, batches) / batch_means(denominators, batches)
    scale = float(ratios.std(ddof=1)) / np.sqrt(ratios.size)
    quantile = t_quantile(confidence, ratios.size - 1)
    return estimate, float(quantile * scale)


def geweke_z(
    samples: np.ndarray, head_fraction: float = 0.1, tail_fraction: float = 0.5
) -> float:
    """Geweke convergence score: standardised gap between the mean of the
    first ``head_fraction`` and the last ``tail_fraction`` of the series.

    Variances are estimated per segment from non-overlapping batches, which
    absorbs short-range autocorrelation.  |z| beyond about 3 suggests the
    series has not settled.
    """
    samples = np.asarray(samples, dtype=float)
    head = samples[: max(int(samples.size * head_fraction), 8)]
    tail = samples[-max(int(samples.size * tail_fraction), 8) :]

    def _segment(seg: np.ndarray) -> tuple[float, float]:
        parts = max(min(seg.size // 4, 16), 2)
        means = batch_means(seg, parts)
        return float(means.mean()), float(means.var(ddof=1) / means.size)

    head_mean, head_var = _segment(head)
    tail_mean, tail_var = _segment(tail)
    spread = np.sqrt(head_var + tail_var)
    if spread == 0.0:
        return 0.0
    return float((head_mean - tail_mean) / spread)
