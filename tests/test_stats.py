from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import pollctl as pc
from pollctl.stats import t_quantile


def test_batch_means_exact_partition():
    samples = np.arange(12.0)
    np.testing.assert_allclose(
        pc.batch_means(samples, 3), [1.5, 5.5, 9.5]
    )


def test_batch_means_drops_remainder():
    samples = np.arange(103.0)
    means = pc.batch_means(samples, 20)
    assert means.size == 20
    np.testing.assert_allclose(means[0], np.arange(5.0).mean())
    np.testing.assert_allclose(means[-1], np.arange(95.0, 100.0).mean())


def test_batch_means_rejects_bad_input():
    with pytest.raises(ValueError, match="one-dimensional"):
        pc.batch_means(np.zeros((4, 4)))
    with pytest.raises(ValueError, match="two batches"):
        pc.batch_means(np.zeros(10), batches=1)
    with pytest.raises(ValueError, match="fewer samples"):
        pc.batch_means(np.zeros(5), batches=10)


def test_ratio_ci_exact_on_proportional_series():
    den = np.linspace(1.0, 2.0, 40)
    num = 2.0 * den
    estimate, half_width = pc.ratio_ci(num, den, batches=8)
    assert estimate == pytest.approx(2.0, rel=1e-14)
    assert half_width == pytest.approx(0.0, abs=1e-12)


def test_ratio_ci_point_estimate_is_overall_ratio():
    num = np.array([1.0, 1.0, 5.0, 5.0])
    den = np.array([1.0, 1.0, 1.0, 1.0])
    estimate, _ = pc.ratio_ci(num, den, batches=2)
    assert estimate == pytest.approx(3.0)
    with pytest.raises(ValueError, match="lengths differ"):
        pc.ratio_ci(np.zeros(5), np.zeros(6))


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize", "scipy.special"])
def test_cli_import_leaves_scipy_module_unloaded(module):
    code = f"import sys, pollctl.cli; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_t_quantile_agrees_with_scipy_stats():
    from scipy import stats

    gen = np.random.default_rng(3)
    for df in range(1, 400, 3):
        for confidence in [0.9, 0.95, 0.99, *gen.uniform(0.5, 0.999, 4)]:
            expected = stats.t.ppf(0.5 * (1.0 + confidence), df)
            assert t_quantile(confidence, df) == pytest.approx(expected, rel=1e-12)
    for df in [1_000, 5_000, 10_000, 100_000]:
        for confidence in [0.5, 0.9, 0.95, 0.99, 0.999]:
            expected = stats.t.ppf(0.5 * (1.0 + confidence), df)
            assert t_quantile(confidence, df) == pytest.approx(expected, rel=1e-10)


def test_t_quantile_matches_closed_forms_at_one_and_two_df():
    for confidence in np.linspace(0.01, 0.999, 100):
        cauchy = np.tan(0.5 * np.pi * confidence)
        assert t_quantile(confidence, 1) == pytest.approx(cauchy, rel=1e-12)
        two = confidence * np.sqrt(2.0 / (1.0 - confidence**2))
        assert t_quantile(confidence, 2) == pytest.approx(two, rel=1e-12)
    # Written in the tail 1 - confidence, the same forms keep their digits
    # near confidence 1, where the tail must be summed without cancellation.
    for confidence in 1.0 - np.logspace(-9, -3, 13):
        tail = 1.0 - confidence
        cauchy = 1.0 / np.tan(0.5 * np.pi * tail)
        assert t_quantile(confidence, 1) == pytest.approx(cauchy, rel=1e-14)
        two = confidence * np.sqrt(2.0 / (tail * (2.0 - tail)))
        assert t_quantile(confidence, 2) == pytest.approx(two, rel=1e-14)


@pytest.mark.parametrize(
    "confidence, df, match",
    [
        (0.95, 2.5, "integer"),
        (0.95, 3.0, "integer"),
        (0.95, 0, "at least 1"),
        (0.95, -4, "at least 1"),
        (0.0, 10, "confidence"),
        (1.0, 10, "confidence"),
        (1.5, 10, "confidence"),
        (float("nan"), 10, "confidence"),
    ],
)
def test_t_quantile_rejects_bad_input(confidence, df, match):
    with pytest.raises(ValueError, match=match):
        t_quantile(confidence, df)
