"""The interval quantiles equal scipy.stats' to the last bit.

``t_critical``, ``required_samples`` and ``Gamma.percentile`` evaluate the
scipy.special kernels that scipy.stats' ``t``, ``norm`` and ``gamma``
distributions call, so ``import repro`` need not load scipy.stats.  Every
published interval goes through these values, so they are compared with
``==``, never a tolerance.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from scipy import stats

from repro.distributions.gamma import Gamma
from repro.exceptions import SimulationError
from repro.simulation.confidence import required_samples, t_critical

CONFIDENCES = (0.9, 0.95, 0.99, 0.999)
SAMPLE_COUNTS = (2, 3, 10, 30, 1000, 10**6)


@pytest.mark.parametrize("confidence", CONFIDENCES)
@pytest.mark.parametrize("n_samples", SAMPLE_COUNTS)
def test_t_critical_equals_scipy_stats(confidence, n_samples):
    alpha = 1.0 - confidence
    expected = float(stats.t.ppf(1.0 - alpha / 2.0, df=n_samples - 1))
    assert t_critical(confidence, n_samples) == expected


def test_t_critical_equals_scipy_stats_for_every_small_df():
    for n_samples in range(2, 502):
        expected = float(stats.t.ppf(1.0 - 0.01 / 2.0, df=n_samples - 1))
        assert t_critical(0.99, n_samples) == expected, n_samples


def normal_step(sample_std, target_half_width, confidence):
    """The normal-approximation sample size, computed through scipy.stats."""
    z = float(stats.norm.ppf(0.5 + confidence / 2.0))
    return max(int(math.ceil((z * sample_std / target_half_width) ** 2)), 2)


@pytest.mark.parametrize("confidence", CONFIDENCES)
@pytest.mark.parametrize("ratio", (0.3, 1.0, 7.0, 123.456, 2e3))
def test_required_samples_normal_step_equals_scipy_stats(confidence, ratio):
    expected = normal_step(ratio, 1.0, confidence)
    # With max_samples=1 the normal step itself is refused, and the error
    # names the sample size it computed.
    with pytest.raises(SimulationError, match=r"required sample size (\d+)") as info:
        required_samples(ratio, 1.0, confidence=confidence, max_samples=1)
    assert int(re.search(r"size (\d+)", str(info.value)).group(1)) == expected
    # The refined answer goes through the t quantile at that size.
    t = float(stats.t.ppf(1.0 - (1.0 - confidence) / 2.0, df=expected - 1))
    refined = max(int(math.ceil((t * ratio / 1.0) ** 2)), 2)
    assert required_samples(ratio, 1.0, confidence=confidence) == refined


SHAPES = (0.05, 0.5, 1.0, 2.0, 3.0, 7.5, 40.0, 1e3)
SCALES = (1e-3, 1.0, 24.0, 8760.0)
QUANTILES = (1e-12, 1e-6, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999999)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("scale", SCALES)
def test_gamma_percentile_equals_scipy_stats(shape, scale):
    dist = Gamma(shape, scale)
    for q in QUANTILES:
        expected = float(stats.gamma.ppf(q, a=shape, scale=scale))
        assert dist.percentile(q) == expected, q


def test_gamma_percentile_equals_scipy_stats_on_random_inputs():
    rng = np.random.default_rng(20170327)
    for shape, scale, q in zip(
        10.0 ** rng.uniform(-2, 3, 300), 10.0 ** rng.uniform(-2, 4, 300), rng.uniform(0, 1, 300)
    ):
        expected = float(stats.gamma.ppf(q, a=shape, scale=scale))
        assert Gamma(shape, scale).percentile(q) == expected, (shape, scale, q)
