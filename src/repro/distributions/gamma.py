"""Gamma (Erlang) time-to-event distribution.

Gamma distributions model multi-stage repair processes: a rebuild that
proceeds through ``k`` sequential exponential phases has an Erlang (integer
shape) distribution.  They are used by the Monte Carlo simulator as an
alternative repair-time model and by the phase-type expansion utilities in
:mod:`repro.markov`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from repro.distributions.base import ArrayLike, Distribution
from repro.exceptions import DistributionError


class Gamma(Distribution):
    """Gamma distribution with ``shape`` (k) and ``scale`` (theta, hours)."""

    name = "gamma"

    def __init__(self, shape: float, scale: float) -> None:
        self._shape = self._require_positive(shape, "shape")
        self._scale = self._require_positive(scale, "scale")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_mean_and_shape(cls, mean_hours: float, shape: float) -> "Gamma":
        """Build a gamma distribution with the given mean and shape."""
        mean_hours = float(mean_hours)
        shape = float(shape)
        if mean_hours <= 0.0 or shape <= 0.0:
            raise DistributionError("mean and shape must be positive")
        return cls(shape=shape, scale=mean_hours / shape)

    @classmethod
    def erlang(cls, stages: int, stage_rate: float) -> "Gamma":
        """Build an Erlang distribution of ``stages`` exponential phases.

        Each phase has rate ``stage_rate`` per hour.
        """
        stages = int(stages)
        if stages < 1:
            raise DistributionError(f"stages must be >= 1, got {stages!r}")
        stage_rate = float(stage_rate)
        if stage_rate <= 0.0:
            raise DistributionError(f"stage_rate must be positive, got {stage_rate!r}")
        return cls(shape=float(stages), scale=1.0 / stage_rate)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def shape(self) -> float:
        """Return the shape parameter ``k``."""
        return self._shape

    @property
    def scale(self) -> float:
        """Return the scale parameter ``theta`` in hours."""
        return self._scale

    # ------------------------------------------------------------------
    # Distribution interface
    # ------------------------------------------------------------------
    def mean(self) -> float:
        return self._shape * self._scale

    def variance(self) -> float:
        return self._shape * self._scale ** 2

    def pdf(self, t: ArrayLike) -> np.ndarray:
        t = self._as_array(t)
        out = np.zeros_like(t, dtype=float)
        pos = t > 0.0
        tp = t[pos]
        k, theta = self._shape, self._scale
        log_pdf = (
            (k - 1.0) * np.log(tp)
            - tp / theta
            - k * math.log(theta)
            - math.lgamma(k)
        )
        out[pos] = np.exp(log_pdf)
        if np.any(t == 0.0):
            if k > 1.0:
                at_zero = 0.0
            elif k == 1.0:
                at_zero = 1.0 / theta
            else:
                at_zero = np.inf
            out = np.where(t == 0.0, at_zero, out)
        return out

    def cdf(self, t: ArrayLike) -> np.ndarray:
        t = self._as_array(t)
        z = np.maximum(t, 0.0) / self._scale
        return np.where(t < 0.0, 0.0, special.gammainc(self._shape, z))

    def percentile(self, q: float, upper: float = 1e12, tol: float = 1e-9) -> float:
        if not 0.0 < q < 1.0:
            raise DistributionError(f"percentile requires 0 < q < 1, got {q!r}")
        # What scipy.stats.gamma.ppf evaluates, bit for bit, without importing
        # scipy.stats.
        return float(special.gammaincinv(self._shape, q) * self._scale)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.gamma(shape=self._shape, scale=self._scale, size=size)

    def __repr__(self) -> str:
        return f"Gamma(shape={self._shape:.6g}, scale={self._scale:.6g})"
