"""Frozen reference: the exponential law as it was built before
``make_exponential`` became the shape-1 gamma law under its own name, with
its five closures written out by hand.

The new construction must draw the same bits from the same generator and
agree with this one's density, CDF and transform to roundoff.
"""

import math

import numpy as np

from switchkit.distributions import SwitchingDistribution
from switchkit.errors import InvalidArgumentError


def make_exponential(rate: float) -> SwitchingDistribution:
    """Exponential switching times with the given intensity."""
    if not (rate > 0 and math.isfinite(rate)):
        raise InvalidArgumentError(f"rate must be positive, got {rate}")
    rate = float(rate)

    def pdf(t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0, rate * np.exp(-rate * np.maximum(t, 0.0)), 0.0)

    def cdf(t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0, -np.expm1(-rate * np.maximum(t, 0.0)), 0.0)

    def laplace(s):
        return rate / (rate + np.asarray(s))

    def sampler(rng, size=None):
        return rng.exponential(1.0 / rate, size=size)

    def size_biased(rng, size=None):
        # t * rate e^{-rate t} is a shape-2 gamma density.
        return rng.gamma(2.0, 1.0 / rate, size=size)

    return SwitchingDistribution(
        name=f"exp(rate={rate:g})",
        mean=1.0 / rate,
        laplace=laplace,
        pdf=pdf,
        cdf=cdf,
        sampler=sampler,
        size_biased_sampler=size_biased,
    )
