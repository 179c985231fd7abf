"""Independent interval approximation for clipped Gaussian processes.

Clipping a zero-mean, unit-variance Gaussian process with correlation r(t)
gives a binary process whose covariance is C = (2/pi) arcsin(r(t)).
Treating its sojourn intervals as independent matches that covariance to a
stationary switch process, whose machinery then recovers the approximated
switching-time law.

The approximation yields a genuine law exactly when C is non-negative,
non-increasing and convex.  By the chain rule these are the conditions
r >= 0, r' <= 0 and r'' >= -r r'^2 / (1 - r^2) on r, so the pipeline screens
the clipped covariance once, with the same shape screen as divisor recovery
from any covariance.  It reports only this internal admissibility, not the
quality of the independence assumption itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import GeometricCompound, make_geometric_compound, make_tabulated
from .errors import InvalidArgumentError
from .grid import GridFunction, GridSpec
from .recovery import ShapeReport, _covariance_route

# |r| may exceed one by this much (roundoff) before it is no correlation.
CORRELATION_TOL = 1e-12


@dataclass(frozen=True)
class GaussianCovariance:
    """Correlation function of the process to be clipped: r(0) must be 1
    (correlation scale) and |r| <= 1."""

    fn: Callable
    name: str = ""

    def __call__(self, t):
        return self.fn(t)


@dataclass(frozen=True)
class IIAResult:
    """Output bundle of the pipeline; ``screen`` is the passing shape report
    of the clipped covariance."""

    screen: ShapeReport
    mu: float
    clipped: GridFunction
    divisor_cdf: GridFunction
    divisor_pdf: GridFunction
    compound: GeometricCompound


def clip_covariance(r: GaussianCovariance, grid: GridSpec) -> GridFunction:
    """Covariance of the clipped (sign) process: (2/pi) arcsin(r(t))."""
    vals = np.asarray(r(grid.times()), dtype=float)
    if np.max(np.abs(vals)) > 1.0 + CORRELATION_TOL:
        raise InvalidArgumentError(
            f"|r| exceeds 1 by more than {CORRELATION_TOL:g} "
            f"(max {np.max(np.abs(vals)):.15f}); not a correlation function"
        )
    clipped = (2.0 / math.pi) * np.arcsin(np.clip(vals, -1.0, 1.0))
    return GridFunction(h=grid.h, values=clipped)


def iia_pipeline(r: GaussianCovariance, grid: GridSpec) -> IIAResult:
    """Clip r, recover the divisor from the clipped covariance as
    :func:`~switchkit.recovery.divisor_from_covariance` does, and rebuild the
    approximated switching-time law as a 2-geometric compound.

    A clipped covariance that fails the shape screen raises ShapeCheckError
    with the report attached; errors in later stages propagate.
    """
    clipped = clip_covariance(r, grid)
    screen, mu, divisor_cdf, divisor_pdf = _covariance_route(clipped)
    compound = make_geometric_compound(make_tabulated(divisor_pdf), r=2.0)
    return IIAResult(screen=screen, mu=mu, clipped=clipped, divisor_cdf=divisor_cdf,
                     divisor_pdf=divisor_pdf, compound=compound)


def diffusion2d_covariance() -> GaussianCovariance:
    """Correlation sech(t/2) of the planar diffusion fixture."""

    def fn(t):
        # cosh overflows past t ~ 1420, where sech < 1e-308 and 1/inf = 0
        with np.errstate(over="ignore"):
            return 1.0 / np.cosh(np.asarray(t) / 2.0)

    return GaussianCovariance(fn=fn, name="diffusion2d")


def exponential_covariance() -> GaussianCovariance:
    """Correlation exp(-t) (Ornstein-Uhlenbeck type)."""
    return GaussianCovariance(fn=lambda t: np.exp(-np.asarray(t)), name="exp(scale=1)")


def damped_cosine_covariance() -> GaussianCovariance:
    """Correlation cos(t) exp(-t); it oscillates, so its clipped covariance
    fails the shape screen (the rejected fixture)."""

    def fn(t):
        t = np.asarray(t)
        return np.cos(t) * np.exp(-t)

    return GaussianCovariance(fn=fn, name="damped-cosine")
