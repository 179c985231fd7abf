"""Independent interval approximation for clipped Gaussian processes.

Clipping a zero-mean, unit-variance Gaussian process with correlation r(t)
gives a binary process whose covariance is (2/pi) arcsin(r(t)).  Treating
its sojourn intervals as independent matches that covariance to a
stationary switch process, whose machinery then recovers the approximated
switching-time law.  The screen below gives sufficient conditions on r for
the approximation to produce a genuine probability distribution; the
pipeline reports only this internal admissibility, not the quality of the
independence assumption itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import GeometricCompound, make_tabulated
from .errors import InvalidArgumentError
from .grid import GridFunction, GridSpec, derivative, second_derivative
from .recovery import (
    SIGN_TOL,
    ShapeReport,
    divisor_from_covariance,
    finish_report,
    sign_condition,
    switching_law_from_divisor,
)

# Points with 1 - r^2 below this are excluded from the curvature condition
# (its denominator vanishes with r -> 1 at the origin).
DEGENERACY_FLOOR = 1e-10
# Grid steps from the origin over which the curvature condition is skipped.
EXCLUSION_STEPS = 10


@dataclass(frozen=True)
class GaussianCovariance:
    """Correlation function of the process to be clipped.

    ``d1``/``d2`` are optional analytic first and second derivatives; when
    absent the screen falls back to grid finite differences and says so in
    the report.  r(0) must be 1 (correlation scale) and |r| <= 1.
    """

    fn: Callable
    d1: Callable | None = None
    d2: Callable | None = None
    name: str = ""

    def __call__(self, t):
        return self.fn(t)


@dataclass(frozen=True)
class IIAResult:
    """Output bundle of the pipeline; payload fields are None when the
    admissibility screen fails."""

    screen: ShapeReport
    mu: float | None = None
    clipped: GridFunction | None = None
    divisor_cdf: GridFunction | None = None
    divisor_pdf: GridFunction | None = None
    compound: GeometricCompound | None = None


def clip_covariance(r: GaussianCovariance, grid: GridSpec) -> GridFunction:
    """Covariance of the clipped (sign) process: (2/pi) arcsin(r(t))."""
    vals = np.asarray(r(grid.times()), dtype=float)
    if np.max(np.abs(vals)) > 1.0 + 1e-12:
        raise InvalidArgumentError(
            f"|r| exceeds 1 by more than 1e-12 (max {np.max(np.abs(vals)):.15f}); "
            "not a correlation function"
        )
    clipped = (2.0 / math.pi) * np.arcsin(np.clip(vals, -1.0, 1.0))
    return GridFunction(h=grid.h, values=clipped)


def check_iia_conditions(r: GaussianCovariance, grid: GridSpec) -> ShapeReport:
    """Admissibility screen on r: non-negative, non-increasing, and
    curvature r'' >= -(r')^2 r / (1 - r^2).

    The curvature bound degenerates where r is at its peak (1 - r^2 -> 0),
    so an initial window of ``EXCLUSION_STEPS`` grid steps plus any point
    with 1 - r^2 below the degeneracy floor is excluded and reported.
    """
    t = grid.times()
    rv = np.asarray(r(t), dtype=float)
    notes = []
    if r.d1 is not None and r.d2 is not None:
        r1 = np.asarray(r.d1(t), dtype=float)
        r2 = np.asarray(r.d2(t), dtype=float)
    else:
        rf = GridFunction(h=grid.h, values=rv)
        r1 = derivative(rf).values
        r2 = second_derivative(rf).values
        notes.append("derivatives estimated by grid finite differences")

    one_minus_sq = 1.0 - rv * rv
    excluded = (t < EXCLUSION_STEPS * grid.h) | (one_minus_sq < DEGENERACY_FLOOR)
    if excluded.any():
        notes.append(
            f"curvature condition skipped at {int(excluded.sum())} points "
            f"(initial window of {EXCLUSION_STEPS} steps / near-degenerate 1 - r^2)"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = -(r1 * r1) * rv / one_minus_sq
    margin = np.where(excluded, 0.0, r2 - bound)

    conds = [
        sign_condition("nonnegative", rv, t, upper=False),
        sign_condition("nonincreasing", r1, t, upper=True),
        sign_condition("curvature_bound", margin, t, upper=False),
    ]
    tols = {"nonnegative": SIGN_TOL, "nonincreasing": SIGN_TOL, "curvature_bound": SIGN_TOL}
    return finish_report(conds, tols, (float(rv[0]), float(rv[-1])), notes)


def iia_pipeline(r: GaussianCovariance, grid: GridSpec) -> IIAResult:
    """Screen r, clip it, recover the divisor, and rebuild the approximated
    switching-time law as a 2-geometric compound.

    A failed screen short-circuits: the report comes back with empty
    payloads.  Errors in later stages propagate.
    """
    screen = check_iia_conditions(r, grid)
    if not screen.passed:
        return IIAResult(screen=screen)
    clipped = clip_covariance(r, grid)
    mu, divisor_cdf, divisor_pdf = divisor_from_covariance(clipped)
    divisor = make_tabulated(divisor_pdf)
    compound = switching_law_from_divisor(divisor)
    return IIAResult(screen=screen, mu=mu, clipped=clipped, divisor_cdf=divisor_cdf,
                     divisor_pdf=divisor_pdf, compound=compound)


def diffusion2d_covariance() -> GaussianCovariance:
    """Correlation sech(t/2) of the planar diffusion fixture, with analytic
    derivatives."""

    def fn(t):
        return 1.0 / np.cosh(np.asarray(t) / 2.0)

    def d1(t):
        half = np.asarray(t) / 2.0
        return -0.5 * np.tanh(half) / np.cosh(half)

    def d2(t):
        half = np.asarray(t) / 2.0
        sech = 1.0 / np.cosh(half)
        tanh = np.tanh(half)
        return 0.25 * sech * (tanh * tanh - sech * sech)

    return GaussianCovariance(fn=fn, d1=d1, d2=d2, name="diffusion2d")


def exponential_covariance(scale: float = 1.0) -> GaussianCovariance:
    """Correlation exp(-t/scale) (Ornstein-Uhlenbeck type), analytic
    derivatives."""
    if not scale > 0:
        raise InvalidArgumentError(f"scale must be positive, got {scale}")

    def fn(t):
        return np.exp(-np.asarray(t) / scale)

    def d1(t):
        return -np.exp(-np.asarray(t) / scale) / scale

    def d2(t):
        return np.exp(-np.asarray(t) / scale) / (scale * scale)

    return GaussianCovariance(fn=fn, d1=d1, d2=d2, name=f"exp(scale={scale:g})")


def damped_cosine_covariance(rate: float = 1.0, freq: float = 1.0) -> GaussianCovariance:
    """Correlation cos(freq t) exp(-rate t); oscillates, so it fails the
    admissibility screen (useful as the rejected fixture)."""

    def fn(t):
        t = np.asarray(t)
        return np.cos(freq * t) * np.exp(-rate * t)

    def d1(t):
        t = np.asarray(t)
        return np.exp(-rate * t) * (-rate * np.cos(freq * t) - freq * np.sin(freq * t))

    def d2(t):
        t = np.asarray(t)
        return np.exp(-rate * t) * (
            (rate * rate - freq * freq) * np.cos(freq * t)
            + 2 * rate * freq * np.sin(freq * t)
        )

    return GaussianCovariance(fn=fn, d1=d1, d2=d2, name="damped-cosine")


def tabulated_covariance(table: GridFunction) -> GaussianCovariance:
    """Correlation function backed by a tabulated grid (derivatives by
    finite differences, which the screen will flag)."""
    t = table.times()
    vals = table.values

    def fn(x):
        return np.interp(x, t, vals)

    return GaussianCovariance(fn=fn, name="tabulated")
