"""Frozen reference: the admissibility screen on the correlation r that the
IIA pipeline ran before it screened the clipped covariance instead, kept in
its finite-difference form (the form that served tabulated r).

Its conditions r >= 0, r' <= 0 and r'' >= -r r'^2 / (1 - r^2) are, by the
chain rule, C >= 0, C' <= 0 and C'' >= 0 for C = (2/pi) arcsin r, so its
verdicts must match the sign conditions of the covariance shape screen.
"""

import numpy as np

from switchkit.grid import GridFunction, derivative, second_derivative

# Points with 1 - r^2 below this are excluded from the curvature condition
# (its denominator vanishes with r -> 1 at the origin).
DEGENERACY_FLOOR = 1e-10
# Grid steps from the origin over which the curvature condition is skipped.
EXCLUSION_STEPS = 10


def _worst(excess) -> float:
    idx = int(np.argmax(excess))
    return float(max(excess[idx], 0.0))


def iia_conditions(rv: np.ndarray, h: float) -> dict:
    """Worst violation of each condition on samples ``rv`` of r at t = i h.

    The curvature bound degenerates where r is at its peak (1 - r^2 -> 0), so
    an initial window of ``EXCLUSION_STEPS`` grid steps plus any point with
    1 - r^2 below ``DEGENERACY_FLOOR`` is excluded.
    """
    t = h * np.arange(len(rv))
    rf = GridFunction(h=h, values=rv)
    r1 = derivative(rf).values
    r2 = second_derivative(rf).values
    one_minus_sq = 1.0 - rv * rv
    excluded = (t < EXCLUSION_STEPS * h) | (one_minus_sq < DEGENERACY_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = -(r1 * r1) * rv / one_minus_sq
    margin = np.where(excluded, 0.0, r2 - bound)
    return {
        "nonnegative": _worst(-rv),
        "nonincreasing": _worst(r1),
        "curvature_bound": _worst(-margin),
    }
