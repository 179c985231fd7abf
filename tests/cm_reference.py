"""Frozen reference: the finite-difference complete-monotonicity screen
that ``gd_check`` ran before its verdict became the time-domain sign test of
the divisor density (Bernstein's theorem).  Kept verbatim so that the tests
can still screen a transform over its lattice of s-points: the tabulated
transform is pinned at exactly those points, and every law's transform is
checked to be completely monotone there.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from switchkit import InvalidArgumentError

_EPS = float(np.finfo(float).eps)

# 40 log-spaced points spanning [1e-2, 1e2] straddle both the small-s and
# large-s behavior of a transform.
CM_S_GRID = tuple(np.logspace(-2, 2, 40))
# Highest derivative order the CM screen checks; differences beyond order 8
# are pure noise.
CM_MAX_ORDER = 6
# A normalized sign violation above this fails the CM screen.
CM_TOL = 1e-7
# Multiple of the rounding-noise floor of an n-th difference that the CM
# screen forgives (see cm_check).
CM_NOISE_GUARD = 1e3


def _eval_vector(fn, arr: np.ndarray) -> np.ndarray:
    """Evaluate fn on a whole array, as the module contract requires."""
    contract = "Laplace evaluators must be vectorized (see switchkit.laplace)"
    try:
        out = np.asarray(fn(arr))
    except TypeError as exc:
        raise InvalidArgumentError(f"{contract}: {exc}") from exc
    if out.shape != arr.shape:
        raise InvalidArgumentError(f"{contract}: input shape {arr.shape} gave {out.shape}")
    return out


@dataclass(frozen=True)
class CMReport:
    """Outcome of the alternating-sign derivative screen.

    A pass means "no violation found at the sampled points and orders"; it is
    a necessary-condition screen, never a certification (finite sampling
    cannot certify complete monotonicity).
    """

    passed: bool
    max_order_checked: int
    worst_violation: float
    violation_points: tuple[tuple[float, int], ...]
    tolerance: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def cm_check(fn) -> CMReport:
    """Screen (-1)^n f^(n)(s) >= 0 for n = 0..CM_MAX_ORDER over CM_S_GRID.

    Derivatives are approximated by central alternating differences with
    step max(1e-2*s, 1e-3).  An n-th difference carries rounding noise of
    order 2^n * eps * |f| before division by h^n, which at high order and
    small s dwarfs the true derivative; each comparison therefore subtracts
    a noise allowance of ``CM_NOISE_GUARD`` times that floor, so only
    violations that exceed what roundoff can produce are reported.
    Violations are normalized by |f(s)| + 1 and fail above ``CM_TOL``.

    The order-n stencil visits s + (n/2 - j) h, j = 0..n, which is column
    max_order - n + 2j of the half-step lattice s + (max_order - k) h / 2,
    k = 0..2*max_order; ``fn`` is evaluated once on that lattice.
    """
    s_arr, max_order, tol = np.asarray(CM_S_GRID), CM_MAX_ORDER, CM_TOL
    h = np.maximum(1e-2 * s_arr, 1e-3)
    lattice = (max_order - np.arange(2 * max_order + 1)) / 2.0
    F = _eval_vector(fn, s_arr[:, None] + lattice[None, :] * h[:, None])
    scale = np.abs(F[:, max_order]) + 1.0

    worst = -math.inf
    points: list[tuple[float, int]] = []
    for n in range(max_order + 1):
        cols = max_order - n + 2 * np.arange(n + 1)
        coef = np.array([(-1.0) ** j * math.comb(n, j) for j in range(n + 1)])
        dn = F[:, cols] @ coef  # ~ f^(n)(s) h^n
        signed = ((-1.0) ** n) * dn / h**n
        guard = CM_NOISE_GUARD * (2.0**n) * _EPS * scale / h**n
        viol = (-signed - guard) / scale
        worst = max(worst, float(np.max(viol)))
        for idx in np.nonzero(viol > tol)[0]:
            points.append((float(s_arr[idx]), n))

    return CMReport(
        passed=worst <= tol,
        max_order_checked=max_order,
        worst_violation=worst,
        violation_points=tuple(points),
        tolerance=tol,
    )
