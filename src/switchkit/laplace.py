"""Laplace-domain relations, numerical inversion and the complete
monotonicity screen.

The relations connect three transforms: psi(s) of the switching-time law,
L(E)(s) of the switch-process expected value, and L(C)(s) of the stationary
covariance.  Every function here takes a transform as any vectorized
callable s -> value and returns one.  Evaluators must be pure and vectorized
and should accept complex input with positive real part (required for
contour inversion).

Inversion uses the fixed Talbot contour.  The contour weights grow like
exp(2M/5), so the sum is accumulated in extended precision (clongdouble);
plain double precision would lose ~5 digits to cancellation at M=64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

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
# Talbot contour nodes per inverted time point.
TALBOT_NODES = 64

# Times inverted per step of invert_laplace.  A step holds a few
# (block x nodes) clongdouble arrays, 2 MB each at 64 nodes, where all
# times at once would need 41 MB each at 20 001 times and 2 GB at 10^6.
_INVERT_BLOCK = 1024


def geometric_map(psi, q: float):
    """G_q(psi)(s) = q psi(s) / (1 - (1 - q) psi(s)).

    The maps compose by multiplying q, G_q(G_p(psi)) = G_{qp}(psi): the
    Geometric(1/r) compound of psi is q = 1/r, its r-geometric divisor q = r,
    and the order-u reduction of that divisor q = u/r.
    """

    def fn(s):
        v = psi(s)
        return q * v / (1.0 - (1.0 - q) * v)

    return fn


def expected_laplace_from_psi(psi):
    """L(E)(s) = (1/s) (1 - psi(s)) / (1 + psi(s)).

    Maps the switching-time transform to the transform of the expected value
    of the switch process.  The denominator stays >= 1 for genuine transforms,
    so no guard is needed.
    """

    def fn(s):
        v = psi(s)
        return (1.0 - v) / (1.0 + v) / s

    return fn


def psi_from_expected_laplace(le):
    """psi(s) = (1 - s L(E)(s)) / (1 + s L(E)(s)); inverse of
    :func:`expected_laplace_from_psi`.

    For real s the product s*L(E)(s) must lie in [-1, 1]; points violating
    that are marked NaN rather than raising so a scan over s can proceed.
    """

    def fn(s):
        s_arr = np.asarray(s)
        prod = s_arr * le(s)
        out = (1.0 - prod) / (1.0 + prod)
        if not np.iscomplexobj(prod):
            bad = np.abs(prod) > 1.0 + 1e-12
            if np.any(bad):
                out = np.where(bad, np.nan, out)
        return out if np.asarray(s).ndim else out[()]

    return fn


def covariance_laplace(le, mu: float):
    """L(C)(s) = (1/s) (1 - (2/mu) L(E)(s)) for the stationary covariance."""
    if not (mu > 0 and math.isfinite(mu)):
        raise InvalidArgumentError(f"mu must be positive, got {mu}")

    def fn(s):
        return (1.0 - (2.0 / mu) * le(s)) / s

    return fn


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


def invert_laplace(fn, t) -> np.ndarray:
    """Fixed-Talbot inversion of ``fn`` at the positive times ``t`` (1-d).

    Each time is handled independently with ``TALBOT_NODES`` contour points,
    so the result is deterministic and trivially parallel over times.  Times
    are taken ``_INVERT_BLOCK`` at a time, which bounds the working memory
    whatever their number.  The returned array holds NaN where the transform
    or the contour sum is not finite instead of aborting the whole inversion.

    The caller asserts analyticity of ``fn`` to the right of the contour.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim != 1 or not times.size or not np.all((times > 0) & np.isfinite(times)):
        raise InvalidArgumentError("inversion needs a non-empty 1-d array of positive finite times")
    times = times.astype(np.longdouble)
    M = TALBOT_NODES
    theta = (np.pi * np.arange(M, dtype=np.longdouble)) / M
    cot = np.zeros(M, dtype=np.longdouble)
    cot[1:] = 1.0 / np.tan(theta[1:])
    r = np.longdouble(2 * M) / np.longdouble(5)

    # contour points: p[k] = (r/t) theta_k (cot theta_k + i), p[0] = r/t
    base = theta * (cot + 1j)
    base[0] = 1.0
    weights = 1.0 + 1j * theta[1:] * (1.0 + cot[1:] ** 2) - 1j * cot[1:]
    vals = np.empty(len(times))
    for lo in range(0, len(times), _INVERT_BLOCK):
        t = times[lo : lo + _INVERT_BLOCK]
        p = np.multiply.outer(r / t, base).astype(np.clongdouble)
        gamma = np.empty_like(p)
        gamma[:, 0] = 0.5 * np.exp(p[:, 0] * t)
        gamma[:, 1:] = np.exp(p[:, 1:] * t[:, None]) * weights[None, :]

        # transform values that overflow, divide by zero or are otherwise not
        # finite propagate to per-point NaN below
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            F = _eval_vector(fn, p).astype(np.clongdouble)
            block = (2.0 / (5.0 * t)) * np.sum(gamma * F, axis=1).real
        vals[lo : lo + _INVERT_BLOCK] = block
    return np.where(np.isfinite(vals), vals, np.nan)


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
        return {
            "passed": self.passed,
            "max_order_checked": self.max_order_checked,
            "worst_violation": self.worst_violation,
            "violation_points": [list(p) for p in self.violation_points],
            "tolerance": self.tolerance,
        }


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
