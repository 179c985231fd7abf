"""Laplace-domain relations, numerical inversion and the complete
monotonicity screen.

The relations connect three transforms: psi(s) of the switching-time law,
L(E)(s) of the switch-process expected value, and L(C)(s) of the stationary
covariance.  Every function here takes a transform as any vectorized
callable s -> value and returns a :class:`LaplaceFunction`.

Inversion uses the fixed Talbot contour.  The contour weights grow like
exp(2M/5), so at the default node count the sum is accumulated in extended
precision (clongdouble); plain double precision would lose ~5 digits to
cancellation at M=64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .grid import GridFunction, GridSpec

_EPS = float(np.finfo(float).eps)

# 40 log-spaced points spanning [1e-2, 1e2] straddle both the small-s and
# large-s behavior of a transform.
CM_S_GRID = tuple(np.logspace(-2, 2, 40))

# Grid times inverted per step of invert_laplace.  A step holds a few
# (block x nodes) clongdouble arrays, 2 MB each at 64 nodes, where the whole
# grid would need 41 MB each at n = 20 001 and 2 GB at n = 10^6.
_INVERT_BLOCK = 1024


@dataclass(frozen=True)
class LaplaceFunction:
    """An evaluable transform s -> value.

    Evaluators must be pure and vectorized and should accept complex input
    with positive real part (required for contour inversion).
    """

    fn: object

    def __call__(self, s):
        return self.fn(s)


def geometric_map(psi, q: float) -> LaplaceFunction:
    """G_q(psi)(s) = q psi(s) / (1 - (1 - q) psi(s)).

    The maps compose by multiplying q, G_q(G_p(psi)) = G_{qp}(psi): the
    Geometric(1/r) compound of psi is q = 1/r, its r-geometric divisor q = r,
    and the order-u reduction of that divisor q = u/r.
    """

    def fn(s):
        v = psi(s)
        return q * v / (1.0 - (1.0 - q) * v)

    return LaplaceFunction(fn)


def expected_laplace_from_psi(psi) -> LaplaceFunction:
    """L(E)(s) = (1/s) (1 - psi(s)) / (1 + psi(s)).

    Maps the switching-time transform to the transform of the expected value
    of the switch process.  The denominator stays >= 1 for genuine transforms,
    so no guard is needed.
    """

    def fn(s):
        v = psi(s)
        return (1.0 - v) / (1.0 + v) / s

    return LaplaceFunction(fn)


def psi_from_expected_laplace(le) -> LaplaceFunction:
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

    return LaplaceFunction(fn)


def covariance_laplace(le, mu: float) -> LaplaceFunction:
    """L(C)(s) = (1/s) (1 - (2/mu) L(E)(s)) for the stationary covariance."""
    if not (mu > 0 and math.isfinite(mu)):
        raise InvalidArgumentError(f"mu must be positive, got {mu}")

    def fn(s):
        return (1.0 - (2.0 / mu) * le(s)) / s

    return LaplaceFunction(fn)


def _eval_vector(fn, arr: np.ndarray) -> np.ndarray:
    """Evaluate fn on a whole array, as :class:`LaplaceFunction` requires."""
    contract = "Laplace evaluators must be vectorized (see LaplaceFunction)"
    try:
        out = np.asarray(fn(arr))
    except TypeError as exc:
        raise InvalidArgumentError(f"{contract}: {exc}") from exc
    if out.shape != arr.shape:
        raise InvalidArgumentError(f"{contract}: input shape {arr.shape} gave {out.shape}")
    return out


def invert_laplace(fn, grid: GridSpec, nodes: int = 64) -> GridFunction:
    """Fixed-Talbot inversion of ``fn`` on a grid of positive times.

    Each time is handled independently with ``nodes`` contour points, so the
    result is deterministic for a fixed node count and trivially
    grid-point-parallel.  Times are taken ``_INVERT_BLOCK`` at a time, which
    bounds the working memory whatever the grid length.  Points where the
    contour sum is not finite are marked NaN (with a note) instead of
    aborting the whole grid.

    The caller asserts analyticity of ``fn`` to the right of the contour.
    """
    if nodes < 4:
        raise InvalidArgumentError(f"need at least 4 contour nodes, got {nodes}")
    if grid.t0 <= 0:
        raise InvalidArgumentError("inversion grid must start at t0 > 0")
    times = grid.times().astype(np.longdouble)
    M = int(nodes)
    theta = (np.pi * np.arange(M, dtype=np.longdouble)) / M
    cot = np.zeros(M, dtype=np.longdouble)
    cot[1:] = 1.0 / np.tan(theta[1:])
    r = np.longdouble(2 * M) / np.longdouble(5)

    # contour points: p[k] = (r/t) theta_k (cot theta_k + i), p[0] = r/t
    base = theta * (cot + 1j)
    base[0] = 1.0
    weights = 1.0 + 1j * theta[1:] * (1.0 + cot[1:] ** 2) - 1j * cot[1:]
    vals = np.empty(grid.n)
    for lo in range(0, grid.n, _INVERT_BLOCK):
        t = times[lo : lo + _INVERT_BLOCK]
        p = np.multiply.outer(r / t, base).astype(np.clongdouble)
        F = _eval_vector(fn, p).astype(np.clongdouble)

        gamma = np.empty_like(p)
        gamma[:, 0] = 0.5 * np.exp(p[:, 0] * t)
        gamma[:, 1:] = np.exp(p[:, 1:] * t[:, None]) * weights[None, :]

        # non-finite transform values propagate to per-point NaN markers below
        with np.errstate(invalid="ignore", over="ignore"):
            block = (2.0 / (5.0 * t)) * np.sum(gamma * F, axis=1).real
        vals[lo : lo + _INVERT_BLOCK] = block
    finite = np.isfinite(vals)
    if finite.all():
        return GridFunction(t0=grid.t0, h=grid.h, values=vals)
    vals = np.where(finite, vals, np.nan)
    note = f"inversion failed at {int((~finite).sum())} of {grid.n} grid points (NaN markers)"
    return GridFunction(t0=grid.t0, h=grid.h, values=vals, notes=(note,), nan_ok=True)


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
    tolerance: float = 1e-7

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_order_checked": self.max_order_checked,
            "worst_violation": self.worst_violation,
            "violation_points": [list(p) for p in self.violation_points],
            "tolerance": self.tolerance,
        }


def cm_check(fn, s_grid=CM_S_GRID, max_order: int = 6, tol: float = 1e-7,
             noise_guard: float = 1e3) -> CMReport:
    """Screen (-1)^n f^(n)(s) >= 0 for n = 0..max_order over an s grid.

    Derivatives are approximated by central alternating differences with
    step max(1e-2*s, 1e-3).  An n-th difference carries rounding noise of
    order 2^n * eps * |f| before division by h^n, which at high order and
    small s dwarfs the true derivative; each comparison therefore subtracts
    a noise allowance of ``noise_guard`` times that floor, so only
    violations that exceed what roundoff can produce are reported.
    Violations are normalized by |f(s)| + 1.

    The order-n stencil visits s + (n/2 - j) h, j = 0..n, which is column
    max_order - n + 2j of the half-step lattice s + (max_order - k) h / 2,
    k = 0..2*max_order; ``fn`` is evaluated once on that lattice.
    """
    if not 0 <= max_order <= 8:  # differences beyond order 8 are pure noise
        raise InvalidArgumentError(f"max_order must lie in [0, 8], got {max_order}")
    s_arr = np.asarray(s_grid, dtype=float)
    if not (s_arr.size and np.all(s_arr > 0)):
        raise InvalidArgumentError("s grid must be non-empty and strictly positive")
    if np.any(np.diff(s_arr) < 0):
        raise InvalidArgumentError("s grid must be ascending")

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
        guard = noise_guard * (2.0**n) * _EPS * scale / h**n
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
