"""Frozen references: the three transform maps that
:func:`switchkit.laplace.geometric_map` replaced, the direct sum that a
tabulated law's transform was before it was split into baby and giant
steps, and the fixed-Talbot inverter that the tests use to read a
transform back in the time domain.

Each map formula is kept verbatim in test code so the single map can be
checked against the closures it replaces: divisor extraction and order
reduction bit for bit, the compound transform to within roundoff (it was
written in a different but algebraically equal form).
"""

from __future__ import annotations

import numpy as np


def divisor(psi, r):
    def fn(s):
        v = psi(s)
        return r * v / (1.0 + (r - 1.0) * v)

    return fn


def reduced(divisor_psi, r, u):
    ratio = u / r

    def fn(s):
        v = divisor_psi(s)
        return ratio * v / (1.0 - (1.0 - ratio) * v)

    return fn


def compound(div_laplace, r):
    def fn(s):
        psi = div_laplace(s)
        with np.errstate(divide="ignore"):
            return 1.0 / (r / psi - (r - 1.0))

    return fn


def tabulated(s, t, wv):
    """Trapezoid transform of a table: the sum of wv[k] e^{-s t_k}, one
    exponential per table point and s-value."""
    return np.exp(-np.multiply.outer(s, t)) @ wv


def talbot(fn, t):
    """Fixed-Talbot inversion of the vectorized transform ``fn`` at the
    positive times ``t``, 64 contour nodes per time.

    The contour weights grow like exp(2M/5), so the sum is accumulated in
    extended precision (clongdouble); double precision would lose ~5 digits
    to cancellation.  Times where the transform or the sum is not finite
    come back NaN, with no floating-point warning.
    """
    t = np.asarray(t).astype(np.longdouble)
    M = 64
    theta = (np.pi * np.arange(M, dtype=np.longdouble)) / M
    cot = np.zeros(M, dtype=np.longdouble)
    cot[1:] = 1.0 / np.tan(theta[1:])
    r = np.longdouble(2 * M) / np.longdouble(5)
    # contour points: p[k] = (r/t) theta_k (cot theta_k + i), p[0] = r/t
    base = theta * (cot + 1j)
    base[0] = 1.0
    p = np.multiply.outer(r / t, base).astype(np.clongdouble)
    gamma = np.empty_like(p)
    gamma[:, 0] = 0.5 * np.exp(p[:, 0] * t)
    weights = 1.0 + 1j * theta[1:] * (1.0 + cot[1:] ** 2) - 1j * cot[1:]
    gamma[:, 1:] = np.exp(p[:, 1:] * t[:, None]) * weights[None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        F = np.asarray(fn(p)).astype(np.clongdouble)
        vals = (2.0 / (5.0 * t)) * np.sum(gamma * F, axis=1).real
    vals = vals.astype(float)
    return np.where(np.isfinite(vals), vals, np.nan)
