"""Laplace-domain relations.

The relations connect three transforms: psi(s) of the switching-time law,
L(E)(s) of the switch-process expected value, and L(C)(s) of the stationary
covariance.  Every function here takes a transform as any vectorized
callable s -> value and returns one.  Evaluators must be pure and vectorized;
the maps accept real or complex s.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError

# |s L(E)(s)| may exceed one by this much (roundoff) before
# psi_from_expected_laplace marks the point NaN.
PRODUCT_RANGE_TOL = 1e-12


def geometric_map(psi, q: float):
    """G_q(psi)(s) = q psi(s) / (1 - (1 - q) psi(s)).

    The maps compose by multiplying q, G_q(G_p(psi)) = G_{qp}(psi): the
    Geometric(1/r) compound of psi is q = 1/r, its r-geometric divisor q = r,
    and the order-u reduction of that divisor q = u/r; q must be in (0, inf).
    """
    if not (q > 0 and math.isfinite(q)):
        raise InvalidArgumentError(f"q must be in (0, inf), got {q}")

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

    For real s the product s*L(E)(s) must lie in [-1, 1]; one vectorized call
    over many s marks the points violating that NaN rather than raising.
    """

    def fn(s):
        s_arr = np.asarray(s)
        prod = s_arr * le(s)
        out = (1.0 - prod) / (1.0 + prod)
        if not np.iscomplexobj(prod):
            bad = np.abs(prod) > 1.0 + PRODUCT_RANGE_TOL
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
