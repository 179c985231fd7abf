"""Frozen reference: the truncated convolution-power series that the
renewal solver replaced.

These loops are kept verbatim in test code so the solver can be checked
against the algorithm it replaces.  :func:`geometric_series` is the
q-weighted series that the time-domain geometric map sums; the alternating
loops are its q = 2 case.  They are slow (one grid convolution per
series term) and capped at ``MAX_CONVOLUTIONS`` terms; run them at a tight
``tol`` so their own truncation stays far below the comparison bound.
"""

from __future__ import annotations

import math

import numpy as np

from switchkit import GeometricCompound, GridFunction, GridSpec, ResourceLimitError
from switchkit import tabulate_pdf as _tabulate_pdf
from switchkit.grid import convolve, cumulative_integral, integral

MAX_CONVOLUTIONS = 10_000


def _series_truncation_order(F_end: float, tol: float, prefactor: float = 1.0):
    """(order, guaranteed) for the geometric tail bound
    prefactor * F_end^n / (1 - F_end) <= tol."""
    if F_end <= 0:
        return 1, True
    if F_end >= 1.0 - 1e-12:
        return MAX_CONVOLUTIONS, False
    n = 1
    target = tol / prefactor
    while F_end**n / (1.0 - F_end) > target:
        n += 1
        if n > MAX_CONVOLUTIONS:
            return MAX_CONVOLUTIONS, False
    return n, True


def compound_pdf(dist: GeometricCompound, grid: GridSpec,
                 weight_tol: float = 1e-12) -> GridFunction:
    """f_W = p * sum_{n>=1} (1-p)^(n-1) f~^(n-fold), dropped weight below
    ``weight_tol``."""
    p = 1.0 / dist.r
    q = 1.0 - p
    base = pdf(dist.divisor, grid)
    n_terms = max(1, int(math.ceil(math.log(weight_tol) / math.log(q))))
    acc = np.zeros(grid.n)
    term = base
    weight = p
    for k in range(1, n_terms + 1):
        acc += weight * term.values
        weight *= q
        if k == n_terms or weight / p * float(term.values.max()) <= weight_tol:
            break
        term = convolve(term, base)
    return GridFunction(h=grid.h, values=acc, notes=base.notes)


def pdf(dist, grid: GridSpec) -> GridFunction:
    if isinstance(dist, GeometricCompound):
        return compound_pdf(dist, grid)
    return _tabulate_pdf(dist, grid)


def cdf(dist, grid: GridSpec) -> GridFunction:
    if isinstance(dist, GeometricCompound):
        F = cumulative_integral(compound_pdf(dist, grid))
        return F.with_values(np.minimum(F.values, 1.0))
    return GridFunction(h=grid.h, values=np.asarray(dist.cdf(grid.times()), dtype=float))


def expected_value(dist, grid: GridSpec, tol: float) -> GridFunction:
    """E(t) = 1 + 2 sum_{k>=1} (-1)^k F^(k-fold)(t), tail certified below tol."""
    F = cdf(dist, grid)
    f = pdf(dist, grid)
    F_end = float(F.values[-1])
    n_max, guaranteed = _series_truncation_order(F_end, tol)
    acc = np.zeros(grid.n)
    term = F
    sign = -1.0
    certified = guaranteed
    block = None
    for k in range(1, n_max + 1):
        acc += sign * term.values
        term_end = float(term.values[-1])
        term_max = float(term.values.max())
        if block is None and term_end <= 0.5:
            block = (k, term_end)
        if block is not None and term_max * block[0] / (1.0 - block[1]) <= tol:
            certified = True
            break
        if k == n_max:
            break
        term = convolve(term, f)
        sign = -sign
    if not certified:
        raise ResourceLimitError("oracle series tail not certified")
    return GridFunction(h=grid.h, values=1.0 + 2.0 * acc, notes=f.notes)


def expected_derivative(dist, grid: GridSpec, tol: float) -> GridFunction:
    """E'(t) = 2 sum_{k>=1} (-1)^k f^(k-fold)(t), tail certified below tol."""
    f = pdf(dist, grid)
    F = cdf(dist, grid)
    F_end = float(F.values[-1])
    sup_f = float(f.values.max())
    n_max, guaranteed = _series_truncation_order(F_end, tol, prefactor=max(sup_f, 1e-300))
    acc = np.zeros(grid.n)
    term = f
    sign = -1.0
    certified = guaranteed
    block = None
    for k in range(1, n_max + 1):
        acc += sign * term.values
        cdf_end = float(integral(term))
        if block is None and cdf_end <= 0.5:
            block = (k, cdf_end)
        if block is not None and float(term.values.max()) * block[0] / (1.0 - block[1]) <= tol:
            certified = True
            break
        if k == n_max:
            break
        term = convolve(term, f)
        sign = -sign
    if not certified:
        raise ResourceLimitError("oracle density series tail not certified")
    return GridFunction(h=grid.h, values=2.0 * acc, notes=f.notes)


def geometric_series(f: GridFunction, g: GridFunction, q: float, tol: float) -> GridFunction:
    """q sum_{n>=1} (1-q)^(n-1) g * f^((n-1)-fold) for a density f and
    0 < q < 2 (q = 1 is the single term g), by one grid convolution per
    term.  Convolving with a density does not raise the sup norm, so the
    sum stops once q |1-q|^n sup|term| / (1 - |1-q|) is below ``tol``."""
    ratio = abs(1.0 - q)
    acc = np.zeros(len(g))
    term = g
    weight = q
    for _ in range(MAX_CONVOLUTIONS):
        acc += weight * term.values
        weight *= 1.0 - q
        if abs(weight) * float(np.max(np.abs(term.values))) / (1.0 - ratio) <= tol:
            return g.with_values(acc)
        term = convolve(term, f)
    raise ResourceLimitError("oracle geometric series tail not certified")
