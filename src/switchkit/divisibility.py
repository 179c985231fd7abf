"""Geometric divisibility: divisor extraction, membership screening and
order reduction.

A law is r-geometric divisible when it is a Geometric(1/r) compound of some
positive law, equivalently when the extracted divisor transform
r*psi / (1 + (r-1)*psi) is completely monotone and equals one at s=0.
Extraction and order reduction are both :func:`~switchkit.laplace.geometric_map`.
Membership here is a numerical screen over a finite s grid, so a pass is
"no violation found", not a certification; a clearly negative grid divisor
density refutes it.  Non-integer r is permitted throughout.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .distributions import SwitchingDistribution, geometric_base, geometric_map_grid, tabulate_pdf
from .errors import InvalidArgumentError, NumericError
from .grid import GridFunction, GridSpec
from .laplace import CMReport, cm_check, geometric_map

# The time-domain divisor density is solved on [0, TIME_SPAN_MEANS * mean]
# at TIME_POINTS points, steps h and h/2.
TIME_SPAN_MEANS = 40.0
TIME_POINTS = (4001, 8001)
# The divisor transform must equal one at s = 0 to within this; a grid
# divisor density whose minimum, less its step error, is below minus this
# refutes divisibility.
ZERO_TOL = 1e-6


@dataclass(frozen=True)
class DivisibilityReport:
    r: float
    passed: bool
    cm_report: CMReport
    laplace_at_zero: float
    zero_tolerance: float
    time_domain: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


def divisor_laplace(psi, r: float):
    """Transform of the order-r divisor: r*psi / (1 + (r-1)*psi) = G_r(psi)."""
    if not (r > 1 and math.isfinite(r)):
        raise InvalidArgumentError(f"r must be > 1, got {r}")
    return geometric_map(psi, r)


def divisor_density(dist: SwitchingDistribution, r: float, grid: GridSpec) -> GridFunction:
    """Order-r divisor density on the grid, :func:`geometric_map_grid` of the
    base law; non-negative exactly when ``dist`` is r-geometric divisible."""
    base, q = geometric_base(dist)
    return geometric_map_grid(tabulate_pdf(base, grid), q * r)


def _time_domain(dist: SwitchingDistribution, r: float) -> dict:
    """Minima m_h, m_h/2 of the divisor density on [0, TIME_SPAN_MEANS * mean]
    at TIME_POINTS points (steps h, h/2); refuted if m_h/2 + |m_h - m_h/2| < -ZERO_TOL.
    ``t_min`` locates m_h/2 only when it is below -ZERO_TOL: a minimum nearer
    zero is roundoff, and its location would move with any roundoff change.
    ``min`` is None and nothing is refuted for a law without a grid density,
    a solve over its residual bound (a divisor growing exponentially), or a
    divisor above 2/h: its decay outruns the step, so the values oscillate."""
    t_end = TIME_SPAN_MEANS * dist.mean
    steps = [t_end / (n - 1) for n in TIME_POINTS]
    out = {"min": None, "t_min": None, "h": steps, "t_end": t_end, "refuted": False}
    mins = []
    for h, n in zip(steps, TIME_POINTS):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                x = divisor_density(dist, r, GridSpec(h=h, n=n)).values
        except (InvalidArgumentError, NumericError):
            return out
        if h * np.max(np.abs(x)) / 2 > 1:
            return out
        mins.append(float(np.min(x)))
    out.update(min=mins, t_min=int(np.argmin(x)) * h if mins[1] < -ZERO_TOL else None,
               refuted=mins[1] + abs(mins[0] - mins[1]) < -ZERO_TOL)
    return out


def gd_check(dist: SwitchingDistribution, r: float) -> DivisibilityReport:
    """Screen whether ``dist`` is r-geometric divisible.

    Runs :func:`cm_check` on the extracted divisor transform, checks the s=0
    normalization to within ``ZERO_TOL``, and fails when the time-domain
    divisor density refutes divisibility.
    """
    candidate = divisor_laplace(dist.laplace, r)
    report = cm_check(candidate)
    at_zero = float(candidate(0.0))
    time_domain = _time_domain(dist, r)
    return DivisibilityReport(
        r=float(r),
        passed=report.passed and abs(at_zero - 1.0) <= ZERO_TOL and not time_domain["refuted"],
        cm_report=report,
        laplace_at_zero=at_zero,
        zero_tolerance=ZERO_TOL,
        time_domain=time_domain,
    )


def reduce_order(divisor_psi, r: float, u: float):
    """Transform of the order-u divisor of the same compound law, 1 < u <= r.

    The order-u divisor is itself a (u/r)-geometric compound of the order-r
    divisor: (u/r) psi / (1 - (1 - u/r) psi).
    """
    if not (r > 1 and math.isfinite(r)):
        raise InvalidArgumentError(f"r must be > 1, got {r}")
    if not (1 < u <= r):
        raise InvalidArgumentError(f"u must lie in (1, r], got u={u}, r={r}")
    return geometric_map(divisor_psi, u / r)
