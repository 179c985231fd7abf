"""Geometric divisibility: the divisor density and the divisibility verdict.

A law is r-geometric divisible when it is a Geometric(1/r) compound of some
positive law, equivalently when the extracted divisor transform
G_r(psi) = r*psi / (1 + (r-1)*psi) is completely monotone and equals one at
s=0.  Extraction (q = r) and order reduction (q = u/r) are both
:func:`~switchkit.laplace.geometric_map`.  By Bernstein's theorem that
transform is completely monotone exactly when the divisor density is
non-negative, so the verdict is a sign test of that density, solved in the
time domain at the divisor's own scale: a clearly negative minimum refutes
divisibility, and a span that cannot be decided refutes nothing.
Non-integer r is permitted throughout.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .distributions import SwitchingDistribution, geometric_base, geometric_map_grid, tabulate_pdf
from .errors import NumericError, _require_above
from .grid import GridFunction, GridSpec
from .laplace import geometric_map

# The time-domain divisor density is solved on
# [0, TIME_SPAN_MEANS * min(mean, 1/s*)], psi(s*) = 1/r, at TIME_POINTS
# points, steps h and h/2; the span halves at most TIME_SPAN_HALVINGS times
# while the solve misses its residual bound.
TIME_SPAN_MEANS = 40.0
TIME_POINTS = (4001, 8001)
TIME_SPAN_HALVINGS = 3
# The divisor transform must equal one at s = 0 to within this; a grid
# divisor density whose minimum, less its step error, is below minus this
# refutes divisibility.
ZERO_TOL = 1e-6


@dataclass(frozen=True)
class DivisibilityReport:
    r: float
    passed: bool
    laplace_at_zero: float
    zero_tolerance: float
    time_domain: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


def divisor_density(dist: SwitchingDistribution, r: float, grid: GridSpec) -> GridFunction:
    """Order-r divisor density on the grid, :func:`geometric_map_grid` of the
    base law; non-negative exactly when ``dist`` is r-geometric divisible."""
    base, q = geometric_base(dist)
    return geometric_map_grid(tabulate_pdf(base, grid), q * r)


def _s_star(dist: SwitchingDistribution, r: float) -> float | None:
    """s* with psi(s*) = 1/r, by bisection in log s on [(1 - 1/r)/mean, e^700]
    (psi(s) >= 1 - s mean puts s* above the lower end); None when psi stays
    above 1/r there, as a table's trapezoid transform does past h f(0)/2."""
    lo, hi = math.log((1.0 - 1.0 / r) / dist.mean), 700.0
    with np.errstate(over="ignore"):
        if dist.laplace(math.exp(hi)) > 1.0 / r:
            return None
        for _ in range(40):  # a bracket ~700 wide in log s: s* to ~1e-9 relative
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if dist.laplace(math.exp(mid)) > 1.0 / r else (lo, mid)
    return math.exp(hi)


def _time_domain(dist: SwitchingDistribution, r: float) -> dict:
    """Minima m_h, m_h/2 of the divisor density on [0, ``t_end``] at steps h
    and h/2 (see TIME_SPAN_MEANS); refuted if m_h/2 + |m_h - m_h/2| < -ZERO_TOL.

    Where the divisor exceeds 2/h its decay outruns the step and the values
    oscillate, but the solve is causal, so both grids keep the span before
    the first such point and ``t_end`` is the span kept.  ``t_min`` locates
    m_h/2 only when it is below -ZERO_TOL: a minimum nearer zero is roundoff.
    Nothing is refuted when ``reason`` says the span was not decided:
    "no s*", or "residual" when every span misses the solve's residual bound.
    """
    s_star = _s_star(dist, r)
    out = {"s_star": s_star, "t_end": None, "h": None, "min": None, "t_min": None,
           "refuted": False, "reason": "no s*" if s_star is None else "residual"}
    if s_star is None:
        return out
    span = TIME_SPAN_MEANS * min(dist.mean, 1.0 / s_star)
    _require_above(f"time span {TIME_SPAN_MEANS:g} * min(mean, 1/s*) "
                   f"({TIME_SPAN_MEANS:g} * min({dist.mean:g}, {1.0 / s_star:g}))", span, 0)
    for k in range(TIME_SPAN_HALVINGS + 1):
        steps = [span / 2**k / (n - 1) for n in TIME_POINTS]
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                xs = [divisor_density(dist, r, GridSpec(h=h, n=n)).values
                      for h, n in zip(steps, TIME_POINTS)]
        except NumericError:
            continue
        # keep the span before the first point past the origin where either
        # grid exceeds 2/h; coarse point j is h/2-grid point 2j
        over = steps[1] * np.abs(xs[1]) > 2.0
        over[::2] |= steps[0] * np.abs(xs[0]) > 2.0
        over[0] = False
        cut = int(np.argmax(over)) if over.any() else len(over)
        coarse, fine = xs[0][: (cut + 1) // 2], xs[1][:cut]
        mins = [float(np.min(coarse)), float(np.min(fine))]
        out.update(t_end=(cut - 1) * steps[1], h=steps, min=mins, reason=None,
                   t_min=int(np.argmin(fine)) * steps[1] if mins[1] < -ZERO_TOL else None,
                   refuted=mins[1] + abs(mins[0] - mins[1]) < -ZERO_TOL)
        return out
    return out


def gd_check(dist: SwitchingDistribution, r: float) -> DivisibilityReport:
    """Whether ``dist`` is r-geometric divisible: the divisor transform is one
    at s=0 to within ``ZERO_TOL`` and its time-domain density is not refuted.

    An r outside (1, inf), or a law without a grid density, raises
    InvalidArgumentError.
    """
    _require_above("r", r, 1)
    at_zero = float(geometric_map(dist.laplace, r)(0.0))
    time_domain = _time_domain(dist, r)
    return DivisibilityReport(
        r=float(r),
        passed=abs(at_zero - 1.0) <= ZERO_TOL and not time_domain["refuted"],
        laplace_at_zero=at_zero,
        zero_tolerance=ZERO_TOL,
        time_domain=time_domain,
    )

