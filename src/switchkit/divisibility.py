"""Geometric divisibility: divisor extraction, membership screening and
order reduction.

A law is r-geometric divisible when it is a Geometric(1/r) compound of some
positive law, equivalently when the extracted divisor transform
r*psi / (1 + (r-1)*psi) is completely monotone and equals one at s=0.
Extraction and order reduction are both :func:`~switchkit.laplace.geometric_map`.
Membership here is a numerical screen over a finite s grid, so a pass is
"no violation found", not a certification.  Non-integer r is permitted
throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import SwitchingDistribution
from .errors import InvalidArgumentError
from .laplace import CMReport, LaplaceFunction, cm_check, geometric_map


@dataclass(frozen=True)
class DivisibilityReport:
    r: float
    passed: bool
    cm_report: CMReport
    laplace_at_zero: float
    zero_tolerance: float = 1e-6

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "passed": self.passed,
            "laplace_at_zero": self.laplace_at_zero,
            "zero_tolerance": self.zero_tolerance,
            "cm_report": self.cm_report.to_json_dict(),
        }


def divisor_laplace(psi, r: float) -> LaplaceFunction:
    """Transform of the order-r divisor: r*psi / (1 + (r-1)*psi) = G_r(psi)."""
    if not (r > 1 and math.isfinite(r)):
        raise InvalidArgumentError(f"r must be > 1, got {r}")
    return geometric_map(psi, r)


def gd_check(dist: SwitchingDistribution, r: float, max_order: int = 6, tol: float = 1e-7,
             zero_tol: float = 1e-6) -> DivisibilityReport:
    """Screen whether ``dist`` is r-geometric divisible.

    Runs ``cm_check(max_order=..., tol=...)`` on the extracted divisor
    transform and checks the s=0 normalization to within ``zero_tol``.
    """
    candidate = divisor_laplace(dist.laplace, r)
    report = cm_check(candidate, max_order=max_order, tol=tol)
    at_zero = float(candidate(0.0))
    passed = report.passed and abs(at_zero - 1.0) <= zero_tol
    return DivisibilityReport(
        r=float(r),
        passed=passed,
        cm_report=report,
        laplace_at_zero=at_zero,
        zero_tolerance=zero_tol,
    )


def reduce_order(divisor_psi, r: float, u: float) -> LaplaceFunction:
    """Transform of the order-u divisor of the same compound law, 1 < u <= r.

    The order-u divisor is itself a (u/r)-geometric compound of the order-r
    divisor: (u/r) psi / (1 - (1 - u/r) psi).
    """
    if not (r > 1 and math.isfinite(r)):
        raise InvalidArgumentError(f"r must be > 1, got {r}")
    if not (1 < u <= r):
        raise InvalidArgumentError(f"u must lie in (1, r], got u={u}, r={r}")
    return geometric_map(divisor_psi, u / r)
