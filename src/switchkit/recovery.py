"""Time-domain relations between the switching-time law, the expected value
function E(t) of the switch process, and the covariance C(t) of its
stationary counterpart.

The expected value is the alternating series over convolution powers of
the distribution function, E = 1 + 2 sum_k (-1)^k F^(k-fold), summed
exactly by one time-domain geometric map
(:func:`switchkit.distributions.geometric_map_grid`).
The bridges are C'(t) = -(2/mu) E(t) with C(0) = 1, integrated or
differentiated on the grid.  For laws whose E is non-negative and
decreasing, the 2-geometric divisor is read off directly: divisor
CDF = 1 - E, divisor density = -E'.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    MASS_TOLERANCE,
    SwitchingDistribution,
    geometric_base,
    geometric_map_grid,
    tabulate_cdf,
    tabulate_pdf,
)
from .divisibility import divisor_density
from .errors import InvalidArgumentError, NumericError, ShapeCheckError
from .grid import (
    GridFunction,
    GridSpec,
    convolve,
    cumulative_integral,
    derivative,
    integral,
    second_derivative,
)

# Sign conditions (monotonicity, convexity, non-negativity) tolerate this
# much numerical wobble; limit conditions (values at the ends) get a looser
# bound since they fight grid truncation, not roundoff.
SIGN_TOL = 1e-6
LIMIT_TOL = 1e-3
# Differentiability proxy: a jump between adjacent samples larger than this
# is treated as a discontinuity.
JUMP_TOL = 0.05
# Relative gap between the slope and integral estimates of mu above which
# divisor_from_covariance refuses.
MU_MISMATCH_TOL = 1e-2
# |E| at the grid end at or above this warns that the mean's tail estimate
# may be biased.
DECAY_THRESHOLD = 1e-4


@dataclass(frozen=True)
class ShapeReport:
    """Verdict of a functional-shape screen.

    ``checked_conditions`` holds (name, worst_violation, location) triples,
    where violation 0 means clean; ``tolerances`` maps each condition to the
    threshold it was compared against; ``limits`` echoes the first and last
    grid values.
    """

    passed: bool
    checked_conditions: tuple[tuple[str, float, float], ...]
    limits: tuple[float, float]
    tolerances: dict = field(default_factory=dict)

    def violation(self, name: str) -> float:
        for cond, worst, _ in self.checked_conditions:
            if cond == name:
                return worst
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checked_conditions": [
                {"name": n, "worst_violation": v, "location": loc}
                for n, v, loc in self.checked_conditions
            ],
            "limits": list(self.limits),
            "tolerances": dict(self.tolerances),
        }


def _screen(g: GridFunction, rows) -> ShapeReport:
    """Shape report on ``g`` from rows (name, tolerance, grid index, worst
    violation); it passes when each violation is within its tolerance."""
    t, v = g.times(), g.values
    conds = tuple((name, float(worst), float(t[i])) for name, _, i, worst in rows)
    tols = {name: tol for name, tol, _, _ in rows}
    return ShapeReport(passed=all(worst <= tols[name] for name, worst, _ in conds),
                       checked_conditions=conds, limits=(float(v[0]), float(v[-1])),
                       tolerances=tols)


def _require(report: ShapeReport, what: str, refusal: str) -> ShapeReport:
    """``report`` if it passed; otherwise a ShapeCheckError naming each failed
    condition with its worst violation, location and tolerance."""
    if report.passed:
        return report
    failed = "; ".join(
        f"{name} violated by {worst:.3e} at t = {loc:.6g} (tolerance {report.tolerances[name]:g})"
        for name, worst, loc in report.checked_conditions if worst > report.tolerances[name]
    )
    raise ShapeCheckError(f"{what} fails the shape screen; {refusal}: {failed}", report=report)


# -- series ----------------------------------------------------------------


def expected_value_series(dist: SwitchingDistribution, grid: GridSpec) -> GridFunction:
    """E(t) = 1 + 2 sum_{k>=1} (-1)^k F^(k-fold)(t) on the grid.

    1 - E is the CDF of the 2-divisor, one :func:`geometric_map_grid` of the
    base law with q doubled (x + (x * f) = 2F, E = 1 - x, for a non-compound).
    A residual above ``grid.RENEWAL_TOL`` raises NumericError.
    """
    base, q = geometric_base(dist)
    x = geometric_map_grid(tabulate_pdf(base, grid), 2.0 * q, tabulate_cdf(base, grid))
    return x.with_values(1.0 - x.values)


def expected_derivative_series(dist: SwitchingDistribution, grid: GridSpec) -> GridFunction:
    """E'(t) = 2 sum_{k>=1} (-1)^k f^(k-fold)(t) on the grid.

    -E' is the density of the 2-divisor (:func:`divisor_density`).  A singular
    density origin is extrapolated and flagged in ``notes``.
    """
    x = divisor_density(dist, 2.0, grid)
    return x.with_values(-x.values)


# -- bridges ----------------------------------------------------------------


def covariance_from_expected(E: GridFunction, mu: float) -> GridFunction:
    """C(t) = 1 - (2/mu) * int_0^t E(u) du."""
    if not (mu > 0 and math.isfinite(mu)):
        raise InvalidArgumentError(f"mu must be positive, got {mu}")
    return E.with_values(1.0 - (2.0 / mu) * cumulative_integral(E).values)


def expected_from_covariance(C: GridFunction, mu: float) -> GridFunction:
    """E(t) = -(mu/2) C'(t)."""
    if not (mu > 0 and math.isfinite(mu)):
        raise InvalidArgumentError(f"mu must be positive, got {mu}")
    return C.with_values(-(mu / 2.0) * derivative(C).values)


def covariance_delay_route(E: GridFunction, F: GridFunction, mu: float) -> GridFunction:
    """Covariance via the forward-delay decomposition
    C = 1 - F_A - (E * f_A), with f_A = (1 - F)/mu.

    Independent of :func:`covariance_from_expected`; the two routes agreeing
    is one of the package's consistency checks.
    """
    if not E.same_grid(F):
        raise InvalidArgumentError("E and F must share a grid")
    if not (mu > 0 and math.isfinite(mu)):
        raise InvalidArgumentError(f"mu must be positive, got {mu}")
    f_A = F.with_values((1.0 - F.values) / mu)
    F_A = cumulative_integral(f_A)
    conv = convolve(E, f_A)
    return E.with_values(1.0 - F_A.values - conv.values)


def mean_from_expected(E: GridFunction) -> float:
    """Switching-time mean via mu = 2 * int_0^inf E(u) du.

    The grid integral is trapezoid; the tail past the grid end is estimated
    by fitting log|E| over the last decade of the grid (t in
    [t_end/10, t_end]) and integrating the fitted exponential.  A
    non-decaying fit is refused: the identity needs E to vanish at
    infinity.  |E| at the grid end of ``DECAY_THRESHOLD`` or more warns.
    """
    t = E.times()
    vals = E.values
    if abs(vals[-1]) >= DECAY_THRESHOLD:
        warnings.warn(
            f"|E| at the grid end is {abs(vals[-1]):.2e} >= {DECAY_THRESHOLD:.0e}; "
            "the mean estimate may be biased by the tail",
            stacklevel=2,
        )
    window = t >= E.t_end / 10.0
    tw, vw = t[window], np.abs(vals[window])
    keep = vw > 1e-300
    if keep.sum() < 3:
        raise NumericError("tail window has too few nonzero samples to fit a decay rate")
    slope, intercept = np.polyfit(tw[keep], np.log(vw[keep]), 1)
    if slope >= 0:
        raise NumericError(
            f"tail of |E| is not decaying (fitted rate {slope:+.3e} per unit time); "
            "refusing to extrapolate the mean integral"
        )
    tail = math.exp(intercept + slope * E.t_end) / (-slope)
    return 2.0 * (integral(E) + tail)


# -- shape screens -----------------------------------------------------------


def check_expected_shape(E: GridFunction) -> ShapeReport:
    """Screen E for: value 1 at the origin, decay to 0, differentiability
    (proxied by the absence of sample-to-sample jumps), and a non-positive
    derivative."""
    v = E.values
    dE = derivative(E).values
    jumps = np.abs(np.diff(v))
    j, i = int(np.argmax(jumps)), int(np.argmax(dE))
    return _screen(E, [
        ("starts_at_one", LIMIT_TOL, 0, abs(v[0] - 1.0)),
        ("decays_to_zero", LIMIT_TOL, -1, abs(v[-1])),
        ("differentiable", JUMP_TOL, j, jumps[j]),
        ("nonincreasing", SIGN_TOL, i, max(0.0, dE[i])),
    ])


def check_covariance_shape(C: GridFunction) -> ShapeReport:
    """Screen C for: non-negativity, non-positive slope, convexity, C(0)=1,
    and decay at the grid end.

    The decay condition is not part of the covariance characterization
    itself but is required for divisor recovery (the recovered density must
    integrate to one), so it is screened here and reported separately.
    """
    v = C.values
    rows = []
    for name, excess in (("nonnegative", -v), ("nonincreasing", derivative(C).values),
                         ("convex", -second_derivative(C).values)):
        i = int(np.argmax(excess))
        rows.append((name, SIGN_TOL, i, max(0.0, excess[i])))
    return _screen(C, rows + [
        ("starts_at_one", LIMIT_TOL, 0, abs(v[0] - 1.0)),
        ("decays_to_zero", LIMIT_TOL, -1, abs(v[-1])),
    ])


# -- divisor recovery --------------------------------------------------------


def _renormalized_density(f: GridFunction, what: str) -> GridFunction:
    mass = integral(f)
    if abs(mass - 1.0) > MASS_TOLERANCE:
        raise NumericError(
            f"{what}: recovered density mass {mass:.6f} is off unit by more than "
            f"{MASS_TOLERANCE}; not renormalizing silently"
        )
    vals = np.maximum(f.values, 0.0) / mass
    return f.with_values(vals)


def _divisor_cdf(E: GridFunction) -> GridFunction:
    """Divisor CDF 1 - E, clipped to [0, 1] and made non-decreasing."""
    return E.with_values(np.maximum.accumulate(np.clip(1.0 - E.values, 0.0, 1.0)))


def divisor_from_expected(E: GridFunction):
    """(divisor CDF, divisor density) read off a monotone expected value
    tabulated from t = 0: CDF = 1 - E (clipped to [0, 1], non-decreasing),
    density = -E'.

    Refuses when the shape screen fails, since the divisor representation
    only exists for non-negative decreasing E.  The density is renormalized
    exactly when its mass is within ``MASS_TOLERANCE`` of one; larger
    discrepancies are errors.
    """
    _require(check_expected_shape(E), "expected value", "no 2-geometric divisor exists")
    f_div = _renormalized_density(E.with_values(-derivative(E).values), "divisor_from_expected")
    return _divisor_cdf(E), f_div


def divisor_from_covariance(C: GridFunction):
    """(mu, divisor CDF, divisor density) from a stationary covariance
    tabulated from t = 0: mu = -2/C'(0), CDF = 1 + (mu/2) C', density = (mu/2) C''.

    The slope at the origin pins mu because the divisor CDF must vanish
    there.  The estimate is cross-validated against the integral identity
    mu = 2 int E with E = -(mu/2) C'; a relative mismatch beyond
    ``MU_MISMATCH_TOL`` raises with both estimates attached.
    """
    return _covariance_route(C)[1:]


def _covariance_route(C: GridFunction):
    """(report, mu, divisor CDF, divisor density): :func:`divisor_from_covariance`
    together with the passing report of its one shape screen."""
    report = _require(check_covariance_shape(C), "covariance", "divisor recovery refused")
    slope0 = float(derivative(C).values[0])
    if not slope0 < 0:
        raise NumericError(f"C'(0) = {slope0:.3e} is not negative; mu is undefined")
    mu = -2.0 / slope0

    E = expected_from_covariance(C, mu)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mu_integral = mean_from_expected(E)
    if abs(mu_integral - mu) > MU_MISMATCH_TOL * mu:
        raise NumericError(
            f"mean cross-validation failed: slope route {mu:.6g}, "
            f"integral route {mu_integral:.6g} (relative mismatch "
            f"{abs(mu_integral - mu) / mu:.3e} > {MU_MISMATCH_TOL:.0e})"
        )

    f_div = _renormalized_density(
        C.with_values((mu / 2.0) * second_derivative(C).values), "divisor_from_covariance"
    )
    # F(0) = 0 exactly: mu was built from the same stencil value of C'(0).
    return report, mu, _divisor_cdf(E), f_div

