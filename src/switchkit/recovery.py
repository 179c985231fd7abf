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
from .errors import InvalidArgumentError, NumericError, ShapeCheckError, _require_above
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
# Relative gap between the slope mu and 2 int E on the grid above which
# divisor_from_covariance refuses (the grid does not resolve the origin);
# recover --mu is held to the same gap from its table's mu.
MU_MISMATCH_TOL = 1e-2


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


def _screen(g: GridFunction, excesses) -> ShapeReport:
    """Shape report on ``g``: each (name, excess array) sign condition, worst
    excess against ``SIGN_TOL``, then g(0) = 1 and decay at the grid end
    against ``LIMIT_TOL``; it passes when each is within its tolerance."""
    t, v = g.times(), g.values
    rows = []
    for name, excess in excesses:
        i = int(np.argmax(excess))
        rows.append((name, SIGN_TOL, i, max(0.0, excess[i])))
    rows += [("starts_at_one", LIMIT_TOL, 0, abs(v[0] - 1.0)),
             ("decays_to_zero", LIMIT_TOL, -1, abs(v[-1]))]
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


# -- bridges ----------------------------------------------------------------


def covariance_from_expected(E: GridFunction, mu: float) -> GridFunction:
    """C(t) = 1 - (2/mu) * int_0^t E(u) du."""
    _require_above("mu", mu, 0)
    return E.with_values(1.0 - (2.0 / mu) * cumulative_integral(E).values)


def expected_from_covariance(C: GridFunction, mu: float) -> GridFunction:
    """E(t) = -(mu/2) C'(t)."""
    _require_above("mu", mu, 0)
    return C.with_values(-(mu / 2.0) * derivative(C).values)


def covariance_delay_route(E: GridFunction, F: GridFunction, mu: float) -> GridFunction:
    """Covariance via the forward-delay decomposition
    C = 1 - F_A - (E * f_A), with f_A = (1 - F)/mu.

    Independent of :func:`covariance_from_expected`; the two routes agreeing
    is one of the package's consistency checks.
    """
    if not E.same_grid(F):
        raise InvalidArgumentError("E and F must share a grid")
    _require_above("mu", mu, 0)
    f_A = F.with_values((1.0 - F.values) / mu)
    F_A = cumulative_integral(f_A)
    conv = convolve(E, f_A)
    return E.with_values(1.0 - F_A.values - conv.values)


def mean_from_expected(E: GridFunction) -> float:
    """Switching-time mean mu = 2 * int_0^inf E(u) du, the trapezoid integral
    of E on its grid.

    Nothing is added past the grid end, so E must have decayed there: an E
    with |E(t_end)| above ``LIMIT_TOL`` (the E screen's ``decays_to_zero``
    bound) raises NumericError.  Tabulate E past where it has decayed.
    """
    if abs(E.values[-1]) > LIMIT_TOL:
        raise NumericError(
            f"|E| at the grid end t = {E.t_end:.6g} is {abs(E.values[-1]):.3e} > "
            f"{LIMIT_TOL:g}: E has not decayed, so 2 int E is not the mean"
        )
    return 2.0 * integral(E)


# -- shape screens -----------------------------------------------------------


def check_expected_shape(E: GridFunction) -> ShapeReport:
    """Screen E for what the divisor theorem asks: a non-positive derivative,
    E(0) = 1 and decay to 0.  E need not be differentiable: a divisor with an
    atom makes E jump."""
    return _expected_screen(E, derivative(E).values)


def _expected_screen(E: GridFunction, dE: np.ndarray) -> ShapeReport:
    """:func:`check_expected_shape` of E, given E' on its grid."""
    return _screen(E, [("nonincreasing", dE)])


def check_covariance_shape(C: GridFunction) -> ShapeReport:
    """Screen C for: non-negativity, non-positive slope, convexity, C(0)=1,
    and decay at the grid end.

    The decay condition is not part of the covariance characterization
    itself but is required for divisor recovery (the recovered density must
    integrate to one), so it is screened here and reported separately.
    """
    return _covariance_screen(C, derivative(C).values, second_derivative(C).values)


def _covariance_screen(C: GridFunction, dC: np.ndarray, d2C: np.ndarray) -> ShapeReport:
    """:func:`check_covariance_shape` of C, given C' and C'' on its grid."""
    return _screen(C, [("nonnegative", -C.values), ("nonincreasing", dC), ("convex", -d2C)])


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
    """(mu, divisor CDF, divisor density) read off a monotone expected value
    tabulated from t = 0: mu = 2 int E (:func:`mean_from_expected`),
    CDF = 1 - E (clipped to [0, 1], non-decreasing), density = -E'.

    Refuses when the shape screen fails, since the divisor representation
    only exists for non-negative decreasing E.  The density is renormalized
    exactly when its mass is within ``MASS_TOLERANCE`` of one; larger
    discrepancies are errors.
    """
    dE = derivative(E).values
    _require(_expected_screen(E, dE), "expected value", "no 2-geometric divisor exists")
    f_div = _renormalized_density(E.with_values(-dE), "divisor_from_expected")
    return mean_from_expected(E), _divisor_cdf(E), f_div


def divisor_from_covariance(C: GridFunction):
    """(mu, divisor CDF, divisor density) from a stationary covariance
    tabulated from t = 0: mu = -2/C'(0), CDF = 1 + (mu/2) C', density = (mu/2) C''.

    The slope at the origin pins mu because the divisor CDF must vanish
    there.  The check compares that mu with :func:`mean_from_expected` of
    E = -(mu/2) C', which refuses an E that has not decayed.  Their ratio,
    -int C', depends on C alone, so it tests whether the grid resolves the
    origin, not a second estimate of mu.  A relative gap beyond
    ``MU_MISMATCH_TOL`` raises with both values attached.
    """
    return _covariance_route(C)[1:]


def _covariance_route(C: GridFunction):
    """(report, mu, divisor CDF, divisor density): :func:`divisor_from_covariance`
    together with the passing report of its one shape screen."""
    dC, d2C = derivative(C).values, second_derivative(C).values
    report = _require(_covariance_screen(C, dC, d2C), "covariance", "divisor recovery refused")
    if not dC[0] < 0:
        raise NumericError(f"C'(0) = {dC[0]:.3e} is not negative; mu is undefined")
    mu = -2.0 / float(dC[0])

    E = C.with_values(-(mu / 2.0) * dC)
    mu_integral = mean_from_expected(E)
    if abs(mu_integral - mu) > MU_MISMATCH_TOL * mu:
        raise NumericError(
            f"mean cross-validation failed: slope route {mu:.6g}, "
            f"integral route {mu_integral:.6g} (relative mismatch "
            f"{abs(mu_integral - mu) / mu:.3e} > {MU_MISMATCH_TOL:.0e})"
        )

    f_div = _renormalized_density(
        C.with_values((mu / 2.0) * d2C), "divisor_from_covariance"
    )
    # F(0) = 0 exactly: mu was built from the same stencil value of C'(0).
    return report, mu, _divisor_cdf(E), f_div
