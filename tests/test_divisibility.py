import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transform_oracle
from switchkit import (
    GridFunction,
    GridSpec,
    InvalidArgumentError,
    SwitchingDistribution,
    derivative,
    expected_value_series,
    gd_check,
    geometric_map,
    make_exponential,
    make_gamma,
    make_geometric_compound,
    make_tabulated,
    tabulate_pdf,
)
from switchkit.divisibility import TIME_POINTS, TIME_SPAN_MEANS, ZERO_TOL, divisor_density

S_PROBES = (0.1, 1.0, 10.0)
REAL_NODES = np.logspace(-3, 3, 25)
# fixed-Talbot contour points (25.6/t) theta (cot theta + i) for t = 0.1, 1
# and 10: complex nodes on both sides of the imaginary axis, as
# transform_oracle.talbot visits them
_THETA = np.linspace(0.05, 3.1, 40)
COMPLEX_NODES = np.multiply.outer(25.6 / np.array([0.1, 1.0, 10.0]),
                                  _THETA * (1.0 / np.tan(_THETA) + 1j))


def test_divisor_of_exponential_is_faster_exponential(exp1):
    # dividing a rate-1 exponential by 2 gives the rate-2 exponential
    div = geometric_map(exp1.laplace, 2.0)
    assert math.isclose(div(2.0), 0.5, rel_tol=1e-12)
    for s in S_PROBES:
        assert math.isclose(div(s), 2.0 / (2.0 + s), rel_tol=1e-12)


def test_divisor_normalized_at_zero(exp1, gamma22):
    for dist in (exp1, gamma22):
        for r in (1.5, 2.0, 7.0):
            assert math.isclose(geometric_map(dist.laplace, r)(0.0), 1.0, rel_tol=1e-12)


def test_divisor_gamma_value(gamma22):
    div = geometric_map(gamma22.laplace, 2.0)
    assert math.isclose(div(1.0), 0.2, rel_tol=1e-12)


def test_divisor_requires_r_above_one(exp1):
    with pytest.raises(InvalidArgumentError, match="r must be finite and > 1, got 1.0"):
        gd_check(exp1, 1.0)


# -- gd_check -----------------------------------------------------------------


def test_gd_check_exponential_passes(exp1):
    report = gd_check(exp1, 2.0)
    assert report.passed
    assert math.isclose(report.laplace_at_zero, 1.0, abs_tol=1e-9)


def test_gd_check_gamma_fails(gamma22):
    report = gd_check(gamma22, 2.0)
    assert not report.passed
    assert report.time_domain["refuted"]


def test_gd_check_compound_recovers_divisor(compound2):
    report = gd_check(compound2, 2.0)
    assert report.passed
    # extraction at the construction order returns the divisor transform
    extracted = geometric_map(compound2.laplace, 2.0)
    want = make_exponential(2.0).laplace
    for s in S_PROBES:
        assert math.isclose(extracted(s), want(s), abs_tol=1e-10)


def test_gd_check_json(gamma22):
    obj = gd_check(gamma22, 2.0).to_json_dict()
    assert obj["passed"] is False
    assert obj["r"] == 2.0
    assert set(obj) == {"r", "passed", "laplace_at_zero", "zero_tolerance", "time_domain"}
    td = obj["time_domain"]
    assert set(td) == {"s_star", "t_end", "h", "min", "t_min", "refuted", "reason"}
    # psi(s*) = (1 + 2 s*)^-2 = 1/2
    assert math.isclose(td["s_star"], (math.sqrt(2.0) - 1.0) / 2.0, rel_tol=1e-9)
    span = TIME_SPAN_MEANS * min(gamma22.mean, 1.0 / td["s_star"])
    assert td["h"] == [span / 4000, span / 8000]
    assert math.isclose(td["t_end"], span, rel_tol=1e-12)  # nothing above 2/h
    assert td["refuted"] is True and td["min"][1] < 0 and td["reason"] is None


# -- time-domain divisor -----------------------------------------------------------


def _gd_laws():
    return {
        "exp1": make_exponential(1.0),
        "gamma0.5": make_gamma(0.5, 1.0),
        "gamma1.5": make_gamma(1.5, 1.0),
        "gamma2,1": make_gamma(2.0, 1.0),
        "gamma2,2": make_gamma(2.0, 2.0),
        "gamma3": make_gamma(3.0, 1.0),
        "compound2_exp2": make_geometric_compound(make_exponential(2.0), r=2.0),
        "compound3_gamma2": make_geometric_compound(make_gamma(2.0, 1.0), r=3.0),
    }


# laws the former complete-monotonicity screen passed although they are not
# r-divisible: each has a clearly negative divisor density
CM_FALSE_PASSES = [("gamma1.5", 1.25), ("gamma1.5", 1.5), ("gamma1.5", 2.0),
                   ("gamma2,1", 1.25), ("gamma2,1", 1.5), ("gamma2,2", 1.25),
                   ("gamma2,2", 1.5), ("gamma3", 1.25), ("compound3_gamma2", 4.0)]
# compound(3, gamma(2, 1)) is r-divisible for r <= 3 only
DIVISIBLE = ([(name, r) for name in ("exp1", "gamma0.5", "compound2_exp2")
              for r in (1.25, 1.5, 2.0, 3.0, 4.0)]
             + [("compound3_gamma2", r) for r in (1.25, 1.5, 2.0, 3.0)])


@pytest.mark.parametrize("name,r", CM_FALSE_PASSES)
def test_negative_divisor_density_refutes_a_cm_pass(name, r):
    report = gd_check(_gd_laws()[name], r)
    assert report.time_domain["refuted"]
    assert not report.passed


@pytest.mark.parametrize("name,r", DIVISIBLE)
def test_divisible_laws_are_not_refuted(name, r):
    report = gd_check(_gd_laws()[name], r)
    assert report.passed
    assert min(report.time_domain["min"]) >= -1e-14


def test_refuted_divisor_matches_closed_form():
    # gamma(2, 1): divisor density (r/w) e^-t sin(w t), w = sqrt(r - 1), whose
    # minimum on (pi/w, 2 pi/w) is at t = (pi + arctan w)/w; at r = 1e8 that
    # is t ~ 4.71e-4, a scale that a span of 40 means cannot resolve
    for r in (1.5, 1e8):
        td = gd_check(make_gamma(2.0, 1.0), r).time_domain
        w = math.sqrt(r - 1.0)
        t = (math.pi + math.atan(w)) / w
        want = r / w * math.exp(-t) * math.sin(w * t)
        assert abs(td["t_min"] - t) <= td["h"][0]
        assert math.isclose(td["min"][1], want, rel_tol=1e-4, abs_tol=1e-6)


def test_a_roundoff_minimum_is_not_located():
    # exp(rate=0.722751) is 1.65965-divisible; its divisor density's minimum
    # is roundoff (~ -1.4e-16), whose location moves with any roundoff change
    dist, r = make_exponential(0.722751), 1.65965
    td = gd_check(dist, r).time_domain
    assert td["t_min"] is None and not td["refuted"]
    grids = [GridSpec(h=h, n=n) for h, n in zip(td["h"], TIME_POINTS)]
    assert td["min"] == [float(np.min(divisor_density(dist, r, g).values)) for g in grids]
    assert -ZERO_TOL < td["min"][1] < 0


@pytest.mark.parametrize("name", ["exp1", "gamma2,2", "gamma0.5", "compound2_exp2",
                                  "compound3_gamma2"])
def test_order_two_divisor_is_minus_expected_derivative(name):
    # the paper's theorem: the 2-divisor density is -E', with E' taken by
    # central differences of E.  On t >= 0.05 the gap measured at most
    # 1.21 h^2 (exp1 and compound2_exp2), and fell 4x per halving of h for
    # all four regular laws.  gamma0.5's singular origin makes its gap order
    # 1/2 (7.8e-2 at h = 2.5e-3, at t = 0.05), so its bound is that gap
    dist = _gd_laws()[name]
    grid = GridSpec(h=40.0 * dist.mean / 8000, n=8001)
    late = grid.times() >= 0.05
    dE = derivative(expected_value_series(dist, grid)).values
    gap = divisor_density(dist, 2.0, grid).values + dE
    assert np.max(np.abs(gap[late])) <= (0.1 if name == "gamma0.5" else 2.0 * grid.h**2)


def test_unresolvable_divisor_is_not_refuted():
    # exp(1) at r = 1e4 is divisible (divisor exp(1e4)): its decay is far
    # below the step of a span of 40 means, but at the divisor's own scale,
    # 40/s* with s* = r - 1, the density is resolved and not refuted
    report = gd_check(make_exponential(1.0), 1e4)
    td = report.time_domain
    assert math.isclose(td["s_star"], 1e4 - 1.0, rel_tol=1e-9)
    assert td["min"] is not None and td["reason"] is None
    assert min(td["min"]) >= -ZERO_TOL and not td["refuted"]
    assert report.passed


@pytest.mark.xfail(strict=True, reason=(
    "ZERO_TOL is absolute: at r = 1e12 the divisor density of exp(1) is near 1e12 at "
    "the origin and its roundoff dips to -4.1e-4, which refutes a divisible law "
    "(ROADMAP items 8 and 9)"))
def test_exponential_is_not_refuted_at_r_1e12():
    # exp(1) is r-divisible for every r, its divisor exp(r); it passes at r = 1e8
    assert gd_check(make_exponential(1.0), 1e12).passed


@pytest.mark.xfail(strict=True, reason=(
    "the 2/h cut reads the divisor's growth as decay that outruns the step: the divisor "
    "transform has poles at 0.565 +- 0.248i, so the density grows like e^(0.565 t) and "
    "first changes sign near pi/0.248 = 12.7, but the span is cut at 12.69 with minima "
    "-1.5e-10 and -2.4e-10 (ROADMAP items 8 and 9)"))
def test_a_large_shape_gamma_is_refuted_at_r_1e4():
    # gamma(a, 1) is r-divisible for no r when a > 1; the poles of G_r(psi)
    # are s = (r - 1)^(1/a) e^(+-i pi/a) - 1
    assert not gd_check(make_gamma(20.0, 1.0), 1e4).passed


def test_gd_check_without_a_density_is_refused(exp1):
    transform_only = SwitchingDistribution(name="transform", mean=1.0, laplace=exp1.laplace)
    with pytest.raises(InvalidArgumentError, match="no density"):
        gd_check(transform_only, 2.0)


def test_a_divisor_past_2_over_h_is_cut_not_skipped():
    # gamma(5, 1) at r = 1e8 exceeds 2/h inside its span; the causal solve
    # is kept up to there, where its first negative lobe already lies
    dist = make_gamma(5.0, 1.0)
    td = gd_check(dist, 1e8).time_domain
    (h0, h1), (n0, n1) = td["h"], TIME_POINTS
    x0 = divisor_density(dist, 1e8, GridSpec(h=h0, n=n0)).values
    x1 = divisor_density(dist, 1e8, GridSpec(h=h1, n=n1)).values
    cut = round(td["t_end"] / h1) + 1  # h/2-grid points kept; coarse point j is point 2j
    kept0, kept1 = x0[: (cut + 1) // 2], x1[:cut]
    assert cut < n1 and h0 * np.max(np.abs(kept0)) <= 2 and h1 * np.max(np.abs(kept1)) <= 2
    assert h1 * abs(x1[cut]) > 2 or (cut % 2 == 0 and h0 * abs(x0[cut // 2]) > 2)
    assert td["min"] == [np.min(kept0), np.min(kept1)] and td["refuted"]


def _exp2_table():
    t = np.arange(40_001) * 1e-3
    return make_tabulated(GridFunction(h=1e-3, values=2.0 * np.exp(-2.0 * t)))


@pytest.mark.parametrize("r", [1e4, 1e8])
def test_a_table_without_s_star_is_undecided(r):
    # a table's trapezoid transform levels off at h f(0)/2 = 1e-3, so
    # psi(s) = 1/r has no root: nothing is solved and nothing refuted
    start = time.perf_counter()
    report = gd_check(_exp2_table(), r)
    assert time.perf_counter() - start < 5.0
    td = report.time_domain
    assert td["s_star"] is None and td["min"] is None and td["reason"] == "no s*"
    assert not td["refuted"] and report.passed


def test_a_divisor_no_span_can_solve_is_undecided():
    # a density of 1e300 e^-t overflows the solve's residual to NaN on every
    # span, so nothing is solved and nothing refuted
    huge = SwitchingDistribution(name="huge", mean=1.0, laplace=lambda s: 1.0 / (1.0 + s),
                                 pdf=lambda t: 1e300 * np.exp(-np.asarray(t)))
    report = gd_check(huge, 2.0)
    td = report.time_domain
    assert td["reason"] == "residual" and not td["refuted"] and report.passed
    assert td["t_end"] is td["h"] is td["min"] is td["t_min"] is None


def test_a_table_at_its_own_scale_is_refuted_at_r_100():
    # the table's piecewise-linear density, not exp(2), is judged: at r = 100
    # its divisor dips to -5.4e-5 on both grids, which the rule certifies
    td = gd_check(_exp2_table(), 100.0).time_domain
    assert td["refuted"] and td["reason"] is None
    np.testing.assert_allclose(td["min"], [-5.36e-5, -5.37e-5], rtol=2e-3)


# each law with the orders r at which it is divisible: gamma with shape <= 1
# at every r, shape > 1 at none, and compound(3, gamma(2, 1)) for r <= 3
SWEEP_LAWS = {
    **{f"gamma{a:g}": (lambda a=a: make_gamma(a, 1.0), lambda r, a=a: a <= 1)
       for a in (0.5, 0.8, 1.0, 1.5, 2.0, 3.0, 5.0)},
    "compound3_gamma2": (lambda: make_geometric_compound(make_gamma(2.0, 1.0), r=3.0),
                         lambda r: r <= 3),
    "compound2_gamma0.5": (lambda: make_geometric_compound(make_gamma(0.5, 1.0), r=2.0),
                           lambda r: True),
}
SWEEP_R = (1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0, 1e4, 1e8)


@pytest.mark.parametrize("r", SWEEP_R)
@pytest.mark.parametrize("name", list(SWEEP_LAWS))
def test_divisibility_verdict_matches_the_analytic_truth(name, r):
    law, divisible = SWEEP_LAWS[name]
    report = gd_check(law(), r)
    assert report.passed is divisible(r)
    assert report.time_domain["reason"] is None


@pytest.mark.parametrize("name", ["gamma0.5", "gamma0.8", "compound2_gamma0.5"])
def test_singular_laws_at_r_1e8_are_decided(name):
    # their divisor densities reach 1e17, 3e10 and 3e16 next to the origin;
    # the renewal residual is judged relative to the right-hand side, so the
    # span is decided, and the density is non-negative on both grids
    td = gd_check(SWEEP_LAWS[name][0](), 1e8).time_domain
    assert td["reason"] is None and not td["refuted"]
    assert min(td["min"]) >= 0.0


# -- compound/extract identity ---------------------------------------------------


@pytest.mark.parametrize("r", [2.0, 3.0, 5.5])
def test_compound_then_extract_is_identity(gamma22, r):
    comp = make_geometric_compound(gamma22, r=r)
    extracted = geometric_map(comp.laplace, r)
    for s in S_PROBES:
        assert math.isclose(extracted(s), gamma22.laplace(s), abs_tol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(min_value=1.01, max_value=20.0),
    shape=st.floats(min_value=0.3, max_value=6.0),
    s=st.floats(min_value=1e-2, max_value=30.0),
)
def test_compound_extract_identity_random_orders(r, shape, s):
    divisor = make_gamma(shape, 1.0)
    comp = make_geometric_compound(divisor, r=r)
    extracted = geometric_map(comp.laplace, r)
    assert math.isclose(float(extracted(s)), float(divisor.laplace(s)),
                        rel_tol=1e-10, abs_tol=1e-13)


# -- order reduction -------------------------------------------------------------


def test_reduce_order_identity_at_u_equals_r(exp1):
    div = geometric_map(exp1.laplace, 2.0)
    reduced = geometric_map(div, 2.0 / 2.0)
    for s in S_PROBES:
        assert math.isclose(reduced(s), div(s), abs_tol=1e-14)


def test_reduce_order_matches_direct_extraction(exp1):
    # reducing a known order-2 divisor to order 1.5 must agree with
    # extracting the order-1.5 divisor from scratch
    div2 = geometric_map(exp1.laplace, 2.0)
    reduced = geometric_map(div2, 1.5 / 2.0)
    direct = geometric_map(exp1.laplace, 1.5)
    for s in S_PROBES:
        assert math.isclose(reduced(s), direct(s), abs_tol=1e-12)


def test_geometric_map_refuses_q_outside_the_positive_reals(exp1):
    for q in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidArgumentError, match=f"q must be finite and > 0, got {q}"):
            geometric_map(exp1.laplace, q)


# -- set monotonicity ----------------------------------------------------------------


def test_membership_survives_order_reduction(exp1):
    # passing at r implies passing at every smaller order u in (1, r]
    assert gd_check(exp1, 2.0).passed
    for u in (1.25, 1.5, 2.0):
        assert gd_check(exp1, u).passed


# -- one geometric map ------------------------------------------------------------


def _map_laws():
    gamma2 = make_gamma(2.0, 1.0)
    return {
        "exp": make_exponential(1.0),
        "gamma2": gamma2,
        "gamma0.6": make_gamma(0.6, 1.0),
        "compound": make_geometric_compound(gamma2, r=3.0),
        "tabulated": make_tabulated(tabulate_pdf(gamma2, GridSpec.from_t_end(40.0, 0.01))),
    }


# The tabulated law's truncated transform overflows at the nodes with
# Re(s) << 0, which transform_oracle.talbot marks NaN; there both sides must
# agree on the non-finite values, which the array comparisons treat as equal.
_OVERFLOW_OK = dict(over="ignore", invalid="ignore")


@pytest.mark.parametrize("name", list(_map_laws()))
def test_divisor_and_reduction_equal_frozen_closures(name):
    psi = _map_laws()[name].laplace
    for s in (REAL_NODES, COMPLEX_NODES):
        for r, u in ((2.0, 1.5), (3.0, 3.0), (5.5, 1.01)):
            div = geometric_map(psi, r)
            with np.errstate(**_OVERFLOW_OK):
                np.testing.assert_array_equal(div(s), transform_oracle.divisor(psi, r)(s))
                np.testing.assert_array_equal(geometric_map(div, u / r)(s),
                                              transform_oracle.reduced(div, r, u)(s))


@pytest.mark.parametrize("name", list(_map_laws()))
def test_compound_transform_matches_frozen_closure(name):
    law = _map_laws()[name]
    for s in (REAL_NODES, COMPLEX_NODES):
        for r in (1.5, 2.0, 7.0):
            with np.errstate(**_OVERFLOW_OK):
                got = make_geometric_compound(law, r=r).laplace(s)
                want = transform_oracle.compound(law.laplace, r)(s)
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_geometric_maps_compose_by_multiplying_q():
    psi = make_gamma(0.6, 1.0).laplace
    for q, p in ((0.5, 3.0), (0.25, 0.4), (3.0, 1.5)):
        np.testing.assert_allclose(geometric_map(geometric_map(psi, p), q)(COMPLEX_NODES),
                                   geometric_map(psi, q * p)(COMPLEX_NODES), rtol=1e-12)


@pytest.mark.parametrize("u", [1.25, 2.0, 3.0])
def test_reduction_of_a_divisor_is_the_lower_order_divisor(gamma22, u):
    r = 3.0
    got = geometric_map(geometric_map(gamma22.laplace, r), u / r)
    want = geometric_map(gamma22.laplace, u)
    for s in (REAL_NODES, COMPLEX_NODES):
        np.testing.assert_allclose(got(s), want(s), rtol=1e-12)
