import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transform_oracle
from switchkit import (
    GridSpec,
    InvalidArgumentError,
    SwitchingDistribution,
    divisor_laplace,
    expected_derivative_series,
    gd_check,
    geometric_map,
    make_exponential,
    make_gamma,
    make_geometric_compound,
    make_tabulated,
    reduce_order,
    tabulate_pdf,
)
from switchkit.divisibility import TIME_POINTS, ZERO_TOL, divisor_density

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
    div = divisor_laplace(exp1.laplace, 2.0)
    assert math.isclose(div(2.0), 0.5, rel_tol=1e-12)
    for s in S_PROBES:
        assert math.isclose(div(s), 2.0 / (2.0 + s), rel_tol=1e-12)


def test_divisor_normalized_at_zero(exp1, gamma22):
    for dist in (exp1, gamma22):
        for r in (1.5, 2.0, 7.0):
            assert math.isclose(divisor_laplace(dist.laplace, r)(0.0), 1.0, rel_tol=1e-12)


def test_divisor_gamma_value(gamma22):
    div = divisor_laplace(gamma22.laplace, 2.0)
    assert math.isclose(div(1.0), 0.2, rel_tol=1e-12)


def test_divisor_requires_r_above_one(exp1):
    with pytest.raises(InvalidArgumentError):
        divisor_laplace(exp1.laplace, 1.0)


# -- gd_check -----------------------------------------------------------------


def test_gd_check_exponential_passes(exp1):
    report = gd_check(exp1, 2.0)
    assert report.passed
    assert math.isclose(report.laplace_at_zero, 1.0, abs_tol=1e-9)


def test_gd_check_gamma_fails(gamma22):
    report = gd_check(gamma22, 2.0)
    assert not report.passed
    assert not report.cm_report.passed


def test_gd_check_compound_recovers_divisor(compound2):
    report = gd_check(compound2, 2.0)
    assert report.passed
    # extraction at the construction order returns the divisor transform
    extracted = divisor_laplace(compound2.laplace, 2.0)
    want = make_exponential(2.0).laplace
    for s in S_PROBES:
        assert math.isclose(extracted(s), want(s), abs_tol=1e-10)


def test_gd_check_json(gamma22):
    obj = gd_check(gamma22, 2.0).to_json_dict()
    assert obj["passed"] is False
    assert obj["r"] == 2.0
    assert "cm_report" in obj
    td = obj["time_domain"]
    assert set(td) == {"min", "t_min", "h", "t_end", "refuted"}
    assert td["t_end"] == 40.0 * gamma22.mean
    assert td["h"] == [td["t_end"] / 4000, td["t_end"] / 8000]
    assert td["refuted"] is True and td["min"][1] < 0


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


# laws the complete-monotonicity screen passes although they are not
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
    assert report.cm_report.passed
    assert report.time_domain["refuted"]
    assert not report.passed


@pytest.mark.parametrize("name,r", DIVISIBLE)
def test_divisible_laws_are_not_refuted(name, r):
    report = gd_check(_gd_laws()[name], r)
    assert report.passed
    assert min(report.time_domain["min"]) >= -1e-14


def test_refuted_divisor_matches_closed_form():
    # gamma(2, 1) at r = 1.5: divisor density 1.5 sqrt2 e^-t sin(t/sqrt2),
    # whose minimum on (pi sqrt2, 2 pi sqrt2) is at t = sqrt2 (pi + arctan(1/sqrt2))
    td = gd_check(make_gamma(2.0, 1.0), 1.5).time_domain
    t = math.sqrt(2.0) * (math.pi + math.atan(1.0 / math.sqrt(2.0)))
    want = 1.5 * math.sqrt(2.0) * math.exp(-t) * math.sin(t / math.sqrt(2.0))
    assert abs(td["t_min"] - t) <= td["h"][0]
    assert abs(td["min"][1] - want) <= 1e-6


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
    # the paper's theorem as one computation: the 2-divisor density is -E'
    dist = _gd_laws()[name]
    grid = GridSpec(h=40.0 * dist.mean / 8000, n=8001)
    np.testing.assert_array_equal(divisor_density(dist, 2.0, grid).values,
                                  -expected_derivative_series(dist, grid).values)


def test_unresolvable_divisor_is_not_refuted():
    # exp(1) at r = 1e4 is divisible (divisor exp(1e4)), but its decay is
    # far below the grid step: the grid values oscillate and prove nothing
    report = gd_check(make_exponential(1.0), 1e4)
    assert report.time_domain["min"] is None
    assert report.passed


def test_gd_check_without_a_density_skips_the_time_domain(exp1):
    transform_only = SwitchingDistribution(name="transform", mean=1.0, laplace=exp1.laplace)
    report = gd_check(transform_only, 2.0)
    assert report.passed
    assert report.time_domain["min"] is None and not report.time_domain["refuted"]


# -- compound/extract identity ---------------------------------------------------


@pytest.mark.parametrize("r", [2.0, 3.0, 5.5])
def test_compound_then_extract_is_identity(gamma22, r):
    comp = make_geometric_compound(gamma22, r=r)
    extracted = divisor_laplace(comp.laplace, r)
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
    extracted = divisor_laplace(comp.laplace, r)
    assert math.isclose(float(extracted(s)), float(divisor.laplace(s)),
                        rel_tol=1e-10, abs_tol=1e-13)


# -- reduce_order ------------------------------------------------------------------


def test_reduce_order_identity_at_u_equals_r(exp1):
    div = divisor_laplace(exp1.laplace, 2.0)
    reduced = reduce_order(div, r=2.0, u=2.0)
    for s in S_PROBES:
        assert math.isclose(reduced(s), div(s), abs_tol=1e-14)


def test_reduce_order_matches_direct_extraction(exp1):
    # reducing a known order-2 divisor to order 1.5 must agree with
    # extracting the order-1.5 divisor from scratch
    div2 = divisor_laplace(exp1.laplace, 2.0)
    reduced = reduce_order(div2, r=2.0, u=1.5)
    direct = divisor_laplace(exp1.laplace, 1.5)
    for s in S_PROBES:
        assert math.isclose(reduced(s), direct(s), abs_tol=1e-12)


def test_reduce_order_validates_u(exp1):
    div = divisor_laplace(exp1.laplace, 2.0)
    with pytest.raises(InvalidArgumentError):
        reduce_order(div, r=2.0, u=1.0)
    with pytest.raises(InvalidArgumentError):
        reduce_order(div, r=2.0, u=2.5)


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
            div = divisor_laplace(psi, r)
            with np.errstate(**_OVERFLOW_OK):
                np.testing.assert_array_equal(div(s), transform_oracle.divisor(psi, r)(s))
                np.testing.assert_array_equal(reduce_order(div, r, u)(s),
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
    got = reduce_order(divisor_laplace(gamma22.laplace, r), r, u)
    want = divisor_laplace(gamma22.laplace, u)
    for s in (REAL_NODES, COMPLEX_NODES):
        np.testing.assert_allclose(got(s), want(s), rtol=1e-12)
