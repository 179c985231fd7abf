import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchkit import (
    GridSpec,
    InvalidArgumentError,
    covariance_laplace,
    expected_laplace_from_psi,
    make_gamma,
    make_geometric_compound,
    make_tabulated,
    psi_from_expected_laplace,
    tabulate_pdf,
)
from cm_reference import CM_MAX_ORDER, CM_S_GRID, cm_check
from transform_oracle import talbot

S_PROBES = (0.1, 1.0, 10.0)


# -- expected_laplace_from_psi -------------------------------------------------


def test_expected_laplace_exponential(exp1):
    le = expected_laplace_from_psi(exp1.laplace)
    # rate-1 switching gives L(E)(s) = 1/(2+s)
    assert math.isclose(le(1.0), 1.0 / 3.0, rel_tol=1e-12)
    for s in S_PROBES:
        assert math.isclose(le(s), 1.0 / (2.0 + s), rel_tol=1e-12)


def test_expected_laplace_gamma(gamma22):
    le = expected_laplace_from_psi(gamma22.laplace)
    # (2+2s)/(1+2s+2s^2) evaluates to 0.8 at s=1
    assert math.isclose(le(1.0), 0.8, rel_tol=1e-12)


def test_expected_laplace_degenerate_instant_switching():
    le = expected_laplace_from_psi(lambda s: np.ones_like(np.asarray(s, dtype=float)))
    assert le(2.0) == 0.0


# -- psi_from_expected_laplace ---------------------------------------------------


def test_psi_recovers_exponential():
    psi = psi_from_expected_laplace(lambda s: 1.0 / (2.0 + s))
    assert math.isclose(psi(1.0), 0.5, rel_tol=1e-12)
    for s in S_PROBES:
        assert math.isclose(psi(s), 1.0 / (1.0 + s), rel_tol=1e-12)


def test_psi_of_zero_is_one():
    psi = psi_from_expected_laplace(lambda s: np.zeros_like(np.asarray(s, dtype=float)))
    assert psi(3.0) == 1.0


def test_round_trip_identity(gamma22):
    psi = psi_from_expected_laplace(expected_laplace_from_psi(gamma22.laplace))
    for s in S_PROBES:
        assert math.isclose(psi(s), gamma22.laplace(s), rel_tol=1e-12)


def test_psi_marks_out_of_range_products_nan():
    # s * L(E)(s) outside [-1, 1] has no valid preimage; marked, not raised
    psi = psi_from_expected_laplace(lambda s: 5.0 * np.ones_like(np.asarray(s, dtype=float)))
    assert np.isnan(psi(2.0))


@settings(max_examples=40, deadline=None)
@given(
    shape=st.floats(min_value=0.2, max_value=8.0),
    scale=st.floats(min_value=0.1, max_value=5.0),
    s=st.floats(min_value=1e-2, max_value=50.0),
)
def test_round_trip_identity_holds_for_random_gammas(shape, scale, s):
    dist = make_gamma(shape, scale)
    back = psi_from_expected_laplace(expected_laplace_from_psi(dist.laplace))
    assert math.isclose(float(back(s)), float(dist.laplace(s)), rel_tol=1e-12, abs_tol=1e-15)


# -- covariance_laplace -----------------------------------------------------------


def test_covariance_laplace_exponential(exp1):
    le = expected_laplace_from_psi(exp1.laplace)
    lc = covariance_laplace(le, mu=1.0)
    assert math.isclose(lc(2.0), 0.25, rel_tol=1e-12)


def test_covariance_laplace_zero_expected_is_heaviside():
    lc = covariance_laplace(lambda s: np.zeros_like(np.asarray(s, dtype=float)), mu=3.0)
    assert math.isclose(lc(4.0), 0.25, rel_tol=1e-12)  # 1/s


def test_covariance_laplace_gamma(gamma22):
    le = expected_laplace_from_psi(gamma22.laplace)
    lc = covariance_laplace(le, mu=4.0)
    assert math.isclose(lc(1.0), 0.6, rel_tol=1e-12)


def test_covariance_laplace_needs_positive_mu(exp1):
    le = expected_laplace_from_psi(exp1.laplace)
    with pytest.raises(InvalidArgumentError):
        covariance_laplace(le, mu=0.0)


# -- the Talbot oracle ------------------------------------------------------------
# transform_oracle.talbot is how the tests read a transform in the time
# domain; these pin its accuracy and its NaN marking.


def _times(t_first, t_last, h):
    """Uniform times from t_first to t_last with step h."""
    return t_first + h * np.arange(round((t_last - t_first) / h) + 1)


def test_invert_simple_pole():
    t = _times(0.1, 5.0, 0.01)
    got = talbot(lambda s: 1.0 / (2.0 + s), t)
    assert isinstance(got, np.ndarray) and got.shape == t.shape
    assert np.max(np.abs(got - np.exp(-2.0 * t))) < 1e-6


def test_invert_heaviside():
    got = talbot(lambda s: 1.0 / s, _times(0.05, 5.0, 0.05))
    assert np.max(np.abs(got - 1.0)) < 1e-8


def test_invert_oscillating_transform(gamma22):
    le = expected_laplace_from_psi(gamma22.laplace)
    t = _times(0.1, 5.0, 0.01)
    got = talbot(le, t)
    want = np.sqrt(2) * np.sin((2 * t + np.pi) / 4) * np.exp(-t / 2)
    assert np.max(np.abs(got - want)) < 1e-5


def test_invert_node_count_is_deterministic():
    t = _times(0.1, 2.0, 0.1)
    fn = lambda s: 1.0 / (1.0 + s) ** 2
    np.testing.assert_array_equal(talbot(fn, t), talbot(fn, t))


def test_invert_marks_pointwise_failures():
    # a transform that overflows for large |s| poisons the contour for
    # small t only; those points come back NaN, the rest stay usable
    def fn(s):
        s = np.asarray(s)
        out = 1.0 / (2.0 + s)
        return np.where(np.abs(s) > 2e3, np.inf, out)

    got = talbot(fn, _times(0.002, 1.0, 0.002))
    assert np.isnan(got[0]) and np.isfinite(got[-1])


def test_overflowing_tabulated_transform_inverts_to_nan_markers():
    # the truncated quadrature transform of a tabulated law overflows at
    # contour nodes with Re(s) << 0; inversion marks those points NaN and
    # raises no floating-point warning
    tab = make_tabulated(tabulate_pdf(make_gamma(2.0, 1.0), GridSpec.from_t_end(40.0, 0.1)))
    le = expected_laplace_from_psi(make_geometric_compound(tab, 2.0).laplace)
    assert np.isnan(talbot(le, 0.5 * np.arange(1, 21))).all()


def test_invert_then_retransform_round_trip():
    # quadrature re-transform of the inverted samples reproduces the
    # transform on a moderate s band
    times = _times(0.005, 40.0, 0.005)
    inv = talbot(lambda s: 1.0 / (2.0 + s), times)
    t = np.concatenate([[0.0], times])
    vals = np.concatenate([[2 * inv[0] - inv[1]], inv])
    for s in (0.5, 1.0, 2.0, 5.0):
        got = np.trapezoid(np.exp(-s * t) * vals, t)
        assert math.isclose(got, 1.0 / (2.0 + s), abs_tol=1e-4)


# -- the frozen CM screen (tests/cm_reference.py) ---------------------------------
# test_distributions screens every law's transform with it and pins the
# tabulated transform on its lattice, so it must still fail where a
# transform is not completely monotone.


def test_cm_check_accepts_simple_pole():
    report = cm_check(lambda s: 1.0 / (1.0 + s))
    assert report.passed
    assert report.max_order_checked == 6
    assert not report.violation_points


def test_cm_check_rejects_oscillation():
    report = cm_check(lambda s: np.sin(np.asarray(s)) + 2.0)
    assert not report.passed
    assert report.violation_points
    assert report.worst_violation > report.tolerance


def test_cm_check_rejects_gamma_divisor(gamma22):
    from switchkit import divisor_laplace

    report = cm_check(divisor_laplace(gamma22.laplace, 2.0))
    assert not report.passed


def test_cm_check_evaluates_one_shared_stencil():
    # every order's stencil lies on one half-step lattice of 2*max_order+1
    # offsets per s, so the transform is called once
    shapes = []

    def fn(s):
        shapes.append(np.shape(s))
        return 1.0 / (1.0 + s)

    report = cm_check(fn)
    assert report.passed and report.max_order_checked == CM_MAX_ORDER
    assert shapes == [(len(CM_S_GRID), 2 * CM_MAX_ORDER + 1)]


@pytest.mark.parametrize("fn", [lambda s: 1.0 / (1.0 + complex(s)), lambda s: 0.5])
def test_scalar_only_evaluator_is_refused(fn):
    # evaluators must be vectorized; there is no elementwise fallback
    with pytest.raises(InvalidArgumentError, match="vectorized"):
        cm_check(fn)


def test_cm_report_json_round_trip():
    report = cm_check(lambda s: 1.0 / (1.0 + s))
    obj = report.to_json_dict()
    assert obj["passed"] is True
    assert obj["max_order_checked"] == 6
