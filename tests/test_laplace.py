import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchkit import (
    GridSpec,
    InvalidArgumentError,
    LaplaceFunction,
    cm_check,
    covariance_laplace,
    expected_laplace_from_psi,
    invert_laplace,
    make_gamma,
    psi_from_expected_laplace,
)
from switchkit.laplace import _INVERT_BLOCK, _eval_vector

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
    le = expected_laplace_from_psi(LaplaceFunction(lambda s: np.ones_like(np.asarray(s, dtype=float))))
    assert le(2.0) == 0.0


# -- psi_from_expected_laplace ---------------------------------------------------


def test_psi_recovers_exponential():
    psi = psi_from_expected_laplace(LaplaceFunction(lambda s: 1.0 / (2.0 + s)))
    assert math.isclose(psi(1.0), 0.5, rel_tol=1e-12)
    for s in S_PROBES:
        assert math.isclose(psi(s), 1.0 / (1.0 + s), rel_tol=1e-12)


def test_psi_of_zero_is_one():
    psi = psi_from_expected_laplace(LaplaceFunction(lambda s: np.zeros_like(np.asarray(s, dtype=float))))
    assert psi(3.0) == 1.0


def test_round_trip_identity(gamma22):
    psi = psi_from_expected_laplace(expected_laplace_from_psi(gamma22.laplace))
    for s in S_PROBES:
        assert math.isclose(psi(s), gamma22.laplace(s), rel_tol=1e-12)


def test_psi_marks_out_of_range_products_nan():
    # s * L(E)(s) outside [-1, 1] has no valid preimage; marked, not raised
    psi = psi_from_expected_laplace(LaplaceFunction(lambda s: 5.0 * np.ones_like(np.asarray(s, dtype=float))))
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
    lc = covariance_laplace(LaplaceFunction(lambda s: np.zeros_like(np.asarray(s, dtype=float))), mu=3.0)
    assert math.isclose(lc(4.0), 0.25, rel_tol=1e-12)  # 1/s


def test_covariance_laplace_gamma(gamma22):
    le = expected_laplace_from_psi(gamma22.laplace)
    lc = covariance_laplace(le, mu=4.0)
    assert math.isclose(lc(1.0), 0.6, rel_tol=1e-12)


def test_covariance_laplace_needs_positive_mu(exp1):
    le = expected_laplace_from_psi(exp1.laplace)
    with pytest.raises(InvalidArgumentError):
        covariance_laplace(le, mu=0.0)


# -- invert_laplace -----------------------------------------------------------------


def test_invert_simple_pole():
    grid = GridSpec.from_t_end(5.0, 0.01, t0=0.1)
    got = invert_laplace(LaplaceFunction(lambda s: 1.0 / (2.0 + s)), grid)
    want = np.exp(-2.0 * grid.times())
    assert np.max(np.abs(got.values - want)) < 1e-6


def test_invert_heaviside():
    grid = GridSpec.from_t_end(5.0, 0.05, t0=0.05)
    got = invert_laplace(LaplaceFunction(lambda s: 1.0 / s), grid)
    assert np.max(np.abs(got.values - 1.0)) < 1e-8


def test_invert_oscillating_transform(gamma22):
    le = expected_laplace_from_psi(gamma22.laplace)
    grid = GridSpec.from_t_end(5.0, 0.01, t0=0.1)
    got = invert_laplace(le, grid)
    t = grid.times()
    want = np.sqrt(2) * np.sin((2 * t + np.pi) / 4) * np.exp(-t / 2)
    assert np.max(np.abs(got.values - want)) < 1e-5


def test_invert_requires_positive_times():
    with pytest.raises(InvalidArgumentError):
        invert_laplace(LaplaceFunction(lambda s: 1.0 / s), GridSpec.from_t_end(1.0, 0.1, t0=0.0))


def test_invert_node_count_is_deterministic():
    grid = GridSpec.from_t_end(2.0, 0.1, t0=0.1)
    fn = LaplaceFunction(lambda s: 1.0 / (1.0 + s) ** 2)
    a = invert_laplace(fn, grid, nodes=48)
    b = invert_laplace(fn, grid, nodes=48)
    np.testing.assert_array_equal(a.values, b.values)


def test_invert_marks_pointwise_failures():
    # a transform that overflows for large |s| poisons the contour for
    # small t only; those points come back NaN, the rest stay usable
    def fn(s):
        s = np.asarray(s)
        out = 1.0 / (2.0 + s)
        return np.where(np.abs(s) > 2e3, np.inf, out)

    grid = GridSpec.from_t_end(1.0, 0.002, t0=0.002)
    got = invert_laplace(LaplaceFunction(fn), grid)
    assert np.isnan(got.values).any()
    assert np.isfinite(got.values).any()
    assert got.notes


def test_invert_then_retransform_round_trip():
    # quadrature re-transform of the inverted samples reproduces the
    # transform on a moderate s band
    grid = GridSpec.from_t_end(40.0, 0.005, t0=0.005)
    inv = invert_laplace(LaplaceFunction(lambda s: 1.0 / (2.0 + s)), grid)
    t = np.concatenate([[0.0], grid.times()])
    vals = np.concatenate([[2 * inv.values[0] - inv.values[1]], inv.values])
    for s in (0.5, 1.0, 2.0, 5.0):
        got = np.trapezoid(np.exp(-s * t) * vals, t)
        assert math.isclose(got, 1.0 / (2.0 + s), abs_tol=1e-4)


def _invert_unblocked(fn, grid, nodes=64):
    """invert_laplace as it was before it was blocked over grid times."""
    t = grid.times().astype(np.longdouble)
    M = int(nodes)
    theta = (np.pi * np.arange(M, dtype=np.longdouble)) / M
    cot = np.zeros(M, dtype=np.longdouble)
    cot[1:] = 1.0 / np.tan(theta[1:])
    r = np.longdouble(2 * M) / np.longdouble(5)
    base = theta * (cot + 1j)
    base[0] = 1.0
    p = np.multiply.outer(r / t, base).astype(np.clongdouble)
    F = _eval_vector(fn, p).astype(np.clongdouble)
    gamma = np.empty_like(p)
    gamma[:, 0] = 0.5 * np.exp(p[:, 0] * t)
    weights = 1.0 + 1j * theta[1:] * (1.0 + cot[1:] ** 2) - 1j * cot[1:]
    gamma[:, 1:] = np.exp(p[:, 1:] * t[:, None]) * weights[None, :]
    with np.errstate(invalid="ignore", over="ignore"):
        vals = (2.0 / (5.0 * t)) * np.sum(gamma * F, axis=1).real
    vals = vals.astype(float)
    return np.where(np.isfinite(vals), vals, np.nan)


def test_blocked_inversion_matches_unblocked_reference(gamma22):
    # two whole blocks and a partial one; the second transform leaves the
    # smallest times NaN
    def overflowing(s):
        return np.where(np.abs(s) > 2e3, np.inf, 1.0 / (2.0 + s))

    grid = GridSpec(h=0.002, n=2 * _INVERT_BLOCK + 77, t0=0.002)
    for fn, nodes in ((expected_laplace_from_psi(gamma22.laplace), 64), (overflowing, 32)):
        got = invert_laplace(fn, grid, nodes=nodes)
        np.testing.assert_array_equal(got.values, _invert_unblocked(fn, grid, nodes))
    assert np.isnan(got.values).any() and got.notes


def test_inversion_memory_stays_below_one_unblocked_array():
    grid = GridSpec(h=1e-3, n=20_001, t0=1e-3)
    unblocked = grid.n * 64 * np.dtype(np.clongdouble).itemsize  # 41 MB
    tracemalloc.start()
    try:
        invert_laplace(LaplaceFunction(lambda s: 1.0 / (2.0 + s)), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < unblocked


# -- cm_check --------------------------------------------------------------------


def test_cm_check_accepts_simple_pole():
    report = cm_check(LaplaceFunction(lambda s: 1.0 / (1.0 + s)))
    assert report.passed
    assert report.max_order_checked == 6
    assert not report.violation_points


def test_cm_check_rejects_oscillation():
    report = cm_check(LaplaceFunction(lambda s: np.sin(np.asarray(s)) + 2.0))
    assert not report.passed
    assert report.violation_points
    assert report.worst_violation > report.tolerance


def test_cm_check_rejects_gamma_divisor(gamma22):
    from switchkit import divisor_laplace

    report = cm_check(divisor_laplace(gamma22.laplace, 2.0))
    assert not report.passed


def test_cm_check_max_order_capped():
    with pytest.raises(InvalidArgumentError):
        cm_check(LaplaceFunction(lambda s: 1.0 / (1.0 + s)), max_order=9)


@pytest.mark.parametrize("kwargs", [
    {"s_grid": ()},
    {"s_grid": (0.0, 1.0, 2.0)},
    {"s_grid": (-1.0, 1.0)},
    {"s_grid": (2.0, 1.0, 3.0)},
    {"max_order": -1},
])
def test_cm_check_validates_its_arguments(kwargs):
    with pytest.raises(InvalidArgumentError):
        cm_check(lambda s: 1.0 / (1.0 + s), **kwargs)


def test_cm_check_evaluates_one_shared_stencil():
    # every order's stencil lies on one half-step lattice of 2*max_order+1
    # offsets per s, so the transform is called once
    shapes = []

    def fn(s):
        shapes.append(np.shape(s))
        return 1.0 / (1.0 + s)

    report = cm_check(fn, s_grid=(0.5, 1.0, 2.0), max_order=4)
    assert report.passed and report.max_order_checked == 4
    assert shapes == [(3, 9)]


@pytest.mark.parametrize("fn", [lambda s: 1.0 / (1.0 + complex(s)), lambda s: 0.5])
def test_scalar_only_evaluator_is_refused(fn):
    # evaluators must be vectorized; there is no elementwise fallback
    with pytest.raises(InvalidArgumentError, match="vectorized"):
        invert_laplace(LaplaceFunction(fn), GridSpec.from_t_end(1.0, 0.1, t0=0.1))
    with pytest.raises(InvalidArgumentError, match="vectorized"):
        cm_check(LaplaceFunction(fn))


def test_cm_report_json_round_trip():
    report = cm_check(LaplaceFunction(lambda s: 1.0 / (1.0 + s)))
    obj = report.to_json_dict()
    assert obj["passed"] is True
    assert obj["max_order_checked"] == 6
