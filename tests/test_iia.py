import math

import numpy as np
import pytest
from scipy.optimize import brentq

from switchkit import (
    GridSpec,
    InvalidArgumentError,
    ShapeCheckError,
    check_covariance_shape,
    clip_covariance,
    damped_cosine_covariance,
    diffusion2d_covariance,
    exponential_covariance,
    gd_check,
    iia_pipeline,
    make_rng,
    tabulate_cdf,
)
from switchkit import recovery

import gp_oracle
from conftest import grid_fn
from iia_reference import iia_conditions


def sech(t):
    return 1.0 / np.cosh(t)


GRID = GridSpec.from_t_end(40.0, 1e-3)


# -- clip_covariance ---------------------------------------------------------


def test_clip_is_one_at_zero():
    C = clip_covariance(diffusion2d_covariance(), GRID)
    assert C.values[0] == 1.0


def test_clip_matches_arcsine_form():
    C = clip_covariance(diffusion2d_covariance(), GridSpec.from_t_end(10.0, 1e-2))
    t = C.times()
    np.testing.assert_allclose(C.values, (2 / np.pi) * np.arcsin(sech(t / 2)), atol=1e-12)


def test_clip_vanishing_tail():
    C = clip_covariance(lambda t: np.where(t < 1, 1 - t, 0.0), GridSpec.from_t_end(3.0, 0.01))
    assert C.values[-1] == 0.0


def test_clip_known_point():
    # arcsin(1/2) = pi/6, so the clipped value at e^{-t} = 1/2 is 1/3
    C = clip_covariance(exponential_covariance(), GridSpec.from_t_end(2.0, math.log(2.0) / 100))
    assert math.isclose(C.values[100], 1.0 / 3.0, rel_tol=1e-9)


def test_clip_rejects_non_correlation():
    with pytest.raises(InvalidArgumentError):
        clip_covariance(lambda t: 1.0 + 0.1 * t, GridSpec.from_t_end(1.0, 0.1))


def test_clip_preserves_sign():
    r = damped_cosine_covariance()
    grid = GridSpec.from_t_end(6.0, 1e-2)
    C = clip_covariance(r, grid)
    assert np.all(np.sign(C.values) == np.sign(r(grid.times())))


# -- admissibility screen ---------------------------------------------------------
# The IIA is admissible when the clipped covariance passes the shape screen.


def test_screen_accepts_diffusion2d():
    assert check_covariance_shape(clip_covariance(diffusion2d_covariance(), GRID)).passed


def test_screen_accepts_exponential():
    assert check_covariance_shape(clip_covariance(exponential_covariance(), GRID)).passed


def test_screen_rejects_damped_cosine():
    grid = GridSpec.from_t_end(10.0, 1e-3)
    report = check_covariance_shape(clip_covariance(damped_cosine_covariance(), grid))
    assert not report.passed
    assert report.violation("nonnegative") > 1e-6


def test_tabulated_correlation_screens_like_its_closed_form():
    table = grid_fn(lambda t: sech(t / 2), 40.0, 1e-3)
    tabulated = check_covariance_shape(clip_covariance(table.interp, GRID))
    builtin = check_covariance_shape(clip_covariance(diffusion2d_covariance(), GRID))
    assert tabulated.passed and tabulated == builtin


_S3, _S5 = math.sqrt(3.0), math.sqrt(5.0)
FAMILIES = {
    "sech(t/2)": lambda t: sech(t / 2),
    "sech(2t)": lambda t: sech(2 * t),
    "exp": lambda t: np.exp(-t),
    "matern3/2": lambda t: (1 + _S3 * t) * np.exp(-_S3 * t),
    "matern5/2": lambda t: (1 + _S5 * t + 5 * t * t / 3) * np.exp(-_S5 * t),
    "gauss": lambda t: np.exp(-t * t),
    "cauchy": lambda t: 1 / (1 + t * t),
    "cos(0.1t)exp": lambda t: np.cos(0.1 * t) * np.exp(-t),
    "cos(0.3t)exp": lambda t: np.cos(0.3 * t) * np.exp(-t),
    "cos(t)exp": lambda t: np.cos(t) * np.exp(-t),
    "triangle": lambda t: np.maximum(1 - t / 3, 0.0),
    "triangle^2": lambda t: np.maximum(1 - t / 3, 0.0) ** 2,
}


@pytest.mark.parametrize("h", [1e-2, 1e-3])
@pytest.mark.parametrize("family", FAMILIES)
def test_clipped_screen_matches_the_reference_verdict(family, h):
    # C >= 0, C' <= 0, C'' >= 0 for C = (2/pi) arcsin r are, by the chain
    # rule, the reference screen's r >= 0, r' <= 0, r'' >= -r r'^2 / (1 - r^2)
    fn = FAMILIES[family]
    grid = GridSpec.from_t_end(60.0, h)
    report = check_covariance_shape(clip_covariance(fn, grid))
    reference = iia_conditions(fn(grid.times()), h)
    pairs = {"nonnegative": "nonnegative", "nonincreasing": "nonincreasing",
             "convex": "curvature_bound"}
    got = {c: report.violation(c) <= recovery.SIGN_TOL for c in pairs}
    want = {c: reference[r] <= recovery.SIGN_TOL for c, r in pairs.items()}
    assert got == want


def test_pipeline_screens_the_clipped_covariance_once(monkeypatch):
    # the route screens C from its own C' and C'' (check_covariance_shape
    # takes them anew), through _covariance_screen
    screen, reports = recovery._covariance_screen, []

    def counted(*args):
        reports.append(screen(*args))
        return reports[-1]

    monkeypatch.setattr(recovery, "_covariance_screen", counted)
    result = iia_pipeline(diffusion2d_covariance(), GRID)
    assert len(reports) == 1
    assert result.screen is reports[0] and result.screen.passed


# -- pipeline ---------------------------------------------------------------------


def test_pipeline_diffusion2d_end_to_end():
    result = iia_pipeline(diffusion2d_covariance(), GRID)
    assert result.screen.passed
    assert abs(result.mu - 2 * np.pi) / (2 * np.pi) < 1e-3
    np.testing.assert_array_equal(result.clipped.values,
                                  clip_covariance(diffusion2d_covariance(), GRID).values)
    t = GRID.times()
    assert np.max(np.abs(result.divisor_cdf.values - (1 - sech(t / 2)))) < 1e-4
    draws = result.compound.sample(make_rng(10), size=100_000)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - 2 * np.pi) < 4 * se


def test_pipeline_rejects_damped_cosine():
    with pytest.raises(ShapeCheckError, match="fails the shape screen") as refused:
        iia_pipeline(damped_cosine_covariance(), GridSpec.from_t_end(10.0, 1e-3))
    assert refused.value.report.violation("nonnegative") > 1e-6
    assert "nonnegative violated by" in str(refused.value)


def test_pipeline_exponential_covariance_degenerates():
    # e^{-t} passes the screen, but its clipped covariance has infinite
    # slope at the origin (the sign process switches infinitely often), so
    # the recovered divisor density cannot integrate to one on any grid;
    # the mass rule must catch this rather than renormalize silently
    from switchkit import NumericError

    r = exponential_covariance()
    grid = GridSpec.from_t_end(60.0, 2e-3)
    assert check_covariance_shape(clip_covariance(r, grid)).passed
    with pytest.raises(NumericError, match="mass"):
        iia_pipeline(r, grid)


def test_pipeline_smooth_admissible_covariance():
    # a smooth admissible correlation (flat at the origin) recovers a
    # genuine divisor: CDF starts at 0, density mass is one
    result = iia_pipeline(lambda t: 1.0 / np.cosh(t), GridSpec.from_t_end(30.0, 1e-3))
    assert result.screen.passed
    assert result.divisor_cdf.values[0] == 0.0
    mass = np.trapezoid(result.divisor_pdf.values, dx=result.divisor_pdf.h)
    assert abs(mass - 1.0) < 1e-3


def test_pipeline_output_is_divisible_at_two():
    result = iia_pipeline(diffusion2d_covariance(), GRID)
    assert gd_check(result.compound, 2.0).passed


@pytest.mark.parametrize("t_end", [40.0, 80.0])
def test_pipeline_gives_the_diffusion_persistence_exponent(t_end):
    # The compound transform psi/(2 - psi) of the IIA law has its pole where
    # psi(-theta) = 2, so P(no sign change up to t) ~ exp(-theta t).  The IIA
    # value for planar diffusion is theta = 0.1862 (Majumdar, Sire, Bray and
    # Cornell, PRL 77, 2867, 1996).
    result = iia_pipeline(diffusion2d_covariance(), GridSpec.from_t_end(t_end, 1e-3))
    psi = result.compound.divisor.laplace
    theta = brentq(lambda th: psi(-th) - 2.0, 0.05, 0.3, xtol=1e-12)
    assert abs(theta - 0.1862) < 1e-4


# -- the Monte Carlo oracle ---------------------------------------------------------

# 16 independent paths of 2^17 points at dt = 0.05, about 1 000 intervals
# each; standard errors are from the spread over paths.
MC_DT, MC_POINTS, MC_PATHS = 0.05, 2**17, 16
# bound on |IIA - MC| survival at T = 2, 5, 10 and 20 for the diffusion
# fixture, measured against 128 paths of 2^20 points (README, Numerical notes)
IIA_SURVIVAL_ERR = 3e-3


@pytest.fixture(scope="module")
def gp_paths():
    return gp_oracle.paths(diffusion2d_covariance(), MC_DT, MC_POINTS, MC_PATHS, make_rng(7))


@pytest.fixture(scope="module")
def diffusion_iia():
    return iia_pipeline(diffusion2d_covariance(), GRID)


def _mean_and_se(per_path):
    per_path = np.asarray(per_path)
    return per_path.mean(axis=0), per_path.std(axis=0, ddof=1) / math.sqrt(len(per_path))


def test_oracle_sign_covariance_is_the_arcsine_law(gp_paths):
    lags = np.array([0.5, 1.0, 2.0, 4.0])
    signs = np.sign(gp_paths)
    got, se = _mean_and_se([[np.mean(x[:-k] * x[k:]) for k in np.round(lags / MC_DT).astype(int)]
                            for x in signs])
    want = (2 / np.pi) * np.arcsin(sech(lags / 2))
    assert np.all(np.abs(got - want) < 4 * se), (got, want, se)


def test_oracle_mean_interval_is_the_iia_mean(gp_paths, diffusion_iia):
    got, se = _mean_and_se([gp_oracle.intervals(x, MC_DT).mean() for x in gp_paths])
    assert abs(got - diffusion_iia.mu) < 4 * se, (got, diffusion_iia.mu, se)


def test_iia_survival_matches_the_oracle(gp_paths, diffusion_iia):
    T = np.array([2.0, 5.0, 10.0, 20.0])
    got, se = _mean_and_se([(gp_oracle.intervals(x, MC_DT)[:, None] > T).mean(axis=0)
                            for x in gp_paths])
    F = tabulate_cdf(diffusion_iia.compound, GRID)
    iia = 1.0 - F.values[np.round(T / GRID.h).astype(int)]
    assert np.all(np.abs(iia - got) < IIA_SURVIVAL_ERR + 4 * se), (iia, got, se)


# -- diffusion fixture -----------------------------------------------------------


def test_diffusion2d_normalization():
    r = diffusion2d_covariance()
    assert r(0.0) == 1.0
