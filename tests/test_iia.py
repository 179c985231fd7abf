import math

import numpy as np
import pytest
from scipy.optimize import brentq

from switchkit import (
    GridSpec,
    InvalidArgumentError,
    GaussianCovariance,
    check_covariance_shape,
    check_iia_conditions,
    clip_covariance,
    damped_cosine_covariance,
    diffusion2d_covariance,
    exponential_covariance,
    gd_check,
    iia_pipeline,
    make_rng,
    tabulated_covariance,
)

from conftest import grid_fn


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
    r = GaussianCovariance(fn=lambda t: np.where(np.asarray(t) < 1, 1 - np.asarray(t), 0.0))
    C = clip_covariance(r, GridSpec.from_t_end(3.0, 0.01))
    assert C.values[-1] == 0.0


def test_clip_known_point():
    # arcsin(1/2) = pi/6, so the clipped value at e^{-t} = 1/2 is 1/3
    C = clip_covariance(exponential_covariance(), GridSpec.from_t_end(2.0, math.log(2.0) / 100))
    assert math.isclose(C.values[100], 1.0 / 3.0, rel_tol=1e-9)


def test_clip_rejects_non_correlation():
    r = GaussianCovariance(fn=lambda t: 1.0 + 0.1 * np.asarray(t))
    with pytest.raises(InvalidArgumentError):
        clip_covariance(r, GridSpec.from_t_end(1.0, 0.1))


def test_clip_preserves_sign():
    r = damped_cosine_covariance()
    grid = GridSpec.from_t_end(6.0, 1e-2)
    C = clip_covariance(r, grid)
    assert np.all(np.sign(C.values) == np.sign(r(grid.times())))


# -- admissibility screen ---------------------------------------------------------


def test_screen_accepts_diffusion2d():
    assert check_iia_conditions(diffusion2d_covariance(), GRID).passed


def test_screen_accepts_exponential():
    assert check_iia_conditions(exponential_covariance(), GRID).passed


def test_screen_rejects_damped_cosine():
    report = check_iia_conditions(damped_cosine_covariance(), GridSpec.from_t_end(10.0, 1e-3))
    assert not report.passed
    assert report.violation("nonnegative") > 1e-6


def test_screen_flags_finite_difference_fallback():
    table = grid_fn(lambda t: sech(t / 2), 40.0, 1e-3)
    r = tabulated_covariance(table)
    report = check_iia_conditions(r, GRID)
    assert report.passed
    assert any("finite differences" in n for n in report.notes)


def test_screen_reports_exclusion_window():
    report = check_iia_conditions(diffusion2d_covariance(), GRID)
    assert any("skipped" in n for n in report.notes)


def test_screen_pass_implies_covariance_shape_pass():
    for r in (diffusion2d_covariance(), exponential_covariance(scale=0.5)):
        assert check_iia_conditions(r, GRID).passed
        assert check_covariance_shape(clip_covariance(r, GRID)).passed


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
    result = iia_pipeline(damped_cosine_covariance(), GridSpec.from_t_end(10.0, 1e-3))
    assert not result.screen.passed
    assert result.mu is None and result.clipped is None
    assert result.compound is None


def test_pipeline_exponential_covariance_degenerates():
    # e^{-t} passes the screen, but its clipped covariance has infinite
    # slope at the origin (the sign process switches infinitely often), so
    # the recovered divisor density cannot integrate to one on any grid;
    # the mass rule must catch this rather than renormalize silently
    from switchkit import NumericError

    r = exponential_covariance()
    grid = GridSpec.from_t_end(60.0, 2e-3)
    assert check_iia_conditions(r, grid).passed
    with pytest.raises(NumericError, match="mass"):
        iia_pipeline(r, grid)


def test_pipeline_smooth_admissible_covariance():
    # a smooth admissible correlation (flat at the origin) recovers a
    # genuine divisor: CDF starts at 0, density mass is one
    r = GaussianCovariance(
        fn=lambda t: 1.0 / np.cosh(np.asarray(t)),
        d1=lambda t: -np.tanh(np.asarray(t)) / np.cosh(np.asarray(t)),
        d2=lambda t: (np.tanh(np.asarray(t)) ** 2 - 1.0 / np.cosh(np.asarray(t)) ** 2)
        / np.cosh(np.asarray(t)),
        name="sech",
    )
    result = iia_pipeline(r, GridSpec.from_t_end(30.0, 1e-3))
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


# -- diffusion fixture -----------------------------------------------------------


def test_diffusion2d_normalization():
    r = diffusion2d_covariance()
    assert r(0.0) == 1.0
    assert r.d1(0.0) == 0.0


def test_diffusion2d_derivatives_match_finite_differences():
    r = diffusion2d_covariance()
    t = np.linspace(0.5, 10.0, 40)
    h = 1e-5
    fd1 = (r(t + h) - r(t - h)) / (2 * h)
    fd2 = (r(t + h) - 2 * r(t) + r(t - h)) / (h * h)
    np.testing.assert_allclose(r.d1(t), fd1, atol=1e-9)
    np.testing.assert_allclose(r.d2(t), fd2, atol=1e-5)
