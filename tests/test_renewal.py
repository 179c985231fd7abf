"""The discrete renewal solve against the convolution-power series it
replaced (frozen in ``series_oracle``) and against closed forms."""

import numpy as np
import pytest

import series_oracle
from switchkit import (
    GridFunction,
    GridSpec,
    InvalidArgumentError,
    NumericError,
    compound_density,
    convolve,
    expected_derivative_series,
    expected_value_series,
    make_exponential,
    make_gamma,
    make_geometric_compound,
    solve_renewal,
    tabulate_pdf,
)

from conftest import grid_fn

ORACLE_TOL = 1e-12
MATCH_TOL = 1e-10

LAWS = {
    "exp1": lambda: make_exponential(1.0),
    "gamma22": lambda: make_gamma(2.0, 2.0),
    "gamma05": lambda: make_gamma(0.5, 1.0),
    "compound2_exp2": lambda: make_geometric_compound(make_exponential(2.0), r=2.0),
    "compound3_gamma21": lambda: make_geometric_compound(make_gamma(2.0, 1.0), r=3.0),
}
GRID = GridSpec.from_t_end(12.0, 2e-3)


@pytest.mark.parametrize("name", LAWS)
def test_expected_value_matches_series_oracle(name):
    dist = LAWS[name]()
    got = expected_value_series(dist, GRID)
    want = series_oracle.expected_value(dist, GRID, ORACLE_TOL)
    assert np.max(np.abs(got.values - want.values)) <= MATCH_TOL
    assert got.notes == want.notes


@pytest.mark.parametrize("name", LAWS)
def test_expected_derivative_matches_series_oracle(name):
    dist = LAWS[name]()
    got = expected_derivative_series(dist, GRID)
    want = series_oracle.expected_derivative(dist, GRID, ORACLE_TOL)
    assert np.max(np.abs(got.values - want.values)) <= MATCH_TOL


@pytest.mark.parametrize("name", ["compound2_exp2", "compound3_gamma21"])
def test_compound_density_matches_series_oracle(name):
    dist = LAWS[name]()
    got = tabulate_pdf(dist, GRID)
    want = series_oracle.compound_pdf(dist, GRID, weight_tol=ORACLE_TOL)
    assert np.max(np.abs(got.values - want.values)) <= MATCH_TOL


def test_long_grid_completes():
    # 400 001 points: the convolution-power loops needed tens of seconds here
    grid = GridSpec.from_t_end(400.0, 1e-3)
    E = expected_value_series(make_exponential(1.0), grid)
    # second-order trapezoid error: h^2/24 = 4.2e-8 at every grid length
    assert np.max(np.abs(E.values - np.exp(-2 * grid.times()))) < 2e-7


def test_zero_tolerance_raises():
    with pytest.raises(NumericError, match="residual"):
        expected_value_series(make_exponential(1.0), GridSpec.from_t_end(5.0, 1e-2), tol=0.0)


@pytest.mark.parametrize("c", [1.0, -0.5, -0.9, 0.3])
def test_solution_satisfies_the_trapezoid_equation(c):
    # check x + c (x * f) = rhs with the grid convolution itself
    rng = np.random.default_rng(11)
    f = grid_fn(lambda t: t * np.exp(-t), 20.0, 1e-2)
    rhs = f.with_values(rng.normal(size=len(f)))
    x = solve_renewal(f, rhs, c)
    assert np.max(np.abs(x.values + c * convolve(x, f).values - rhs.values)) < 1e-12
    assert x.values[0] == rhs.values[0]


def test_single_sample_grid():
    f = GridFunction(t0=0.0, h=0.1, values=np.array([2.0]))
    rhs = f.with_values(np.array([0.5]))
    assert solve_renewal(f, rhs, 1.0).values.tolist() == [0.5]


def test_solve_validates_grids():
    f = grid_fn(np.exp, 1.0, 0.1)
    with pytest.raises(InvalidArgumentError):
        solve_renewal(f, grid_fn(np.exp, 1.0, 0.05), 1.0)
    shifted = grid_fn(np.exp, 2.0, 0.1, t0=1.0)
    with pytest.raises(InvalidArgumentError):
        solve_renewal(shifted, shifted, 1.0)


def test_compound_density_requires_r_above_one():
    with pytest.raises(InvalidArgumentError):
        compound_density(grid_fn(np.exp, 1.0, 0.1), r=1.0)
