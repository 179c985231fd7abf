"""The discrete renewal solve against the convolution-power series it
replaced (frozen in ``series_oracle``) and against closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import series_oracle
from switchkit import (
    GridFunction,
    GridSpec,
    InvalidArgumentError,
    NumericError,
    convolve,
    expected_derivative_series,
    expected_value_series,
    geometric_map_grid,
    make_exponential,
    make_gamma,
    make_geometric_compound,
    solve_renewal,
    tabulate_cdf,
    tabulate_pdf,
)
from switchkit.divisibility import divisor_density

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
BASE_LAWS = ("exp1", "gamma22", "gamma05")
GRID = GridSpec.from_t_end(12.0, 2e-3)


def _oracle_expected_value(name):
    dist = LAWS[name]()
    if name in BASE_LAWS:
        return series_oracle.expected_value(dist, GRID, ORACLE_TOL)
    # 1 - E is the 2-divisor: the q-weighted series of the divisor law at
    # q = 2/r, applied to its CDF
    f, F = tabulate_pdf(dist.divisor, GRID), tabulate_cdf(dist.divisor, GRID)
    x = series_oracle.geometric_series(f, F, 2.0 / dist.r, ORACLE_TOL)
    return x.with_values(1.0 - x.values)


@pytest.mark.parametrize("name", LAWS)
def test_expected_value_matches_series_oracle(name):
    got = expected_value_series(LAWS[name](), GRID)
    want = _oracle_expected_value(name)
    assert np.max(np.abs(got.values - want.values)) <= MATCH_TOL
    assert got.notes == want.notes


def test_compound_of_exponentials_is_exactly_exponential():
    # compound(2, exp(2)) is exp(1): its E is the divisor's survival e^{-2t}
    E = expected_value_series(LAWS["compound2_exp2"](), GRID)
    assert np.max(np.abs(E.values - np.exp(-2.0 * GRID.times()))) <= 1e-14


@pytest.mark.parametrize("name", BASE_LAWS)
def test_base_law_series_equal_frozen_solves(name):
    # the doubled map is the earlier c = 1 solve scaled by 2, exactly
    dist = LAWS[name]()
    f, F = tabulate_pdf(dist, GRID), tabulate_cdf(dist, GRID)
    np.testing.assert_array_equal(expected_value_series(dist, GRID).values,
                                  1.0 - 2.0 * solve_renewal(f, F, 1.0).values)
    np.testing.assert_array_equal(expected_derivative_series(dist, GRID).values,
                                  -2.0 * solve_renewal(f, f, 1.0).values)


@pytest.mark.parametrize("name", ["compound2_exp2", "compound3_gamma21"])
def test_compound_density_matches_frozen_solve(name):
    # the solve that compound densities took before the map
    dist = LAWS[name]()
    f = tabulate_pdf(dist.divisor, GRID)
    want = solve_renewal(f, f.with_values(f.values / dist.r), -(1.0 - 1.0 / dist.r))
    assert np.max(np.abs(tabulate_pdf(dist, GRID).values - want.values)) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(
    shape=st.floats(min_value=1.1, max_value=4.0),
    scale=st.floats(min_value=0.3, max_value=2.5),
    p=st.floats(min_value=0.1, max_value=2.0),
    q=st.floats(min_value=0.1, max_value=2.0),
)
def test_geometric_maps_compose_in_the_time_domain(shape, scale, p, q):
    # exact for f(0) = 0 (measured <= 1.4e-15 over 400 random draws);
    # otherwise the trapezoid end term makes the two discrete maps differ
    f = tabulate_pdf(make_gamma(shape, scale), GridSpec.from_t_end(20.0, 1e-2))
    got = geometric_map_grid(geometric_map_grid(f, p), q).values
    want = geometric_map_grid(f, p * q).values
    assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


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


def test_residual_over_the_bound_raises():
    # gamma(2, 1) is not 1e4-divisible: its divisor density grows
    # exponentially and the solve's residual reaches ~1e26, far above
    # RENEWAL_TOL
    with pytest.raises(NumericError, match="residual"):
        divisor_density(make_gamma(2.0, 1.0), 1e4, GridSpec(h=0.02, n=4001))


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
    f = GridFunction(h=0.1, values=np.array([2.0]))
    rhs = f.with_values(np.array([0.5]))
    assert solve_renewal(f, rhs, 1.0).values.tolist() == [0.5]


def test_solve_validates_grids():
    f = grid_fn(np.exp, 1.0, 0.1)
    with pytest.raises(InvalidArgumentError):
        solve_renewal(f, grid_fn(np.exp, 1.0, 0.05), 1.0)


@pytest.mark.parametrize("q", [0.0, -0.5, np.inf, np.nan])
def test_geometric_map_grid_requires_positive_finite_q(q):
    with pytest.raises(InvalidArgumentError):
        geometric_map_grid(grid_fn(np.exp, 1.0, 0.1), q)
