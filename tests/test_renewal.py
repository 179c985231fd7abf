"""The discrete renewal solve against the convolution-power series it
replaced (frozen in ``series_oracle``) and against closed forms."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import series_oracle
import switchkit
from switchkit import (
    GridFunction,
    GridSpec,
    InvalidArgumentError,
    NumericError,
    convolve,
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
from switchkit.grid import _fast_len

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
    np.testing.assert_array_equal(divisor_density(dist, 2.0, GRID).values,
                                  2.0 * solve_renewal(f, f, 1.0).values)


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
    got = -divisor_density(dist, 2.0, GRID).values
    want = series_oracle.expected_derivative(dist, GRID, ORACLE_TOL)
    assert np.max(np.abs(got - want.values)) <= MATCH_TOL


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


SWEEP_LAWS = (make_exponential(1.0), make_gamma(2.0, 0.5), make_gamma(0.6, 1 / 0.6),
              make_geometric_compound(make_gamma(2.0, 1.0), 3.0))
SWEEP_Q = (0.05, 0.3, 0.5, 1.0, 1.5, 1.95, 2.0)


def _sweep_grid(n):
    return GridSpec(h=0.1 if n < 100 else 20.0 / (n - 1), n=n)


@pytest.mark.parametrize("n", [*range(1, 20), 63, 64, 65, 255, 256, 257, 511, 513, 4001,
                               8001, 65536, 65537, 80001, 131073])
def test_solve_matches_the_frozen_newton_solve(n):
    # halving splits at ceil(n/2): n = 1, 2, 3 and odd n are its edge cases.
    # At 255-257 points the divisor's inverse (128 or 129 coefficients) is
    # all direct products; at 511 and 513 its top step, at 256 or 257, is the
    # first FFT step above the direct base.
    # The full q sweep runs up to 8 001 points, two values of q beyond.
    # Measured: at most 6.3e-15 relative over this sweep.
    grid = _sweep_grid(n)
    qs = SWEEP_Q if n <= 8001 else (0.3, 2.0)
    # the singular gamma needs three samples to extrapolate f(0)
    laws = SWEEP_LAWS if n >= 3 else SWEEP_LAWS[:2] + SWEEP_LAWS[3:]
    for dist in laws:
        f, F = tabulate_pdf(dist, grid), tabulate_cdf(dist, grid)
        for q in qs:
            for g in (f, F):
                rhs = g.with_values(q * g.values)
                want = series_oracle.newton_solve(f, rhs, q - 1.0)
                got = solve_renewal(f, rhs, q - 1.0).values
                assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("n", [4001, 65537, 80001, 131073])
def test_fft_work_budget(monkeypatch, n):
    # summed transform lengths, a call on a stack of rows counting each row,
    # residual included: 18.8-19.9 n measured; the doubling solve took
    # 27.4-33.0 n, most just above a power of two.  The transforms of one
    # step share a call: 22 calls at 4 001 points and 46 at 131 073, where one
    # transform a call took 66 and 96.  The helpers look numpy.fft up at each
    # call, so the module's own functions are counted, and a count of at
    # most n would mean they were not
    total, calls = [0], [0]

    def counted(transform):
        def wrapped(x, n=None, axis=-1, out=None):
            calls[0] += 1
            total[0] += (x.shape[axis] if n is None else n) * (x.size // x.shape[axis])
            return transform(x, n, axis, out=out)
        return wrapped

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    f = tabulate_pdf(make_exponential(1.0), _sweep_grid(n))
    solve_renewal(f, f, 1.0)
    assert n < total[0] <= 21 * n
    assert calls[0] <= (30 if n < 10_000 else 50)


def test_identity_system_is_returned_without_a_transform(monkeypatch):
    # compound(2, exp(2)) maps its base law with q = 1/2, so its E solves
    # x + 0 (x * f) = F; gd-check of a compound at its own r solves x = f
    calls = [0]

    def counted(transform):
        def wrapped(*args, **kwargs):
            calls[0] += 1
            return transform(*args, **kwargs)
        return wrapped

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    grid = GridSpec.from_t_end(12.0, 2e-3)
    E = expected_value_series(make_geometric_compound(make_exponential(2.0), 2.0), grid)
    np.testing.assert_array_equal(E.values, 1.0 - tabulate_cdf(make_exponential(2.0), grid).values)
    compound = make_geometric_compound(make_gamma(2.0, 1.0), 4.0)
    np.testing.assert_array_equal(divisor_density(compound, 4.0, grid).values,
                                  tabulate_pdf(make_gamma(2.0, 1.0), grid).values)
    f = tabulate_pdf(make_exponential(1.0), grid)
    assert solve_renewal(f, f, 0.0) is f
    assert calls[0] == 0


def test_fast_len_is_the_next_5_smooth_number():
    # up to 64; above, 8 times the next 5-smooth number >= ceil(n/8)
    smooth = sorted(2**a * 3**b * 5**c for a in range(15) for b in range(10) for c in range(7))
    for n in range(1, 10_001):
        k = 8 if n > 64 else 1
        assert _fast_len(n) == k * next(s for s in smooth if s >= -(-n // k)), n
    # 8 times 2^6 3^8 5 = 2 099 520, the next 5-smooth number >= 2^21 + 1
    assert _fast_len(2**24 + 1) == 2**9 * 3**8 * 5


_SOLVE_RSS = """
import resource
from switchkit import GridSpec, expected_value_series, make_exponential
expected_value_series(make_exponential(1.0), GridSpec(h=1e-2, n=1000))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
expected_value_series(make_exponential(1.0), GridSpec(h=2.0**-14, n=2**20))
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024 / 2**20)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
def test_e_solve_peaks_under_150_bytes_per_point():
    # growth of the peak RSS of a fresh process over one E solve on 2^20
    # points: 117.7 B measured; 191-203 B with scipy.fft (see MAX_POINTS)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(switchkit.__file__))}
    done = subprocess.run([sys.executable, "-c", _SOLVE_RSS], env=env, capture_output=True,
                          text=True, check=True)
    assert float(done.stdout) <= 150.0
