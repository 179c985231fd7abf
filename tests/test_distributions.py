import math
import tracemalloc

import numpy as np
import pytest

from switchkit import (
    GridSpec,
    InvalidArgumentError,
    cm_check,
    make_exponential,
    make_gamma,
    make_geometric_compound,
    make_rng,
    make_tabulated,
    parse_distribution,
    tabulate_cdf,
    tabulate_pdf,
)

from conftest import grid_fn

S_PROBES = (0.1, 1.0, 10.0)


# -- exponential ---------------------------------------------------------------


def test_exponential_basics(exp1):
    assert exp1.laplace(1.0) == 0.5
    assert exp1.mean == 1.0
    assert exp1.cdf(0.0) == 0.0


def test_exponential_median():
    d = make_exponential(2.0)
    # median of the rate-2 law is ln(2)/2
    assert math.isclose(d.cdf(0.34657359027997264), 0.5, abs_tol=1e-12)


def test_exponential_validation():
    with pytest.raises(InvalidArgumentError):
        make_exponential(0.0)
    with pytest.raises(InvalidArgumentError):
        make_exponential(-2.0)


# -- gamma ----------------------------------------------------------------------


def test_gamma_laplace_and_mean(gamma22):
    assert math.isclose(gamma22.laplace(0.5), 0.25, rel_tol=1e-12)
    assert gamma22.mean == 4.0


def test_gamma_shape1_equals_exponential():
    g = make_gamma(1.0, 1.0)
    e = make_exponential(1.0)
    s = np.logspace(-2, 2, 25)
    np.testing.assert_allclose(g.laplace(s), e.laplace(s), rtol=1e-12)


def test_gamma_validation():
    with pytest.raises(InvalidArgumentError):
        make_gamma(-1.0, 2.0)
    with pytest.raises(InvalidArgumentError):
        make_gamma(2.0, 0.0)


def test_gamma_singular_density_tabulation():
    # shape < 1 has an integrable singularity at the origin; tabulation
    # extrapolates the first sample and says so
    d = make_gamma(0.5, 1.0)
    pdf = tabulate_pdf(d, GridSpec.from_t_end(5.0, 1e-3))
    assert np.isfinite(pdf.values).all()
    assert any("extrapolation" in n for n in pdf.notes)


# -- tabulated ------------------------------------------------------------------


@pytest.fixture(scope="module")
def tab_exp1():
    g = grid_fn(lambda t: np.exp(-t), 40.0, 1e-3)
    return make_tabulated(g)


def test_tabulated_laplace(tab_exp1):
    assert math.isclose(tab_exp1.laplace(1.0), 0.5, abs_tol=1e-4)


def test_tabulated_mean(tab_exp1):
    assert math.isclose(tab_exp1.mean, 1.0, abs_tol=1e-3)


def test_tabulated_sampler_matches_cdf(tab_exp1):
    # empirical CDF of 1e5 inverse-transform draws stays within 0.01 of the
    # model CDF (Dvoretzky-Kiefer-Wolfowitz scale for this n is ~0.004)
    rng = make_rng(123)
    draws = tab_exp1.sample(rng, size=100_000)
    xs = np.linspace(0.0, 8.0, 400)
    emp = np.searchsorted(np.sort(draws), xs, side="right") / len(draws)
    assert np.max(np.abs(emp - tab_exp1.cdf(xs))) < 0.01


def test_tabulated_laplace_memory_is_bounded_on_long_tables():
    # 200 001 points: 64 s-values at a time would hold 102 MB per kernel
    # array; the transform takes as many rows as fit in _KERNEL_BLOCK entries
    tab = make_tabulated(grid_fn(lambda t: np.exp(-t), 20.0, 1e-4))
    s = np.linspace(0.1, 10.0, 128)
    one_64_row_block = 64 * 200_001 * 8
    tracemalloc.start()
    try:
        got = tab.laplace(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one_64_row_block
    np.testing.assert_allclose(got, [tab.laplace(x) for x in s], rtol=1e-14)


def test_tabulated_mass_deficit_rejected():
    g = grid_fn(lambda t: np.exp(-t) * 0.9, 40.0, 1e-3)
    with pytest.raises(InvalidArgumentError):
        make_tabulated(g)


def test_tabulated_negative_density_rejected():
    g = grid_fn(lambda t: np.exp(-t) - 0.05, 10.0, 1e-3)
    with pytest.raises(InvalidArgumentError):
        make_tabulated(g)


# -- geometric compound ----------------------------------------------------------


def test_compound_laplace_closed_form(compound2):
    # geometric(1/2) sums of rate-2 exponentials make a rate-1 exponential
    for s in S_PROBES:
        assert math.isclose(compound2.laplace(s), 1.0 / (1.0 + s), rel_tol=1e-12)


def test_compound_laplace_at_zero(compound2, gamma22):
    assert math.isclose(compound2.laplace(0.0), 1.0, rel_tol=1e-12)
    comp = make_geometric_compound(gamma22, r=3.5)
    assert math.isclose(comp.laplace(0.0), 1.0, rel_tol=1e-12)


def test_compound_mean_is_wald_product(compound2):
    assert compound2.mean == 2.0 * 0.5


def test_compound_requires_r_above_one(exp1):
    with pytest.raises(InvalidArgumentError):
        make_geometric_compound(exp1, r=1.0)


def test_compound_sample_mean(compound2):
    n = 100_000
    draws = compound2.sample(make_rng(77), size=n)
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - compound2.mean) < 4 * se


def test_compound_grid_density_matches_exponential(compound2):
    pdf = tabulate_pdf(compound2, GridSpec.from_t_end(10.0, 1e-3))
    np.testing.assert_allclose(pdf.values, np.exp(-pdf.times()), atol=5e-4)
    cdf = tabulate_cdf(compound2, GridSpec.from_t_end(10.0, 1e-3))
    np.testing.assert_allclose(cdf.values, 1 - np.exp(-cdf.times()), atol=5e-4)


# -- shared transform properties ---------------------------------------------


@pytest.mark.parametrize(
    "factory",
    [
        lambda: make_exponential(1.0),
        lambda: make_gamma(2.0, 2.0),
        lambda: make_geometric_compound(make_exponential(2.0), r=2.0),
        lambda: make_tabulated(grid_fn(lambda t: np.exp(-t), 40.0, 1e-3)),
    ],
    ids=["exp", "gamma", "compound", "tabulated"],
)
def test_laplace_is_normalized_and_completely_monotone(factory):
    dist = factory()
    assert math.isclose(float(dist.laplace(0.0)), 1.0, abs_tol=1e-9)
    assert cm_check(dist.laplace).passed


@pytest.mark.parametrize(
    "factory",
    [lambda: make_exponential(0.7), lambda: make_gamma(3.0, 0.5)],
    ids=["exp", "gamma"],
)
def test_laplace_strictly_decreasing(factory):
    dist = factory()
    s = np.logspace(-3, 2, 200)
    vals = dist.laplace(s)
    assert np.all(np.diff(vals) < 0)


# -- rng contract ---------------------------------------------------------------


def test_sampling_is_seed_deterministic(exp1):
    a = exp1.sample(make_rng(42), size=16)
    b = exp1.sample(make_rng(42), size=16)
    np.testing.assert_array_equal(a, b)


def test_streams_are_independent_of_order():
    d = make_exponential(1.0)
    first = [d.sample(make_rng(9, stream=(i,))) for i in (0, 1, 2)]
    second = [d.sample(make_rng(9, stream=(i,))) for i in (2, 0, 1)]
    assert first[0] == second[1] and first[2] == second[0]


def test_seed_sequence_streams_match_integer_seed_streams():
    draws = [make_rng(np.random.SeedSequence(5), stream=(i,)).random() for i in (0, 1)]
    assert draws == [make_rng(5, stream=(i,)).random() for i in (0, 1)]
    assert draws[0] != draws[1]


# -- string DSL -------------------------------------------------------------------


def test_parse_exponential():
    d = parse_distribution("exp(rate=2)")
    assert math.isclose(d.mean, 0.5)


def test_parse_gamma():
    d = parse_distribution("gamma(shape=2,scale=2)")
    assert d.mean == 4.0


def test_parse_nested_compound():
    d = parse_distribution("compound(r=2,divisor=exp(rate=2))")
    assert math.isclose(d.laplace(1.0), 0.5, rel_tol=1e-12)


def test_parse_table(tmp_path):
    g = grid_fn(lambda t: np.exp(-t), 30.0, 1e-2)
    path = tmp_path / "pdf.csv"
    g.to_csv(path)
    d = parse_distribution(f"table({path})")
    assert math.isclose(d.mean, 1.0, abs_tol=1e-2)


@pytest.mark.parametrize(
    "bad",
    ["", "exp", "exp(rate=x)", "mystery(a=1)", "gamma(shape=2)", "compound(r=2)"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(InvalidArgumentError):
        parse_distribution(bad)
