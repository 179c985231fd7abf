import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammainc
from scipy.stats import gamma as scipy_gamma

from switchkit import (
    GridFunction,
    GridSpec,
    InvalidArgumentError,
    make_exponential,
    make_gamma,
    make_geometric_compound,
    make_rng,
    make_tabulated,
    parse_distribution,
    tabulate_cdf,
    tabulate_pdf,
)
from switchkit import distributions

import exp_reference
from cm_reference import cm_check
import transform_oracle
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


EXP_RATES = (1e-3, 0.722751, 1.0, 3.7, 10.0, 123.456)


def _rel_err(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))


@pytest.mark.parametrize("rate", EXP_RATES)
def test_exponential_is_the_frozen_reference(rate):
    new, old = make_exponential(rate), exp_reference.make_exponential(rate)
    assert new.name == old.name and new.mean == old.mean
    for size in (None, 1, 1000):
        for draw in ("sample", "sample_size_biased"):
            got, want = getattr(new, draw)(7, size), getattr(old, draw)(7, size)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (draw, size)
    # rate t up to 700, where the density is still a normal double
    t = np.concatenate([[0.0], np.logspace(-6, math.log10(700.0), 400)]) / rate
    assert _rel_err(new.pdf(t), old.pdf(t)) <= 2e-13
    assert _rel_err(new.cdf(t), old.cdf(t)) <= 1e-15
    s = rate * np.logspace(-3, 3, 61)
    assert _rel_err(new.laplace(s), old.laplace(s)) <= 1e-15
    z = s[:, None] + 1j * rate * np.linspace(-50.0, 50.0, 41)[None, :]
    assert _rel_err(new.laplace(z), old.laplace(z)) <= 1e-15


# -- gamma ----------------------------------------------------------------------


def test_gamma_laplace_and_mean(gamma22):
    assert math.isclose(gamma22.laplace(0.5), 0.25, rel_tol=1e-12)
    assert gamma22.mean == 4.0


def test_gamma_shape1_equals_exponential():
    g = make_gamma(1.0, 1.0)
    e = make_exponential(1.0)
    s = np.logspace(-2, 2, 25)
    np.testing.assert_allclose(g.laplace(s), e.laplace(s), rtol=1e-12)


@pytest.mark.parametrize("shape, origin", [(0.5, math.inf), (1.0, 2.0), (2.0, 0.0)])
def test_gamma_density_at_the_origin_and_off_its_support(shape, origin):
    pdf = make_gamma(shape, 0.5).pdf(np.array([-1.0, 0.0, np.inf, np.nan]))
    np.testing.assert_array_equal(pdf, [0.0, origin, 0.0, 0.0])


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


@pytest.mark.parametrize("shape", [0.5, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("size", [None, 1, 1000])
def test_gamma_samplers_draw_the_bits_of_numpy_gamma(shape, size):
    law = make_gamma(shape, 1.7)
    for draw, want_shape in ((law.sample, shape), (law.sample_size_biased, shape + 1.0)):
        got, want = draw(make_rng(11), size), make_rng(11).gamma(want_shape, 1.7, size)
        assert type(got) is type(want)
        np.testing.assert_array_equal(got, want)


GAMMA_P_SHAPES = (0.05, 0.2, 0.5, 0.8, 1.5, 2.0, 3.3, 10.0, 50.0, 200.0, 1000.0, 1e4)


@pytest.mark.parametrize("a", GAMMA_P_SHAPES)
def test_gamma_p_matches_scipy(a):
    # 4.9e-15 worst measured (a = 0.5), most of it the reference's own error;
    # also the branch edge x = a + 1 and its two neighbouring doubles
    x = np.linspace(0.0, 3 * a + 40, 60_001)
    edge = np.array([np.nextafter(a + 1, 0), a + 1, np.nextafter(a + 1, np.inf)])
    for points in (x, edge):
        assert np.max(np.abs(distributions._gamma_p(a, points) - gammainc(a, points))) <= 1e-14


@pytest.mark.parametrize("a", [1000.0, 1e4])
def test_gamma_p_near_a_large_shape(a):
    # log1p(u) - u cancels within a few sqrt(a) of x = a: 4.4e-16 measured,
    # 1.9e-15 at a = 1e4 without the atanh series; the reference is within
    # 1.1e-16 of 40-digit values there
    x = a + np.sqrt(a) * np.linspace(-10.0, 10.0, 4_001)
    assert np.max(np.abs(distributions._gamma_p(a, x) - gammainc(a, x))) <= 1e-15


@pytest.mark.parametrize("a", GAMMA_P_SHAPES)
def test_gamma_p_at_the_ends_of_the_axis(a):
    x = np.array([0.0, 5e-324, 1e-300, 1e300, np.inf, np.nan])
    got, want = distributions._gamma_p(a, x), gammainc(a, x)
    assert got[0] == 0.0 and got[3] == got[4] == 1.0 and np.isnan(got[5])
    # below shape 1 the tiny arguments have P far above underflow
    exact = (want == 0) | (want == 1)
    np.testing.assert_array_equal(got[:5][exact[:5]], want[:5][exact[:5]])
    assert np.max(np.abs(got[:5] - want[:5])) <= 1e-14


def test_gamma_p_keeps_the_shape_of_its_argument():
    got = distributions._gamma_p(2.0, 1.0)
    assert isinstance(got, np.float64) and abs(got - gammainc(2.0, 1.0)) <= 1e-15
    assert distributions._gamma_p(2.5, np.ones((2, 3))).shape == (2, 3)
    assert distributions._gamma_p(2.5, np.array([])).shape == (0,)


@pytest.mark.parametrize("shape", [0.05, 0.5, 1.0, 2.0, 3.3, 50.0])
def test_gamma_density_and_cdf_match_scipy(shape):
    law, ref = make_gamma(shape, 1.7), scipy_gamma(shape, scale=1.7)
    t = np.linspace(0.0, (3 * shape + 40) * 1.7, 20_001)[1:]
    np.testing.assert_allclose(law.pdf(t), ref.pdf(t), rtol=1e-12, atol=1e-300)
    assert np.max(np.abs(law.cdf(t) - ref.cdf(t))) <= 1e-14


# (x, x^(a-1) e^-x / Gamma(a)) at 40 digits, rounded to double: nine points
# over a +- 4 sqrt(a), x > 0
GAMMA_PDF_40_DIGITS = {
    2.5: [
        (0.125, 0.02933877723035829),
        (0.5, 0.16131381634609557),
        (1.0, 0.2767383316137298),
        (1.5, 0.30836065960753856),
        (2.5, 0.2440830426987748),
        (3.5, 0.14874253544024565),
        (4.5, 0.07977327141488413),
        (6.5, 0.018742162665522116),
        (8.5, 0.0037930545856335192),
    ],
    50.0: [
        (22.0, 2.7550398832281057e-07),
        (29.0, 0.00019004526506231852),
        (36.0, 0.006920162949629384),
        (43.0, 0.03812297053423574),
        (50.0, 0.05632500632519082),
        (57.0, 0.03154841836062728),
        (64.0, 0.008392029759487706),
        (71.0, 0.0012377872474313904),
        (78.0, 0.00011312564678151272),
    ],
    1000.0: [
        (876.0, 3.2733443335189104e-06),
        (907.0, 0.0001380195047315869),
        (938.0, 0.001810369787721523),
        (969.0, 0.007969959001423358),
        (1000.0, 0.012614611348721499),
        (1031.0, 0.007641023825274665),
        (1062.0, 0.0018750300198543334),
        (1093.0, 0.00019634906854158063),
        (1124.0, 9.202440972545437e-06),
    ],
    10000.0: [
        (9600.0, 1.1188152326344706e-06),
        (9700.0, 4.166985083846276e-05),
        (9800.0, 0.0005362084783323951),
        (9900.0, 0.00243593344317132),
        (10000.0, 0.003989389558962826),
        (10100.0, 0.002403669257862049),
        (10200.0, 0.0005434098589667711),
        (10300.0, 4.6986349278486105e-05),
        (10400.0, 1.582972367708167e-06),
    ],
}


@pytest.mark.parametrize("scale", [1.0, 2.0])
@pytest.mark.parametrize("shape", sorted(GAMMA_PDF_40_DIGITS))
def test_gamma_density_near_the_mode(shape, scale):
    # exp((a - 1) log t - t - lgamma(a)) cancels there: 1.5e-11 off at
    # a = 1e4; the shared prefactor's worst is 1.9e-14, at a = 50
    x, want = np.array(GAMMA_PDF_40_DIGITS[shape]).T
    got = make_gamma(shape, scale).pdf(scale * x) * scale  # exact: scale is a power of 2
    np.testing.assert_allclose(got, want, rtol=5e-14, atol=0)


def test_exponential_density_keeps_its_formula():
    t = np.linspace(0.0, 30.0, 3_001)[1:]
    np.testing.assert_array_equal(make_gamma(1.0, 0.5).pdf(t), np.exp(-t / 0.5 - math.log(0.5)))


def test_exponential_cdf_is_minus_expm1():
    t = np.linspace(0.0, 30.0, 3_001)
    np.testing.assert_array_equal(make_gamma(1.0, 0.5).cdf(t), -np.expm1(-t / 0.5))


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


class _Uniforms:
    """Stands in for a Generator: ``random(size)`` hands out the first
    ``size`` of the given uniforms (the first one alone when size is None)."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return float(self.u[0]) if size is None else self.u[:size].copy()


def _gapped_table():
    """A density that is 0 on [0, 0.5] and on [1, 2], so CDF knots repeat."""
    t = GridSpec.from_t_end(20.0, 1e-3).times()
    vals = np.where((t > 0.5) & ((t < 1.0) | (t > 2.0)), np.exp(-t), 0.0)
    return GridFunction(h=1e-3, values=vals / np.trapezoid(vals, dx=1e-3))


@pytest.mark.parametrize("size", [None, 0, 1, 131_072])
@pytest.mark.parametrize("table", ["smooth", "gapped"])
def test_tabulated_samplers_draw_the_bits_of_one_interp(table, size):
    # each draw is np.interp of its own uniform, in draw order, whatever
    # order the sampler evaluates them in
    pdf = grid_fn(lambda t: np.exp(-t), 40.0, 1e-3) if table == "smooth" else _gapped_table()
    law, t = make_tabulated(pdf), pdf.times()
    knots = law.cdf(t)
    biased_knots = distributions.cdf_from_density(
        pdf.with_values(t * law.pdf(t) / law.mean)).values
    on_knots = np.concatenate([knots[[1, 499, 500, 501, 1500, 2001, 7777]],
                               biased_knots[[1, 600, 1500, 2001, 7777]]])
    assert (np.unique(knots[:2500]).size < 1600) == (table == "gapped")  # repeated knots
    u = make_rng(5).random(131_072)
    u[: 1 + on_knots.size] = np.concatenate([[0.0], on_knots])
    starts = [u[i:] for i in range(1 + on_knots.size)] if size is None else [u]
    for draw, cdf in ((law.sampler, knots), (law.size_biased_sampler, biased_knots)):
        for start in starts:
            got = draw(_Uniforms(start), size)
            want = np.interp(start[0] if size is None else start[:size], cdf, t)
            assert type(got) is type(want)
            np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                          np.asarray(want).view(np.uint64))


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


def test_tabulated_laplace_memory_grows_with_the_root_of_the_length():
    # 200 001 points split into 448 x 447 steps: a block of 128 real
    # s-values holds 128 x (448 + 2 x 447) doubles, 1.4 MB
    tab = make_tabulated(grid_fn(lambda t: np.exp(-t), 20.0, 1e-4))
    tracemalloc.start()
    try:
        tab.laplace(np.linspace(0.1, 10.0, 128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _table(n):
    """A tabulated law on n points with its grid and trapezoid weights times
    density, the terms of the direct sum: uniform on [0, 1] for n <= 3,
    exp(1) over 40 means otherwise."""
    h = 1.0 / (n - 1) if n <= 3 else 40.0 / (n - 1)
    t = h * np.arange(n)
    law = make_tabulated(GridFunction(h=h, values=np.ones(n) if n <= 3 else np.exp(-t)))
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    return law, t, w * law.pdf(t)


def _cm_lattice():
    # the 40 x 13 s-points at which the frozen CM screen evaluates a transform
    seen = []
    cm_check(lambda s: seen.append(s) or np.exp(-s))
    return seen[0]


@pytest.mark.parametrize("n", [2, 3, 4_001, 10_007, 40_001])
def test_tabulated_laplace_equals_the_frozen_direct_sum(n):
    law, t, wv = _table(n)
    for s in (_cm_lattice(), np.array([1 + 2j, 0.5 - 3j]), np.array(-0.5)):
        got = law.laplace(s)
        assert got.shape == s.shape and got.dtype == np.result_type(s, float)
        np.testing.assert_allclose(got, transform_oracle.tabulated(s, t, wv), rtol=1e-14, atol=0)


def test_tabulated_laplace_blocks_give_the_same_values(monkeypatch):
    s = np.concatenate([_cm_lattice().ravel(), [1 + 2j, 0.5 - 3j]])
    whole = _table(4_001)[0].laplace(s)
    monkeypatch.setattr(distributions, "_KERNEL_BLOCK", 1000)
    np.testing.assert_allclose(_table(4_001)[0].laplace(s), whole, rtol=1e-14, atol=0)


def test_tabulated_laplace_is_as_close_to_the_long_double_sum_as_the_direct_sum():
    # both forms lose a few ulps summing the ~10^3 positive terms that
    # matter; on this table the split measured 1.2e-15, the direct sum 1.6e-15
    law, t, wv = _table(40_001)
    s = _cm_lattice()
    exact = np.concatenate([
        transform_oracle.tabulated(row.astype(np.longdouble), t.astype(np.longdouble),
                                   wv.astype(np.longdouble))
        for row in s
    ])
    err = np.max(np.abs(law.laplace(s).ravel() / exact - 1))
    assert err <= 2e-15
    assert err <= np.max(np.abs(transform_oracle.tabulated(s, t, wv).ravel() / exact - 1))


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
    ["", "exp", "exp(rate=x)", "mystery(a=1)", "gamma(shape=2)", "compound(r=2)",
     "exp(rate=1,rate=2)", "compound(r=2,divisor=exp(rate=1),divisor=exp(rate=5))"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(InvalidArgumentError):
        parse_distribution(bad)
