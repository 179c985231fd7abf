import json
import math

import numpy as np
import pytest

from switchkit import (
    GridFunction,
    GridSpec,
    InvalidArgumentError,
    NumericError,
    ShapeCheckError,
    SwitchKitError,
    check_covariance_shape,
    check_expected_shape,
    covariance_delay_route,
    covariance_from_expected,
    derivative,
    divisor_density,
    divisor_from_covariance,
    divisor_from_expected,
    estimate_covariance,
    expected_from_covariance,
    expected_laplace_from_psi,
    expected_value_series,
    gd_check,
    make_exponential,
    make_gamma,
    make_geometric_compound,
    make_rng,
    make_tabulated,
    mean_from_expected,
    tabulate_cdf,
    tabulate_pdf,
)
from switchkit import distributions
from switchkit.recovery import LIMIT_TOL, MU_MISMATCH_TOL

from conftest import gamma22_expected, gamma22_expected_deriv, grid_fn
from transform_oracle import talbot

S_PROBES = (0.1, 1.0, 10.0)


def sech(t):
    return 1.0 / np.cosh(t)


# -- expected_value_series -------------------------------------------------------


def test_series_exponential(exp1):
    grid = GridSpec.from_t_end(5.0, 1e-3)
    E = expected_value_series(exp1, grid)
    assert np.max(np.abs(E.values - np.exp(-2 * grid.times()))) < 1e-4


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP items 3 and 10: at h = 1e-3 the grid density of exp(1e3) has "
    "trapezoid mass 1.082, so E(1) settles at 0.039 and C(1) at -79, and "
    "expected-value exits 0 without a word"))
def test_series_of_a_law_the_step_cannot_resolve_still_decays():
    E = expected_value_series(make_exponential(1e3), GridSpec.from_t_end(1.0, 1e-3))
    assert abs(E.values[-1]) < LIMIT_TOL


def test_series_is_one_at_origin(exp1, gamma22):
    grid = GridSpec.from_t_end(2.0, 1e-2)
    assert expected_value_series(exp1, grid).values[0] == 1.0
    assert expected_value_series(gamma22, grid).values[0] == 1.0


def test_series_gamma(gamma22):
    grid = GridSpec.from_t_end(8.0, 1e-3)
    E = expected_value_series(gamma22, grid)
    assert np.max(np.abs(E.values - gamma22_expected(grid.times()))) < 1e-3


def test_series_compound_matches_exponential(compound2):
    # the compound of rate-2 exponentials at order 2 is the rate-1
    # exponential, so its series must land on e^{-2t}
    grid = GridSpec.from_t_end(5.0, 2e-3)
    E = expected_value_series(compound2, grid)
    assert np.max(np.abs(E.values - np.exp(-2 * grid.times()))) < 5e-4


@pytest.mark.parametrize("nested", [False, True], ids=["compound", "nested"])
def test_compound_expected_value_is_one_solve(compound2, nested, monkeypatch):
    # a compound's E is one geometric map of its base law, at any depth
    dist = make_geometric_compound(compound2, r=1.5) if nested else compound2
    grid = GridSpec.from_t_end(5.0, 2e-3)
    solve = distributions.solve_renewal
    calls = []
    monkeypatch.setattr(distributions, "solve_renewal",
                        lambda *args: calls.append(args) or solve(*args))
    expected_value_series(dist, grid)
    assert len(calls) == 1


def test_nested_compound_is_the_compound_of_the_product_order():
    # Geometric(1/1.5) of Geometric(1/2) compounds is Geometric(1/3)
    grid = GridSpec.from_t_end(10.0, 2e-3)
    divisor = make_gamma(2.0, 1.0)
    nested = make_geometric_compound(make_geometric_compound(divisor, r=2.0), r=1.5)
    flat = make_geometric_compound(divisor, r=3.0)
    for fn in (expected_value_series, tabulate_pdf, tabulate_cdf):
        np.testing.assert_allclose(fn(nested, grid).values, fn(flat, grid).values,
                                   rtol=0, atol=1e-14)


@pytest.mark.parametrize("dist, floor", [
    (make_exponential(1.0), 1.9),
    (make_gamma(2.0, 2.0), 1.9),
    # a density infinite at the origin costs order: E converges like h^shape
    (make_gamma(0.5, 1.0), 0.45),
    (make_gamma(0.8, 1.0), 0.75),
], ids=["exp1", "gamma22", "gamma05", "gamma08"])
def test_series_observed_order(dist, floor):
    # the worst error at t = 0.5, 1, 2, 4 against the inverted transform,
    # each time h is halved
    t = np.array([0.5, 1.0, 2.0, 4.0])
    want = talbot(expected_laplace_from_psi(dist.laplace), t)
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        E = expected_value_series(dist, GridSpec.from_t_end(4.0, h))
        errs.append(np.max(np.abs(E.values[np.round(t / h).astype(int)] - want)))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders >= floor), orders


# -- E' = -(2-divisor density) -------------------------------------------------------


def test_derivative_series_exponential(exp1):
    grid = GridSpec.from_t_end(5.0, 1e-3)
    dE = -divisor_density(exp1, 2.0, grid).values
    t = grid.times()
    mask = t >= 0.1
    assert np.max(np.abs(dE[mask] + 2 * np.exp(-2 * t[mask]))) < 1e-3


def test_derivative_series_consistent_with_series(gamma22):
    grid = GridSpec.from_t_end(6.0, 1e-3)
    dE = -divisor_density(gamma22, 2.0, grid).values
    dE_num = derivative(expected_value_series(gamma22, grid))
    t = grid.times()
    mask = t >= 0.05
    assert np.max(np.abs(dE[mask] - dE_num.values[mask])) < 1e-3


def test_derivative_series_gamma_closed_form(gamma22):
    grid = GridSpec.from_t_end(6.0, 1e-3)
    dE = -divisor_density(gamma22, 2.0, grid).values
    t = grid.times()
    mask = t >= 0.1
    assert np.max(np.abs(dE[mask] - gamma22_expected_deriv(t[mask]))) < 1e-3


# -- bridges --------------------------------------------------------------------------


def test_covariance_from_expected_exponential():
    E = grid_fn(lambda t: np.exp(-2 * t), 8.0, 1e-3)
    C = covariance_from_expected(E, mu=1.0)
    np.testing.assert_allclose(C.values, np.exp(-2 * C.times()), atol=1e-6)


def test_covariance_from_zero_expected_is_one():
    E = GridFunction(h=0.1, values=np.zeros(50))
    np.testing.assert_array_equal(covariance_from_expected(E, mu=2.0).values, 1.0)


def test_covariance_bridge_gamma(gamma22):
    grid = GridSpec.from_t_end(8.0, 1e-3)
    E = expected_value_series(gamma22, grid)
    C = covariance_from_expected(E, mu=4.0)
    t = grid.times()
    np.testing.assert_allclose(C.values, np.cos(t / 2) * np.exp(-t / 2), atol=1e-3)


def test_expected_from_covariance_exponential():
    C = grid_fn(lambda t: np.exp(-2 * t), 8.0, 1e-3)
    E = expected_from_covariance(C, mu=1.0)
    assert np.max(np.abs(E.values - np.exp(-2 * E.times()))) < 5e-4


def test_bridge_round_trip():
    E = grid_fn(lambda t: np.exp(-2 * t), 8.0, 1e-3)
    back = expected_from_covariance(covariance_from_expected(E, mu=1.0), mu=1.0)
    assert np.max(np.abs(back.values - E.values)) < 1e-4


def test_expected_from_arcsine_covariance():
    C = grid_fn(lambda t: (2 / np.pi) * np.arcsin(sech(t / 2)), 40.0, 1e-3)
    E = expected_from_covariance(C, mu=2 * np.pi)
    assert np.max(np.abs(E.values - sech(E.times() / 2))) < 1e-4


def test_bridge_validates_mu():
    E = grid_fn(lambda t: np.exp(-t), 2.0, 0.01)
    with pytest.raises(InvalidArgumentError):
        covariance_from_expected(E, mu=-1.0)


# -- mean_from_expected ---------------------------------------------------------------


def test_mean_exponential():
    E = grid_fn(lambda t: np.exp(-2 * t), 20.0, 1e-3)
    assert math.isclose(mean_from_expected(E), 1.0, abs_tol=1e-4)


def test_mean_gamma():
    E = grid_fn(gamma22_expected, 60.0, 5e-3)
    assert math.isclose(mean_from_expected(E), 4.0, abs_tol=1e-3)


def test_mean_sech():
    E = grid_fn(lambda t: sech(t / 2), 60.0, 5e-3)
    assert math.isclose(mean_from_expected(E), 2 * np.pi, abs_tol=1e-3)


@pytest.mark.parametrize("t_end", [2.0, 5.0, 10.0, 20.0])
def test_mean_compactly_supported(t_end):
    # E = (1 - t)_+ is that of compound(2, uniform[0, 1]), mu = 1: E is zero
    # past t = 1, so the mean may not depend on how far the grid runs
    E = grid_fn(lambda t: np.clip(1 - t, 0, None), t_end, 1e-3)
    assert math.isclose(mean_from_expected(E), 1.0, rel_tol=1e-6)


def test_mean_refuses_non_decaying_tail():
    E = grid_fn(lambda t: 0.5 + 0.1 * np.sin(t), 30.0, 1e-2)
    with pytest.raises(NumericError, match="has not decayed"):
        mean_from_expected(E)


def test_mean_refuses_fat_grid_end():
    # this E decays, but E(10) = 0.61: the grid ends before it has
    E = grid_fn(lambda t: np.exp(-0.05 * t), 10.0, 1e-2)
    with pytest.raises(NumericError, match="has not decayed"):
        mean_from_expected(E)


# -- shape screens -----------------------------------------------------------------------


def test_expected_shape_accepts_exponential():
    E = grid_fn(lambda t: np.exp(-2 * t), 8.0, 1e-3)
    assert check_expected_shape(E).passed


def test_expected_shape_rejects_oscillation():
    E = grid_fn(gamma22_expected, 8.0, 1e-3)
    report = check_expected_shape(E)
    assert not report.passed
    assert report.violation("nonincreasing") > 1e-6


def test_expected_shape_rejects_constant_one():
    E = GridFunction(h=0.01, values=np.ones(500))
    report = check_expected_shape(E)
    assert not report.passed
    assert report.violation("decays_to_zero") > 1e-3
    assert report.violation("starts_at_one") == 0.0


def test_clean_sign_condition_reports_positive_zero():
    # the largest excess of a clean condition can be -0.0 (here -C at the
    # zero tail); the report and its JSON carry 0.0
    C = GridFunction(h=1.0, values=np.array([1.0, 0.6, 0.3, 0.1, 0.0, 0.0]))
    report = check_covariance_shape(C)
    for _, worst, _ in report.checked_conditions:
        assert math.copysign(1.0, worst) == 1.0
    assert "-0.0" not in json.dumps(report.to_json_dict())


def test_covariance_shape_accepts_arcsine():
    C = grid_fn(lambda t: (2 / np.pi) * np.arcsin(sech(t / 2)), 40.0, 1e-3)
    assert check_covariance_shape(C).passed


def test_covariance_shape_rejects_damped_cosine():
    C = grid_fn(lambda t: np.cos(t / 2) * np.exp(-t / 2), 12.0, 1e-3)
    report = check_covariance_shape(C)
    assert not report.passed
    assert report.violation("nonnegative") > 1e-6
    assert report.violation("convex") > 1e-6


def test_covariance_shape_constant_one_fails_only_decay():
    C = GridFunction(h=0.01, values=np.ones(500))
    report = check_covariance_shape(C)
    assert not report.passed
    failing = {n for n, v, _ in report.checked_conditions if v > report.tolerances[n]}
    assert failing == {"decays_to_zero"}


def test_shape_report_json():
    C = grid_fn(lambda t: np.exp(-2 * t), 8.0, 1e-3)
    obj = check_covariance_shape(C).to_json_dict()
    assert obj["passed"] is True
    assert {c["name"] for c in obj["checked_conditions"]} >= {"nonnegative", "convex"}


# -- divisor recovery -----------------------------------------------------------------------


def test_divisor_from_expected_exponential():
    # the order-2 divisor of the rate-1 exponential law is the rate-2
    # exponential (its transform is 2/(2+s)); check CDF and density
    E = grid_fn(lambda t: np.exp(-2 * t), 10.0, 1e-3)
    _, F_div, f_div = divisor_from_expected(E)
    t = E.times()
    np.testing.assert_allclose(F_div.values, 1 - np.exp(-2 * t), atol=1e-5)
    np.testing.assert_allclose(f_div.values, 2 * np.exp(-2 * t), atol=1e-3)
    assert F_div.values[0] == 0.0


def test_divisor_from_expected_sech():
    E = grid_fn(lambda t: sech(t / 2), 40.0, 1e-3)
    _, F_div, f_div = divisor_from_expected(E)
    t = E.times()
    np.testing.assert_allclose(F_div.values, 1 - sech(t / 2), atol=1e-5)
    np.testing.assert_allclose(f_div.values, 0.5 * np.tanh(t / 2) * sech(t / 2), atol=1e-4)


@pytest.mark.parametrize("table", [
    # passes the screen with E(t_end) = -5e-4: 1 - E overshoots one
    (lambda t: np.exp(-2 * t) - 5e-4 * t / 10, 10.0),
    # passes the screen with E' = 5e-7 > 0 past t = 15: 1 - E falls
    (lambda t: np.exp(-2 * t) + 5e-7 * np.maximum(t - 15, 0), 20.0),
])
def test_both_routes_clip_the_divisor_cdf_to_a_distribution_function(table):
    def rule(E):
        return np.maximum.accumulate(np.clip(1.0 - E.values, 0.0, 1.0))

    fn, t_end = table
    E = grid_fn(fn, t_end, 1e-3)
    F_div = divisor_from_expected(E)[1].values
    assert F_div[-1] <= 1.0 and np.all(np.diff(F_div) >= 0)
    np.testing.assert_array_equal(F_div, rule(E))
    C = grid_fn(lambda t: (2 / np.pi) * np.arcsin(sech(t / 2)), 40.0, 1e-3)
    mu, F_cov, _ = divisor_from_covariance(C)
    np.testing.assert_array_equal(F_cov.values, rule(expected_from_covariance(C, mu)))


def test_divisor_from_expected_refuses_bad_shape(gamma22):
    grid = GridSpec.from_t_end(8.0, 1e-3)
    E = expected_value_series(gamma22, grid)
    with pytest.raises(ShapeCheckError) as exc_info:
        divisor_from_expected(E)
    assert exc_info.value.report is not None


def test_divisor_from_covariance_arcsine():
    C = grid_fn(lambda t: (2 / np.pi) * np.arcsin(sech(t / 2)), 40.0, 1e-3)
    mu, F_div, f_div = divisor_from_covariance(C)
    t = C.times()
    assert abs(mu - 2 * np.pi) / (2 * np.pi) < 1e-3
    assert np.max(np.abs(F_div.values - (1 - sech(t / 2)))) < 1e-4
    assert np.max(np.abs(f_div.values - 0.5 * np.tanh(t / 2) * sech(t / 2))) < 5e-4
    assert F_div.values[0] == 0.0
    assert np.all(np.diff(F_div.values) >= 0)


def test_divisor_from_covariance_exponential():
    C = grid_fn(lambda t: np.exp(-2 * t), 10.0, 1e-3)
    mu, F_div, f_div = divisor_from_covariance(C)
    assert abs(mu - 1.0) < 1e-3
    np.testing.assert_allclose(F_div.values, 1 - np.exp(-2 * C.times()), atol=1e-4)


def test_covariance_route_takes_each_derivative_once(monkeypatch):
    # the screen, mu, E and the divisor density share one C' and one C''
    from switchkit import recovery
    calls = []
    for name in ("derivative", "second_derivative"):
        def counted(g, fn=getattr(recovery, name), name=name):
            calls.append(name)
            return fn(g)
        monkeypatch.setattr(recovery, name, counted)
    C = grid_fn(lambda t: np.exp(-2 * t), 10.0, 1e-3)
    report = recovery.check_covariance_shape(C)
    assert sorted(calls) == ["derivative", "second_derivative"]
    calls.clear()
    got = recovery._covariance_route(C)
    assert sorted(calls) == ["derivative", "second_derivative"]
    assert got[0] == report


def test_divisor_from_covariance_cross_validation_failure():
    # C = exp(-50 t) is resolved by only a few steps of h = 0.01, so the
    # slope and integral estimates of mu differ by ~4%, beyond MU_MISMATCH_TOL
    C = grid_fn(lambda t: np.exp(-50.0 * t), 8.0, 0.01)
    with pytest.raises(NumericError, match="cross-validation"):
        divisor_from_covariance(C)


def test_compactly_supported_covariance_is_recovered_at_any_length():
    # (1 - t)_+^2 is the covariance of compound(2, uniform[0, 1]), mu = 1;
    # E vanishes past t = 1, so neither verdict nor law may depend on t_end
    recovered = [divisor_from_covariance(grid_fn(lambda t: np.clip(1 - t, 0, None) ** 2,
                                                 t_end, 1e-3))
                 for t_end in (2.0, 10.0, 40.0)]
    head = recovered[0][2].values
    for mu, _, f_div in recovered:
        assert abs(mu - 1.0) < 1e-12
        assert np.max(np.abs(f_div.values[:len(head)] - head)) <= 1e-15


@pytest.mark.parametrize("dist", [
    make_geometric_compound(make_gamma(2.0, 1.0), r=2.0),
    pytest.param(make_exponential(1.0), marks=pytest.mark.xfail(
        strict=True, raises=ShapeCheckError,
        reason="benchmark task i7, ROADMAP item 3: the tabulated E integrates to "
               "mu (1 + 3.6e-6), so C(40) = -3.6e-6 and the C screen refuses it")),
], ids=["compound-gamma", "exp"])
def test_both_routes_recover_the_laws_mean(dist):
    # mu = 2 int E is the one mean rule: the E route applies it to E, the C
    # route to E = -(mu/2) C' after mu = -2/C'(0)
    E = expected_value_series(dist, GridSpec.from_t_end(40 * dist.mean, 1e-3))
    mus = (divisor_from_expected(E)[0],
           divisor_from_covariance(covariance_from_expected(E, dist.mean))[0])
    for mu in mus:
        assert math.isclose(mu, dist.mean, rel_tol=1e-6)


def _atom_expected(at):
    # E of a law whose 2-divisor is half an atom at ``at``, half exp(1)
    return lambda t: 1.0 - (0.5 * (t >= at) + 0.5 * (1.0 - np.exp(-t)))


def _exit_class(route, table):
    """(0, mu) when ``route`` accepts ``table``; else (the CLI's exit code, None)."""
    try:
        return 0, route(table)[0]
    except InvalidArgumentError:
        return 1, None
    except SwitchKitError:
        return 2, None


@pytest.mark.parametrize("fn, code", [
    (_atom_expected(1.0), 0),
    (_atom_expected(0.005), 0),
    (lambda t: np.exp(-40.0 * t), 0),
    # the grid cannot carry these divisors: -E' has mass 1.0023 and 1.25
    (lambda t: np.exp(-100.0 * t), 2),
    (lambda t: np.exp(-2e4 * t), 2),
    (lambda t: np.clip(1.0 - t, 0.0, None), 0),
], ids=["atom-at-1", "atom-at-0.005", "exp40", "exp100", "exp2e4", "uniform"])
def test_both_routes_reach_one_verdict_on_a_table(fn, code):
    # the theorem asks E to be non-negative and decreasing, not
    # differentiable: a divisor with an atom is recovered from E as from C
    E = grid_fn(fn, 40.0, 1e-3)
    (code_E, mu_E), (code_C, mu_C) = (
        _exit_class(divisor_from_expected, E),
        _exit_class(divisor_from_covariance, covariance_from_expected(E, mean_from_expected(E))))
    assert code_E == code_C == code
    if code == 0:
        assert abs(mu_E - mu_C) <= MU_MISMATCH_TOL * mu_E


def test_switching_law_from_divisor_closed_form():
    compound = make_geometric_compound(make_exponential(2.0), r=2.0)
    for s in S_PROBES:
        assert math.isclose(compound.laplace(s), 1.0 / (1.0 + s), rel_tol=1e-12)
    assert math.isclose(compound.laplace(0.0), 1.0, rel_tol=1e-12)
    assert compound.r == 2.0


def test_switching_law_from_tabulated_divisor_sampling():
    f = grid_fn(lambda t: 0.5 * np.tanh(t / 2) * sech(t / 2), 60.0, 2e-3)
    compound = make_geometric_compound(make_tabulated(f), r=2.0)
    draws = compound.sample(make_rng(3), size=100_000)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - 2 * compound.divisor.mean) < 4 * se


# -- equivalence and consistency ---------------------------------------------------------------


def test_divisibility_and_shape_verdicts_agree(exp1, gamma22, compound2):
    grid = GridSpec.from_t_end(8.0, 1e-3)
    for dist, want in ((exp1, True), (gamma22, False), (compound2, True)):
        shape_ok = check_expected_shape(expected_value_series(dist, grid)).passed
        gd_ok = gd_check(dist, 2.0).passed
        assert shape_ok == gd_ok == want, dist.name


@pytest.mark.parametrize("r", [2.0, 3.0, 5.0])
def test_higher_order_compounds_have_monotone_expected(r):
    comp = make_geometric_compound(make_exponential(2.0), r=r)
    grid = GridSpec.from_t_end(10.0 * comp.mean, 2e-3)
    E = expected_value_series(comp, grid)
    assert check_expected_shape(E).passed


def test_covariance_bridge_matches_monte_carlo(exp1):
    grid_mc = GridSpec.from_t_end(2.0, 0.5)
    mc, se = estimate_covariance(exp1, grid_mc, 20_000, seed=44)
    grid = GridSpec.from_t_end(2.0, 1e-3)
    C = covariance_from_expected(expected_value_series(exp1, grid), mu=1.0)
    analytic = C.interp(grid_mc.times())
    z = np.abs(mc.values - analytic) / np.where(se.values > 0, se.values, 1.0)
    assert np.max(z) < 4.0


@pytest.mark.parametrize("name", ["exp", "gamma"])
def test_delay_route_agrees_with_slope_route(name, exp1, gamma22):
    dist = exp1 if name == "exp" else gamma22
    grid = GridSpec.from_t_end(10.0, 1e-3)
    E = expected_value_series(dist, grid)
    F = tabulate_cdf(dist, grid)
    via_delay = covariance_delay_route(E, F, dist.mean)
    via_slope = covariance_from_expected(E, dist.mean)
    assert np.max(np.abs(via_delay.values - via_slope.values)) < 1e-3


def test_full_recovery_round_trip(exp1):
    # law -> E -> divisor -> compound: the rebuilt transform matches the
    # original at the probe points (h set by the trapezoid error of the
    # divisor transform quadrature at s=10)
    grid = GridSpec.from_t_end(12.0, 5e-4)
    E = expected_value_series(exp1, grid)
    _, _, f_div = divisor_from_expected(E)
    compound = make_geometric_compound(make_tabulated(f_div), r=2.0)
    for s in S_PROBES:
        assert abs(compound.laplace(s) - exp1.laplace(s)) < 1e-6
