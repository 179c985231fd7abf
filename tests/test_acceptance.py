"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure next to its tolerance.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from switchkit import (
    GridFunction,
    GridSpec,
    ShapeCheckError,
    check_expected_shape,
    covariance_delay_route,
    covariance_from_expected,
    divisor_from_covariance,
    divisor_laplace,
    estimate_covariance,
    estimate_expected_value,
    expected_laplace_from_psi,
    expected_value_series,
    gd_check,
    iia_pipeline,
    make_exponential,
    make_gamma,
    make_geometric_compound,
    mean_from_expected,
    psi_from_expected_laplace,
    tabulate_cdf,
    diffusion2d_covariance,
    damped_cosine_covariance,
)

from conftest import gamma22_expected, grid_fn
from transform_oracle import talbot

S_PROBES = (0.1, 1.0, 10.0)
MC_TIMES = np.array([0.5, 1.0, 2.0, 4.0])
MC_PATHS = 100_000


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


def sech(t):
    return 1.0 / np.cosh(t)


def test_criterion_1_exponential_series():
    start = time.monotonic()
    grid = GridSpec.from_t_end(5.0, 1e-3)
    E = expected_value_series(make_exponential(1.0), grid)
    err = float(np.max(np.abs(E.values - np.exp(-2.0 * grid.times()))))
    elapsed = time.monotonic() - start
    report(
        "1 exponential closed form",
        err <= 1e-4 and elapsed <= 10.0,
        f"max abs err {err:.3e} (tol 1e-4), runtime {elapsed:.2f}s (cap 10s)",
    )


def test_criterion_2_gamma_series_and_bridge():
    grid = GridSpec.from_t_end(8.0, 1e-3)
    t = grid.times()
    E = expected_value_series(make_gamma(2.0, 2.0), grid)
    err_e = float(np.max(np.abs(E.values - gamma22_expected(t))))
    C = covariance_from_expected(E, mu=4.0)
    err_c = float(np.max(np.abs(C.values - np.cos(t / 2) * np.exp(-t / 2))))
    report(
        "2 gamma closed form",
        err_e <= 1e-3 and err_c <= 1e-3,
        f"E err {err_e:.3e} (tol 1e-3), C err {err_c:.3e} (tol 1e-3)",
    )


def test_criterion_3_monte_carlo_oracle():
    start = time.monotonic()
    grid = GridSpec.from_t_end(4.0, 0.5)
    idx = [1, 2, 4, 8]  # t = 0.5, 1, 2, 4
    worst = 0.0
    targets = {
        "exp E": (make_exponential(1.0), estimate_expected_value, np.exp(-2 * MC_TIMES)),
        "exp C": (make_exponential(1.0), estimate_covariance, np.exp(-2 * MC_TIMES)),
        "gamma E": (make_gamma(2.0, 2.0), estimate_expected_value, gamma22_expected(MC_TIMES)),
        "gamma C": (
            make_gamma(2.0, 2.0),
            estimate_covariance,
            np.cos(MC_TIMES / 2) * np.exp(-MC_TIMES / 2),
        ),
    }
    details = []
    for label, (dist, estimator, want) in targets.items():
        mean, stderr = estimator(dist, grid, MC_PATHS, seed=2026)
        z = np.abs(mean.values[idx] - want) / stderr.values[idx]
        worst = max(worst, float(np.max(z)))
        details.append(f"{label} max|z|={np.max(z):.2f}")
    elapsed = time.monotonic() - start
    report(
        "3 Monte Carlo oracle agreement",
        worst < 4.0 and elapsed <= 60.0,
        f"{'; '.join(details)} (cap 4 stderr), runtime {elapsed:.1f}s (cap 60s)",
    )


def test_criterion_4_divisibility_equivalence():
    exp1 = make_exponential(1.0)
    gamma22 = make_gamma(2.0, 2.0)
    compound2 = make_geometric_compound(make_exponential(2.0), r=2.0)
    cases = {
        "exp": (exp1, GridSpec.from_t_end(5.0, 1e-3), True),
        "compound": (compound2, GridSpec.from_t_end(5.0, 1e-3), True),
        "gamma": (gamma22, GridSpec.from_t_end(8.0, 1e-3), False),
    }
    ok = True
    details = []
    for label, (dist, grid, want) in cases.items():
        gd = gd_check(dist, 2.0).passed
        shape = check_expected_shape(expected_value_series(dist, grid)).passed
        ok &= gd == shape == want
        details.append(f"{label}: gd={gd} shape={shape} want={want}")
    report("4 divisibility/shape equivalence", ok, "; ".join(details))


def test_criterion_5_recovery_from_covariance():
    grid = GridSpec.from_t_end(40.0, 1e-3)
    t = grid.times()
    C = GridFunction(h=1e-3, values=(2 / np.pi) * np.arcsin(sech(t / 2)))
    mu, F_div, f_div = divisor_from_covariance(C)
    mu_rel = abs(mu - 2 * np.pi) / (2 * np.pi)
    err_F = float(np.max(np.abs(F_div.values - (1 - sech(t / 2)))))
    err_f = float(np.max(np.abs(f_div.values - 0.5 * np.tanh(t / 2) * sech(t / 2))))
    report(
        "5 recovery from covariance",
        mu_rel <= 1e-3 and err_F <= 1e-4 and err_f <= 5e-4,
        f"mu rel err {mu_rel:.3e} (tol 1e-3), CDF err {err_F:.3e} (tol 1e-4), "
        f"density err {err_f:.3e} (tol 5e-4)",
    )


def test_criterion_6_mean_identity():
    E_exp = grid_fn(lambda t: np.exp(-2 * t), 20.0, 1e-3)
    mu_exp = mean_from_expected(E_exp)
    E_gamma = grid_fn(gamma22_expected, 60.0, 5e-3)
    mu_gamma = mean_from_expected(E_gamma)
    report(
        "6 mean identity",
        abs(mu_exp - 1.0) <= 1e-4 and abs(mu_gamma - 4.0) <= 1e-3,
        f"exp mean {mu_exp:.6f} (want 1 +/- 1e-4), gamma mean {mu_gamma:.6f} (want 4 +/- 1e-3)",
    )


def test_criterion_7_laplace_round_trips():
    worst = 0.0
    for dist in (make_exponential(1.0), make_gamma(2.0, 2.0)):
        back = psi_from_expected_laplace(expected_laplace_from_psi(dist.laplace))
        for s in S_PROBES:
            worst = max(worst, abs(back(s) - dist.laplace(s)))
    t = 0.1 + 1e-2 * np.arange(491)
    inv = talbot(lambda s: 1.0 / (2.0 + s), t)
    err_inv = float(np.max(np.abs(inv - np.exp(-2 * t))))
    report(
        "7 Laplace round trips",
        worst <= 1e-12 and err_inv <= 1e-6,
        f"round-trip err {worst:.3e} (tol 1e-12), inversion err {err_inv:.3e} (tol 1e-6)",
    )


def test_criterion_8_divisibility_algebra():
    gamma22 = make_gamma(2.0, 2.0)
    comp = make_geometric_compound(gamma22, r=2.0)
    extracted = divisor_laplace(comp.laplace, 2.0)
    worst = max(abs(extracted(s) - gamma22.laplace(s)) for s in S_PROBES)
    exp1 = make_exponential(1.0)
    passes = [gd_check(exp1, 2.0).passed] + [gd_check(exp1, u).passed for u in (1.25, 1.5)]
    report(
        "8 divisibility algebra",
        worst <= 1e-10 and all(passes),
        f"compound/extract err {worst:.3e} (tol 1e-10), "
        f"membership at r=2,u=1.25,u=1.5: {passes}",
    )


def test_criterion_9_iia_pipeline():
    grid = GridSpec.from_t_end(40.0, 1e-3)
    t = grid.times()
    result = iia_pipeline(diffusion2d_covariance(), grid)
    mu_rel = abs(result.mu - 2 * np.pi) / (2 * np.pi)
    err_F = float(np.max(np.abs(result.divisor_cdf.values - (1 - sech(t / 2)))))
    err_f = float(
        np.max(np.abs(result.divisor_pdf.values - 0.5 * np.tanh(t / 2) * sech(t / 2)))
    )
    ok = result.screen.passed and mu_rel <= 1e-3 and err_F <= 1e-4 and err_f <= 5e-4
    try:
        iia_pipeline(damped_cosine_covariance(), GridSpec.from_t_end(10.0, 1e-3))
        rejected = False
    except ShapeCheckError:
        rejected = True
    report(
        "9 IIA pipeline",
        ok and rejected,
        f"diffusion2d: mu rel {mu_rel:.3e}, CDF err {err_F:.3e}, density err {err_f:.3e}; "
        f"damped cosine rejected: {rejected}",
    )


def test_criterion_10_covariance_route_cross_check():
    worst = 0.0
    details = []
    for dist, t_end in ((make_exponential(1.0), 10.0), (make_gamma(2.0, 2.0), 10.0)):
        grid = GridSpec.from_t_end(t_end, 1e-3)
        E = expected_value_series(dist, grid)
        F = tabulate_cdf(dist, grid)
        delay = covariance_delay_route(E, F, dist.mean)
        slope = covariance_from_expected(E, dist.mean)
        err = float(np.max(np.abs(delay.values - slope.values)))
        worst = max(worst, err)
        details.append(f"{dist.name}: {err:.3e}")
    report(
        "10 covariance route cross-check",
        worst <= 1e-3,
        f"{'; '.join(details)} (tol 1e-3)",
    )
