"""Typed refusals: each raise site below is reached by one case, with the
error type and message it promises.  A case whose refusal is an int runs the
CLI and expects that exit code with a single ``error:`` line on stderr."""

import math

import numpy as np
import pytest

from switchkit import (
    GeometricCompound,
    GridFunction,
    GridSpec,
    InvalidArgumentError,
    NumericError,
    ShapeReport,
    SwitchingDistribution,
    covariance_delay_route,
    covariance_from_expected,
    covariance_laplace,
    expected_from_covariance,
    gd_check,
    geometric_map,
    geometric_map_grid,
    make_exponential,
    make_gamma,
    make_geometric_compound,
    mean_from_expected,
    second_derivative,
    simulate_switch,
    solve_renewal,
    tabulate_cdf,
    tabulate_pdf,
)
from switchkit.cli import run


def _law(**fns) -> SwitchingDistribution:
    return SwitchingDistribution(name="law", mean=1.0, laplace=lambda s: 1 / (1 + s), **fns)


def _grid(values, h=0.1) -> GridFunction:
    return GridFunction(h=h, values=np.asarray(values, dtype=float))


CASES = {
    # E(t_end) = exp(-1) is far from zero: the grid ends before E has decayed
    "mean_from_expected_undecayed": (
        lambda: mean_from_expected(_grid(np.exp(-0.1 * np.arange(11)))),
        NumericError, "has not decayed"),
    # 1 + c h f(0)/2 = 1 - 0.5 * 0.1 * 40 / 2 = 0
    "solve_renewal_singular": (
        lambda: solve_renewal(_grid(np.full(5, 40.0)), _grid(np.ones(5)), -0.5),
        NumericError, "singular system"),
    "second_derivative_three_samples": (
        lambda: second_derivative(_grid(np.ones(3))),
        InvalidArgumentError, "at least 4 samples"),
    "grid_step_zero": (lambda: GridSpec(h=0.0, n=10), InvalidArgumentError, "grid step"),
    "grid_no_samples": (lambda: GridSpec(h=1.0, n=0), InvalidArgumentError, "at least one"),
    "law_mean_zero": (
        lambda: SwitchingDistribution(name="law", mean=0.0, laplace=lambda s: s),
        InvalidArgumentError, "mean must be finite and > 0, got 0.0"),
    "compound_without_divisor": (
        lambda: GeometricCompound(name="c", mean=1.0, laplace=lambda s: s),
        InvalidArgumentError, "requires a divisor"),
    "compound_r_one": (
        lambda: GeometricCompound(name="c", mean=1.0, laplace=lambda s: s,
                                  divisor=make_exponential(1.0), r=1.0),
        InvalidArgumentError, "r must be finite and > 1, got 1.0"),
    "tabulate_pdf_nan_interior": (
        lambda: tabulate_pdf(_law(pdf=lambda t: np.where(t > 0.5, np.nan, 1.0)),
                             GridSpec(h=0.1, n=11)),
        InvalidArgumentError, "not finite on the grid interior"),
    "tabulate_cdf_without_cdf": (
        lambda: tabulate_cdf(_law(pdf=lambda t: np.exp(-t)), GridSpec(h=0.1, n=11)),
        InvalidArgumentError, "no distribution function"),
    "cli_table_without_path": (
        lambda: run(["gd-check", "--dist", "table()", "--r", "2"]),
        1, "table(...) needs a CSV path"),
    "cli_positional_parameter": (
        lambda: run(["gd-check", "--dist", "exp(1)", "--r", "2"]),
        1, "expected key=value in '1'"),
    # a value derived from the given ones overflows: the refusal names them
    "cli_rate_whose_reciprocal_overflows": (
        lambda: run(["gd-check", "--dist", "exp(rate=1e-320)", "--r", "2"]),
        1, "1/rate (1/1e-320) must be finite and > 0, got inf"),
    "cli_compound_whose_mean_overflows": (
        lambda: run(["gd-check", "--dist", "compound(r=1e10,divisor=exp(rate=1e-300))",
                     "--r", "2"]),
        1, "r * divisor mean (1e+10 * 1e+300) must be finite and > 0, got inf"),
    "cli_gamma_whose_time_span_overflows": (
        lambda: run(["gd-check", "--dist", "gamma(shape=2,scale=1e307)", "--r", "2"]),
        1, "time span 40 * min(mean, 1/s*) (40 * min(2e+307, 2.41421e+307)) "
           "must be finite and > 0, got inf"),
    "cli_rate_whose_time_span_overflows": (
        lambda: run(["gd-check", "--dist", "exp(rate=6e-309)", "--r", "2"]),
        1, "time span 40 * min(mean, 1/s*) (40 * min(1.66667e+308, 1.66667e+308)) "
           "must be finite and > 0, got inf"),
    "shape_report_unknown_condition": (
        lambda: ShapeReport(passed=True, checked_conditions=(), limits=(1.0, 0.0))
        .violation("nope"),
        KeyError, "nope"),
    "delay_route_mismatched_grids": (
        lambda: covariance_delay_route(_grid(np.ones(10)), _grid(np.zeros(11)), 1.0),
        InvalidArgumentError, "share a grid"),
    "expected_from_covariance_zero_mean": (
        lambda: expected_from_covariance(_grid(np.ones(10)), 0.0),
        InvalidArgumentError, "mu must be finite and > 0, got 0.0"),
}


@pytest.mark.parametrize("call, refusal, message", CASES.values(), ids=CASES.keys())
def test_typed_refusal(call, refusal, message, capsys):
    if isinstance(refusal, int):
        assert call() == refusal
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
    else:
        with pytest.raises(refusal, match=message):
            call()


# Every scalar parameter of the package held to the one rule "finite and
# above a floor": (call with the value x, name in the message, floor).
SCALARS = {
    "GridSpec.h": (lambda x: GridSpec(h=x, n=10), "grid step", 0),
    "GridSpec.from_t_end.t_end": (lambda x: GridSpec.from_t_end(x, 0.1), "t_end", 0),
    "GridSpec.from_t_end.h": (lambda x: GridSpec.from_t_end(1.0, x), "grid step", 0),
    "GridFunction.h": (lambda x: _grid(np.ones(3), h=x), "grid step", 0),
    "SwitchingDistribution.mean": (
        lambda x: SwitchingDistribution(name="law", mean=x, laplace=lambda s: s), "mean", 0),
    "GeometricCompound.r": (
        lambda x: GeometricCompound(name="c", mean=1.0, laplace=lambda s: s,
                                    divisor=make_exponential(1.0), r=x), "r", 1),
    "make_exponential.rate": (make_exponential, "rate", 0),
    "make_gamma.shape": (lambda x: make_gamma(x, 1.0), "shape", 0),
    "make_gamma.scale": (lambda x: make_gamma(1.0, x), "scale", 0),
    "make_geometric_compound.r": (
        lambda x: make_geometric_compound(make_exponential(1.0), x), "r", 1),
    "geometric_map.q": (lambda x: geometric_map(lambda s: 1 / (1 + s), x), "q", 0),
    "geometric_map_grid.q": (lambda x: geometric_map_grid(_grid(np.ones(5)), x), "q", 0),
    "covariance_from_expected.mu": (
        lambda x: covariance_from_expected(_grid(np.ones(5)), x), "mu", 0),
    "expected_from_covariance.mu": (
        lambda x: expected_from_covariance(_grid(np.ones(5)), x), "mu", 0),
    "covariance_delay_route.mu": (
        lambda x: covariance_delay_route(_grid(np.ones(5)), _grid(np.zeros(5)), x), "mu", 0),
    "covariance_laplace.mu": (lambda x: covariance_laplace(lambda s: 1 / s, x), "mu", 0),
    "simulate_switch.horizon": (
        lambda x: simulate_switch(make_exponential(1.0), x, seed=1), "horizon", 0),
    "gd_check.r": (lambda x: gd_check(make_exponential(1.0), x), "r", 1),
}


@pytest.mark.parametrize("bad", ["floor", -1.0, math.inf, math.nan])
@pytest.mark.parametrize("call, name, floor", SCALARS.values(), ids=SCALARS.keys())
def test_scalar_arguments_share_one_refusal(call, name, floor, bad):
    x = float(floor) if bad == "floor" else bad
    with pytest.raises(InvalidArgumentError) as refusal:
        call(x)
    assert str(refusal.value) == f"{name} must be finite and > {floor}, got {x}"


# The scalars the CLI reads, with {} for the value: (argv, name, floor).
CLI_SCALARS = {
    "h": (["expected-value", "--dist", "exp(rate=1)", "--h", "{}"], "grid step", 0),
    "t_end": (["covariance", "--dist", "exp(rate=1)", "--t-end", "{}"], "t_end", 0),
    "horizon": (["simulate", "--dist", "exp(rate=1)", "--horizon", "{}"], "horizon", 0),
    "rate": (["gd-check", "--dist", "exp(rate={})", "--r", "2"], "rate", 0),
    "shape": (["gd-check", "--dist", "gamma(shape={},scale=1)", "--r", "2"], "shape", 0),
    "scale": (["gd-check", "--dist", "gamma(shape=2,scale={})", "--r", "2"], "scale", 0),
    "compound_r": (["gd-check", "--dist", "compound(r={},divisor=exp(rate=1))", "--r", "2"],
                   "r", 1),
    "gd_check_r": (["gd-check", "--dist", "exp(rate=1)", "--r", "{}"], "r", 1),
}


@pytest.mark.parametrize("bad", ["floor", "-1", "inf", "nan"])
@pytest.mark.parametrize("argv, name, floor", CLI_SCALARS.values(), ids=CLI_SCALARS.keys())
def test_cli_scalar_refusals_exit_one(argv, name, floor, bad, capsys, tmp_path):
    x = float(floor) if bad == "floor" else float(bad)
    argv = [a.format(x) for a in argv]
    if argv[0] != "gd-check":
        argv += ["--out", str(tmp_path / "x.csv")]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} must be finite and > {floor}, got {x}\n"
    assert not list(tmp_path.iterdir())
