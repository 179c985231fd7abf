"""Typed refusals: each raise site below is reached by one case, with the
error type and message it promises.  A case whose refusal is an int runs the
CLI and expects that exit code with a single ``error:`` line on stderr."""

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
    expected_from_covariance,
    make_exponential,
    mean_from_expected,
    second_derivative,
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
        InvalidArgumentError, "mean must be in"),
    "compound_without_divisor": (
        lambda: GeometricCompound(name="c", mean=1.0, laplace=lambda s: s),
        InvalidArgumentError, "requires a divisor"),
    "compound_r_one": (
        lambda: GeometricCompound(name="c", mean=1.0, laplace=lambda s: s,
                                  divisor=make_exponential(1.0), r=1.0),
        InvalidArgumentError, "r must be > 1"),
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
    "shape_report_unknown_condition": (
        lambda: ShapeReport(passed=True, checked_conditions=(), limits=(1.0, 0.0))
        .violation("nope"),
        KeyError, "nope"),
    "delay_route_mismatched_grids": (
        lambda: covariance_delay_route(_grid(np.ones(10)), _grid(np.zeros(11)), 1.0),
        InvalidArgumentError, "share a grid"),
    "expected_from_covariance_zero_mean": (
        lambda: expected_from_covariance(_grid(np.ones(10)), 0.0),
        InvalidArgumentError, "mu must be positive"),
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
