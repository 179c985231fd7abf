"""Frozen public surface: the defaulted parameters of every public function,
the fields of every public dataclass and the option strings of every CLI
verb.

Tolerances, s grids and node counts are constants of the module that judges
with them, not parameters, and every grid starts at t = 0, so a knob or a
grid origin can only come back through a visible edit of these tables.  Every CLI option must also run at least once in
test_cli.py.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import switchkit
from switchkit.cli import build_parser

# module.function -> names of its parameters that have defaults
DEFAULTED = {
    "cli.run": ("argv",),
    "distributions.geometric_map_grid": ("g",),
    "distributions.make_rng": ("stream",),
    "grid.write_rows": ("end",),
    "iia.damped_cosine_covariance": ("rate", "freq"),
    "iia.exponential_covariance": ("scale",),
    "recovery.finish_report": ("notes",),
    "recovery.sign_condition": ("upper",),
    "simulation.estimate_covariance": ("workers",),
    "simulation.estimate_expected_value": ("workers",),
}

# public dataclass -> its field names, in order
FIELDS = {
    "CMReport": ("passed", "max_order_checked", "worst_violation", "violation_points",
                 "tolerance"),
    "DivisibilityReport": ("r", "passed", "cm_report", "laplace_at_zero", "zero_tolerance",
                           "time_domain"),
    "GaussianCovariance": ("fn", "d1", "d2", "name"),
    "GeometricCompound": ("name", "mean", "laplace", "pdf", "cdf", "sampler",
                          "size_biased_sampler", "divisor", "r"),
    "GridFunction": ("h", "values", "notes"),
    "GridSpec": ("h", "n"),
    "IIAResult": ("screen", "mu", "clipped", "divisor_cdf", "divisor_pdf", "compound"),
    "ShapeReport": ("passed", "checked_conditions", "limits", "tolerances", "notes"),
    "StationaryInitial": ("a", "b", "delta"),
    "SwitchTrajectory": ("epochs", "initial_sign", "horizon"),
    "SwitchingDistribution": ("name", "mean", "laplace", "pdf", "cdf", "sampler",
                              "size_biased_sampler"),
}

OPTIONS = {
    "simulate": {"--dist", "--horizon", "--seed", "--out", "--plot"},
    "estimate": {"--dist", "--target", "--t-end", "--h", "--n-paths", "--workers", "--seed",
                 "--out", "--plot"},
    "expected-value": {"--dist", "--t-end", "--h", "--out"},
    "covariance": {"--dist", "--t-end", "--h", "--out"},
    "gd-check": {"--dist", "--r"},
    "recover": {"--from", "--input", "--mu", "--out-prefix", "--compound-pdf-out"},
    "iia": {"--r", "--t-end", "--h", "--out-prefix", "--plot"},
    "figure1": {"--dist", "--t-end", "--h", "--seed", "--out"},
}


def _defaulted(fn) -> tuple[str, ...]:
    params = inspect.signature(fn).parameters.values()
    return tuple(p.name for p in params if p.default is not p.empty)


def _public_functions():
    for info in pkgutil.iter_modules(switchkit.__path__):
        mod = importlib.import_module(f"switchkit.{info.name}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                yield f"{info.name}.{name}", obj


def _verb_options() -> dict[str, set[str]]:
    parser = build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        verb: {opt for a in sub._actions if not isinstance(a, argparse._HelpAction)
               for opt in a.option_strings}
        for verb, sub in verbs.choices.items()
    }


def test_defaulted_parameters_are_frozen():
    got = {key: names for key, fn in _public_functions() if (names := _defaulted(fn))}
    assert got == DEFAULTED


def test_package_api_has_seven_defaulted_parameters():
    fns = [getattr(switchkit, n) for n in switchkit.__all__]
    assert sum(len(_defaulted(f)) for f in fns if inspect.isfunction(f)) == 7


def test_dataclass_fields_are_frozen():
    got = {name: tuple(f.name for f in dataclasses.fields(obj))
           for name in switchkit.__all__ if dataclasses.is_dataclass(obj := getattr(switchkit, name))}
    assert got == FIELDS


def test_cli_options_are_frozen():
    assert _verb_options() == OPTIONS


def test_every_cli_option_runs_in_the_cli_tests():
    tree = ast.parse((Path(__file__).parent / "test_cli.py").read_text())
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    missing = {opt for opts in _verb_options().values() for opt in opts} - strings
    assert not missing
