"""Frozen public surface: the names ``switchkit`` exports, the defaulted
parameters of every public function and of the public methods of every
exported class, the fields of every public dataclass and the option strings
of every CLI verb.

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

# every name in switchkit.__all__
NAMES = {
    "DivisibilityReport", "GaussianCovariance", "GeometricCompound",
    "GridFunction", "GridSpec", "IIAResult", "InvalidArgumentError", "NumericError",
    "ResourceLimitError", "ShapeCheckError", "ShapeReport", "SwitchKitError",
    "SwitchTrajectory", "SwitchingDistribution", "check_covariance_shape",
    "check_expected_shape", "clip_covariance", "convolve", "covariance_delay_route",
    "covariance_from_expected", "covariance_laplace", "cumulative_integral",
    "damped_cosine_covariance", "derivative", "diffusion2d_covariance",
    "divisor_from_covariance", "divisor_from_expected",
    "estimate_covariance", "estimate_expected_value", "expected_derivative_series",
    "expected_from_covariance", "expected_laplace_from_psi", "expected_value_series",
    "exponential_covariance", "gd_check", "geometric_map", "geometric_map_grid",
    "iia_pipeline", "integral", "make_exponential", "make_gamma", "make_geometric_compound",
    "make_rng", "make_tabulated", "mean_from_expected", "parse_distribution",
    "psi_from_expected_laplace", "second_derivative", "simulate_switch",
    "solve_renewal", "tabulate_cdf", "tabulate_pdf",
}

# module.function -> names of its parameters that have defaults
DEFAULTED = {
    "cli.run": ("argv",),
    "distributions.geometric_map_grid": ("g",),
    "distributions.make_rng": ("stream",),
    "simulation.estimate_covariance": ("workers",),
    "simulation.estimate_expected_value": ("workers",),
}

# Class.method, for the public methods an exported class defines -> names of
# its parameters that have defaults
METHOD_DEFAULTED = {
    "GridFunction.to_csv": ("extra_columns",),
    "SwitchingDistribution.sample": ("size",),
    "SwitchingDistribution.sample_size_biased": ("size",),
}

# public dataclass -> its field names, in order
FIELDS = {
    "DivisibilityReport": ("r", "passed", "laplace_at_zero", "zero_tolerance", "time_domain"),
    "GaussianCovariance": ("fn", "name"),
    "GeometricCompound": ("name", "mean", "laplace", "pdf", "cdf", "sampler",
                          "size_biased_sampler", "divisor", "r"),
    "GridFunction": ("h", "values", "notes"),
    "GridSpec": ("h", "n"),
    "IIAResult": ("screen", "mu", "clipped", "divisor_cdf", "divisor_pdf", "compound"),
    "ShapeReport": ("passed", "checked_conditions", "limits", "tolerances"),
    "SwitchTrajectory": ("epochs", "horizon"),
    "SwitchingDistribution": ("name", "mean", "laplace", "pdf", "cdf", "sampler",
                              "size_biased_sampler"),
}

OPTIONS = {
    "simulate": {"--dist", "--horizon", "--seed", "--out"},
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


def _public_methods():
    for name in switchkit.__all__:
        cls = getattr(switchkit, name)
        if inspect.isclass(cls):
            for attr, obj in vars(cls).items():
                fn = obj.__func__ if isinstance(obj, (classmethod, staticmethod)) else obj
                if inspect.isfunction(fn) and not attr.startswith("_"):
                    yield f"{name}.{attr}", fn


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


def test_defaulted_method_parameters_are_frozen():
    got = {key: names for key, fn in _public_methods() if (names := _defaulted(fn))}
    assert got == METHOD_DEFAULTED


def test_exported_names_are_frozen():
    assert set(switchkit.__all__) == NAMES and len(switchkit.__all__) == len(NAMES)


def test_package_api_has_four_defaulted_parameters():
    fns = [getattr(switchkit, n) for n in switchkit.__all__]
    assert sum(len(_defaulted(f)) for f in fns if inspect.isfunction(f)) == 4


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


def _tolerance_rows() -> list[tuple[str, str, str]]:
    """(constant, value, module) of each row of README's Tolerances table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = [[c.strip().strip("`") for c in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    return [(name, value, module) for name, value, module, *_ in rows]


def test_readme_tolerance_table_matches_the_constants():
    rows = _tolerance_rows()
    assert len(rows) >= 15
    unparsed = {}
    for name, value, module in rows:
        got = getattr(importlib.import_module(f"switchkit.{module}"), name)
        try:
            want = float(value)
        except ValueError:
            unparsed[name] = (value, got)
            continue
        assert got == want, (name, got, value)
    assert unparsed.keys() == {"TIME_POINTS"}
    value, points = unparsed["TIME_POINTS"]
    assert tuple(int(p) for p in value.split(",")) == points


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numeric_constants(module: str) -> set[str]:
    """Public upper-case names a module assigns a number, or a tuple of
    numbers, at its top level (imported names excluded)."""
    mod = importlib.import_module(f"switchkit.{module}")
    names = {target.id for node in ast.parse(inspect.getsource(mod)).body
             if isinstance(node, ast.Assign) for target in node.targets
             if isinstance(target, ast.Name)}
    return {name for name in names
            if name.isupper() and not name.startswith("_")
            and (_is_number(v := getattr(mod, name))
                 or (isinstance(v, tuple) and v and all(map(_is_number, v))))}


def test_every_numeric_constant_has_a_tolerance_row():
    modules = ("grid", "distributions", "laplace", "recovery", "divisibility", "iia",
               "simulation")
    constants = {(name, module) for module in modules for name in _numeric_constants(module)}
    assert constants == {(name, module) for name, _, module in _tolerance_rows()}
