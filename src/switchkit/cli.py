"""Batch command-line front end.

Verbs: simulate, estimate, expected-value, covariance, gd-check, recover,
iia, figure1.  Every verb writes its declared CSV/SVG outputs and prints a
JSON summary to stdout.  Exit codes: 0 success, 1 validation failure,
2 numeric failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import sys

from . import iia as iia_mod
from .distributions import geometric_map_grid, parse_distribution
from .divisibility import gd_check
from .errors import InvalidArgumentError, SwitchKitError
from .grid import GridFunction, GridSpec, _write_csv
from .recovery import (
    MU_MISMATCH_TOL,
    covariance_from_expected,
    divisor_from_covariance,
    divisor_from_expected,
    expected_value_series,
)
from .simulation import estimate_covariance, estimate_expected_value, simulate_switch
from .svgplot import render_panels

USAGE_EXIT = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_grid_args(p, t_end_default=5.0, h_default=1e-3):
    p.add_argument("--t-end", type=float, default=t_end_default, help="grid end time")
    p.add_argument("--h", type=float, default=h_default, help="grid step")


def _add_seed_arg(p):
    p.add_argument("--seed", type=int, default=0, help="non-negative 64-bit seed")


@functools.cache  # parse_args leaves the parser unchanged; building it costs ~2 ms
def build_parser() -> _Parser:
    parser = _Parser(prog="switchkit", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("simulate", help="draw one switch-process path")
    p.add_argument("--dist", required=True)
    p.add_argument("--horizon", type=float, default=10.0)
    _add_seed_arg(p)
    p.add_argument("--out", default="epochs.csv")

    p = sub.add_parser("estimate", help="Monte Carlo estimate of E(t) or C(t)")
    p.add_argument("--dist", required=True)
    p.add_argument("--target", choices=["expected", "covariance"], default="expected")
    _add_grid_args(p, t_end_default=4.0, h_default=0.5)
    p.add_argument("--n-paths", type=int, default=10_000)
    p.add_argument("--workers", type=int, default=1, help="validated (at least 1), then ignored; "
                   "ROADMAP item 1B deletes it with the benchmark's change")
    _add_seed_arg(p)
    p.add_argument("--out", default="estimate.csv")
    p.add_argument("--plot", default=None)

    for verb, what in (("expected-value", "series E(t)"),
                       ("covariance", "stationary covariance C(t)")):
        p = sub.add_parser(verb, help=f"{what} from a switching law")
        p.add_argument("--dist", required=True)
        _add_grid_args(p)
        p.add_argument("--out", default=f"{verb.replace('-', '_')}.csv")

    p = sub.add_parser("gd-check", help="r-geometric divisibility screen")
    p.add_argument("--dist", required=True)
    p.add_argument("--r", type=float, required=True)

    p = sub.add_parser("recover", help="divisor recovery from a tabulated E or C")
    p.add_argument("--from", dest="source", choices=["expected", "covariance"], required=True)
    p.add_argument("--input", required=True, help="t,value CSV of E(t) or C(t)")
    p.add_argument("--mu", type=float, default=None,
                   help="expected switching-time mean: a validation failure unless "
                        f"within {MU_MISMATCH_TOL:g} (relative) of the table's mean")
    p.add_argument("--out-prefix", default="recovered")
    p.add_argument("--compound-pdf-out", default=None,
                   help="also tabulate the 2-geometric compound density on the input grid")

    p = sub.add_parser("iia", help="clipped-Gaussian admissibility screen and recovery")
    p.add_argument("--r", required=True,
                   help="builtin name (diffusion2d; exp and damped-cosine are refusal "
                        "fixtures, exit 2) or a t,value CSV")
    _add_grid_args(p, t_end_default=40.0)
    p.add_argument("--out-prefix", default="iia")
    p.add_argument("--plot", default=None)

    p = sub.add_parser("figure1", help="sample path, E(t) and C(t) panels as SVG")
    p.add_argument("--dist", required=True)
    _add_grid_args(p, t_end_default=20.0, h_default=1e-2)
    _add_seed_arg(p)
    p.add_argument("--out", default="figure1.svg")

    return parser


def _emit(summary: dict) -> None:
    print(json.dumps(summary, sort_keys=True))


def _cmd_simulate(args) -> dict:
    dist = parse_distribution(args.dist)
    traj = simulate_switch(dist, args.horizon, args.seed)
    _write_csv([(args.out, ["epoch"], [0])], [traj.epochs], end="\n")
    return {
        "verb": "simulate",
        "dist": dist.name,
        "n_epochs": int(len(traj.epochs)),
        "horizon": args.horizon,
        "initial_sign": 1,
        "outputs": [args.out],
    }


def _cmd_estimate(args) -> dict:
    if args.workers < 1:
        raise InvalidArgumentError(f"workers must be at least 1, got {args.workers}")
    _check_distinct(args.out, args.plot)
    dist = parse_distribution(args.dist)
    grid = GridSpec.from_t_end(args.t_end, args.h)
    estimate = estimate_expected_value if args.target == "expected" else estimate_covariance
    mean, stderr = estimate(dist, grid, args.n_paths, args.seed)
    mean.to_csv(args.out, extra_columns={"stderr": stderr.values})
    outputs = [args.out]
    if args.plot:
        _cmd_estimate_plot(mean, stderr, args.target, args.plot)
        outputs.append(args.plot)
    return {
        "verb": "estimate",
        "target": args.target,
        "dist": dist.name,
        "n_paths": args.n_paths,
        "seed": args.seed,
        "outputs": outputs,
    }


def _cmd_series(args) -> dict:
    dist = parse_distribution(args.dist)
    out = expected_value_series(dist, GridSpec.from_t_end(args.t_end, args.h))
    summary = {"verb": args.verb, "dist": dist.name, "outputs": [args.out]}
    if args.verb == "covariance":
        out = covariance_from_expected(out, dist.mean)
        summary["mu"] = dist.mean
    out.to_csv(args.out)
    summary["notes"] = list(out.notes)
    return summary


def _cmd_gd_check(args) -> dict:
    dist = parse_distribution(args.dist)
    report = gd_check(dist, args.r)
    return {"verb": "gd-check", "dist": dist.name, **report.to_json_dict()}


def _check_distinct(*paths) -> None:
    """Refuse, before any work, outputs of which two are one file: the second
    would overwrite the first, or interleave with it in a one-pass write."""
    seen = {}
    for path in filter(None, paths):
        if (real := os.path.realpath(path)) in seen:
            raise InvalidArgumentError(f"outputs {seen[real]} and {path} are one file")
        seen[real] = path


def _write_tables(paths: list[str], tables: list[GridFunction]) -> None:
    """Write each table, all on one grid, as a ``t,value`` CSV at its path,
    in one pass that formats the t column once."""
    _write_csv([(path, ["t", "value"], [0, i]) for i, path in enumerate(paths, 1)],
               [tables[0].times(), *(g.values for g in tables)])


def _cmd_recover(args) -> dict:
    outputs = [f"{args.out_prefix}_divisor_cdf.csv", f"{args.out_prefix}_divisor_pdf.csv"]
    outputs += [args.compound_pdf_out] if args.compound_pdf_out else []
    _check_distinct(*outputs)
    route = divisor_from_expected if args.source == "expected" else divisor_from_covariance
    mu, divisor_cdf, divisor_pdf = route(GridFunction.from_csv(args.input))
    if args.mu is not None and not abs(args.mu - mu) <= MU_MISMATCH_TOL * mu:
        raise InvalidArgumentError(f"--mu {args.mu} is not the table's mean {mu:.6g} to "
                                   f"within {MU_MISMATCH_TOL:g} relative")
    tables = [divisor_cdf, divisor_pdf]
    summary = {"verb": "recover", "from": args.source, "mu": mu, "outputs": outputs}
    if args.compound_pdf_out:
        tables.append(geometric_map_grid(divisor_pdf, 0.5))
        summary["compound_pdf"] = {"path": args.compound_pdf_out, "approximate": False}
    _write_tables(outputs, tables)
    return summary


_BUILTIN_COVARIANCES = {
    "diffusion2d": iia_mod.diffusion2d_covariance,
    "exp": iia_mod.exponential_covariance,
    "damped-cosine": iia_mod.damped_cosine_covariance,
}


def _cmd_iia(args) -> dict:
    outputs = [f"{args.out_prefix}_{name}.csv"
               for name in ("divisor_cdf", "divisor_pdf", "clipped_covariance")]
    _check_distinct(*outputs, args.plot)
    if args.r in _BUILTIN_COVARIANCES:
        r = _BUILTIN_COVARIANCES[args.r]()
    else:
        r = GridFunction.from_csv(args.r).interp
    grid = GridSpec.from_t_end(args.t_end, args.h)
    result = iia_mod.iia_pipeline(r, grid)
    _write_tables(outputs, [result.divisor_cdf, result.divisor_pdf, result.clipped])
    if args.plot:
        t = grid.times()
        render_panels([
            ("clipped covariance", [(t, result.clipped.values, "C")]),
            ("divisor CDF", [(t, result.divisor_cdf.values, "CDF")]),
            ("divisor density", [(t, result.divisor_pdf.values, "pdf")]),
        ], args.plot)
        outputs.append(args.plot)
    return {"verb": "iia", "r": args.r, "screen": result.screen.to_json_dict(),
            "mu": result.mu, "outputs": outputs}


def _cmd_figure1(args) -> dict:
    dist = parse_distribution(args.dist)
    grid = GridSpec.from_t_end(args.t_end, args.h)
    xs, ys = simulate_switch(dist, args.t_end, args.seed).step_points()
    E = expected_value_series(dist, grid)
    C = covariance_from_expected(E, dist.mean)
    t = grid.times()
    render_panels([
        ("sample path", [(xs, ys, "X(t)")]),
        ("expected value", [(t, E.values, "E(t)")]),
        ("stationary covariance", [(t, C.values, "C(t)")]),
    ], args.out)
    return {"verb": "figure1", "dist": dist.name, "seed": args.seed, "outputs": [args.out]}


def _cmd_estimate_plot(mean, stderr, target: str, path) -> None:
    t, m, band = mean.times(), mean.values, 4 * stderr.values
    render_panels([(f"MC {target} (4 stderr band)",
                    [(t, m, "estimate"), (t, m + band, ""), (t, m - band, "")])], path)


_DISPATCH = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "expected-value": _cmd_series,
    "covariance": _cmd_series,
    "gd-check": _cmd_gd_check,
    "recover": _cmd_recover,
    "iia": _cmd_iia,
    "figure1": _cmd_figure1,
}


@functools.cache  # once per process, at the first run
def _keep_heap() -> None:
    """Fix glibc's malloc thresholds at the values its dynamic ones reach at
    their 64-bit maximum: arrays under 32 MB come from the heap, not from
    fresh mmaps, and the heap is trimmed back to the system only when 64 MB
    at its top are free.  The FFT and CSV temporaries of one task after
    another then reuse the same pages instead of faulting them in anew.  A C
    library without ``mallopt`` is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (TypeError, AttributeError):  # no process-wide C library, or no mallopt in it
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's largest dynamic value on 64 bits


def run(argv=None) -> int:
    _keep_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    try:
        summary = _DISPATCH[args.verb](args)
    except (InvalidArgumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SwitchKitError as exc:  # NumericError, ResourceLimitError, future subclasses
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    _emit(summary)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
