"""The benchmark's workloads: seeded CLI task lists, their input tables and
their correctness gates.

A workload is a fixed list of task slots.  The seed draws each slot's law
parameters, table sizes, verb variants and Monte Carlo seeds inside a narrow
band, so every seed gives a task list of about the same cost and the spread
between seeds stays small.  The program sees only the generated argv and the
input tables that setup writes.

Every gate compares an output with a reference that does not use the layer
being timed: closed forms, Laplace transforms written out here, a renewal
solve done here in numpy, or the truth of a divisibility statement.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("tabulate", "invert", "oracle")

# Acceptance-suite tolerances (tests/test_acceptance.py).
EXP_TOL = 1e-4
GAMMA_TOL = 1e-3
MU_REL_TOL = 1e-3
CDF_TOL = 1e-4
PDF_TOL = 5e-4
# Trapezoid transform of E or C against the law's closed-form transform;
# measured at <= 4e-7 on these grids.
TRANSFORM_TOL = 1e-4
TRANSFORM_S = (1.0, 4.0)
MC_TIMES = (0.5, 1.0, 2.0, 4.0)
MC_Z = 4.0
# `recover --compound-pdf-out` is documented as an approximate preview (a
# strided divisor table inverted on a coarse grid).  Its relative L1
# distance from the renewal reference is 0.091 today; the gate only
# catches a broken preview.
COMPOUND_L1_TOL = 0.2
# Stderr of two known defects (both exit 2 with this refusal).
SHAPE_REFUSAL = "fails the shape screen"


@dataclass(frozen=True)
class Result:
    """What one CLI invocation returned."""

    rc: int | None
    stdout: str
    stderr: str

    def summary(self) -> dict:
        return json.loads(self.stdout.strip().splitlines()[-1])


@dataclass(frozen=True)
class Task:
    """One CLI invocation and how to judge it.

    ``check`` runs only on exit code 0 and returns None or the reason the
    output is wrong.  A task with ``known_defect`` is expected to succeed,
    but today the program gets it wrong: ``known_defect`` returns a reason
    when the result is that known wrong outcome, and the worker counts it
    apart from unexpected failures.  ``probe`` is (metric name, function of
    the result): an error figure that is reported but not gated.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[Result], str | None]
    outputs: tuple[str, ...] = ()
    known_defect: Callable[[Result], str | None] | None = None
    paths: int = 0
    probe: tuple[str, Callable[[Result], float]] | None = None


def shape_refusal(res: Result) -> str | None:
    """Known defect: exit 2 with a shape-screen refusal."""
    if res.rc == 2 and SHAPE_REFUSAL in res.stderr:
        return res.stderr.strip().splitlines()[-1]
    return None


def cm_false_pass(res: Result) -> str | None:
    """Known defect: gd-check passes a law that is not r-divisible."""
    if res.rc == 0 and res.summary()["passed"] is True:
        return "gd-check passed a law whose divisor density goes negative"
    return None


@dataclass
class Workload:
    name: str
    tables: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    warmup: Task | None = None
    tasks: list[Task] = field(default_factory=list)


# -- file helpers ------------------------------------------------------------


def write_table(path: str, t: np.ndarray, v: np.ndarray) -> None:
    """Write a ``t,value`` table in the format the CLI reads."""
    with open(path, "w") as fh:
        np.savetxt(fh, np.column_stack([t, v]), fmt="%.17e", delimiter=",",
                   header="t,value", comments="")


def load(path: str) -> np.ndarray:
    """Columns of a CSV with one header line, as a 2-d array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# -- references ----------------------------------------------------------------


def sech(x):
    return 1.0 / np.cosh(x)


def gamma_psi(shape, scale):
    return lambda s: (1.0 + scale * s) ** (-shape)


def compound_psi(r, divisor_psi):
    def psi(s):
        d = divisor_psi(s)
        return (d / r) / (1.0 - (1.0 - 1.0 / r) * d)
    return psi


def transform_of(target: str, psi, mu: float):
    """Closed-form Laplace transform of E or C for a law with transform psi."""
    def le(s):
        p = psi(s)
        return (1.0 - p) / (1.0 + p) / s
    if target == "expected":
        return le
    return lambda s: (1.0 - (2.0 / mu) * le(s)) / s


def gamma2_curve(target: str, scale: float):
    """E or C of gamma(shape=2, scale) in closed form."""
    if target == "expected":
        return lambda t: math.sqrt(2.0) * np.sin(t / scale + math.pi / 4) * np.exp(-t / scale)
    return lambda t: np.exp(-t / scale) * np.cos(t / scale)


@functools.lru_cache(maxsize=1)
def _compound_reference(h: float = 0.01, t_end: float = 40.0):
    """Compound density of the planar-diffusion law on a fine grid.

    Solves x = f/2 + (f * x)/2 (trapezoid convolution) by forward
    substitution, with f the closed-form divisor density
    sech(t/2) tanh(t/2)/2.  f(0) = 0, so each step is explicit.
    """
    n = int(round(t_end / h)) + 1
    t = np.arange(n) * h
    f = 0.5 * sech(t / 2) * np.tanh(t / 2)
    x = np.zeros(n)
    for k in range(1, n):
        x[k] = 0.5 * f[k] + 0.5 * h * np.dot(f[k - 1:0:-1], x[1:k])
    return h, x


# -- gates ---------------------------------------------------------------------


def _max_err(path: str, ref, tol: float, col: int = 1) -> str | None:
    data = load(path)
    err = float(np.max(np.abs(data[:, col] - ref(data[:, 0]))))
    if not err <= tol:
        return f"{path}: max error {err:.3e} > {tol:g}"
    return None


def _transform_err(path: str, want) -> float:
    data = load(path)
    t, v = data[:, 0], data[:, 1]
    h = float(t[1] - t[0])
    return max(abs(float(np.trapezoid(np.exp(-s * t) * v, dx=h)) - want(s))
               for s in TRANSFORM_S)


def curve_check(path: str, ref, tol: float):
    return lambda res: _max_err(path, ref, tol)


def transform_check(path: str, want):
    def check(res):
        err = _transform_err(path, want)
        if not err <= TRANSFORM_TOL:
            return f"{path}: transform error {err:.3e} > {TRANSFORM_TOL:g}"
        return None
    return check


def _finite_check(path: str):
    def check(res):
        if not np.isfinite(load(path)[:, 1]).all():
            return f"{path}: non-finite values"
        return None
    return check


def _all(*checks):
    def check(res):
        for c in checks:
            reason = c(res)
            if reason:
                return reason
        return None
    return check


def _mu_check(want: float):
    def check(res):
        mu = res.summary().get("mu")
        if mu is None or not abs(mu - want) <= MU_REL_TOL * want:
            return f"mu {mu} is not within {MU_REL_TOL:g} of {want:.6g}"
        return None
    return check


def _divisor_checks(prefix: str, cdf, pdf):
    return (curve_check(f"{prefix}_divisor_cdf.csv", cdf, CDF_TOL),
            curve_check(f"{prefix}_divisor_pdf.csv", pdf, PDF_TOL))


def _compound_check(path: str):
    def check(res):
        err = compound_l1_err(path)  # NaN points make it NaN, which fails
        if not err <= COMPOUND_L1_TOL:
            return f"{path}: relative L1 error {err:.3f} > {COMPOUND_L1_TOL}"
        return None
    return check


def compound_l1_err(path: str) -> float:
    """Relative L1 distance of a compound-density table from the renewal
    reference, at the table's own grid points."""
    h, ref = _compound_reference()
    data = load(path)
    want = ref[np.rint(data[:, 0] / h).astype(int)]
    return float(np.sum(np.abs(data[:, 1] - want)) / np.sum(np.abs(want)))


def _gd_check(want_pass: bool):
    def check(res):
        s = res.summary()
        if s["passed"] is not want_pass:
            return f"gd-check passed={s['passed']}, want {want_pass}"
        if not abs(s["laplace_at_zero"] - 1.0) <= s["zero_tolerance"]:
            return f"divisor transform at 0 is {s['laplace_at_zero']}"
        return None
    return check


def _mc_check(path: str, ref):
    def check(res):
        data = load(path)
        t, mean, se = data[:, 0], data[:, 1], data[:, 2]
        for tt in MC_TIMES:
            i = int(np.argmin(np.abs(t - tt)))
            z = abs(mean[i] - float(ref(np.float64(tt)))) / se[i]
            if not z < MC_Z:
                return f"{path}: |z| = {z:.2f} at t = {tt} (cap {MC_Z})"
        return None
    return check


def _same_bytes(path: str, other: str):
    def check(res):
        with open(path, "rb") as a, open(other, "rb") as b:
            if a.read() != b.read():
                return f"{path} differs from {other}"
        return None
    return check


def _simulate_check(path: str, horizon: float, mean: float, sd: float):
    def check(res):
        ep = load(path)[:, 0]
        if res.summary()["n_epochs"] != len(ep):
            return "n_epochs does not match the epoch file"
        if not (ep[0] > 0 and np.all(np.diff(ep) > 0)):
            return "epochs are not positive and increasing"
        if not (ep[-1] > horizon and (len(ep) < 2 or ep[-2] <= horizon)):
            return "the last epoch is not the first one past the horizon"
        gaps = np.diff(np.concatenate([[0.0], ep]))
        z = abs(gaps.mean() - mean) / (sd / math.sqrt(len(gaps)))
        if not z < MC_Z:
            return f"mean inter-arrival is {z:.2f} stderr from {mean}"
        return None
    return check


# -- task builders ---------------------------------------------------------------


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    """A uniform draw rounded to the digits the argv carries."""
    return float(_fmt(rng.uniform(lo, hi)))


def _target(verb: str) -> str:
    return "expected" if verb == "expected-value" else "covariance"


def _series_task(name, verb, spec, t_end, h, check, probe=None):
    out = f"{name}.csv"
    return Task(name, (verb, "--dist", spec, "--t-end", _fmt(t_end), "--h", repr(h),
                       "--out", out),
                check(out), outputs=(out,), probe=probe)


def _tabulate(rng: random.Random, scale: float) -> Workload:
    """Forward work, law -> E or C: the renewal convolution loops dominate.

    Slot sizes are horizons in mean lengths (t_end/mu); n = t_end/h.
    """
    w = Workload("tabulate")

    def tau(x):
        return max(x * scale, 5.0)

    def verb():
        return rng.choice(("expected-value", "covariance"))

    def exp_slot(name, v, t_over_mu, h):
        lam = _draw(rng, 0.97, 1.03)
        ref = lambda t: np.exp(-2.0 * lam * t)  # noqa: E731 - E = C for exp
        return _series_task(name, v, f"exp(rate={_fmt(lam)})", tau(t_over_mu) / lam, h,
                            lambda out: curve_check(out, ref, EXP_TOL))

    w.warmup = _series_task("warmup", "expected-value", "exp(rate=1)", 5.0, 1e-3,
                            lambda out: curve_check(out, lambda t: np.exp(-2 * t), EXP_TOL))
    w.tasks.append(exp_slot("t1_exp_E", "expected-value", 40, 1e-3))
    w.tasks.append(exp_slot("t2_exp_C", "covariance", 10, 5e-4))

    theta, v = _draw(rng, 0.485, 0.515), verb()
    ref = gamma2_curve(_target(v), theta)
    w.tasks.append(_series_task("t3_gamma2", v, f"gamma(shape=2,scale={_fmt(theta)})",
                                tau(15) * 2 * theta, 1e-3,
                                lambda out: curve_check(out, ref, GAMMA_TOL)))

    k = _draw(rng, 2.5, 3.5)
    theta, v = float(_fmt(1.0 / k)), verb()
    want = transform_of(_target(v), gamma_psi(k, theta), k * theta)
    w.tasks.append(_series_task("t4_gamma", v, f"gamma(shape={_fmt(k)},scale={_fmt(theta)})",
                                tau(30) * k * theta, 1e-3,
                                lambda out: transform_check(out, want)))

    # singular origin: README promises no order here, so the transform
    # error is recorded, not gated
    alpha = _draw(rng, 0.5, 0.8)
    theta = float(_fmt(1.0 / alpha))
    want_s = transform_of("expected", gamma_psi(alpha, theta), alpha * theta)
    w.tasks.append(_series_task(
        "t5_gamma_singular", "expected-value", f"gamma(shape={_fmt(alpha)},scale={_fmt(theta)})",
        tau(10) * alpha * theta, 1e-3, _finite_check,
        probe=("tabulate.singular_probe_err",
               lambda res: _transform_err("t5_gamma_singular.csv", want_s))))

    theta, v = _draw(rng, 0.97, 1.03), verb()
    want_c = transform_of(_target(v), compound_psi(3.0, gamma_psi(2.0, theta)), 6 * theta)
    w.tasks.append(_series_task(
        "t6_compound3", v, f"compound(r=3,divisor=gamma(shape=2,scale={_fmt(theta)}))",
        tau(10) * 6 * theta, 1e-3, lambda out: transform_check(out, want_c)))

    # compound(r=2, exp(2 lam)) is exp(lam)
    lam, v = _draw(rng, 0.485, 0.515), verb()
    w.tasks.append(_series_task(
        "t7_compound2", v, f"compound(r=2,divisor=exp(rate={_fmt(2 * lam)}))", tau(20) / lam,
        5e-4, lambda out: curve_check(out, lambda t: np.exp(-2.0 * lam * t), EXP_TOL)))

    w.tasks.append(exp_slot("t8_exp_small", "expected-value", 5, 1e-3))
    w.tasks.append(exp_slot("t9_exp_long", verb(), 60, 5e-4))
    return w


def _closed_form_table(rng: random.Random, kind: str, n: int):
    """(t, values, mu, divisor cdf, divisor pdf) of a drawn closed-form table.

    ``kind`` is "covariance" or "expected".  Either exp(-2 lam t), the E and
    C of exp(lam) whose 2-divisor is exp(2 lam), or the planar-diffusion
    law: C = (2/pi) arcsin(sech(t/2)), E = sech(t/2), mu = 2 pi.
    """
    t = np.arange(n) * 1e-3
    if rng.random() < 0.5:
        lam = _draw(rng, 0.9, 1.1)
        return (t, np.exp(-2.0 * lam * t), 1.0 / lam,
                lambda x: 1.0 - np.exp(-2.0 * lam * x),
                lambda x: 2.0 * lam * np.exp(-2.0 * lam * x))
    values = (2.0 / math.pi) * np.arcsin(sech(t / 2)) if kind == "covariance" else sech(t / 2)
    return t, values, 2.0 * math.pi, *_DIFFUSION_DIVISOR


_DIFFUSION_DIVISOR = (lambda x: 1.0 - sech(x / 2),
                      lambda x: 0.5 * sech(x / 2) * np.tanh(x / 2))


def _invert(rng: random.Random, scale: float) -> Workload:
    """Inverse work, table -> divisor or IIA law: Talbot inversion dominates."""
    w = Workload("invert")

    def size():
        return max(int(rng.randint(36_000, 40_000) * scale), 20_000) + 1

    t, values, mu, cdf, pdf = _closed_form_table(rng, "covariance", size())
    w.tables["in_cov.csv"] = (t, values)
    w.tasks.append(Task("i1_recover_cov",
                        ("recover", "--from", "covariance", "--input", "in_cov.csv",
                         "--out-prefix", "i1"),
                        _all(_mu_check(mu), *_divisor_checks("i1", cdf, pdf)),
                        outputs=("i1_divisor_cdf.csv", "i1_divisor_pdf.csv")))

    t, values, mu, cdf, pdf = _closed_form_table(rng, "expected", size())
    w.tables["in_exp.csv"] = (t, values)
    w.tasks.append(Task("i2_recover_exp",
                        ("recover", "--from", "expected", "--input", "in_exp.csv",
                         "--mu", repr(mu), "--out-prefix", "i2"),
                        _all(*_divisor_checks("i2", cdf, pdf)),
                        outputs=("i2_divisor_cdf.csv", "i2_divisor_pdf.csv")))

    # the compound-density preview: Talbot inversion of a tabulated transform
    t = np.arange(40_001) * 1e-3
    w.tables["in_arcsin.csv"] = (t, (2.0 / math.pi) * np.arcsin(sech(t / 2)))
    w.tasks.append(Task("i3_recover_compound",
                        ("recover", "--from", "covariance", "--input", "in_arcsin.csv",
                         "--out-prefix", "i3", "--compound-pdf-out", "i3_compound.csv"),
                        _all(_mu_check(2 * math.pi), *_divisor_checks("i3", *_DIFFUSION_DIVISOR),
                             _compound_check("i3_compound.csv")),
                        outputs=("i3_divisor_cdf.csv", "i3_divisor_pdf.csv", "i3_compound.csv"),
                        probe=("recover.compound_pdf_l1_err",
                               lambda res: compound_l1_err("i3_compound.csv"))))

    def iia_task(name, t_end, h, known_defect=None):
        clipped = lambda x: (2 / math.pi) * np.arcsin(sech(x / 2))  # noqa: E731
        return Task(name,
                    ("iia", "--r", "diffusion2d", "--t-end", _fmt(t_end), "--h", repr(h),
                     "--out-prefix", name),
                    _all(_mu_check(2 * math.pi),
                         curve_check(f"{name}_clipped_covariance.csv", clipped, CDF_TOL),
                         *_divisor_checks(name, *_DIFFUSION_DIVISOR)),
                    outputs=tuple(f"{name}_{k}.csv"
                                  for k in ("divisor_cdf", "divisor_pdf", "clipped_covariance")),
                    known_defect=known_defect)

    w.tasks.append(iia_task("i4_iia", max(_draw(rng, 36.0, 40.0) * scale, 20.0), 1e-3))
    # Known defect, fixed and never drawn: halving h turns an admissible
    # input into a shape-screen refusal.
    w.tasks.append(iia_task("i5_iia_fine", 40.0, 5e-4, known_defect=shape_refusal))
    # Known defect, fixed and never drawn: the tabulated exp(1) covariance
    # ends at C(10) = -1.09e-6, which breaks the nonnegative screen.
    w.tasks.append(_series_task("i6_cov_exp", "covariance", "exp(rate=1)", 10.0, 1e-3,
                                lambda out: curve_check(out, lambda x: np.exp(-2 * x), EXP_TOL)))
    w.tasks.append(Task("i7_recover_roundtrip",
                        ("recover", "--from", "covariance", "--input", "i6_cov_exp.csv",
                         "--out-prefix", "i7"),
                        _all(_mu_check(1.0),
                             *_divisor_checks("i7", lambda x: 1.0 - np.exp(-2 * x),
                                              lambda x: 2.0 * np.exp(-2 * x))),
                        outputs=("i7_divisor_cdf.csv", "i7_divisor_pdf.csv"),
                        known_defect=shape_refusal))

    # a tabulated exp(2 lam) density is r-divisible for every r
    lam = _draw(rng, 0.9, 1.1)
    t = np.arange(40_001) * 1e-3
    w.tables["in_density.csv"] = (t, 2.0 * lam * np.exp(-2.0 * lam * t))
    w.tasks.append(Task("i8_gd_table",
                        ("gd-check", "--dist", "table(in_density.csv)",
                         "--r", _fmt(rng.choice((1.5, 2.0, 3.0)))),
                        _gd_check(True)))
    # Exponential laws and their compounds pass for every r; gamma with
    # shape > 1 fails for every r.  The program's screen misses that for r
    # below about 2 (i10 keeps that defect in view), so gamma draws r >= 2.5.
    rate, shape, scale_ = _draw(rng, 0.5, 2.0), _draw(rng, 1.5, 3.0), _draw(rng, 0.5, 2.0)
    spec, want = rng.choice(((f"exp(rate={_fmt(rate)})", True),
                             (f"compound(r=2,divisor=exp(rate={_fmt(rate)}))", True),
                             (f"gamma(shape={_fmt(shape)},scale={_fmt(scale_)})", False)))
    r = _draw(rng, 1.25, 4.0) if want else _draw(rng, 2.5, 4.0)
    w.tasks.append(Task("i9_gd_analytic", ("gd-check", "--dist", spec, "--r", _fmt(r)),
                        _gd_check(want)))
    # Known defect, fixed and never drawn: gamma(2, 1) is not 1.5-divisible,
    # its divisor density 1.5 sqrt(2) e^-t sin(t/sqrt(2)) is negative on
    # (pi sqrt(2), 2 pi sqrt(2)), but the complete-monotonicity screen on a
    # finite s-grid passes it.
    w.tasks.append(Task("i10_gd_gamma_small_r",
                        ("gd-check", "--dist", "gamma(shape=2,scale=1)", "--r", "1.5"),
                        _gd_check(False), known_defect=cm_false_pass))

    t = np.arange(4_001) * 1e-3
    w.tables["warmup.csv"] = (t, np.exp(-2.0 * t))
    w.warmup = Task("warmup", ("recover", "--from", "covariance", "--input", "warmup.csv",
                               "--out-prefix", "warmup"), _mu_check(1.0))
    return w


def _oracle(rng: random.Random, scale: float) -> Workload:
    """Monte Carlo: per-path streams and samplers dominate."""
    w = Workload("oracle")

    def estimate(name, spec, target, paths, ref, seed, extra=(), check=None):
        n = max(int(paths * scale), 200)
        out = f"{name}.csv"
        argv = ("estimate", "--dist", spec, "--target", target, "--t-end", "4", "--h", "0.5",
                "--n-paths", str(n), "--seed", str(seed), "--out", out, *extra)
        return Task(name, argv, check or _mc_check(out, ref), outputs=(out,), paths=n)

    def seed():
        return rng.randrange(2**32)

    lam, s = _draw(rng, 0.95, 1.05), seed()
    exp_ref = lambda t: np.exp(-2.0 * lam * t)  # noqa: E731
    w.tasks.append(estimate("o1_exp", f"exp(rate={_fmt(lam)})", "expected", 20_000, exp_ref, s))
    # the same estimate on two worker threads must write the same bytes
    w.tasks.append(estimate("o2_exp_workers2", f"exp(rate={_fmt(lam)})", "expected", 20_000,
                            exp_ref, s, extra=("--workers", "2"),
                            check=_same_bytes("o2_exp_workers2.csv", "o1_exp.csv")))

    theta = _draw(rng, 1.9, 2.1)
    for name, target in (("o3_gamma2_C", "covariance"), ("o4_gamma2_E", "expected")):
        w.tasks.append(estimate(name, f"gamma(shape=2,scale={_fmt(theta)})", target, 20_000,
                                gamma2_curve(target, theta), seed()))

    # compound(r=2, exp(2 lam)) is exp(lam).  A compound has no density, so
    # no size-biased sampler: only E can be estimated.
    lam2 = _draw(rng, 0.475, 0.525)
    w.tasks.append(estimate("o5_compound2", f"compound(r=2,divisor=exp(rate={_fmt(2 * lam2)}))",
                            "expected", 20_000, lambda t: np.exp(-2.0 * lam2 * t), seed()))

    # A tabulated exp(2 lam3) density.  Its stationary start goes through
    # the size-biased rejection sampler.
    lam3 = _draw(rng, 0.95, 1.05)
    t = np.arange(10_001) * 1e-3
    w.tables["in_density.csv"] = (t, 2.0 * lam3 * np.exp(-2.0 * lam3 * t))
    w.tasks.append(estimate("o6_table_C", "table(in_density.csv)", "covariance", 10_000,
                            lambda t: np.exp(-4.0 * lam3 * t), seed()))

    horizon, lam4 = 2e5 * scale, _draw(rng, 0.9, 1.1)
    w.tasks.append(Task("o7_simulate",
                        ("simulate", "--dist", f"exp(rate={_fmt(lam4)})", "--horizon",
                         _fmt(horizon), "--seed", str(seed()), "--out", "o7_epochs.csv"),
                        _simulate_check("o7_epochs.csv", horizon, 1.0 / lam4, 1.0 / lam4),
                        outputs=("o7_epochs.csv",)))

    w.warmup = estimate("warmup", "exp(rate=1)", "expected", 1000, lambda t: np.exp(-2 * t), 1)
    return w


_BUILDERS = {"tabulate": _tabulate, "invert": _invert, "oracle": _oracle}


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The workload's task list for one seed.  ``scale`` < 1 shrinks grids
    and path counts for quick tests."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[name](random.Random(f"{name}:{seed}"), scale)
