"""Switching-time distributions: analytic families, tabulated laws and
geometric compounds.

Every distribution bundles a density, a CDF, a Laplace transform, a mean and
a sampler.  Laplace evaluators accept real or complex arguments.

Randomness contract: samplers draw from a caller-owned
``numpy.random.Generator``.  :func:`make_rng` builds one from an explicit
64-bit seed on top of the Philox counter-based bit generator, and
``make_rng(seed, stream=(b,))`` derives the independent stream
``SeedSequence(seed, spawn_key=(b,))``: the Monte Carlo estimators take one
per fixed-size block of paths and run the blocks in order on the calling
thread, and ``make_rng(seed, stream=(i,))`` gives path i of a loop of single
paths its own.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, _require_above
from .grid import GridFunction, GridSpec, cumulative_integral, integral, solve_renewal
from .laplace import geometric_map

# Mass discrepancy above this is an error; below it the density is
# renormalized exactly.
MASS_TOLERANCE = 1e-3
# A tabulated density below minus this is refused; values above it are
# clipped to zero.
NEGATIVE_DENSITY_TOL = 1e-9

# Exponentials and products that a tabulated law's transform holds per
# step: rows of 2B + m entries (B baby steps, m giant steps and their
# B-column product), so a step holds at most 32 MB (64 MB complex).
_KERNEL_BLOCK = 1 << 22


def make_rng(seed, stream: tuple[int, ...] = ()) -> np.random.Generator:
    """Generator over Philox seeded from an explicit seed.

    ``seed`` may be an int, a SeedSequence, or an existing Generator (passed
    through unchanged, which lets samplers accept either form).  ``stream``
    extends the seed's spawn key, so SeedSequence(s) and s give equal streams.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    try:
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        seq = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + tuple(stream),
                                     pool_size=seed.pool_size)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"bad seed {seed!r}: {exc}") from exc
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class SwitchingDistribution:
    """A positive switching-time law.

    ``pdf``/``cdf`` may be None when no pointwise form exists (geometric
    compounds); grid tabulations are then obtained via :func:`tabulate_pdf`.
    ``sampler(rng, size)`` returns positive draws; ``size_biased_sampler``
    draws from the length-biased law t*f(t)/mean and is required by
    :func:`~switchkit.simulation.estimate_covariance`.
    """

    name: str
    mean: float
    laplace: Callable
    pdf: Callable | None = None
    cdf: Callable | None = None
    sampler: Callable | None = None
    size_biased_sampler: Callable | None = None

    def __post_init__(self):
        _require_above("mean", self.mean, 0)

    def sample(self, seed_or_rng, size: int | None = None):
        if self.sampler is None:
            raise InvalidArgumentError(f"{self.name}: no sampler available")
        rng = make_rng(seed_or_rng)
        return self.sampler(rng, size)

    def sample_size_biased(self, seed_or_rng, size: int | None = None):
        if self.size_biased_sampler is None:
            raise InvalidArgumentError(
                f"{self.name}: no size-biased sampler; the stationary start "
                "needs a density (analytic or tabulated)"
            )
        rng = make_rng(seed_or_rng)
        return self.size_biased_sampler(rng, size)


@dataclass(frozen=True)
class GeometricCompound(SwitchingDistribution):
    """Sum of a Geometric(p=1/r) number of i.i.d. divisor draws.

    The transform is exact, the sampler is exact, the mean is r times the
    divisor mean; no closed-form density exists, so ``pdf``/``cdf`` are None
    and grid tabulations solve the geometric renewal equation in
    :func:`geometric_map_grid`.
    """

    divisor: SwitchingDistribution = None
    r: float = 2.0

    def __post_init__(self):
        super().__post_init__()
        if self.divisor is None:
            raise InvalidArgumentError("GeometricCompound requires a divisor")
        _require_above("r", self.r, 1)


def make_exponential(rate: float) -> SwitchingDistribution:
    """Exponential switching times with the given intensity: the shape-1
    gamma law of scale 1/rate under its own name, with the same draws."""
    _require_above("rate", rate, 0)
    _require_above(f"1/rate (1/{rate})", 1.0 / rate, 0)
    return replace(make_gamma(1.0, 1.0 / rate), name=f"exp(rate={float(rate):g})")


def _gamma_prefactor(a: float, x: np.ndarray) -> np.ndarray:
    """x^a e^-x / Gamma(a) for a > 0 and x >= 0: exp(a (log1p(u) - u) + c(a)),
    u = (x - a)/a, with log1p(u) - u by atanh's series where |u| < 0.1 and
    c(a) = a log a - a - lgamma(a) by Stirling's series for a >= 10.  The
    plain a log x - x - lgamma(a) cancels near x = a (1.7e-11 off at 1e4)."""
    if a < 10:
        c = a * math.log(a) - a - math.lgamma(a)
    else:  # lgamma(a) - ((a - 1/2) log a - a + log(2 pi)/2) by Stirling's series
        r = 1.0 / (a * a)
        stirling = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r * (
            1 / 1188 - r * (691 / 360360 - r / 156)))))) / a
        c = 0.5 * math.log(a / (2 * math.pi)) - stirling
    # log(1 + u) - u; log 0 = -inf gives 0 at x = 0, and u and
    # a (log(1 + u) - u) overflow only where the prefactor underflows
    with np.errstate(divide="ignore", over="ignore"):
        u = (x - a) / a  # x - a is exact within a factor 2 of a, where it cancels
        lmu = np.asarray(np.where(np.abs(u) < 0.5, np.log1p(u), np.log(x) - math.log(a)) - u)
        lmu *= a  # in place, so a 0-d lmu stays an array
    near = np.abs(u) < 0.1
    if near.any():  # log1p(u) - u = v (2 v^2 (1/3 + v^2/5 + ...) - u), v = u/(2 + u)
        un = u[near]
        v = un / (2.0 + un)
        v2, series = v * v, 1 / 15
        for odd in (13, 11, 9, 7, 5, 3):
            series = series * v2 + 1 / odd
        lmu[near] = a * v * (2.0 * v2 * series - un)
    return np.exp(lmu + c)


def _gamma_p(a: float, x: np.ndarray) -> np.ndarray:
    """P(a, x), the regularized lower incomplete gamma function, for a > 0
    and x >= 0 or NaN (NaN gives NaN).

    In blocks of 4 096 points: where x < a + 1 the series
    x^a e^-x / Gamma(a + 1) * sum_k x^k / ((a+1)...(a+k)) in Horner form,
    elsewhere 1 - Q with Q's continued fraction evaluated backward from a
    fixed depth (DiDonato & Morris, ACM TOMS 12, 1986).  Each block takes
    the term count its own x-range needs: the series' at its largest x,
    bounding the tail by a geometric one, the fraction's at its smallest x,
    by forward (Lentz) convergents.  The prefactor x^a e^-x / Gamma(a) is
    :func:`_gamma_prefactor`.  Near x = a both branches take about sqrt(a)
    terms, so the cost grows with the shape.
    """
    eps = 2.0**-52
    # inf behaves as the largest double, where every P(a, x) rounds to 1
    flat = np.minimum(np.ravel(np.asarray(x, dtype=float)), np.finfo(float).max)
    out = np.full_like(flat, np.nan)
    for lo in range(0, flat.size, 4096):
        xb = flat[lo : lo + 4096]
        for low in (True, False):
            take = xb < a + 1 if low else xb >= a + 1  # NaN is in neither
            if not take.any():
                continue
            xs = xb[take]
            prefactor = _gamma_prefactor(a, xs)
            if low:
                # terms x^k/((a+1)...(a+k)) at the largest x, until the
                # geometric bound on the rest is below eps
                xm, k, term = float(xs.max()), 0, 1.0
                while term * xm > eps * (a + k + 1 - xm):
                    k += 1
                    term *= xm / (a + k)
                acc = np.ones_like(xs)
                for j in range(k, 0, -1):
                    acc *= xs
                    acc /= a + j
                    acc += 1.0
                out[lo : lo + 4096][take] = prefactor * acc / a
            else:
                # Q = prefactor / (x+1-a- 1(1-a)/(x+3-a- 2(2-a)/(x+5-a- ...))):
                # the depth at which the forward convergents at the smallest
                # x agree to a few eps (modified Lentz)
                b, k, delta = float(xs.min()) + 1 - a, 0, 0.0
                dl, cl = 1.0 / b, 1e300
                while abs(delta - 1.0) > 4 * eps:
                    k += 1
                    step, b = k * (k - a), b + 2.0
                    dl, cl = b - step * dl, (b - step / cl) or 1e-300
                    dl = 1.0 / (dl or 1e-300)
                    delta = dl * cl
                xa, acc, den = xs - a, np.zeros_like(xs), np.empty_like(xs)
                for j in range(k, 0, -1):
                    np.subtract(xa, acc, out=den)
                    den += 2 * j + 1
                    np.divide(j * (j - a), den, out=acc)
                out[lo : lo + 4096][take] = 1.0 - prefactor / (xa + 1 - acc)
    return out.reshape(np.shape(x))[()]


def make_gamma(shape: float, scale: float) -> SwitchingDistribution:
    """Gamma switching times; transform (1 + scale*s)^(-shape), mean shape*scale.

    With x = t/scale, the density is exp(-x - log scale) at shape 1 and
    otherwise :func:`_gamma_prefactor` over t; the CDF is -expm1(-x) at
    shape 1 and otherwise P(shape, x) from :func:`_gamma_p`: for
    shapes 0.05 to 1e4 it erred by at most 6.7e-16 absolute against 40-digit
    arithmetic (about 400 points per shape, a quarter of them within a few
    sqrt(shape) of t/scale = shape).
    """
    _require_above("shape", shape, 0)
    _require_above("scale", scale, 0)
    shape, scale = float(shape), float(scale)
    # density at the origin: an integrable singularity below shape 1
    origin = math.inf if shape < 1 else (1.0 / scale if shape == 1 else 0.0)

    def pdf(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (np.exp(-t / scale - math.log(scale)) if shape == 1
                   else _gamma_prefactor(shape, t / scale) / t)
        # out may be NaN at t = inf and below 0, where the density is 0
        return np.where((t > 0) & (t < math.inf), out, np.where(t == 0, origin, 0.0))

    def cdf(t):
        x = np.maximum(np.asarray(t, dtype=float), 0.0) / scale
        # -expm1(-x) is P(1, x), several times faster
        return -np.expm1(-x) if shape == 1 else _gamma_p(shape, x)

    def laplace(s):
        return (1.0 + scale * np.asarray(s)) ** (-shape)

    # numpy's gamma(shape, scale) is scale * standard_gamma(shape), the
    # same bits without its argument checks
    def sampler(rng, size=None):
        return scale * rng.standard_gamma(shape, size)

    def size_biased(rng, size=None):
        # t^shape e^{-t/scale} is a shape+1 gamma density.
        return scale * rng.standard_gamma(shape + 1.0, size)

    return SwitchingDistribution(
        name=f"gamma(shape={shape:g},scale={scale:g})",
        mean=shape * scale,
        laplace=laplace,
        pdf=pdf,
        cdf=cdf,
        sampler=sampler,
        size_biased_sampler=size_biased,
    )


def _invert_cdf(rng, size, cdf_vals, t):
    """``size`` draws np.interp(u, cdf_vals, t) of uniforms u, evaluated in the order
    of u's top 16 bits (a stable radix sort) and scattered back to draw order."""
    u = rng.random(size)
    if size is None:
        return np.interp(u, cdf_vals, t)
    order = np.argsort((u * 65536).astype(np.uint16), kind="stable")
    u = u[order]
    u[order] = np.interp(u, cdf_vals, t)
    return u


def make_tabulated(pdf: GridFunction) -> SwitchingDistribution:
    """Switching-time law from a density tabulated on a uniform grid.

    The tabulated mass must be within ``MASS_TOLERANCE`` of one; it is then
    renormalized exactly.  The CDF is the trapezoid antiderivative, the
    transform is trapezoid quadrature of e^{-s t} f(t) on the stored grid
    (truncation beyond the grid is bounded by exp(-s * t_end); for Re(s) << 0
    the truncated sum overflows).  On n points that sum is a polynomial in
    z = e^{-s h}, evaluated by B = isqrt(n - 1) + 1 baby steps z^i and
    m = ceil(n / B) giant steps z^{jB} around one matrix product (Paterson
    & Stockmeyer 1973): about 2 sqrt(n) exponentials per s, not one per
    point.  Sampling inverts the CDF with linear interpolation; the
    size-biased sampler inverts the cumulative of t f(t)/mean the same way,
    on uniforms taken in bucket order and put back (:func:`_invert_cdf`):
    np.interp's value at u depends only on u and the knots, so no draw moves.
    """
    vals = np.array(pdf.values, dtype=float)
    if np.min(vals) < -NEGATIVE_DENSITY_TOL:
        raise InvalidArgumentError(
            f"density has negative mass points (min {np.min(vals):.3e} < "
            f"-{NEGATIVE_DENSITY_TOL:g})"
        )
    vals = np.maximum(vals, 0.0)
    t = pdf.times()
    mass = integral(pdf.with_values(vals))
    if abs(mass - 1.0) > MASS_TOLERANCE:
        raise InvalidArgumentError(
            f"tabulated density mass {mass:.6f} deviates from 1 by more than {MASS_TOLERANCE}"
        )
    vals = vals / mass
    density = GridFunction(h=pdf.h, values=vals, notes=pdf.notes)
    cdf_vals = cdf_from_density(density).values
    mean = integral(density.with_values(t * vals))
    # W[j, i] is the term k = jB + i of the trapezoid sum, zero past the table
    B = math.isqrt(len(t) - 1) + 1
    baby, giant = t[:B], t[::B]
    weights = np.full_like(vals, pdf.h)
    weights[0] = weights[-1] = pdf.h / 2
    W = np.pad(weights * vals, (0, B * len(giant) - len(t))).reshape(-1, B)
    rows = max(1, _KERNEL_BLOCK // (2 * B + len(giant)))

    def pdf_fn(x):
        return np.interp(x, t, vals, left=0.0, right=0.0)

    def cdf_fn(x):
        return np.interp(x, t, cdf_vals, left=0.0, right=1.0)

    def laplace(s):
        s_arr = np.asarray(s)
        # block the outer product so large s arrays stay in memory
        flat = s_arr.ravel()
        out = np.empty(flat.shape, dtype=np.result_type(flat.dtype, float))
        for lo in range(0, flat.size, rows):
            blk = flat[lo : lo + rows]
            # e^{-s t_k} = z^i z^{jB}, z = e^{-sh}; the giant steps, falling by z^B, sum first
            A, G = np.exp(-np.multiply.outer(blk, baby)), np.exp(-np.multiply.outer(blk, giant))
            out[lo : lo + rows] = np.einsum("ij,ij->i", G @ W, A)
        return out.reshape(s_arr.shape)[()]

    def sampler(rng, size=None):
        return _invert_cdf(rng, size, cdf_vals, t)

    # the length-biased law t*f(t)/mean, inverted the same way
    biased_cdf_vals = cdf_from_density(density.with_values(t * vals / mean)).values

    def size_biased(rng, size=None):
        return _invert_cdf(rng, size, biased_cdf_vals, t)

    return SwitchingDistribution(
        name="tabulated",
        mean=mean,
        laplace=laplace,
        pdf=pdf_fn,
        cdf=cdf_fn,
        sampler=sampler,
        size_biased_sampler=size_biased,
    )


def make_geometric_compound(divisor: SwitchingDistribution, r: float) -> GeometricCompound:
    """Geometric(p=1/r) compound of i.i.d. divisor draws.

    Transform: the geometric map (psi/r) / (1 - (1 - 1/r) psi) of the
    divisor transform psi.  The geometric count is drawn by inversion,
    nu = 1 + floor(log U / log(1-p)), so a fixed uniform stream reproduces
    identical counts on any platform.
    """
    _require_above("r", r, 1)
    _require_above(f"r * divisor mean ({r:g} * {divisor.mean:g})", r * divisor.mean, 0)
    r = float(r)
    p = 1.0 / r
    log_q = math.log1p(-p)

    def draw_counts(rng, n):
        u = rng.random(n)
        u = np.maximum(u, 1e-300)  # U=0 would give an infinite count
        return 1 + np.floor(np.log(u) / log_q).astype(np.int64)

    def sampler(rng, size=None):
        counts = draw_counts(rng, size)
        draws = divisor.sample(rng, int(np.sum(counts)))
        starts = np.cumsum(counts) - np.ravel(counts)
        # [()] unwraps the 0-d sum that size=None gives
        return np.add.reduceat(draws, starts).reshape(np.shape(counts))[()]

    return GeometricCompound(
        name=f"compound(r={r:g},divisor={divisor.name})",
        mean=r * divisor.mean,
        laplace=geometric_map(divisor.laplace, p),
        sampler=sampler,
        divisor=divisor,
        r=r,
    )


# -- grid tabulation ------------------------------------------------------


def geometric_base(dist: SwitchingDistribution) -> tuple[SwitchingDistribution, float]:
    """(base law, q) with ``dist`` = G_q(base law): compounds, nested or not,
    unwrap to their innermost divisor and q = 1/(r_1 r_2 ...); else q = 1."""
    q = 1.0
    while isinstance(dist, GeometricCompound):
        q, dist = q / dist.r, dist.divisor
    return dist, q


def geometric_map_grid(f: GridFunction, q: float, g: GridFunction | None = None) -> GridFunction:
    """G_q(psi) = q psi / (1 - (1 - q) psi) on the grid: x + (q - 1) (x * f) = q g,
    solved exactly by :func:`solve_renewal`.  With g = f (default) x is the
    density of the law with transform G_q(psi_f), with g = F (f's CDF) its CDF."""
    _require_above("q", q, 0)
    g = f if g is None else g
    return f.with_values(solve_renewal(f, g.with_values(q * g.values), q - 1.0).values)


def tabulate_pdf(dist: SwitchingDistribution, grid: GridSpec) -> GridFunction:
    """Density of ``dist`` on a uniform grid.

    Analytic and tabulated laws are evaluated pointwise; an integrable
    singularity at the origin is replaced by one-sided extrapolation and
    flagged in ``notes``.  Geometric compounds have no pointwise density:
    theirs is :func:`geometric_map_grid` of their base law's.
    """
    base, q = geometric_base(dist)
    if base.pdf is None:
        raise InvalidArgumentError(f"{base.name}: no density available for tabulation")
    t = grid.times()
    vals = np.asarray(base.pdf(t), dtype=float)
    notes: tuple[str, ...] = ()
    if not np.isfinite(vals[0]):
        if len(vals) < 3 or not np.isfinite(vals[1:3]).all():
            raise InvalidArgumentError(f"{base.name}: density not finite beyond the origin")
        vals = vals.copy()
        vals[0] = max(2 * vals[1] - vals[2], 0.0)
        notes = ("origin value set by one-sided extrapolation (singular density)",)
    if not np.isfinite(vals).all():
        raise InvalidArgumentError(f"{base.name}: density not finite on the grid interior")
    f = GridFunction(h=grid.h, values=vals, notes=notes)
    return f if base is dist else geometric_map_grid(f, q)


def tabulate_cdf(dist: SwitchingDistribution, grid: GridSpec) -> GridFunction:
    """Distribution function of ``dist`` on a uniform grid; a compound's is
    :func:`geometric_map_grid` of its base law's, clipped at one."""
    base, q = geometric_base(dist)
    if base.cdf is None:
        raise InvalidArgumentError(f"{base.name}: no distribution function available")
    F = GridFunction(h=grid.h, values=np.asarray(base.cdf(grid.times()), dtype=float))
    if base is not dist:
        F = geometric_map_grid(tabulate_pdf(base, grid), q, F)
        F = F.with_values(np.minimum(F.values, 1.0))
    return F


def cdf_from_density(pdf: GridFunction) -> GridFunction:
    """Trapezoid antiderivative of a grid density, clipped at one."""
    cdf = cumulative_integral(pdf)
    return cdf.with_values(np.minimum(cdf.values, 1.0))


# -- string DSL used by the CLI -------------------------------------------

_CALL_RE = re.compile(r"^\s*([a-zA-Z_][a-zA-Z0-9_-]*)\s*\((.*)\)\s*$", re.S)


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def parse_distribution(spec: str) -> SwitchingDistribution:
    """Parse specs like ``exp(rate=1)``, ``gamma(shape=2,scale=2)``,
    ``compound(r=2,divisor=exp(rate=2))`` or ``table(path.csv)``."""
    m = _CALL_RE.match(spec)
    if not m:
        raise InvalidArgumentError(f"cannot parse distribution spec {spec!r}")
    head, body = m.group(1), m.group(2)
    if head == "table":
        path = body.strip()
        if not path:
            raise InvalidArgumentError("table(...) needs a CSV path")
        return make_tabulated(GridFunction.from_csv(path))
    kwargs: dict[str, object] = {}
    for part in _split_top_level(body):
        if "=" not in part:
            raise InvalidArgumentError(f"expected key=value in {part!r}")
        key, value = (s.strip() for s in part.split("=", 1))
        if key in kwargs:
            raise InvalidArgumentError(f"repeated key {key!r} in {spec!r}")
        if _CALL_RE.match(value):
            kwargs[key] = parse_distribution(value)
        else:
            try:
                kwargs[key] = float(value)
            except ValueError as exc:
                raise InvalidArgumentError(f"bad numeric value {value!r} in {spec!r}") from exc
    try:
        if head == "exp":
            return make_exponential(**kwargs)
        if head == "gamma":
            return make_gamma(**kwargs)
        if head == "compound":
            return make_geometric_compound(**kwargs)
    except TypeError as exc:
        raise InvalidArgumentError(f"bad arguments for {head!r}: {exc}") from exc
    raise InvalidArgumentError(f"unknown distribution family {head!r}")
