"""Switching-time distributions: analytic families, tabulated laws and
geometric compounds.

Every distribution bundles a density, a CDF, a Laplace transform, a mean and
a sampler.  Laplace evaluators accept real or complex arguments (complex
support is what lets the contour inversion in :mod:`switchkit.laplace` work
on them).

Randomness contract: samplers draw from a caller-owned
``numpy.random.Generator``.  :func:`make_rng` builds one from an explicit
64-bit seed on top of the Philox counter-based bit generator, and
``make_rng(seed, stream=(b,))`` derives the independent stream
``SeedSequence(seed, spawn_key=(b,))``: the Monte Carlo estimators take one
per fixed-size block of paths, so worker threads consume disjoint streams in
any order, and ``make_rng(seed, stream=(i,))`` gives path i of a loop of
single paths its own.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammainc, gammaln

from .errors import InvalidArgumentError
from .grid import GridFunction, GridSpec, cumulative_integral, solve_renewal
from .laplace import geometric_map

# Mass discrepancy above this is an error; below it the density is
# renormalized exactly.
MASS_TOLERANCE = 1e-3

# Kernel entries exp(-s t) that a tabulated law's transform builds per step:
# 64 s-values at a time against the whole table up to 65 536 points, fewer
# beyond, so a step holds two arrays of at most 32 MB (64 MB complex).
_KERNEL_BLOCK = 1 << 22


def make_rng(seed, stream: tuple[int, ...] = ()) -> np.random.Generator:
    """Generator over Philox seeded from an explicit seed.

    ``seed`` may be an int, a SeedSequence, or an existing Generator (passed
    through unchanged, which lets samplers accept either form).  ``stream``
    extends the seed's spawn key, so SeedSequence(s) and s give equal streams.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    seq = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + tuple(stream),
                                 pool_size=seed.pool_size)
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class SwitchingDistribution:
    """A positive switching-time law.

    ``pdf``/``cdf`` may be None when no pointwise form exists (geometric
    compounds); grid tabulations are then obtained via :func:`tabulate_pdf`.
    ``sampler(rng, size)`` returns positive draws; ``size_biased_sampler``
    draws from the length-biased law t*f(t)/mean and is required by the
    stationary-process simulator.
    """

    name: str
    mean: float
    laplace: Callable
    pdf: Callable | None = None
    cdf: Callable | None = None
    sampler: Callable | None = None
    size_biased_sampler: Callable | None = None

    def __post_init__(self):
        if not (self.mean > 0 and math.isfinite(self.mean)):
            raise InvalidArgumentError(f"mean must be in (0, inf), got {self.mean}")

    def sample(self, seed_or_rng, size: int | None = None):
        if self.sampler is None:
            raise InvalidArgumentError(f"{self.name}: no sampler available")
        rng = make_rng(seed_or_rng)
        return self.sampler(rng, size)

    def sample_size_biased(self, seed_or_rng, size: int | None = None):
        if self.size_biased_sampler is None:
            raise InvalidArgumentError(
                f"{self.name}: no size-biased sampler; stationary simulation "
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
        if not self.r > 1:
            raise InvalidArgumentError(f"r must be > 1, got {self.r}")


def make_exponential(rate: float) -> SwitchingDistribution:
    """Exponential switching times with the given intensity."""
    if not (rate > 0 and math.isfinite(rate)):
        raise InvalidArgumentError(f"rate must be positive, got {rate}")
    rate = float(rate)

    def pdf(t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0, rate * np.exp(-rate * np.maximum(t, 0.0)), 0.0)

    def cdf(t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0, -np.expm1(-rate * np.maximum(t, 0.0)), 0.0)

    def laplace(s):
        return rate / (rate + np.asarray(s))

    def sampler(rng, size=None):
        return rng.exponential(1.0 / rate, size=size)

    def size_biased(rng, size=None):
        # t * rate e^{-rate t} is a shape-2 gamma density.
        return rng.gamma(2.0, 1.0 / rate, size=size)

    return SwitchingDistribution(
        name=f"exp(rate={rate:g})",
        mean=1.0 / rate,
        laplace=laplace,
        pdf=pdf,
        cdf=cdf,
        sampler=sampler,
        size_biased_sampler=size_biased,
    )


def make_gamma(shape: float, scale: float) -> SwitchingDistribution:
    """Gamma switching times; transform (1 + scale*s)^(-shape), mean shape*scale."""
    if not (shape > 0 and math.isfinite(shape)):
        raise InvalidArgumentError(f"shape must be positive, got {shape}")
    if not (scale > 0 and math.isfinite(scale)):
        raise InvalidArgumentError(f"scale must be positive, got {scale}")
    shape, scale = float(shape), float(scale)
    log_norm = gammaln(shape) + shape * math.log(scale)

    def pdf(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = (shape - 1.0) * np.log(t) - t / scale - log_norm
            out = np.exp(logp)
        if shape > 1:
            out = np.where(t > 0, out, 0.0)
        elif shape == 1:
            out = np.where(t >= 0, np.exp(-np.maximum(t, 0.0) / scale) / scale, 0.0)
        else:
            # integrable singularity at the origin
            out = np.where(t > 0, out, np.inf)
        return np.where(t < 0, 0.0, out)

    def cdf(t):
        t = np.asarray(t, dtype=float)
        return gammainc(shape, np.maximum(t, 0.0) / scale)

    def laplace(s):
        return (1.0 + scale * np.asarray(s)) ** (-shape)

    def sampler(rng, size=None):
        return rng.gamma(shape, scale, size=size)

    def size_biased(rng, size=None):
        # t^shape e^{-t/scale} is a shape+1 gamma density.
        return rng.gamma(shape + 1.0, scale, size=size)

    return SwitchingDistribution(
        name=f"gamma(shape={shape:g},scale={scale:g})",
        mean=shape * scale,
        laplace=laplace,
        pdf=pdf,
        cdf=cdf,
        sampler=sampler,
        size_biased_sampler=size_biased,
    )


def make_tabulated(pdf: GridFunction) -> SwitchingDistribution:
    """Switching-time law from a density tabulated on a uniform grid.

    The tabulated mass must be within ``MASS_TOLERANCE`` of one; it is then
    renormalized exactly.  The CDF is the trapezoid antiderivative, the
    transform is trapezoid quadrature of e^{-s t} f(t) on the stored grid
    (truncation beyond the grid is bounded by exp(-s * t_end); for Re(s) << 0
    the truncated sum overflows, which contour inversion marks NaN), and sampling
    inverts the CDF with linear interpolation; the size-biased sampler
    inverts the cumulative of t f(t)/mean the same way.
    """
    vals = np.array(pdf.values, dtype=float)
    if np.min(vals) < -1e-9:
        raise InvalidArgumentError(
            f"density has negative mass points (min {np.min(vals):.3e})"
        )
    vals = np.maximum(vals, 0.0)
    t = pdf.times()
    weights = np.full_like(vals, pdf.h)
    weights[0] = weights[-1] = pdf.h / 2
    mass = float(np.dot(weights, vals))
    if abs(mass - 1.0) > MASS_TOLERANCE:
        raise InvalidArgumentError(
            f"tabulated density mass {mass:.6f} deviates from 1 by more than {MASS_TOLERANCE}"
        )
    vals = vals / mass
    density = GridFunction(h=pdf.h, values=vals, notes=pdf.notes)
    cdf_vals = cdf_from_density(density).values
    mean = float(np.dot(weights, t * vals))
    wv = weights * vals
    rows = max(1, min(64, _KERNEL_BLOCK // len(t)))

    def pdf_fn(x):
        return np.interp(x, t, vals, left=0.0, right=0.0)

    def cdf_fn(x):
        return np.interp(x, t, cdf_vals, left=0.0, right=1.0)

    def laplace(s):
        s_arr = np.asarray(s)
        if s_arr.ndim == 0:
            return np.dot(np.exp(-s_arr * t), wv)
        # block the outer product so contour-matrix inputs stay in memory
        flat = s_arr.ravel()
        out = np.empty(flat.shape, dtype=np.result_type(flat.dtype, float))
        for lo in range(0, flat.size, rows):
            blk = flat[lo : lo + rows]
            out[lo : lo + rows] = np.exp(-np.multiply.outer(blk, t)) @ wv
        return out.reshape(s_arr.shape)

    def sampler(rng, size=None):
        u = rng.random(size)
        return np.interp(u, cdf_vals, t)

    # the length-biased law t*f(t)/mean, inverted the same way
    biased_cdf_vals = cdf_from_density(density.with_values(t * vals / mean)).values

    def size_biased(rng, size=None):
        return np.interp(rng.random(size), biased_cdf_vals, t)

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
    if not (r > 1 and math.isfinite(r)):
        raise InvalidArgumentError(f"r must be > 1, got {r}")
    r = float(r)
    p = 1.0 / r
    log_q = math.log1p(-p)

    def draw_counts(rng, n):
        u = rng.random(n)
        u = np.maximum(u, 1e-300)  # U=0 would give an infinite count
        return 1 + np.floor(np.log(u) / log_q).astype(np.int64)

    def sampler(rng, size=None):
        if size is None:
            nu = int(draw_counts(rng, 1)[0])
            return float(np.sum(divisor.sample(rng, nu)))
        counts = draw_counts(rng, int(size))
        draws = divisor.sample(rng, int(counts.sum()))
        edges = np.concatenate([[0], np.cumsum(counts)[:-1]])
        return np.add.reduceat(draws, edges)

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
    if not (q > 0 and math.isfinite(q)):
        raise InvalidArgumentError(f"q must be in (0, inf), got {q}")
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
        key, value = part.split("=", 1)
        key = key.strip()
        value = value.strip()
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
