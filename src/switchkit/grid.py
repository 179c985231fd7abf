"""Uniform-grid function representation and its numeric operations.

A :class:`GridFunction` tabulates a real function on a uniform time grid and
is the numeric currency passed between modules.  All operations are pure:
values are never mutated after construction, so instances are safe to share
across threads.

Convolution, integration and differentiation all use the trapezoid rule /
second-order stencils; second-order accuracy keeps convolutions exactly
symmetric and is sufficient for the tolerances this package targets.
:func:`solve_renewal` inverts the trapezoid convolution exactly, which sums
whole series of convolution powers in one O(n log n) step.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from .errors import InvalidArgumentError, NumericError

# Rows formatted per step of write_rows.  A step holds a few float64 arrays
# and a byte matrix of this many rows, so the writer's working memory stays
# near 1 MB per column whatever the table length.
_CSV_BLOCK = 8192

# Bound on the a-posteriori residual max|x + c convolve(x, f) - rhs| of
# solve_renewal, in units of rhs; a larger residual is a numeric failure.
RENEWAL_TOL = 1e-6


@dataclass(frozen=True)
class GridSpec:
    """A uniform grid: n samples t_i = i*h from the origin."""

    h: float
    n: int

    def __post_init__(self):
        if not (self.h > 0 and math.isfinite(self.h)):
            raise InvalidArgumentError(f"grid step must be positive and finite, got {self.h}")
        if self.n < 1:
            raise InvalidArgumentError(f"grid needs at least one sample, got n={self.n}")

    @classmethod
    def from_t_end(cls, t_end: float, h: float) -> "GridSpec":
        for name, x in (("t_end", t_end), ("grid step", h)):
            if not (x > 0 and math.isfinite(x)):
                raise InvalidArgumentError(f"{name} must be positive and finite, got {x}")
        return cls(h=h, n=int(round(t_end / h)) + 1)

    def times(self) -> np.ndarray:
        return self.h * np.arange(self.n)

    @property
    def t_end(self) -> float:
        return self.h * (self.n - 1)


@dataclass(frozen=True)
class GridFunction:
    """Real samples v[i] ~ g(i*h) on a uniform grid from the origin.

    Invariants: h > 0, values non-empty and finite.  Two instances are
    combinable only when h and length agree.  ``notes`` carries
    non-numeric annotations (e.g. extrapolation warnings) and does not
    affect combinability or equality of the numeric payload.
    """

    h: float
    values: np.ndarray
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise InvalidArgumentError("values must be a non-empty 1-d array")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise InvalidArgumentError(f"grid step must be positive and finite, got {self.h}")
        if not np.isfinite(vals).all():
            raise InvalidArgumentError("values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def t_end(self) -> float:
        return self.h * (len(self.values) - 1)

    def times(self) -> np.ndarray:
        return self.h * np.arange(len(self.values))

    def same_grid(self, other: "GridFunction") -> bool:
        return self.h == other.h and len(self.values) == len(other.values)

    def interp(self, t) -> np.ndarray:
        """Linear interpolation at arbitrary times (constant beyond the ends)."""
        return np.interp(t, self.times(), self.values)

    def with_values(self, values, notes: tuple[str, ...] | None = None) -> "GridFunction":
        return GridFunction(
            h=self.h,
            values=np.asarray(values, dtype=float),
            notes=self.notes if notes is None else notes,
        )

    # -- serialization ----------------------------------------------------

    def to_csv(self, path, extra_columns: dict[str, np.ndarray] | None = None) -> None:
        """Write ``t,value[,...]`` rows in full-precision scientific notation."""
        extra = extra_columns or {}
        cols = np.column_stack([self.times(), self.values, *extra.values()])
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["t", "value", *extra.keys()])
            write_rows(fh, cols)

    @classmethod
    def from_csv(cls, path) -> "GridFunction":
        """Read a ``t,value`` CSV (extra columns are ignored) whose first t is 0."""
        with open(path, newline="") as fh:
            header = next(csv.reader([fh.readline()]), [])
            if len(header) < 2 or header[0] != "t" or header[1] != "value":
                raise InvalidArgumentError(f"{path}: expected a 't,value' header, got {header}")
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # no data rows: refused below
                    data = np.loadtxt(fh, delimiter=",", usecols=(0, 1), ndmin=2, comments=None)
            except ValueError as exc:
                raise InvalidArgumentError(f"{path}: malformed data row: {exc}") from exc
        t = data[:, 0]
        if len(t) < 2:
            raise InvalidArgumentError(f"{path}: need at least two samples")
        if t[0] != 0.0:
            raise InvalidArgumentError(f"{path}: the table must start at t = 0, got t = {t[0]}")
        steps = np.diff(t)
        h = float(steps[0])
        if not np.allclose(steps, h, rtol=1e-9, atol=1e-12):
            raise InvalidArgumentError(f"{path}: grid is not uniform; resampling is not performed")
        return cls(h=h, values=data[:, 1])


def _split(a):
    """Veltkamp's split a = hi + lo into two halves of at most 26 bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _pow10_table():
    """(hi, hi_hi, hi_lo, lo, b) with 10^(17-k) = (hi + lo) 2^b for k in
    [_K_MIN, _K_MAX] and hi_hi + hi_lo = hi split for :func:`_scale`.

    Each power is taken to 128 bits with integer arithmetic, so hi + lo
    carries it to a relative 2^-106.
    """
    his, los, exps = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = 10 ** max(17 - k, 0), 10 ** max(k - 17, 0)
        b = num.bit_length() - den.bit_length() - 128
        m = (num << max(-b, 0)) // (den << max(b, 0))  # 10^(17-k) 2^-b, 128 bits
        hi = float(m)
        his.append(math.ldexp(hi, -128))
        los.append(math.ldexp(float(m - int(hi)), -128))
        exps.append(b + 128)
    hi = np.array(his)
    return (hi, *_split(hi), np.array(los), np.array(exps, dtype=np.int32))


# Decimal exponents of finite doubles, one spare on each side for the
# correction of the log10 estimate.
_K_MIN, _K_MAX = -325, 309
_POW10 = _pow10_table()
# Bound on the error of P + T from _scale: the table, the product's low
# part and its last addition each err by at most ~2^-106 relative, which
# below 10^18 is under 5e-14 absolute.  Nearer than this to a half, the
# rounding is not certain (or is an exact tie) and the row goes to `%`.
_ROUND_ERR = 2.0**-43

# Byte slots of one field of the byte matrix in write_rows: sign, d0, '.',
# d1..d17, 'e', exponent sign, three exponent digits, ','.
_FIELD = 26
_DIGIT_SLOTS = ((1, *range(3, 11)), tuple(range(11, 20)), (22, 23, 24))


def _scale(f, e, k):
    """(P, T) with P + T = f 2^e 10^(17-k), P an integer-valued double."""
    i = k - _K_MIN
    hi, hi_hi, hi_lo, lo, b = (t.take(i) for t in _POW10)
    p = f * hi
    f_hi, f_lo = _split(f)
    # Dekker's two-product: f hi = p + err exactly (numpy has no fma)
    err = ((f_hi * hi_hi - p) + f_hi * hi_lo + f_lo * hi_hi) + f_lo * hi_lo
    s = e + b
    return np.ldexp(p, s), np.ldexp(err + f * lo, s)


def _decimal(x: np.ndarray):
    """Digits of ``'%.17e' % v`` for each element v of ``x``.

    Returns (D, k, ok): ``|v|`` rounds half-even to D 10^(k-17) with the
    18-digit integer D (0 for zeros).  ``ok`` is false where v is not finite
    or the rounding is not certified; D and k mean nothing there.
    """
    a = np.abs(x)
    finite = np.isfinite(a)
    zero = a == 0.0
    a = np.where(finite & ~zero, a, 1.0)
    f, e = np.frexp(a)
    k = np.floor(np.log10(a)).astype(np.int32)
    P, T = _scale(f, e, k)
    # log10 can miss floor(log10|v|) by one next to a power of ten.  P + T
    # itself would round, so it is compared with 10^17 and 10^18 in parts.
    high = (P > 1e18) | ((P == 1e18) & (T >= 0))
    low = (P < 1e17) | ((P == 1e17) & (T < 0))
    step = high.astype(np.int32) - low
    redo = high | low
    if redo.any():
        k[redo] += step[redo]
        P[redo], T[redo] = _scale(f[redo], e[redo], k[redo])
    F = np.floor(T)
    frac = T - F
    ok = finite & (np.abs(frac - 0.5) > _ROUND_ERR)
    D = P.astype(np.int64) + F.astype(np.int64) + (frac > 0.5)
    top = D == 10**18
    D[top] = 10**17
    k[top] += 1
    D[zero] = 0
    k[zero] = 0
    return D, k, ok


def write_rows(fh, cols: np.ndarray, end: str = "\r\n") -> None:
    """Write each row of the 2-d float array ``cols`` to ``fh`` as
    comma-separated ``%.17e`` fields followed by ``end`` (by default
    csv.writer's terminator).

    The text is exactly ``row % tuple(values)`` for each row, built in blocks
    of ``_CSV_BLOCK`` rows by a numpy kernel: each |v| is scaled to
    Y = |v| 10^(17-k) in double-double arithmetic (Dekker, Numer. Math. 18,
    1971) from an exact power-of-ten table, and Y is rounded to 18 digits
    where its fractional part is certified away from one half.  Rows with a
    NaN, an infinity or an uncertified rounding are formatted by ``%``.
    """
    cols = np.asarray(cols, dtype=np.float64)
    n_cols = cols.shape[1]
    row = ",".join(["%.17e"] * n_cols) + end
    tail = np.frombuffer(end.encode(), dtype=np.uint8)
    width = _FIELD * n_cols + len(tail)
    for lo in range(0, len(cols), _CSV_BLOCK):
        block = cols[lo : lo + _CSV_BLOCK]
        x = np.ascontiguousarray(block.T)
        D, k, ok = _decimal(x)
        # one matrix row per byte slot, one column per table row; slots a
        # table row does not print are dropped by `keep`
        buf = np.empty((width, len(block)), dtype=np.uint8)
        keep = np.ones(buf.shape, dtype=bool)
        fields = buf[: _FIELD * n_cols].reshape(n_cols, _FIELD, len(block))
        kept = keep[: _FIELD * n_cols].reshape(n_cols, _FIELD, len(block))
        fields[:, 0] = ord("-")
        kept[:, 0] = np.signbit(x)
        hi = D // 10**9
        ak = np.abs(k)
        for v, slots in zip((hi, D - hi * 10**9, ak), _DIGIT_SLOTS):
            v = v.astype(np.uint32)
            for s in reversed(slots):
                q = v // 10  # v % 10 is several times slower than //
                fields[:, s] = v - 10 * q + ord("0")
                v = q
        kept[:, 22] = ak >= 100
        fields[:, 2] = ord(".")
        fields[:, 20] = ord("e")
        fields[:, 21] = np.where(k < 0, ord("-"), ord("+"))
        fields[:, 25] = ord(",")
        kept[-1:, 25] = False  # no comma after the last field
        buf[_FIELD * n_cols :] = tail[:, None]
        good = ok.all(axis=0)
        keep[:, ~good] = False
        text = buf.T[keep.T].tobytes().decode()
        if good.all():
            fh.write(text)
            continue
        ends = np.cumsum(keep.sum(axis=0))
        parts, start = [], 0
        for i in np.flatnonzero(~good):
            parts += [text[start : ends[i]], row % tuple(block[i].tolist())]
            start = ends[i]
        parts.append(text[start:])
        fh.write("".join(parts))


def _check_combinable(f: GridFunction, g: GridFunction, op: str) -> None:
    if not f.same_grid(g):
        raise InvalidArgumentError(
            f"{op}: grid mismatch (h {f.h} vs {g.h}, n {len(f)} vs {len(g)})"
        )


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Trapezoid discretization of (f*g)(t) = int_0^t f(t-x) g(x) dx.

    Both inputs are treated as supported on [0, inf).  The result lives on
    the same grid; anything beyond the grid end is discarded, so tabulate
    past the largest evaluation time of interest.
    """
    _check_combinable(f, g, "convolve")
    a, b = f.values, g.values
    full = _product(a, b, len(a))
    # full[k] = sum_i a[k-i] b[i]; trapezoid halves both endpoint products.
    out = f.h * (full - 0.5 * (a * b[0] + a[0] * b))
    out[0] = 0.0
    return GridFunction(h=f.h, values=out, notes=f.notes + g.notes)


def _product(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of the power-series product u*v, by real FFT."""
    u, v = u[:n], v[:n]
    size = sp_fft.next_fast_len(len(u) + len(v) - 1, real=True)
    return sp_fft.irfft(sp_fft.rfft(u, size) * sp_fft.rfft(v, size), size)[:n]


def _series_inverse(a: np.ndarray) -> np.ndarray:
    """First len(a) coefficients of 1/a(z), by Newton iteration b <- b(2 - ab).

    If a*b = 1 + z^m e (mod z^2m), then b - z^m (b*e) is the inverse to
    order 2m, so each step doubles the number of correct coefficients.
    """
    b = np.array([1.0 / a[0]])
    while len(b) < len(a):
        m = len(b)
        m2 = min(2 * m, len(a))
        e = _product(a, b, m2)[m:]
        b = np.concatenate([b, -_product(b, e, m2 - m)])
    return b


def solve_renewal(f: GridFunction, rhs: GridFunction, c: float) -> GridFunction:
    """Solve x + c * convolve(x, f) = rhs for x on the grid.

    The trapezoid operator is lower-triangular Toeplitz:
    convolve(a, f) = w (*) a - (h/2) a[0] f, with w = h f and w[0] halved.
    So the system is (delta + c w) (*) x = rhs + (c h/2) x[0] f, where
    x[0] = rhs[0] exactly.  The power series delta + c w is inverted by Newton
    iteration on FFT products (Brent & Kung, J. ACM 25, 1978), which costs
    O(n log n) whatever the grid length.  Truncated alternating (c = 1) or
    geometric (c < 0) series of convolution powers of f converge to this x.

    An a-posteriori residual max|x + c convolve(x, f) - rhs| above
    ``RENEWAL_TOL`` raises NumericError.
    """
    _check_combinable(f, rhs, "solve_renewal")
    n, h, fv = len(f), f.h, f.values
    w = h * fv
    w[0] *= 0.5
    a = c * w
    a[0] += 1.0
    if a[0] == 0.0:
        raise NumericError("solve_renewal: singular system (1 + c h f(0)/2 = 0)")
    x0 = float(rhs.values[0])
    x = _product(_series_inverse(a), rhs.values + (0.5 * c * h * x0) * fv, n)
    x[0] = x0
    residual = float(np.max(np.abs(x + c * (_product(w, x, n) - (0.5 * h * x0) * fv)
                                   - rhs.values)))
    if not residual <= RENEWAL_TOL:
        raise NumericError(
            f"renewal solve residual {residual:.3e} exceeds tol {RENEWAL_TOL:.3e} (n={n}, c={c:g})"
        )
    return rhs.with_values(x)


def cumulative_integral(g: GridFunction) -> GridFunction:
    """Trapezoid antiderivative with value 0 at the origin."""
    v = g.values
    out = np.concatenate([[0.0], np.cumsum(0.5 * g.h * (v[1:] + v[:-1]))])
    return g.with_values(out)


def integral(g: GridFunction) -> float:
    """Trapezoid integral over the whole grid."""
    return float(np.trapezoid(g.values, dx=g.h))


def derivative(g: GridFunction) -> GridFunction:
    """Central differences inside, one-sided second-order stencils at the ends."""
    if len(g) < 3:
        raise InvalidArgumentError(f"derivative needs at least 3 samples, got {len(g)}")
    v, h = g.values, g.h
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    d[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
    d[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    return g.with_values(d)


def second_derivative(g: GridFunction) -> GridFunction:
    """Second differences inside, one-sided second-order stencils at the ends."""
    if len(g) < 4:
        raise InvalidArgumentError(f"second_derivative needs at least 4 samples, got {len(g)}")
    v, h = g.values, g.h
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / (h * h)
    d[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / (h * h)
    d[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / (h * h)
    return g.with_values(d)
