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

CSV text is written by :func:`_write_rows` and read by :func:`_read_rows` over
one power-of-ten table, bit for bit as ``%.17e`` prints and ``float()`` reads.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from .errors import InvalidArgumentError, NumericError, ResourceLimitError

# Rows formatted per step of _write_rows.  A step holds a few float64 arrays
# and a byte matrix of this many rows, so the writer's working memory stays
# near 1 MB per column whatever the table length.
_CSV_BLOCK = 8192

# Bound on the absolute a-posteriori residual max|x + c convolve(x, f) - rhs|
# of solve_renewal; a larger residual is a numeric failure.
RENEWAL_TOL = 1e-6

# Largest grid, and largest number of switches simulate_switch expects to
# draw.  The E solve peaks near 97 bytes per point, about 1.6 GB at the cap.
MAX_POINTS = 2**24

# A table read by GridFunction.from_csv is uniform when every step matches
# the first to this relative and absolute tolerance (np.allclose).
UNIFORM_STEP_RTOL = 1e-9
UNIFORM_STEP_ATOL = 1e-12


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
        if self.n > MAX_POINTS:
            raise ResourceLimitError(f"grid of {self.n} points exceeds MAX_POINTS = {MAX_POINTS}")

    @classmethod
    def from_t_end(cls, t_end: float, h: float) -> "GridSpec":
        for name, x in (("t_end", t_end), ("grid step", h)):
            if not (x > 0 and math.isfinite(x)):
                raise InvalidArgumentError(f"{name} must be positive and finite, got {x}")
        if t_end / h > MAX_POINTS:  # before int(), which overflows on inf
            raise ResourceLimitError(f"grid of t_end / h = {t_end / h:.3g} steps exceeds "
                                     f"MAX_POINTS = {MAX_POINTS}")
        if round(t_end / h) < 1:
            raise InvalidArgumentError(f"t_end = {t_end} rounds to zero steps of h = {h}")
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

    def with_values(self, values) -> "GridFunction":
        return GridFunction(h=self.h, values=np.asarray(values, dtype=float), notes=self.notes)

    # -- serialization ----------------------------------------------------

    def to_csv(self, path, extra_columns: dict[str, np.ndarray] | None = None) -> None:
        """Write ``t,value[,...]`` rows in full-precision scientific notation."""
        extra = extra_columns or {}
        cols = np.column_stack([self.times(), self.values, *extra.values()])
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["t", "value", *extra.keys()])
            _write_rows(fh, cols)

    @classmethod
    def from_csv(cls, path) -> "GridFunction":
        """Read a ``t,value`` CSV (extra columns are ignored) whose first t is 0, each
        value ``float()`` of its field, by :func:`_read_rows` or ``np.loadtxt``."""
        with open(path, newline="") as fh:
            line = fh.readline()
            header = next(csv.reader([line]), [])
            if len(header) < 2 or header[0] != "t" or header[1] != "value":
                raise InvalidArgumentError(f"{path}: expected a 't,value' header, got {header}")
            with open(path, "rb") as fb:
                data = _read_rows(fb.read(), len(line.encode(fh.encoding)))
            if data is None:
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")  # no data rows: refused below
                        data = np.loadtxt(fh, delimiter=",", usecols=(0, 1), ndmin=2,
                                          comments=None, max_rows=MAX_POINTS + 1)
                except ValueError as exc:
                    raise InvalidArgumentError(f"{path}: malformed data row: {exc}") from exc
        if len(data) > MAX_POINTS:
            raise ResourceLimitError(f"{path}: table of more than MAX_POINTS = {MAX_POINTS} rows")
        t = data[:, 0]
        if len(t) < 2:
            raise InvalidArgumentError(f"{path}: need at least two samples")
        if t[0] != 0.0:
            raise InvalidArgumentError(f"{path}: the table must start at t = 0, got t = {t[0]}")
        steps = np.diff(t)
        h = float(steps[0])
        if not np.allclose(steps, h, rtol=UNIFORM_STEP_RTOL, atol=UNIFORM_STEP_ATOL):
            raise InvalidArgumentError(
                f"{path}: grid is not uniform to rtol {UNIFORM_STEP_RTOL:g}, atol "
                f"{UNIFORM_STEP_ATOL:g}; resampling is not performed")
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
# Bound on the error of P + T from _scale: the table, the product's low part
# and its additions each err by ~2^-106 relative, under 5e-14 below 10^18 (and
# 1e-15 ulp in _value).  Nearer a half, the rounding is not certain (or is an
# exact tie): the writer's row goes to `%`, the reader's field to `float()`.
_ROUND_ERR = 2.0**-43

# Byte slots of one field of the byte matrix in _write_rows: sign, d0, '.',
# d1..d17, 'e', exponent sign, three exponent digits, ','.
_FIELD = 26
_DIGIT_SLOTS = ((1, *range(3, 11)), tuple(range(11, 20)), (22, 23, 24))


def _scale(f, e, k, tail=0.0):
    """(P, T) with P + T = (f + tail) 2^e 10^(17-k) and P = fl(f 2^e 10^(17-k))."""
    i = k - _K_MIN
    hi, hi_hi, hi_lo, lo, b = (t.take(i) for t in _POW10)
    p = f * hi
    f_hi, f_lo = _split(f)
    # Dekker's two-product: f hi = p + err exactly (numpy has no fma)
    err = ((f_hi * hi_hi - p) + f_hi * hi_lo + f_lo * hi_hi) + f_lo * hi_lo
    s = e + b
    return np.ldexp(p, s), np.ldexp(err + f * lo + tail * hi, s)


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


def _write_rows(fh, cols: np.ndarray, end: str = "\r\n") -> None:
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


def _read_rows(raw: bytes, start: int):
    """The first two columns of the rows in ``raw[start:]`` (after a header
    line), or None unless each row is the same number (2 or more) of ``%.17e``
    fields ended by ``,``, ``\n`` or ``\r\n``: the mirror of :func:`_write_rows`,
    in blocks of about ``_CSV_BLOCK`` fields, each read by :func:`_value` or,
    where that is not certified, ``float``.  Past ``MAX_POINTS`` rows nothing
    is converted."""
    if len(raw) < start + _FIELD or raw[-1:] != b"\n":
        return None
    u = np.frombuffer(raw, dtype=np.uint8)
    words = np.ndarray(len(raw) - 7, "<u8", raw, strides=(1,))  # the 8 bytes from each byte
    out = np.empty((raw.count(b"\n", start), 2))  # one row per line end
    n_cols, row, a = 0, 0, start
    while a < len(raw):
        b = raw.find(b"\n", min(a + _CSV_BLOCK * _FIELD, len(raw)) - 1) + 1
        p = a + np.flatnonzero(u[a:b] == ord("e"))  # one 'e' per field
        if len(p) == 0 or p[0] < 20 or p[-1] + 5 > len(raw):
            return None
        # each field is [-]d0.d1..d17e(+|-)x0x1[x2], d1..d8 and d9..d16 read as words
        d0, d17, x0, x1, x2 = (u[p + j] - 48 for j in (-19, -1, 2, 3, 4))
        (hi, hi_ok), (lo, lo_ok) = _eight_digits(words[p - 17]), _eight_digits(words[p - 9])
        neg, plus, three = u[p - 20] == ord("-"), u[p + 1] == ord("+"), x2 < 10
        q = p + 4 + three  # the separator
        sep = u.take(q, mode="clip")
        crlf = (sep == ord("\r")) & (u.take(q + 1, mode="clip") == ord("\n"))
        end = crlf | (sep == ord("\n"))  # of a row
        first, nxt = p - 19 - neg, q + 1 + crlf  # where this field and the next start
        n_cols = n_cols or int(np.argmax(end)) + 1
        valid = ((d0 < 10) & (d17 < 10) & (x0 < 10) & (x1 < 10) & (u[p - 18] == ord("."))
                 & (plus | (u[p + 1] == ord("-"))) & (end | (sep == ord(","))) & hi_ok & lo_ok)
        # the fields tile [a, b), and each row holds n_cols of them
        if not (n_cols > 1 and np.array_equal(np.r_[first, b], np.r_[a, nxt]) and valid.all()
                and np.array_equal(end, np.arange(1, len(p) + 1) % n_cols == 0)):
            return None
        if len(out) <= MAX_POINTS:
            k = np.where(three, 100, 10) * x0 + np.where(three, 10, 1) * x1 + three * x2
            v, ok = _value((d0 * np.int64(10**8) + hi) * 10**9 + lo * 10 + d17,
                           np.where(plus, k, -k))
            v = np.where(neg, -v, v)
            for j in np.flatnonzero(~ok):
                v[j] = float(raw[first[j] : q[j]])
            out[row : row + len(p) // n_cols] = v.reshape(-1, n_cols)[:, :2]
            row += len(p) // n_cols
        a = b
    return out


def _value(D, k):
    """(v, ok), the inverse of :func:`_decimal`: where ``ok``, v is the double
    nearest D 10^(k-17) = P + T (D < 10^18), as the rest P + T - v is inside half
    an ulp (a quarter below a power of two); not at ties or k out of the table."""
    Dh, i = D.astype(np.float64), np.clip(34 - k, _K_MIN, _K_MAX)  # 10^(k-17) = 10^(17-i)
    with np.errstate(over="ignore", invalid="ignore"):
        P, T = _scale(Dh, 0, i, (D - Dh.astype(np.int64)).astype(np.float64))
        v = P + T
        f, e = np.frexp(v)
        rest = np.abs(np.ldexp((P - v) + T, 53 - e))
    return v, (i == 34 - k) & (rest < np.where(f == 0.5, 0.25, 0.5) - _ROUND_ERR)


def _eight_digits(w):
    """(n, ok): each uint64 of ``w`` read as 8 little-endian ASCII digits (Lemire's SWAR)."""
    high, zeros, pairs = np.uint64(0xF0F0F0F0F0F0F0F0), 0x3030303030303030, 0x000000FF000000FF
    ok = ((w & high) == zeros) & (((w + 0x0606060606060606) & high) == zeros)
    v = (w - zeros) * 10 + ((w - zeros) >> 8)  # byte 2j: the two digits 2j, 2j+1
    v = ((v & pairs) * (100 + (1000000 << 32)) + ((v >> 16) & pairs) * (1 + (10000 << 32))) >> 32
    return v.astype(np.int64), ok


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


def _series_inverse(a: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of 1/a(z), by Newton iteration on halved lengths:
    with b = 1/a to order m = ceil(n/2), a*b = 1 + z^m e (mod z^n) and
    b - z^m (b*e) is 1/a to order n.  The middle product e = (a*b)[m:n] is
    cyclic of length L >= n, whose wrap-around lands only in [0, m)."""
    if n == 1:
        return np.array([1.0 / a[0]])
    m = (n + 1) // 2
    b = _series_inverse(a, m)
    L = sp_fft.next_fast_len(n, real=True)
    fb = sp_fft.rfft(b, L)
    e = sp_fft.irfft(sp_fft.rfft(a[:n], L) * fb, L)[m:n]
    return np.concatenate([b, -sp_fft.irfft(fb * sp_fft.rfft(e, L), L)[: n - m]])


def _series_divide(r: np.ndarray, a: np.ndarray) -> np.ndarray:
    """First n = len(r) coefficients of r(z)/a(z), by Karp and Markstein's
    last step (ACM TOMS 23, 1997): with b = 1/a to order m = ceil(n/2),
    x0 = b*r mod z^m and x1 = b*(r - a*x0)[m:n] mod z^(n-m)."""
    n = len(r)
    m = (n + 1) // 2
    b = _series_inverse(a, m)
    L = sp_fft.next_fast_len(n, real=True)
    fb = sp_fft.rfft(b, L)
    x0 = sp_fft.irfft(fb * sp_fft.rfft(r[:m], L), L)[:m]
    d = r[m:n] - sp_fft.irfft(sp_fft.rfft(a[:n], L) * sp_fft.rfft(x0, L), L)[m:n]
    return np.concatenate([x0, sp_fft.irfft(fb * sp_fft.rfft(d, L), L)[: n - m]])


def solve_renewal(f: GridFunction, rhs: GridFunction, c: float) -> GridFunction:
    """Solve x + c * convolve(x, f) = rhs for x on the grid.

    The trapezoid operator is lower-triangular Toeplitz:
    convolve(a, f) = w (*) a - (h/2) a[0] f, with w = h f and w[0] halved.
    So the system is (delta + c w) (*) x = rhs + (c h/2) x[0] f, where
    x[0] = rhs[0] exactly.  The division inverts delta + c w to order n/2
    by Newton iteration on halved lengths with middle products (Hanrot,
    Quercia and Zimmermann, AAECC 14, 2004), then takes Karp and
    Markstein's last step: about 19 n of FFT length, O(n log n) whatever
    the grid length.  Truncated alternating (c = 1) or geometric (c < 0)
    series of convolution powers of f converge to this x.

    An a-posteriori residual max|x + c convolve(x, f) - rhs|, an independent
    full product of length 2n, above ``RENEWAL_TOL`` raises NumericError.
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
    x = _series_divide(rhs.values + (0.5 * c * h * x0) * fv, a)
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
