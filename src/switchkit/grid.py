"""Uniform-grid function representation and its numeric operations.

A :class:`GridFunction` tabulates a real function on a uniform time grid and
is the numeric currency passed between modules.  All operations are pure:
values are never mutated after construction, so instances are safe to share
across threads.

Convolution, integration and differentiation all use the trapezoid rule /
second-order stencils; second-order accuracy keeps convolutions exactly
symmetric and is sufficient for the tolerances this package targets.
:func:`solve_renewal` inverts the trapezoid convolution exactly, which sums
whole series of convolution powers in one O(n log n) step.  Its FFT helpers
run on ``numpy.fft`` at lengths from :func:`_fast_len`, and give the
independent transforms of a step to one call.

CSV text is written by :func:`_write_rows` and read by :func:`_read_rows` over
one power-of-ten table, bit for bit as ``%.17e`` prints and ``float()`` reads.
The writer serves every file of one grid in one pass: it formats each block
of its distinct columns once, lays each file's rows out at one fixed width
with 8-byte words of digits at their final offsets, gathers only a block in
which a column mixes signs or exponent widths, and writes bytes.  A file's
block holding a field it cannot certify (NaN, inf, a near-tie, or a tie
where 10^(17-k) is not a double) goes to ``%``.  The reader reads a block
whose rows all have its first row's width as one fixed-width run: it checks
the (rows, width) byte matrix against that row's layout and reads the digits
through strided views.  It searches any other block (a zero crossing, an
exponent passing 1e+-100) field by field for its ``e``, and sends a field it
cannot certify to ``float()``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericError, ResourceLimitError, _require_above

# Fields formatted per step of _write_rows, over its distinct columns.  A
# step holds about twenty 8-byte arrays of this many values and each file's
# bytes of its rows (at most 26 per field), so the writer's working memory
# stays at about 4 MB whatever the table length and the number of tables.
# _read_rows, which holds the whole file besides, reads half as many fields
# per step.
_CSV_BLOCK = 16384

# Bound on the a-posteriori residual max|x + c convolve(x, f) - rhs| of
# solve_renewal relative to max(1, max|rhs|); a larger one is a numeric failure.
RENEWAL_TOL = 1e-6

# Largest grid, and largest number of switches one simulated path (of
# simulate_switch or an estimate) is expected to draw.  The E solve of a
# fresh process raises its peak RSS by 104-120 bytes per point at 2^20 to
# 2^22 points, so about 2 GB at the cap.
MAX_POINTS = 2**24

# A table read by GridFunction.from_csv is uniform when each step is within
# this times h of the first step h, plus 2 eps t for the rounding of its times.
UNIFORM_STEP_RTOL = 1e-9

# Below this many coefficients a Newton step of the renewal solve's series
# inverse takes its two products by direct np.convolve, not by FFT.
_DIRECT_BASE = 256


@dataclass(frozen=True)
class GridSpec:
    """A uniform grid: n samples t_i = i*h from the origin."""

    h: float
    n: int

    def __post_init__(self):
        _require_above("grid step", self.h, 0)
        if self.n < 1:
            raise InvalidArgumentError(f"grid needs at least one sample, got n={self.n}")
        if self.n > MAX_POINTS:
            raise ResourceLimitError(f"grid of {self.n} points exceeds MAX_POINTS = {MAX_POINTS}")

    @classmethod
    def from_t_end(cls, t_end: float, h: float) -> "GridSpec":
        _require_above("t_end", t_end, 0)
        _require_above("grid step", h, 0)
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
        _require_above("grid step", self.h, 0)
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
        _write_csv([(path, ["t", "value", *extra], range(2 + len(extra)))],
                   [self.times(), self.values, *extra.values()])

    @classmethod
    def from_csv(cls, path) -> "GridFunction":
        """Read a ``t,value`` CSV (extra columns are ignored) whose first t is 0, each
        value ``float()`` of its field, by :func:`_read_rows` or ``np.loadtxt``.
        The file is opened and read once, so a pipe such as ``/dev/stdin`` works."""
        with open(path, "rb") as fh:
            data = _table_rows(fh.read(), path)
        if len(data) > MAX_POINTS:
            raise ResourceLimitError(f"{path}: table of more than MAX_POINTS = {MAX_POINTS} rows")
        t = data[:, 0]
        if len(t) < 2:
            raise InvalidArgumentError(f"{path}: need at least two samples")
        if t[0] != 0.0:
            raise InvalidArgumentError(f"{path}: the table must start at t = 0, got t = {t[0]}")
        gap = np.diff(t)
        h = float(gap[0])
        gap -= h
        slack = t[:-1] * (2.0 * np.finfo(float).eps)  # t[:-1]: an infinite time is refused
        slack += UNIFORM_STEP_RTOL * h
        if not (np.abs(gap, out=gap) <= slack).all():
            raise InvalidArgumentError(
                f"{path}: grid is not uniform to rtol {UNIFORM_STEP_RTOL:g} beyond the "
                "rounding of its times; resampling is not performed")
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
# exact tie): the writer's block goes to `%`, the reader's field to `float()`.
_ROUND_ERR = 2.0**-43

# Bytes of the widest field with its separator: sign, d0, '.', d1..d17, 'e',
# exponent sign, three exponent digits, ','.
_FIELD = 26
# [three, k - _K_MIN]: b"0e%+03d" % k, or b"0e%+04d" % k where three = 1, as a
# little-endian word; _write_rows adds the last mantissa digit to its '0'.
_EXP_WORDS = np.array([[int.from_bytes(b"0e%+0*d" % (3 + three, k), "little")
                        for k in range(_K_MIN, _K_MAX + 1)] for three in (0, 1)])
# [n]: the 4 ASCII digits of n < 10^4 as a little-endian word, the first digit lowest.
_ASCII4 = sum((np.arange(10**4) // 10**j % 10 + 48) << 8 * (3 - j) for j in range(4))


def _scale(f, e, k, tail=None):
    """(P, T) with P + T = (f + tail) 2^e 10^(17-k) and P = fl(f 2^e 10^(17-k));
    no ``tail`` is a zero one."""
    i = k - _K_MIN
    hi, hi_hi, hi_lo, lo, b = (t.take(i) for t in _POW10)
    p = f * hi
    f_hi, f_lo = _split(f)
    # Dekker's two-product: f hi = p + err exactly (numpy has no fma)
    err = ((f_hi * hi_hi - p) + f_hi * hi_lo + f_lo * hi_hi) + f_lo * hi_lo
    err += f * lo
    if tail is not None:
        err += tail * hi
    s = e + b
    return np.ldexp(p, s), np.ldexp(err, s)


def _decimal(x: np.ndarray):
    """Digits of ``'%.17e' % v`` for each element v of ``x``.

    Returns (D, k, ok): ``|v|`` rounds half-even to D 10^(k-17) with the
    18-digit integer D (0 for zeros).  ``ok`` is false where v is not finite
    or the rounding is not certified; D and k mean nothing there, but they
    are still an 18-digit D and a k of a finite double.  An exact tie is
    certified for k in [-5, 17], where 10^(17-k) is a double: P + T is then
    exact, and rint(T) rounds it half-even since P >= 1e17 is even.
    """
    a = np.abs(x)
    finite = np.isfinite(a)
    zero = a == 0.0
    a = np.where(finite & ~zero, a, 1.0)
    f, e = np.frexp(a)
    k = np.floor(np.log10(a)).astype(np.intp)
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
    R = np.rint(T)
    gap = np.abs(T - R)
    ok = finite & (gap < 0.5 - _ROUND_ERR)
    if not ok.all():  # NaN, inf and zeros were replaced by 1.0, which is no tie
        ok |= (gap == 0.5) & (k >= -5) & (k <= 17)
    D = P.astype(np.int64) + R.astype(np.int64)
    top = D == 10**18
    D[top] = 10**17
    k[top] += 1
    D[zero] = 0
    k[zero] = 0
    return D, k, ok


def _eight_ascii(n):
    """Each n < 10^8 of the int64 array ``n`` as a word of 8 little-endian
    ASCII digits, the first digit lowest: the inverse of :func:`_eight_digits`."""
    hi = n // 10**4
    return _ASCII4.take(hi) + (_ASCII4.take(n - hi * 10**4) << 32)


def _write_rows(files, cols, end: str = "\r\n") -> tuple[int, int]:
    """Write to each ``(fh, idx)`` of ``files``, a binary file and indices
    into ``cols``, the rows of the columns ``cols[i]``, i in ``idx``, as
    comma-separated ``%.17e`` fields followed by ``end`` (by default
    csv.writer's terminator; at most two ASCII characters).  ``cols`` holds
    the distinct columns, of one length: a list of 1-d float arrays, or a
    2-d array with one row per column.  Returns the number of rows formatted
    by ``%`` and the number of blocks gathered, summed over the files.

    Each file's bytes are exactly ``row % tuple(values)`` for each of its
    rows, built in blocks of about ``_CSV_BLOCK`` fields of ``cols`` by a
    numpy kernel that formats each column once, however many files print
    it: each |v| is scaled to Y = |v| 10^(17-k) in double-double arithmetic
    (Dekker, Numer. Math. 18, 1971) from an exact power-of-ten table, and Y
    is rounded to 18 digits where its fractional part is certified away from
    one half, or is exactly one half of an exact Y (see :func:`_decimal`).
    A file's block in which one of its columns holds a NaN, an infinity or an
    uncertified rounding is written by ``%``, row by row.

    A column has one fixed-width layout per block: a sign slot where any of
    its values is negative, and three exponent digits where any needs them.
    Each field of a file's row is four 8-byte little-endian stores into the
    row-major block, each inside the field: ``[-]d0.`` at its start, its last
    8 bytes (d17, ``e``, the exponent and the separator), then d1..d8 and
    d9..d16, which overwrite what the first two put in their bytes.  Only a
    file's block in which a column mixes signs or exponent widths is
    gathered, to drop the slots that some of its rows leave empty.
    """
    if len(end) > 2 or not end.isascii():
        raise ValueError(f"row end {end!r} is not at most two ASCII characters")
    n = len(cols[0])
    step = max(1, _CSV_BLOCK // len(cols))
    end = end.encode()
    n_percent = n_gathered = 0
    for lo in range(0, n, step):
        nb = min(step, n - lo)
        x = np.array([c[lo : lo + step] for c in cols], dtype=np.float64).reshape(-1, nb)
        D, k, ok = _decimal(x)
        certified = ok.all()
        neg, three = np.signbit(x), np.abs(k) >= 100
        q = D // 10
        r = q // 10**8
        d0 = r // 10**8
        first, second = _eight_ascii(r - d0 * 10**8), _eight_ascii(q - r * 10**8)
        sign_, wide_ = (m.any(axis=1, keepdims=True).astype(np.int64) for m in (neg, three))
        heads = (d0 << 8 * sign_) + np.where(sign_, 0x2E302D, 0x2E30)  # b"-0." or b"0."
        exp = _EXP_WORDS[wide_, k - _K_MIN] + (D - q * 10)  # d17, 'e' and the exponent
        signs, threes = sign_.ravel().tolist(), wide_.ravel().tolist()
        tails = {}
        for fh, idx in files:
            if not certified and not ok[idx].all():
                n_percent += nb
                row = b",".join([b"%.17e"] * len(idx)) + end
                fh.write(b"".join([row % tuple(v) for v in x[idx].T.tolist()]))
                continue
            seps = [b","] * (len(idx) - 1) + [end]
            width = sum(signs[c] + 23 + threes[c] + len(sep) for c, sep in zip(idx, seps))
            buf = np.empty(nb * width, dtype=np.uint8)
            drop, o = [], 0  # (byte, rows that print it) of each slot some rows leave empty
            for c, sep in zip(idx, seps):
                sign, wide = signs[c], threes[c]
                w = sign + 23 + wide + len(sep)
                if (c, sep) not in tails:
                    # the field's last 5 + wide + len(sep) bytes, at the top of a word
                    tail = exp[c] + (int.from_bytes(sep, "little") << 8 * (5 + wide))
                    tails[c, sep] = tail << 8 * (3 - wide - len(sep))
                for at, word in ((0, heads[c]), (w - 8, tails[c, sep]), (sign + 2, first[c]),
                                 (sign + 10, second[c])):
                    np.ndarray(nb, "<i8", buf, o + at, (width,))[...] = word
                drop += [(o + at, m[c]) for has, at, m in
                         ((sign, 0, neg), (wide, sign + 21, three)) if has and not m[c].all()]
                o += w
            if drop:
                n_gathered += 1
                keep = np.ones((nb, width), dtype=bool)
                for at, m in drop:
                    keep[:, at] = m
                buf = buf.reshape(nb, width)[keep]
            fh.write(buf)
    return n_percent, n_gathered


def _write_csv(tables, cols, end: str = "\r\n") -> None:
    """Write each ``(path, names, idx)`` of ``tables``: a csv.writer header
    row of ``names``, then the rows of the columns ``cols[i]``, i in ``idx``,
    all in one pass of :func:`_write_rows`."""
    if any(np.shape(c) != (len(cols[0]),) for c in cols):
        raise InvalidArgumentError(f"columns of shapes {[np.shape(c) for c in cols]} "
                                   "are not 1-d of one length")
    with contextlib.ExitStack() as stack:
        files = []
        for path, names, idx in tables:
            fh = stack.enter_context(open(path, "wb"))
            header = io.StringIO()
            csv.writer(header, lineterminator=end).writerow(names)
            fh.write(header.getvalue().encode())
            files.append((fh, idx))
        _write_rows(files, cols, end)


def _table_rows(raw: bytes, path):
    """The first two columns of the data rows of ``raw``, the bytes of a
    ``t,value`` CSV, by :func:`_read_rows` or ``np.loadtxt``."""
    start = raw.find(b"\n") + 1 or len(raw)  # the first data row
    header = next(csv.reader([raw[:start].decode(errors="replace")]), [])
    if len(header) < 2 or header[0] != "t" or header[1] != "value":
        raise InvalidArgumentError(f"{path}: expected a 't,value' header, got {header}")
    data = _read_rows(raw, start)
    if data is not None:
        return data
    rows = io.BytesIO(raw)  # shares raw's buffer
    rows.seek(start)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # no data rows: refused by the caller
            return np.loadtxt(rows, delimiter=",", usecols=(0, 1), ndmin=2,
                              comments=None, max_rows=MAX_POINTS + 1)
    except ValueError as exc:
        raise InvalidArgumentError(f"{path}: malformed data row: {exc}") from exc


def _read_rows(raw: bytes, start: int):
    """The first two columns of the rows in ``raw[start:]`` (after a header
    line), or None unless each row is the same number (2 or more) of ``%.17e``
    fields ended by ``,``, ``\n`` or ``\r\n``: the mirror of :func:`_write_rows`,
    in blocks of about ``_CSV_BLOCK // 2`` fields.  A block whose rows all have
    its first row's width is read by :func:`_run_fields`, any other by
    :func:`_searched_fields`, and each field by :func:`_value` or, where that
    is not certified, ``float``.  Past ``MAX_POINTS`` rows nothing is converted."""
    if len(raw) < start + _FIELD or raw[-1:] != b"\n":
        return None
    u = np.frombuffer(raw, dtype=np.uint8)
    out = np.empty((np.count_nonzero(u[start:] == ord("\n")), 2))  # one row per line end
    n_cols, row, a = 0, 0, start
    while a < len(raw):
        b = raw.find(b"\n", min(a + _CSV_BLOCK // 2 * _FIELD, len(raw)) - 1) + 1
        block = _run_fields(raw, u, a, b) or _searched_fields(raw, u, a, b)
        if block is None:
            return None
        cols, fields = block
        n_cols = n_cols or cols
        if cols != n_cols:
            return None
        rows = len(fields[0])
        if len(out) <= MAX_POINTS:
            out[row : row + rows] = _convert(*fields)
        row += rows
        a = b
    return out


def _run_fields(raw: bytes, u, a: int, b: int):
    """(n_cols, fields of the first two columns) of the rows in ``raw[a:b]``,
    for :func:`_convert`, or None unless each row has the first row's width
    and its layout: the sign slot, exponent width and separator of each
    field.  The block is checked as a (rows, width) matrix against that
    layout, and its fields are read through strided views of ``raw``."""
    width = raw.find(b"\n", a) + 1 - a
    rows = (b - a) // width
    if rows * width != b - a:
        return None
    line = raw[a : a + width]
    end = b"\r\n" if line.endswith(b"\r\n") else b"\n"
    # each byte must be in [low, low + span]: '0' to '9' (span 9, a tab) at a
    # digit, '+' to '-' (span 2) at an exponent sign, else the layout's byte
    low, span, at, lead, wide = bytearray(), bytearray(), [], [], []
    for f in line[: -len(end)].split(b","):
        neg = f.startswith(b"-")
        wide.append(len(f) - neg - 23)  # a third exponent digit
        if wide[-1] not in (0, 1):
            return None
        lead.append(neg)
        at.append(len(low) + neg + 19)  # the field's 'e'
        low += b"-" * neg + b"0.00000000000000000e+00" + b"0" * wide[-1] + b","
        span += b"\0" * neg + b"\t\0" + b"\t" * 17 + b"\0\2\t\t" + b"\t" * wide[-1] + b"\0"
    low[-1:], span[-1:] = end, bytes(len(end))
    if len(at) < 2:
        return None
    matrix = u[a:b].reshape(rows, width)
    if not (((matrix - np.frombuffer(low, np.uint8)) <= np.frombuffer(span, np.uint8)).all()
            and (matrix[:, np.array(at) + 1] != ord(",")).all()):  # ',' is between '+' and '-'
        return None

    def view(j, dtype=np.uint8):  # byte or word j after the 'e' of each row's first two fields
        return np.ndarray((rows, 2), dtype, raw, a + at[0] + j, (width, at[1] - at[0]))

    def digit(j):
        return view(j) - np.int32(48)

    def field(j):  # the bytes of the first two fields of each row, one after the other
        i, c = divmod(j, 2)
        return raw[a + i * width + at[c] - 19 - lead[c] : a + i * width + at[c] + 4 + wide[c]]

    k = 10 * digit(2) + digit(3)
    if wide[0] or wide[1]:
        k = np.where(wide[:2], 10 * k + digit(4), k)
    return len(at), (digit(-19), view(-17, "<u8"), view(-9, "<u8"), digit(-1),
                     np.where(view(1) == ord("+"), k, -k), np.array(lead[:2]), field)


def _searched_fields(raw: bytes, u, a: int, b: int):
    """As :func:`_run_fields`, for rows of any widths: each field is found by
    its ``e``."""
    p = a + np.flatnonzero(u[a:b] == ord("e"))  # one 'e' per field
    if len(p) == 0 or p[0] < 20 or p[-1] + 5 > len(raw):
        return None
    words = np.ndarray(len(raw) - 7, "<u8", raw, strides=(1,))  # the 8 bytes from each byte
    # each field is [-]d0.d1..d17e(+|-)x0x1[x2], d1..d8 and d9..d16 read as words
    d0, d17, x0, x1, x2 = (u[p + j] - 48 for j in (-19, -1, 2, 3, 4))
    hi, lo = words[p - 17], words[p - 9]
    neg, plus, three = u[p - 20] == ord("-"), u[p + 1] == ord("+"), x2 < 10
    q = p + 4 + three  # the separator
    sep = u.take(q, mode="clip")
    crlf = (sep == ord("\r")) & (u.take(q + 1, mode="clip") == ord("\n"))
    end = crlf | (sep == ord("\n"))  # of a row
    first, nxt = p - 19 - neg, q + 1 + crlf  # where this field and the next start
    n_cols = int(np.argmax(end)) + 1
    valid = ((d0 < 10) & (d17 < 10) & (x0 < 10) & (x1 < 10) & (u[p - 18] == ord("."))
             & (plus | (u[p + 1] == ord("-"))) & (end | (sep == ord(",")))
             & _digit_words(hi) & _digit_words(lo))
    # the fields tile [a, b), and each row holds n_cols of them
    if not (n_cols > 1 and np.array_equal(np.r_[first, b], np.r_[a, nxt]) and valid.all()
            and np.array_equal(end, np.arange(1, len(p) + 1) % n_cols == 0)):
        return None
    k = np.where(three, 100, 10) * x0 + np.where(three, 10, 1) * x1 + three * x2
    d0, hi, lo, d17, k, neg, first, q = (x.reshape(-1, n_cols)[:, :2] for x in
                                         (d0, hi, lo, d17, np.where(plus, k, -k), neg, first, q))
    return n_cols, (d0, hi, lo, d17, k, neg, lambda j: raw[first.flat[j] : q.flat[j]])


def _convert(d0, hi, lo, d17, k, neg, field):
    """(rows, 2) values of fields given by their digits d0 and d17, their words
    of digits d1..d8 (``hi``) and d9..d16 (``lo``), their signed exponents k and
    their signs: each by :func:`_value` where that is certified, elsewhere
    ``float()`` of ``field(j)``, the bytes of field j in row-major order."""
    v, ok = _value((d0 * np.int64(10**8) + _eight_digits(hi)) * 10**9
                   + _eight_digits(lo) * 10 + d17, k)
    v = np.where(neg, -v, v)
    for j in np.flatnonzero(~ok):
        v.flat[j] = float(field(j))
    return v


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
    """Each uint64 of ``w`` read as 8 little-endian ASCII digits (Lemire's SWAR),
    where :func:`_digit_words` holds."""
    zeros, pairs = 0x3030303030303030, 0x000000FF000000FF
    v = (w - zeros) * 10 + ((w - zeros) >> 8)  # byte 2j: the two digits 2j, 2j+1
    v = ((v & pairs) * (100 + (1000000 << 32)) + ((v >> 16) & pairs) * (1 + (10000 << 32))) >> 32
    return v.astype(np.int64)


def _digit_words(w):
    """Whether each uint64 of ``w`` is 8 ASCII digits."""
    high, zeros = np.uint64(0xF0F0F0F0F0F0F0F0), 0x3030303030303030
    return ((w & high) == zeros) & (((w + 0x0606060606060606) & high) == zeros)


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


@functools.cache
def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n up to 64, and above that 8 times the
    smallest such number >= ceil(n/8): lengths numpy's real FFT takes fast.
    The factor 8 keeps the solve off odd and twice-odd lengths, where one
    transform takes longer than at a slightly longer 8-divisible one: on a
    2-vCPU x86 host, 20-35% at 30 375 against 30 720, 8-25% at 60 750
    against 61 440."""
    k = 8 if n > 64 else 1
    n = -(-n // k)
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return k * best


def _product(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of the power-series product u*v, by real FFT."""
    u, v = u[:n], v[:n]
    size = _fast_len(len(u) + len(v) - 1)
    return np.fft.irfft(np.fft.rfft(u, size) * np.fft.rfft(v, size), size)[:n]


def _rfft_rows(L: int, *rows: np.ndarray) -> np.ndarray:
    """The real FFTs of length L of ``rows``, each zero-padded to L here, in
    one ``numpy.fft`` call: pocketfft runs across the rows of a call, and
    pads a 2-d input it is given short by a slower path."""
    stack = np.zeros((len(rows), L))
    for row, r in zip(stack, rows):
        row[: len(r)] = r
    return np.fft.rfft(stack)


def _series_inverse(a: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of 1/a(z), by Newton iteration on halved lengths:
    with b = 1/a to order m = ceil(n/2), a*b = 1 + z^m e (mod z^n) and
    b - z^m (b*e) is 1/a to order n.  The middle product e = (a*b)[m:n] is
    cyclic of length L >= n, whose wrap-around lands only in [0, m).  Below
    _DIRECT_BASE coefficients both products are direct ``np.convolve``."""
    if n == 1:
        return np.array([1.0 / a[0]])
    m = (n + 1) // 2
    b = _series_inverse(a, m)
    if n < _DIRECT_BASE:
        e = np.convolve(a[:n], b)[m:n]
        return np.concatenate([b, -np.convolve(b, e)[: n - m]])
    L = _fast_len(n)
    fb, fe = _rfft_rows(L, b, a[:n])
    e = np.fft.irfft(np.multiply(fb, fe, out=fe), L)[m:n]
    np.multiply(fb, np.fft.rfft(e, L, out=fe), out=fe)
    return np.concatenate([b, -np.fft.irfft(fe, L)[: n - m]])


def _series_divide(r: np.ndarray, a: np.ndarray) -> np.ndarray:
    """First n = len(r) coefficients of r(z)/a(z), by Karp and Markstein's
    last step (ACM TOMS 23, 1997): with b = 1/a to order m = ceil(n/2),
    x0 = b*r mod z^m and x1 = b*(r - a*x0)[m:n] mod z^(n-m).  Products land
    in arrays already held, so the step holds at most its two transforms,
    x and one temporary of transform length: at 120 001 points it peaks 37
    traced bytes per point above its inputs, where one transform a call
    took 40."""
    n = len(r)
    m = (n + 1) // 2
    L = _fast_len(n)
    fb, f = _rfft_rows(L, _series_inverse(a, m), r[:m])
    x = np.empty(n)
    np.multiply(fb, f, out=f)
    x[:m] = np.fft.irfft(f, L)[:m]
    np.fft.rfft(a[:n], L, out=f)
    f *= np.fft.rfft(x[:m], L)
    np.subtract(r[m:], np.fft.irfft(f, L)[m:n], out=x[m:])
    np.multiply(fb, np.fft.rfft(x[m:], L, out=f), out=f)
    x[m:] = np.fft.irfft(f, L)[: n - m]
    return x


def solve_renewal(f: GridFunction, rhs: GridFunction, c: float) -> GridFunction:
    """Solve x + c * convolve(x, f) = rhs for x on the grid.

    The trapezoid operator is lower-triangular Toeplitz:
    convolve(a, f) = w (*) a - (h/2) a[0] f, with w = h f and w[0] halved.
    So the system is (delta + c w) (*) x = rhs + (c h/2) x[0] f, where
    x[0] = rhs[0] exactly.  The division inverts delta + c w to order n/2
    by Newton iteration on halved lengths with middle products (Hanrot,
    Quercia and Zimmermann, AAECC 14, 2004), then takes Karp and
    Markstein's last step: about 19 n of ``numpy.fft`` length, O(n log n)
    whatever the grid length.  The two independent transforms of a step
    share one call (22 calls a solve at 4 001 points, 46 at 131 073), and
    below _DIRECT_BASE coefficients Newton's steps take direct products.
    numpy's complex product is not bitwise commutative (a*b and b*a can
    differ in the last bit), and numpy computes ``u * v`` as ``v *= u``
    when v is a temporary of 256 KiB or more.  So each product names its
    output, which puts the transform of b first at every length, and an
    edit of the helpers keeps each order to keep the results.  Batching
    keeps bits (a row of a call is bitwise its own 1-d transform); the
    fixed order, the lengths and the direct base moved last bits.
    Truncated alternating (c = 1) or geometric (c < 0) series of
    convolution powers of f converge to this x.

    An a-posteriori residual max|x + c convolve(x, f) - rhs|, an independent
    full product of length 2n, above ``RENEWAL_TOL`` max(1, max|rhs|) raises.
    Its two transforms stay one a call: as a (2, 2n) stack they raised the
    2^20-point E solve's peak RSS from 112 to 155 bytes per point.
    At c = 0 the system is x = rhs, returned as it is with residual 0: the
    E of a law whose compound orders multiply to 2, gd-check at a compound's
    own r.
    """
    _check_combinable(f, rhs, "solve_renewal")
    if c == 0:
        return rhs
    n, h, fv = len(f), f.h, f.values
    a = h * fv  # w, c w, delta + c w in one array: w is not held through the division
    a[0] *= 0.5
    a *= c
    a[0] += 1.0
    if a[0] == 0.0:
        raise NumericError("solve_renewal: singular system (1 + c h f(0)/2 = 0)")
    x0 = float(rhs.values[0])
    x = _series_divide(rhs.values + (0.5 * c * h * x0) * fv, a)
    del a
    x[0] = x0
    w = h * fv
    w[0] *= 0.5
    residual = float(np.max(np.abs(x + c * (_product(w, x, n) - (0.5 * h * x0) * fv)
                                   - rhs.values)))
    tol = RENEWAL_TOL * max(1.0, float(np.max(np.abs(rhs.values))))
    if not residual <= tol:
        raise NumericError(
            f"renewal solve residual {residual:.3e} exceeds tol {tol:.3e} (n={n}, c={c:g})"
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
