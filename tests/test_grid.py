import csv
import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchkit import (
    GridFunction,
    GridSpec,
    InvalidArgumentError,
    ResourceLimitError,
    convolve,
    cumulative_integral,
    derivative,
    expected_value_series,
    second_derivative,
)
import switchkit.grid as grid
from switchkit.grid import MAX_POINTS, _ROUND_ERR, _decimal, _read_rows, _scale, _value, _write_rows

from conftest import grid_fn


# -- GridFunction invariants -------------------------------------------------


def test_rejects_bad_step():
    with pytest.raises(InvalidArgumentError):
        GridFunction(h=0.0, values=np.ones(3))


def test_rejects_empty_and_nonfinite():
    with pytest.raises(InvalidArgumentError):
        GridFunction(h=0.1, values=np.array([]))
    with pytest.raises(InvalidArgumentError):
        GridFunction(h=0.1, values=np.array([1.0, np.nan]))
    with pytest.raises(InvalidArgumentError):
        GridFunction(h=0.1, values=np.array([1.0, np.inf]))


def test_values_are_immutable():
    g = GridFunction(h=0.1, values=np.ones(4))
    with pytest.raises(ValueError):
        g.values[0] = 2.0


def test_grid_spec_times():
    spec = GridSpec.from_t_end(1.0, 0.25)
    np.testing.assert_allclose(spec.times(), [0, 0.25, 0.5, 0.75, 1.0])
    assert spec.t_end == 1.0


def test_grid_under_half_a_step_is_refused():
    # round(0.4) steps would be a one-point grid at t = 0 alone
    with pytest.raises(InvalidArgumentError, match="zero steps"):
        GridSpec.from_t_end(4.0, 10.0)
    assert GridSpec.from_t_end(6.0, 10.0).n == 2


def test_grid_size_is_capped_before_allocating():
    # neither call allocates: the cap is checked on n and on t_end / h first
    with pytest.raises(ResourceLimitError, match="MAX_POINTS"):
        GridSpec(h=1.0, n=MAX_POINTS + 2)
    with pytest.raises(ResourceLimitError, match="MAX_POINTS"):
        GridSpec.from_t_end(1e300, 1e-300)  # t_end / h overflows to inf
    assert MAX_POINTS == 2**24
    assert GridSpec.from_t_end(float(MAX_POINTS - 1), 1.0).n == MAX_POINTS


# -- convolve -----------------------------------------------------------------


def test_convolve_exponential_densities():
    # two unit-rate exponential densities; their convolution is the
    # shape-2 gamma density t e^{-t}, equal to e^{-1} at t=1
    f = grid_fn(lambda t: np.exp(-t), 10.0, 1e-3)
    c = convolve(f, f)
    idx = int(round(1.0 / 1e-3))
    assert math.isclose(c.values[idx], 0.36787944117144233, abs_tol=1e-4)


def test_convolve_annihilator():
    f = grid_fn(lambda t: np.exp(-t), 2.0, 0.01)
    z = f.with_values(np.zeros(len(f)))
    np.testing.assert_array_equal(convolve(f, z).values, 0.0)


def test_convolve_zero_at_origin():
    f = grid_fn(lambda t: 1.0 + 0 * t, 2.0, 0.01)
    g = grid_fn(lambda t: 2.0 + 0 * t, 2.0, 0.01)
    assert convolve(f, g).values[0] == 0.0


def test_convolve_grid_mismatch():
    f = grid_fn(lambda t: np.exp(-t), 2.0, 0.01)
    g = grid_fn(lambda t: np.exp(-t), 2.0, 0.02)
    with pytest.raises(InvalidArgumentError):
        convolve(f, g)


def test_convolve_fft_matches_direct_sum():
    # the FFT path must reproduce the direct trapezoid sum to 1e-10,
    # otherwise it is not an admissible internal optimization
    rng = np.random.default_rng(0)
    h = 0.01
    for n in (57, 313):
        a = rng.random(n)
        b = rng.random(n)
        f = GridFunction(h=h, values=a)
        g = GridFunction(h=h, values=b)
        got = convolve(f, g).values
        full = np.convolve(a, b)[:n]
        want = h * (full - 0.5 * (a * b[0] + a[0] * b))
        want[0] = 0.0
        np.testing.assert_allclose(got, want, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=-5, max_value=5),
            st.floats(min_value=-5, max_value=5),
        ),
        min_size=4,
        max_size=60,
    )
)
def test_convolve_symmetric(data):
    a = np.array([p[0] for p in data])
    b = np.array([p[1] for p in data])
    f = GridFunction(h=0.05, values=a)
    g = GridFunction(h=0.05, values=b)
    np.testing.assert_allclose(convolve(f, g).values, convolve(g, f).values, atol=1e-12)


def test_convolve_density_product_bound():
    # (g * h)(t) <= sup g * H(t) up to grid error, for density/cdf pairs
    g = grid_fn(lambda t: 2 * np.exp(-2 * t), 6.0, 1e-3)
    h = grid_fn(lambda t: 0.5 * np.exp(-t / 2), 6.0, 1e-3)
    H_end = 1.0 - math.exp(-3.0)
    c = convolve(g, h)
    assert c.values.max() <= g.values.max() * H_end + 10 * g.h


# -- cumulative_integral / derivative ----------------------------------------


def test_cumint_constant_ramp():
    g = grid_fn(lambda t: np.ones_like(t), 1.0, 0.01)
    np.testing.assert_allclose(cumulative_integral(g).values, g.times(), atol=1e-12)


def test_cumint_exponential():
    g = grid_fn(lambda t: np.exp(-2 * t), 5.0, 1e-3)
    want = (1 - np.exp(-2 * g.times())) / 2
    np.testing.assert_allclose(cumulative_integral(g).values, want, atol=1e-5)


def test_cumint_zeros():
    g = GridFunction(h=0.1, values=np.zeros(8))
    np.testing.assert_array_equal(cumulative_integral(g).values, 0.0)


def test_derivative_quadratic_exact_inside():
    g = grid_fn(lambda t: t**2, 1.0, 0.01)
    d = derivative(g)
    np.testing.assert_allclose(d.values[1:-1], 2 * g.times()[1:-1], atol=1e-10)


def test_derivative_exponential():
    g = grid_fn(lambda t: np.exp(-2 * t), 2.0, 1e-3)
    np.testing.assert_allclose(derivative(g).values, -2 * np.exp(-2 * g.times()), atol=5e-5)


def test_derivative_constant_zero():
    g = GridFunction(h=0.1, values=np.full(9, 3.3))
    np.testing.assert_allclose(derivative(g).values, 0.0, atol=1e-13)


def test_derivative_needs_three_points():
    with pytest.raises(InvalidArgumentError):
        derivative(GridFunction(h=0.1, values=np.ones(2)))


def test_derivative_of_cumint_is_identity():
    g = grid_fn(lambda t: np.sin(t) + 2, 3.0, 1e-3)
    got = derivative(cumulative_integral(g))
    np.testing.assert_allclose(got.values, g.values, atol=5e-6)


def test_second_derivative():
    g = grid_fn(lambda t: np.cos(t), 3.0, 1e-3)
    np.testing.assert_allclose(second_derivative(g).values, -np.cos(g.times()), atol=1e-5)


# -- serialization -------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    g = grid_fn(lambda t: np.exp(-t) * np.sin(3 * t), 2.0, 0.01)
    path = tmp_path / "g.csv"
    g.to_csv(path)
    back = GridFunction.from_csv(path)
    assert back.h == g.h
    np.testing.assert_array_equal(back.values, g.values)


# Output of the earlier writer (one csv.writer row per sample) on the table
# below, frozen byte for byte: -0.0 keeps its sign and NaN prints as `nan`.
FROZEN_CSV = (
    b"t,value,stderr\r\n"
    b"0.00000000000000000e+00,1.00000000000000000e+00,1.00000000000000006e-01\r\n"
    b"5.00000000000000000e-01,-0.00000000000000000e+00,0.00000000000000000e+00\r\n"
    b"1.00000000000000000e+00,nan,1.00000000000000005e+300\r\n"
    b"1.50000000000000000e+00,2.49999999999999998e-300,-3.00000000000000000e+00\r\n"
)


def test_csv_writer_bytes_are_frozen(tmp_path):
    g = GridFunction(h=0.5, values=np.array([1.0, -0.0, 0.0, 2.5e-300]))
    cols = np.column_stack([g.times(), [1.0, -0.0, np.nan, 2.5e-300], [0.1, 0.0, 1e300, -3.0]])
    path = tmp_path / "g.csv"
    with open(path, "w", newline="") as fh:
        fh.write("t,value,stderr\r\n")
        _write_rows(fh, cols)
    assert path.read_bytes() == FROZEN_CSV
    g.to_csv(path, extra_columns={"stderr": cols[:, 2]})
    assert path.read_bytes() == FROZEN_CSV.replace(b"nan", b"0.00000000000000000e+00")


def test_csv_writer_matches_row_writer_across_blocks(tmp_path):
    # longer than one formatting block, compared with a per-row csv.writer
    rng = np.random.default_rng(5)
    values = rng.normal(size=20_000) * 10.0 ** rng.integers(-300, 300, 20_000)
    g = GridFunction(h=1e-3, values=values)
    path = tmp_path / "g.csv"
    g.to_csv(path)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["t", "value"])
    for row in zip(g.times(), g.values):
        writer.writerow([f"{x:.17e}" for x in row])
    assert path.read_bytes() == buf.getvalue().encode()
    np.testing.assert_array_equal(GridFunction.from_csv(path).values, g.values)


def _percent_rows(cols, end="\r\n"):
    """The writer's contract: Python's `%` operator on each row."""
    row = ",".join(["%.17e"] * cols.shape[1]) + end
    return "".join(row % tuple(r) for r in cols.tolist())


def _written(cols, end="\r\n"):
    buf = io.StringIO(newline="")
    _write_rows(buf, cols, end=end)
    return buf.getvalue()


def _bit_patterns(seed, n):
    return np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64).view(np.float64)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=60))
def test_writer_matches_percent_on_any_float(xs):
    cols = np.array(xs).reshape(-1, 1)
    assert _written(cols) == _percent_rows(cols)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
                min_size=1, max_size=30))
def test_writer_matches_percent_on_random_bit_patterns(bits):
    cols = np.array(bits, dtype=np.uint64).view(np.float64).reshape(-1, 2)
    assert _written(cols) == _percent_rows(cols)


def test_writer_matches_percent_on_many_bit_patterns():
    # several blocks of uniformly random 64-bit patterns: every binade,
    # subnormals, NaN payloads and infinities
    cols = _bit_patterns(3, 60_000).reshape(-1, 3)
    assert _written(cols) == _percent_rows(cols)


def test_writer_matches_percent_on_edge_values():
    tiny, huge = 5e-324, float(np.finfo(float).max)
    edges = [0.0, -0.0, np.nan, np.inf, -np.inf, tiny, -tiny, huge, -huge,
             float(np.finfo(float).smallest_normal)]
    for p in range(-307, 309):
        x = float(f"1e{p}")
        edges += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    cols = np.array(edges).reshape(-1, 1)
    assert _written(cols) == _percent_rows(cols)
    assert _written(cols.reshape(-1, 2)) == _percent_rows(cols.reshape(-1, 2))


def test_writer_rounds_exact_ties_half_even():
    # m 2^e is an exact tie at the 18th digit when |x| 10^(17-k) is an odd
    # multiple of 1/2; e.g. o 2^-18 for odd o in [2^18, 10 2^18) at k = 0
    rng = np.random.default_rng(7)
    odd = 2 * rng.integers(2**17, 5 * 2**17, 2_000) + 1
    ties = np.ldexp(odd.astype(float), -18)
    dyadic = np.ldexp(rng.integers(1, 2**53, 24_000).astype(float),
                      rng.integers(-80, 30, 24_000).astype(np.int32))
    cols = np.concatenate([ties, -ties, dyadic]).reshape(-1, 1)
    assert not _decimal(ties)[2].any()  # ties are left to `%` ...
    assert _written(cols) == _percent_rows(cols)  # ... which rounds half-even


def _near_ties():
    """Doubles x = m 2^e in [10^k, 10^(k+1)), k = 17 + Q, whose exact
    x 10^(17-k) = m 2^(e-Q) / 5^Q lies within (|r| + 1/2) / 5^Q of a half:
    m 2^(e-Q) = (5^Q - 1)/2 + r (mod 5^Q).  10^-Q is inexact in binary."""
    out = []
    for Q in range(19, 23):
        e = math.ceil((17 + Q) * math.log2(10)) - 52
        inv = pow(2 ** (e - Q), -1, 5**Q)
        for r in range(-40, 41):
            m = ((5**Q - 1) // 2 + r) * inv % 5**Q
            m += -(-(2**52 - m) // 5**Q) * 5**Q  # into [2^52, 2^53)
            out.append(math.ldexp(m, e))
    return np.array(out)


def test_scaling_error_is_within_the_certification_bound():
    # _decimal rounds only where frac(Y) is further than _ROUND_ERR from a
    # half, so the double-double Y = P + T must be that close to exact
    x = np.abs(np.concatenate([_bit_patterns(5, 3_000), _near_ties()]))
    x = x[np.isfinite(x) & (x > 0)]
    k = np.array([int(("%.17e" % v).split("e")[1]) for v in x.tolist()], dtype=np.int32)
    P, T = _scale(*np.frexp(x), k)
    for v, kv, p, t in zip(x.tolist(), k.tolist(), P.tolist(), T.tolist()):
        exact = Fraction(v) * Fraction(10) ** (17 - kv)
        assert abs(exact - Fraction(p) - Fraction(t)) < _ROUND_ERR / 2
    near = _near_ties().reshape(-1, 1)
    assert _written(near) == _percent_rows(near)


@pytest.mark.parametrize("shape, end", [((0, 2), "\r\n"), ((1, 1), "\r\n"), ((5, 1), "\n"),
                                        ((3, 4), "\n"), ((2, 0), "\n")])
def test_writer_shapes_and_terminators(shape, end):
    cols = np.random.default_rng(1).normal(size=shape) * 1e5
    assert _written(cols, end) == _percent_rows(cols, end)


def test_fast_path_covers_smooth_tables_and_random_bits(exp1):
    # Without this, a kernel that sent every row to `%` would still pass the
    # byte tests above.
    E = expected_value_series(exp1, GridSpec(h=1e-3, n=100_001))
    assert _decimal(np.stack([E.times(), E.values]))[2].all()
    # Non-finite patterns (1 in 2048) always take `%`; of the finite ones,
    # exact ties (about 1 in 1500) do.
    bits = _bit_patterns(11, 200_000)
    ok = _decimal(bits[np.isfinite(bits)])[2]
    assert ok.mean() >= 0.999


# -- the reader kernel --------------------------------------------------------

CRLF_HEADER, LF_HEADER = b"t,value\r\n", b"t,value\n"


def _crlf_table(cols):
    return CRLF_HEADER + _written(cols).encode()


def _lf_table(cols):
    buf = io.BytesIO()
    np.savetxt(buf, cols, fmt="%.17e", delimiter=",", header="t,value", comments="")
    return buf.getvalue()


def _assert_reads_as_float(raw):
    """The kernel gives float() of each field of the first two columns, bit
    for bit, or declines; returns whether it read the table."""
    start = raw.index(b"\n") + 1
    got = _read_rows(raw, start)
    if got is None:
        return False
    want = np.array([[float(f) for f in line.split(b",")[:2]]
                     for line in raw[start:].splitlines()])
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    return True


def _assert_both_layouts(cols):
    for raw in (_crlf_table(cols), _lf_table(cols)):
        # only nan and inf, which are not %.17e fields, send a table to loadtxt
        assert _assert_reads_as_float(raw) == bool(np.isfinite(cols).all())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(), min_size=2, max_size=60).filter(lambda xs: len(xs) % 2 == 0))
def test_reader_matches_float_on_any_float(xs):
    _assert_both_layouts(np.array(xs).reshape(-1, 2))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
                min_size=1, max_size=30))
def test_reader_matches_float_on_random_bit_patterns(bits):
    _assert_both_layouts(np.array(bits, dtype=np.uint64).view(np.float64).reshape(-1, 2))


def test_reader_matches_float_on_many_bit_patterns():
    bits = _bit_patterns(13, 60_000)
    _assert_both_layouts(bits[np.isfinite(bits)][:50_000].reshape(-1, 2))


def test_reader_matches_float_on_edge_values(tmp_path):
    tiny, huge = 5e-324, float(np.finfo(float).max)
    edges = [0.0, -0.0, tiny, -tiny, 2.5e-310, huge, -huge, 1e100, -1e-100,
             float(np.finfo(float).smallest_normal)]
    for p in range(-307, 309):
        x = float(f"1e{p}")
        edges += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    cols = np.array(edges + [-x for x in edges])
    _assert_both_layouts(cols.reshape(-1, 2))
    # three columns, as to_csv writes them with extra_columns; only the
    # first two are read
    path = tmp_path / "g.csv"
    g = GridFunction(h=0.5, values=cols[: len(cols) // 2])
    g.to_csv(path, extra_columns={"stderr": cols[len(cols) // 2 :]})
    assert _assert_reads_as_float(path.read_bytes())
    assert np.array_equal(GridFunction.from_csv(path).values.view(np.int64),
                          g.values.view(np.int64))


def _midpoints(rng, n):
    """18-digit strings of exact midpoints of adjacent doubles, which `%.17e`
    never prints: x + ulp/2 for x in [2^53, 2^60) (an integer), and
    2^e - ulp/4 just below a power of two."""
    out = []
    for e in range(53, 60):
        for m in rng.integers(2**52, 2**53 - 1, n).tolist():
            out.append((m << (e - 52)) + (1 << (e - 53)))
    out += [2**e - 2 ** (e - 54) for e in range(54, 60)]
    return [(int(str(v).ljust(18, "0")), len(str(v)) - 1) for v in out if v < 10**18]


def test_reader_sends_midpoints_to_float_and_rounds_beside_them():
    D, k = np.array(_midpoints(np.random.default_rng(3), 200), dtype=np.int64).T
    k = k.astype(np.int32)
    assert not _value(D, k)[1].any()  # exact ties are float()'s to round
    powers = np.zeros(len(D), dtype=bool)
    powers[-6:] = True
    for step in (-1, 1):
        _, ok = _value(D + step, k)
        assert ok[~powers].all()  # one unit beside a tie is certified
    digits = [str(d) for d in np.concatenate([D - 1, D, D + 1]).tolist()]
    fields = [f"{d[0]}.{d[1:]}e+{kv:02d}".encode() for d, kv in zip(digits, np.tile(k, 3).tolist())]
    rows = [a + b"," + b for a, b in zip(fields[0::2], fields[1::2])]
    for end, header in ((b"\r\n", CRLF_HEADER), (b"\n", LF_HEADER)):
        assert _assert_reads_as_float(header + end.join(rows) + end)


def test_reader_covers_written_tables(exp1, monkeypatch):
    # Without this, a kernel that sent every field to float() would still
    # pass the tests above.  A finite table never leaves the kernel; of its
    # fields, only uncertified ones (the exact powers of two in t) reach float().
    E = expected_value_series(exp1, GridSpec(h=1e-3, n=100_001))
    cols = np.column_stack([E.times(), E.values])
    calls = []
    monkeypatch.setattr(grid, "float", lambda x: calls.append(x) or float(x), raising=False)
    for raw in (_crlf_table(cols), _lf_table(cols)):
        calls.clear()
        assert _read_rows(raw, raw.index(b"\n") + 1) is not None
        assert len(calls) <= 1e-3 * cols.size


def test_from_csv_memory_is_bounded(tmp_path):
    # the kernel holds the file and works in blocks, not on the whole file
    path = tmp_path / "g.csv"
    grid_fn(lambda t: np.exp(-t) * np.cos(3 * t), 40.0, 1e-3).to_csv(path)
    GridFunction.from_csv(path)
    tracemalloc.start()
    try:
        GridFunction.from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * path.stat().st_size


F, Z, H = "1.00000000000000000e+00", "0.00000000000000000e+00", "1.00000000000000006e-01"
DECLINED_LAYOUTS = {
    "no final newline": f"{Z},{F}\n{H},{F}",
    "blank line": f"{Z},{F}\n\n{H},{F}\n",
    "ragged row": f"{Z},{F}\n{H},{F},{F}\n",
    "leading spaces": f" {Z}, {F}\n{H},{F}\n",
    "capital E": f"{Z},{F}\n1E-1,{F}\n",
    "truncated field": f"{Z},{F}\n1.0e-1,{F}\n",
}


@pytest.mark.parametrize("body", DECLINED_LAYOUTS.values(), ids=DECLINED_LAYOUTS.keys())
def test_csv_other_layouts_read_as_loadtxt(tmp_path, body):
    path = tmp_path / "g.csv"
    path.write_text("t,value\n" + body)
    raw = path.read_bytes()
    assert _read_rows(raw, len(LF_HEADER)) is None
    want = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1))
    g = GridFunction.from_csv(path)
    assert g.h == want[1, 0] and np.array_equal(g.values, want[:, 1])


@pytest.mark.parametrize("body", ["0.0,1.0\n0.1,abc\n", "0.0,1.0\n0.1\n", "",
                                  f"{Z},{F}\n{H},abc", f"{Z},{F}\n\n{H}\n",
                                  f"{Z},{F}\n{H}\n{H},{F},{F}\n", f" {Z},{F}\n {H}, x\n",
                                  f"{Z},{F}\n1E-1,1E\n", f"{Z},{F}\n1.0e-,{F}\n"])
def test_csv_malformed_rows_rejected(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text("t,value\n" + body)
    with pytest.raises(InvalidArgumentError, match="bad.csv"):
        GridFunction.from_csv(path)


def test_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(InvalidArgumentError):
        GridFunction.from_csv(path)


@pytest.mark.parametrize("row", ["{:.17e},{:.17e}\r\n", "{},{}\n"], ids=["kernel", "loadtxt"])
def test_csv_longer_than_max_points_is_refused(tmp_path, monkeypatch, row):
    path = tmp_path / "g.csv"
    path.write_bytes(b"t,value\n" + "".join(row.format(0.5 * i, 1.0) for i in range(4)).encode())
    assert len(GridFunction.from_csv(path)) == 4
    monkeypatch.setattr(grid, "MAX_POINTS", 3)
    with pytest.raises(ResourceLimitError, match="g.csv: table of more than MAX_POINTS = 3"):
        GridFunction.from_csv(path)


def test_csv_nonuniform_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,value\n0.0,1.0\n0.1,1.0\n0.3,1.0\n")
    with pytest.raises(InvalidArgumentError):
        GridFunction.from_csv(path)
