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
    covariance_from_expected,
    cumulative_integral,
    derivative,
    expected_value_series,
    second_derivative,
)
import switchkit.grid as grid
from switchkit.cli import _write_tables
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
    for h in (0.01, 1e-9):
        g = grid_fn(lambda t: np.exp(-t) * np.sin(3 * t), 200 * h, h)
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
    with open(path, "wb") as fh:
        fh.write(b"t,value,stderr\r\n")
        _write_rows([(fh, range(3))], cols.T)
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
    return "".join(row % tuple(r) for r in cols.tolist()).encode()


def _written(cols, end="\r\n"):
    buf = io.BytesIO()
    _write_rows([(buf, range(cols.shape[1]))], cols.T, end=end)
    return buf.getvalue()


def _bit_patterns(seed, n):
    return np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64).view(np.float64)


def _assert_kernel_and_percent_write(values, m=1):
    """Write the fields of ``values`` that _decimal certifies as one table of
    m columns (its last row filled from the first values), which the kernel
    must write with no row left to `%`, and the rest as a second table.  A
    block holding one uncertified field goes to `%` whole, so a single table
    of both would compare `%` with `%` and never reach the kernel."""
    ok = _decimal(values)[2]
    for part, kernel in ((values[ok], True), (values[~ok], False)):
        cols = np.resize(part, -(-len(part) // m) * m).reshape(-1, m)
        buf = io.BytesIO()
        n_percent, _ = _write_rows([(buf, range(m))], cols.T)
        assert buf.getvalue() == _percent_rows(cols)
        if kernel:
            assert n_percent == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=60))
def test_writer_matches_percent_on_any_float(xs):
    _assert_kernel_and_percent_write(np.array(xs))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
                min_size=1, max_size=30))
def test_writer_matches_percent_on_random_bit_patterns(bits):
    _assert_kernel_and_percent_write(np.array(bits, dtype=np.uint64).view(np.float64).ravel(), 2)


def test_writer_matches_percent_on_many_bit_patterns():
    # several blocks of uniformly random 64-bit patterns: every binade,
    # subnormals, NaN payloads and infinities
    _assert_kernel_and_percent_write(_bit_patterns(3, 60_000), 3)


def test_writer_matches_percent_on_edge_values():
    tiny, huge = 5e-324, float(np.finfo(float).max)
    edges = [0.0, -0.0, np.nan, np.inf, -np.inf, tiny, -tiny, huge, -huge,
             float(np.finfo(float).smallest_normal)]
    for p in range(-307, 309):
        x = float(f"1e{p}")
        edges += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    _assert_kernel_and_percent_write(np.array(edges))
    _assert_kernel_and_percent_write(np.array(edges), 2)


def test_writer_rounds_exact_ties_half_even():
    # m 2^e is an exact tie at the 18th digit when |x| 10^(17-k) is an odd
    # multiple of 1/2; e.g. o 2^-18 for odd o in [2^18, 10 2^18) at k = 0
    rng = np.random.default_rng(7)
    odd = 2 * rng.integers(2**17, 5 * 2**17, 2_000) + 1
    ties = np.ldexp(odd.astype(float), -18)
    dyadic = np.ldexp(rng.integers(1, 2**53, 24_000).astype(float),
                      rng.integers(-80, 30, 24_000).astype(np.int32))
    assert _decimal(ties)[2].all()  # 10^17 is a double: the kernel certifies ties ...
    # ... but not at k = -6, where 10^23 is not: 17 2^-24 = 1.01327896118164062|5e-06
    assert not _decimal(np.array([17 * 2.0**-24]))[2].any()
    _assert_kernel_and_percent_write(
        np.concatenate([ties, -ties, dyadic, [17 * 2.0**-24]]))  # half-even, as `%`


def test_writer_sends_each_block_holding_a_tie_to_percent():
    # t = i 2^-20 is an exact tie at the 18th digit for odd i from t = 0.01
    # on (k = -2), and the kernel certifies each: no block goes to `%`
    t = np.ldexp(np.arange(int(0.05 * 2**20)), -20)
    cols = np.column_stack([t, np.exp(-t)])
    assert len(t) == 52_428 and _decimal(t)[2].all()
    buf = io.BytesIO()
    assert _write_rows([(buf, range(2))], cols.T) == (0, 0)
    assert buf.getvalue() == _percent_rows(cols)
    # t = i 2^-24 is an exact tie for odd i at k = -6, where 10^23 is not a
    # double: the first block, which holds them, is written by `%`
    t = np.ldexp(np.arange(grid._CSV_BLOCK), -24)
    cols = np.column_stack([t, np.exp(-t)])
    assert (~_decimal(t)[2]).sum() == 76  # odd i in [17, 167]
    buf = io.BytesIO()
    assert _write_rows([(buf, range(2))], cols.T) == (grid._CSV_BLOCK // 2, 0)
    assert buf.getvalue() == _percent_rows(cols)


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
    _assert_kernel_and_percent_write(_near_ties())


@pytest.mark.parametrize("shape, end", [((0, 2), "\r\n"), ((1, 1), "\r\n"), ((5, 1), "\n"),
                                        ((3, 4), "\n")])
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


def test_smooth_tables_are_written_without_gather_or_percent(exp1):
    # _write_rows returns (rows sent to `%`, blocks gathered).  Every column
    # of exp(1)'s E keeps one sign and two exponent digits: the trapezoid E
    # levels off at h^2/24 = 4.2e-8.
    E = expected_value_series(exp1, GridSpec(h=1e-3, n=100_001))
    assert _write_rows([(io.BytesIO(), [0, 1])], [E.times(), E.values]) == (0, 0)
    # Its C crosses zero once, at t = 6.999 (it levels off at -8.6e-6, where
    # the exact C is e^-2t), so only the first block mixes signs.
    C = covariance_from_expected(E, exp1.mean)
    assert _write_rows([(io.BytesIO(), [0, 1])], [C.times(), C.values]) == (0, 1)


def _layouts():
    """name: (cols, end, rows sent to `%`, blocks gathered)."""
    n = grid._CSV_BLOCK // 2  # rows of a two-column block
    i = np.arange(3 * n)
    t = i * 1e-3
    decay = np.exp(-t)
    stderr = 1e-3 * np.sqrt(1.0 - decay**2)
    stderr[[5, n + 7]] = np.nan, np.inf
    epochs = np.cumsum(np.random.default_rng(2).exponential(size=3 * n))
    return {
        "sign alternates every row": (np.column_stack([t, np.where(i % 2, -decay, decay)]),
                                      "\r\n", 0, 3),
        "crosses 1e-100 inside a block": (np.column_stack([t, 10.0 ** -(95 + 10 * i / i[-1])]),
                                          "\r\n", 0, 1),
        "sign changes at a block boundary": (np.column_stack([t, np.where(i < n, decay, -decay)]),
                                             "\r\n", 0, 0),
        "one column, LF rows (simulate)": (epochs[:, None], "\n", 0, 0),
        # the two 5461-row blocks that hold its NaN and its inf go to `%`
        "three columns (estimate)": (np.column_stack([t, decay, stderr]), "\r\n", 10_922, 0),
        "-0.0 in a positive column": (np.column_stack([t, np.where(i == n + 3, -0.0, decay)]),
                                      "\r\n", 0, 1),
        "shape (0, 2)": (np.zeros((0, 2)), "\r\n", 0, 0),
        "shape (1, 1)": (np.ones((1, 1)), "\r\n", 0, 0),
    }


@pytest.mark.parametrize("name", _layouts())
def test_writer_layouts_match_percent(name):
    cols, end, percent, gathered = _layouts()[name]
    buf = io.BytesIO()
    assert _write_rows([(buf, range(cols.shape[1]))], cols.T, end=end) == (percent, gathered)
    assert buf.getvalue() == _percent_rows(cols, end)


@pytest.mark.parametrize("name", _layouts())
def test_writer_layouts_match_percent_in_several_files(name):
    # one pass writes the whole table, each column alone and each column
    # after the first, as recover and iia write their tables after t; only a
    # file's own uncertified fields send its block to `%`
    cols, end, _, _ = _layouts()[name]
    m = cols.shape[1]
    files = [list(range(m)), *([j] for j in range(m)), *([0, j] for j in range(1, m))]
    bufs = [io.BytesIO() for _ in files]
    ok, rows = _decimal(cols.T)[2], grid._CSV_BLOCK // m
    percent = sum(min(rows, len(cols) - lo) for idx in files
                  for lo in range(0, len(cols), rows) if not ok[idx, lo : lo + rows].all())
    assert _write_rows(list(zip(bufs, files)), cols.T, end=end)[0] == percent
    for buf, idx in zip(bufs, files):
        assert buf.getvalue() == _percent_rows(cols[:, idx], end)


TIE = math.ldexp(2**18 + 1, -18)  # an exact tie at the 18th digit, left to `%`


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_pass_writer_matches_percent_in_each_file(data):
    # Each file's bytes are `%` of its own columns, whatever the other files
    # hold: non-finite values and ties in one file's value column only, a
    # sign change at a block boundary, and three-digit exponents in one file.
    rows = data.draw(st.integers(1, 6), label="rows per block")
    n = data.draw(st.integers(1, 6 * rows), label="rows")
    i = np.arange(n)
    t, decay = 1e-3 * i, np.exp(-1e-3 * i)
    special = decay.copy()
    for j, v in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(
            [np.nan, np.inf, -np.inf, TIE, -TIE])), max_size=4), label="specials"):
        special[j] = v
    flip = rows * data.draw(st.integers(0, 6), label="block of the sign change")
    anything = np.array(data.draw(st.lists(st.floats(), min_size=n, max_size=n), label="any"))
    cols = [t, special, np.where(i < flip, decay, -decay), 1e-150 * decay, anything]
    files = [[0, 1], [0, 2], [0, 3], [0, 4]] + data.draw(st.lists(
        st.lists(st.integers(0, 4), min_size=1, max_size=5), max_size=3), label="more files")
    end = data.draw(st.sampled_from(["\r\n", "\n"]), label="end")
    bufs = [io.BytesIO() for _ in files]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid, "_CSV_BLOCK", rows * len(cols))
        _write_rows(list(zip(bufs, files)), cols, end=end)
    for buf, idx in zip(bufs, files):
        assert buf.getvalue() == _percent_rows(np.column_stack([cols[j] for j in idx]), end)


@pytest.mark.parametrize("stderr", [np.ones(20_000), np.ones(20_002), np.ones((20_001, 1)), 1.0])
def test_to_csv_refuses_an_extra_column_of_another_length(tmp_path, stderr):
    g = GridFunction(h=1e-3, values=np.ones(20_001))
    path = tmp_path / "g.csv"
    path.write_bytes(b"untouched")
    with pytest.raises(InvalidArgumentError, match="not 1-d of one length"):
        g.to_csv(path, extra_columns={"stderr": stderr})
    assert path.read_bytes() == b"untouched"


def test_writer_refuses_a_row_end_it_cannot_store():
    with pytest.raises(ValueError, match="two ASCII characters"):
        _write_rows([(io.BytesIO(), [0, 1])], np.ones((2, 2)), end="\r\n\n")


def test_csv_writer_memory_is_bounded(tmp_path):
    # to_csv holds the t column, 1.6 MB here, and the writer a few MB for
    # one block of _CSV_BLOCK fields, whatever the table length
    g = GridFunction(h=1e-3, values=np.exp(-1e-3 * np.arange(200_001)))
    tracemalloc.start()
    try:
        g.to_csv(tmp_path / "g.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8_000_000


def test_one_pass_writer_memory_is_bounded_for_three_tables(tmp_path):
    # iia's three tables on one 200 001-point grid: the writer holds the t
    # column, 1.6 MB, and one block of _CSV_BLOCK fields over its four
    # columns, about 5.9 MB in all; blocks of 8192 rows would take 9.9 MB
    t = 1e-3 * np.arange(200_001)
    tables = [GridFunction(h=1e-3, values=v) for v in (1 - np.exp(-t), np.exp(-t), np.exp(-2 * t))]
    paths = [tmp_path / f"{name}.csv" for name in ("cdf", "pdf", "clipped")]
    tracemalloc.start()
    try:
        _write_tables(paths, tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7_000_000
    for path, g in zip(paths, tables):
        assert GridFunction.from_csv(path).values.tobytes() == g.values.tobytes()


# -- the reader kernel --------------------------------------------------------

CRLF_HEADER, LF_HEADER = b"t,value\r\n", b"t,value\n"


def _crlf_table(cols):
    return CRLF_HEADER + _written(cols)


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


def test_reader_takes_fixed_width_runs_and_searches_other_blocks(monkeypatch):
    # Four runs of rows, each longer than a reader block: one layout, a value
    # that crosses zero every ~190 rows, all-negative values and three-digit
    # exponents.  The blocks inside the first, third and fourth are one row
    # width and layout each; the crossing blocks and those that straddle two
    # runs (the last two have one row width but not one layout) are searched.
    x = np.linspace(0.0, 1.0, 9000)
    cols = np.column_stack([1e-3 * np.arange(4 * len(x)),
                            np.r_[np.exp(-x), np.cos(300 * x), -np.exp(x), 3e-150 * np.exp(-x)]])

    def spy(fn, served):
        def read(raw, u, a, b):
            block = fn(raw, u, a, b)
            if block is not None:
                served.append(raw[a : raw.index(b"\n", a)].rstrip().split(b",")[1])
            return block
        return read

    runs, searched = [], []
    monkeypatch.setattr(grid, "_run_fields", spy(grid._run_fields, runs))
    monkeypatch.setattr(grid, "_searched_fields", spy(grid._searched_fields, searched))
    for raw in (_crlf_table(cols), _lf_table(cols)):
        runs.clear()
        searched.clear()
        assert _assert_reads_as_float(raw)
        # the first value of each block the fixed-width path served: a plain,
        # a negative and a three-digit-exponent layout
        assert {(v[:1] == b"-", len(v)) for v in runs} == {(False, 23), (True, 24), (False, 24)}
        assert len(searched) >= 4


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
    # every row at full width, one byte of another class
    "letter for a digit": f"{Z},{F}\n1.00x00000000000006e-01,{F}\n",
    "letter for the last digit": f"{Z},{F}\n{H},1.0000000000000000xe+00\n",
    "semicolon for a comma": f"{Z},{F}\n{H};{F}\n",
    "comma for an exponent sign": f"{Z},{F}\n1.00000000000000006e,01,{F}\n",
    "full-width capital E": f"{Z},{F}\n{H.upper()},{F}\n",
    "moved point": f"{Z},{F}\n10.0000000000000006e-02,{F}\n",
}


@pytest.mark.parametrize("body", DECLINED_LAYOUTS.values(), ids=DECLINED_LAYOUTS.keys())
def test_csv_other_layouts_read_as_loadtxt(tmp_path, body):
    path = tmp_path / "g.csv"
    path.write_text("t,value\n" + body)
    raw = path.read_bytes()
    assert _read_rows(raw, len(LF_HEADER)) is None
    try:
        want = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1))
    except ValueError:  # from_csv refuses what loadtxt cannot read
        with pytest.raises(InvalidArgumentError, match="malformed data row"):
            GridFunction.from_csv(path)
        return
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
    for times in ([0.0, 0.1, 0.3],
                  # steps of 1e-9 jittered by 1e-4 relative: 1e-13 in absolute terms
                  np.r_[0.0, np.cumsum(1e-9 * (1.0 + 1e-4 * (-1.0) ** np.arange(999)))],
                  [0.0, 0.1, 0.2, math.inf]):
        path.write_text("t,value\n" + "".join(f"{t:.17e},1.0\n" for t in times))
        with pytest.raises(InvalidArgumentError, match="not uniform"):
            GridFunction.from_csv(path)
