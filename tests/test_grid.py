import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchkit import (
    DomainError,
    GridFunction,
    GridSpec,
    InvalidArgumentError,
    convolution_tail_bound,
    convolve,
    cumulative_integral,
    derivative,
    second_derivative,
)

from conftest import grid_fn


# -- GridFunction invariants -------------------------------------------------


def test_rejects_bad_step():
    with pytest.raises(InvalidArgumentError):
        GridFunction(t0=0.0, h=0.0, values=np.ones(3))


def test_rejects_empty_and_nonfinite():
    with pytest.raises(InvalidArgumentError):
        GridFunction(t0=0.0, h=0.1, values=np.array([]))
    with pytest.raises(InvalidArgumentError):
        GridFunction(t0=0.0, h=0.1, values=np.array([1.0, np.nan]))
    with pytest.raises(InvalidArgumentError):
        GridFunction(t0=0.0, h=0.1, values=np.array([1.0, np.inf]))


def test_values_are_immutable():
    g = GridFunction(t0=0.0, h=0.1, values=np.ones(4))
    with pytest.raises(ValueError):
        g.values[0] = 2.0


def test_grid_spec_times():
    spec = GridSpec.from_t_end(1.0, 0.25)
    np.testing.assert_allclose(spec.times(), [0, 0.25, 0.5, 0.75, 1.0])
    assert spec.t_end == 1.0


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
        f = GridFunction(t0=0.0, h=h, values=a)
        g = GridFunction(t0=0.0, h=h, values=b)
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
    f = GridFunction(t0=0.0, h=0.05, values=a)
    g = GridFunction(t0=0.0, h=0.05, values=b)
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
    g = GridFunction(t0=0.0, h=0.1, values=np.zeros(8))
    np.testing.assert_array_equal(cumulative_integral(g).values, 0.0)


def test_derivative_quadratic_exact_inside():
    g = grid_fn(lambda t: t**2, 1.0, 0.01)
    d = derivative(g)
    np.testing.assert_allclose(d.values[1:-1], 2 * g.times()[1:-1], atol=1e-10)


def test_derivative_exponential():
    g = grid_fn(lambda t: np.exp(-2 * t), 2.0, 1e-3)
    np.testing.assert_allclose(derivative(g).values, -2 * np.exp(-2 * g.times()), atol=5e-5)


def test_derivative_constant_zero():
    g = GridFunction(t0=0.0, h=0.1, values=np.full(9, 3.3))
    np.testing.assert_allclose(derivative(g).values, 0.0, atol=1e-13)


def test_derivative_needs_three_points():
    with pytest.raises(InvalidArgumentError):
        derivative(GridFunction(t0=0.0, h=0.1, values=np.ones(2)))


def test_derivative_of_cumint_is_identity():
    g = grid_fn(lambda t: np.sin(t) + 2, 3.0, 1e-3)
    got = derivative(cumulative_integral(g))
    np.testing.assert_allclose(got.values, g.values, atol=5e-6)


def test_second_derivative():
    g = grid_fn(lambda t: np.cos(t), 3.0, 1e-3)
    np.testing.assert_allclose(second_derivative(g).values, -np.cos(g.times()), atol=1e-5)


# -- convolution_tail_bound ----------------------------------------------------


def test_tail_bound_values():
    assert math.isclose(convolution_tail_bound(0.5, 10), 0.001953125, rel_tol=1e-12)
    assert convolution_tail_bound(0.0, 3) == 0.0
    assert math.isclose(convolution_tail_bound(0.9, 1), 9.0, rel_tol=1e-12)


def test_tail_bound_domain():
    with pytest.raises(DomainError):
        convolution_tail_bound(1.0, 5)
    with pytest.raises(DomainError):
        convolution_tail_bound(-0.1, 5)
    with pytest.raises(InvalidArgumentError):
        convolution_tail_bound(0.5, 0)


@settings(max_examples=50, deadline=None)
@given(
    F=st.floats(min_value=1e-6, max_value=0.999),
    n=st.integers(min_value=1, max_value=200),
)
def test_tail_bound_monotone(F, n):
    # decreasing in the truncation order, increasing in F
    assert convolution_tail_bound(F, n + 1) <= convolution_tail_bound(F, n)
    if F < 0.99:
        assert convolution_tail_bound(F + 1e-3, n) >= convolution_tail_bound(F, n)


# -- serialization -------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    g = grid_fn(lambda t: np.exp(-t) * np.sin(3 * t), 2.0, 0.01)
    path = tmp_path / "g.csv"
    g.to_csv(path)
    back = GridFunction.from_csv(path)
    assert back.t0 == g.t0 and back.h == g.h
    np.testing.assert_array_equal(back.values, g.values)


# Output of the earlier writer (one csv.writer row per sample) on the table
# below, frozen byte for byte: -0.0 keeps its sign, NaN marks a failed point.
FROZEN_CSV = (
    b"t,value,stderr\r\n"
    b"0.00000000000000000e+00,1.00000000000000000e+00,1.00000000000000006e-01\r\n"
    b"5.00000000000000000e-01,-0.00000000000000000e+00,0.00000000000000000e+00\r\n"
    b"1.00000000000000000e+00,nan,1.00000000000000005e+300\r\n"
    b"1.50000000000000000e+00,2.49999999999999998e-300,-3.00000000000000000e+00\r\n"
)


def test_csv_writer_bytes_are_frozen(tmp_path):
    g = GridFunction(t0=0.0, h=0.5, values=np.array([1.0, -0.0, np.nan, 2.5e-300]),
                     nan_ok=True)
    path = tmp_path / "g.csv"
    g.to_csv(path, extra_columns={"stderr": np.array([0.1, 0.0, 1e300, -3.0])})
    assert path.read_bytes() == FROZEN_CSV


def test_csv_writer_matches_row_writer_across_blocks(tmp_path):
    # longer than one formatting block, compared with a per-row csv.writer
    rng = np.random.default_rng(5)
    values = rng.normal(size=20_000) * 10.0 ** rng.integers(-300, 300, 20_000)
    g = GridFunction(t0=0.0, h=1e-3, values=values)
    path = tmp_path / "g.csv"
    g.to_csv(path)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["t", "value"])
    for row in zip(g.times(), g.values):
        writer.writerow([f"{x:.17e}" for x in row])
    assert path.read_bytes() == buf.getvalue().encode()
    np.testing.assert_array_equal(GridFunction.from_csv(path).values, g.values)


@pytest.mark.parametrize("body", ["0.0,1.0\n0.1,abc\n", "0.0,1.0\n0.1\n", ""])
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


def test_csv_nonuniform_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,value\n0.0,1.0\n0.1,1.0\n0.3,1.0\n")
    with pytest.raises(InvalidArgumentError):
        GridFunction.from_csv(path)


def test_json_round_trip():
    g = grid_fn(lambda t: t**2, 1.0, 0.25)
    back = GridFunction.from_json_dict(json.loads(g.to_json()))
    assert back.same_grid(g)
    np.testing.assert_array_equal(back.values, g.values)
