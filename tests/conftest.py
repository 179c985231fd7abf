import numpy as np
import pytest

from switchkit import (
    GridFunction,
    GridSpec,
    make_exponential,
    make_gamma,
    make_geometric_compound,
)


@pytest.fixture
def exp1():
    return make_exponential(1.0)


@pytest.fixture
def gamma22():
    return make_gamma(2.0, 2.0)


@pytest.fixture
def compound2():
    """Geometric(1/2) compound of Exp(2) draws; equals Exp(1) in law."""
    return make_geometric_compound(make_exponential(2.0), r=2.0)


def grid_fn(fn, t_end, h):
    spec = GridSpec.from_t_end(t_end, h)
    t = spec.times()
    return GridFunction(h=h, values=np.asarray(fn(t), dtype=float))


def gamma22_expected(t):
    """Closed-form expected value for the gamma(2,2) switch process."""
    return np.sqrt(2.0) * np.sin((2.0 * t + np.pi) / 4.0) * np.exp(-t / 2.0)


def gamma22_expected_deriv(t):
    """Derivative of the closed form above (checked against finite
    differences to 1e-11 when frozen)."""
    u = (2.0 * t + np.pi) / 4.0
    return (np.sqrt(2.0) / 2.0) * np.exp(-t / 2.0) * (np.cos(u) - np.sin(u))
