"""switchkit: numerics for switch processes.

Compute and invert the relations among a switching-time distribution, the
expected value E(t) of the switch process it drives, and the covariance
C(t) of the stationary counterpart; test geometric divisibility; run the
independent interval approximation for clipped Gaussian processes.
"""

from .distributions import (
    GeometricCompound,
    SwitchingDistribution,
    geometric_map_grid,
    make_exponential,
    make_gamma,
    make_geometric_compound,
    make_rng,
    make_tabulated,
    parse_distribution,
    tabulate_cdf,
    tabulate_pdf,
)
from .divisibility import DivisibilityReport, gd_check
from .errors import (
    InvalidArgumentError,
    NumericError,
    ResourceLimitError,
    ShapeCheckError,
    SwitchKitError,
)
from .grid import (
    GridFunction,
    GridSpec,
    convolve,
    cumulative_integral,
    derivative,
    integral,
    second_derivative,
    solve_renewal,
)
from .iia import (
    GaussianCovariance,
    IIAResult,
    clip_covariance,
    damped_cosine_covariance,
    diffusion2d_covariance,
    exponential_covariance,
    iia_pipeline,
)
from .laplace import (
    covariance_laplace,
    expected_laplace_from_psi,
    geometric_map,
    psi_from_expected_laplace,
)
from .recovery import (
    ShapeReport,
    check_covariance_shape,
    check_expected_shape,
    covariance_delay_route,
    covariance_from_expected,
    divisor_from_covariance,
    divisor_from_expected,
    expected_derivative_series,
    expected_from_covariance,
    expected_value_series,
    mean_from_expected,
)
from .simulation import (
    SwitchTrajectory,
    estimate_covariance,
    estimate_expected_value,
    simulate_switch,
)

__version__ = "0.1.0"

__all__ = [
    "DivisibilityReport",
    "GaussianCovariance",
    "GeometricCompound",
    "GridFunction",
    "GridSpec",
    "IIAResult",
    "InvalidArgumentError",
    "NumericError",
    "ResourceLimitError",
    "ShapeCheckError",
    "ShapeReport",
    "SwitchKitError",
    "SwitchTrajectory",
    "SwitchingDistribution",
    "check_covariance_shape",
    "check_expected_shape",
    "clip_covariance",
    "convolve",
    "covariance_delay_route",
    "covariance_from_expected",
    "covariance_laplace",
    "cumulative_integral",
    "damped_cosine_covariance",
    "derivative",
    "diffusion2d_covariance",
    "divisor_from_covariance",
    "divisor_from_expected",
    "estimate_covariance",
    "estimate_expected_value",
    "expected_derivative_series",
    "expected_from_covariance",
    "expected_laplace_from_psi",
    "expected_value_series",
    "exponential_covariance",
    "gd_check",
    "geometric_map",
    "geometric_map_grid",
    "iia_pipeline",
    "integral",
    "make_exponential",
    "make_gamma",
    "make_geometric_compound",
    "make_rng",
    "make_tabulated",
    "mean_from_expected",
    "parse_distribution",
    "psi_from_expected_laplace",
    "second_derivative",
    "simulate_switch",
    "solve_renewal",
    "tabulate_cdf",
    "tabulate_pdf",
]
