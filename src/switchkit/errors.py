"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: user/input problems exit 1, numeric
failures exit 2.
"""

from __future__ import annotations

import math


class SwitchKitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(SwitchKitError, ValueError):
    """An argument violates a documented precondition (bad value, grid mismatch)."""


class ResourceLimitError(SwitchKitError, RuntimeError):
    """A computation would exceed a configured resource cap."""


class NumericError(SwitchKitError, RuntimeError):
    """A computation ran but its numeric self-checks failed."""


class ShapeCheckError(NumericError):
    """A shape precondition failed; carries the offending report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def _require_above(name: str, x, floor: float) -> None:
    """Refuse a scalar argument ``x`` unless it is finite and above ``floor``."""
    if not (x > floor and math.isfinite(x)):
        raise InvalidArgumentError(f"{name} must be finite and > {floor:g}, got {x}")
