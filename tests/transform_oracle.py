"""Frozen reference: the three transform maps that
:func:`switchkit.laplace.geometric_map` replaced.

Each formula is kept verbatim in test code so the single map can be checked
against the closures it replaces: divisor extraction and order reduction
bit for bit, the compound transform to within roundoff (it was written in a
different but algebraically equal form).
"""

from __future__ import annotations

import numpy as np


def divisor(psi, r):
    def fn(s):
        v = psi(s)
        return r * v / (1.0 + (r - 1.0) * v)

    return fn


def reduced(divisor_psi, r, u):
    ratio = u / r

    def fn(s):
        v = divisor_psi(s)
        return ratio * v / (1.0 - (1.0 - ratio) * v)

    return fn


def compound(div_laplace, r):
    def fn(s):
        psi = div_laplace(s)
        with np.errstate(divide="ignore"):
            return 1.0 / (r / psi - (r - 1.0))

    return fn
