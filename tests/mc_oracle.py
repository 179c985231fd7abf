"""Frozen reference: the per-path parity and covariance-product logic that
the block kernel in :mod:`switchkit.simulation` replaced.

The loop bodies are the old estimator workers' with the per-path stream and
epoch draw taken out: each function takes its paths' epoch rows instead, so
the kernel can be checked against it on identical draws.  Counts are of
paths at +1.
"""

from __future__ import annotations

import numpy as np


def expected_plus_counts(epoch_rows, t: np.ndarray) -> np.ndarray:
    """Switch paths at +1 at each time; a row holds one path's epochs."""
    counts = np.zeros(len(t), dtype=np.int64)
    for ep in epoch_rows:
        counts += (np.searchsorted(ep, t, side="right") & 1) == 0
    return counts


def covariance_plus_counts(delays, epoch_rows, t: np.ndarray) -> np.ndarray:
    """Stationary paths with Y(t) Y(0) = +1 at each time.

    ``delays`` are the forward delays a; a row holds the forward path's
    epochs measured from its delay.  ``t`` must start at 0 and end above it.
    """
    counts = np.zeros(len(t), dtype=np.int64)
    t_end = float(t[-1])
    for a, ep in zip(delays, epoch_rows):
        if a > t_end:
            counts += 1
            continue
        after = t >= a
        prod = np.ones(len(t), dtype=np.int64)
        parity = np.searchsorted(ep, t[after] - a, side="right") & 1
        if a > 0:
            # Y(0) = -delta, Y(t) = delta * X(t - a): product flips with X.
            prod[after] = 2 * parity - 1
        else:
            # zero forward delay: Y(0) already sits on the forward path
            prod[after] = 1 - 2 * parity
        counts += prod == 1
    return counts
