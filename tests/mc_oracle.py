"""Frozen reference: the per-path parity and covariance-product logic that
the block kernel in :mod:`switchkit.simulation` replaced, and the one-path
epoch draw that its rounds replaced in ``simulate_switch``.

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


def draw_epochs(dist, horizon: float, rng) -> np.ndarray:
    """Inter-arrival sums until the partial sum first exceeds the horizon."""
    block = max(8, int(horizon / dist.mean * 1.5) + 1)
    total = 0.0
    chunks = []
    while total <= horizon:
        draws = np.atleast_1d(dist.sample(rng, block))
        cum = total + np.cumsum(draws)
        chunks.append(cum)
        total = float(cum[-1])
    epochs = np.concatenate(chunks)
    keep = int(np.searchsorted(epochs, horizon, side="right"))
    return epochs[: keep + 1]  # keep the first epoch past the horizon
