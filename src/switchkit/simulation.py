"""Monte Carlo for the switch process and its stationary counterpart: one
path of the switch process from the origin, and pointwise estimates of E(t)
and of the stationary covariance C(t).

These simulators are the brute-force oracle for every analytic result in the
package.  Determinism contract: a path is a pure function of its seed, and
estimators run blocks of ``_BLOCK`` paths in order on the calling thread,
block b drawing from the stream of (seed, b), and add each block's integer
counts (the processes are +/-1 valued) to one running total, so memory does
not grow with the number of paths.  A block draws in rounds sized to the
horizon its slowest open path has left (:func:`_rounds`), so few draws land
past t_end.  The block size and the round-size rule fix which draw feeds
which path, so changing either changes seeded estimates (README,
Determinism).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import SwitchingDistribution, make_rng
from .errors import InvalidArgumentError, ResourceLimitError, _require_above
from .grid import MAX_POINTS, GridFunction, GridSpec

# Paths per random stream: a constant, so an estimate is a pure function of
# its seed and path count.  A round's numpy calls cost the same fixed time
# whatever its size, shared by this many paths.
_BLOCK = 4096
# Most inter-arrival draws in one round of one block, which bounds a block's
# memory whatever t_end / mean is (32 draws a path while all of a block's
# paths are open).
_ROUND_DRAWS = 1 << 17


@dataclass(frozen=True)
class SwitchTrajectory:
    """Switch epochs of one realization, which starts at +1.

    Epochs are non-decreasing: a draw below half an ulp of the running epoch
    (or one that underflowed to 0) repeats it, two switches at one
    representable time.  An epoch of 0 is a switch at time 0, which
    ``value(0)`` counts, as the estimators do at grid time 0.  The last
    epoch may exceed the horizon (the draw that crossed it is kept).
    """

    epochs: np.ndarray
    horizon: float = math.inf

    def __post_init__(self):
        ep = np.asarray(self.epochs, dtype=float)
        if ep.ndim != 1:
            raise InvalidArgumentError("epochs must be a 1-d array")
        if len(ep) > 1 and not np.all(np.diff(ep) >= 0):  # NaN fails too
            raise InvalidArgumentError("epochs must be non-decreasing")
        if len(ep) and not ep[0] >= 0:
            raise InvalidArgumentError("epochs must be non-negative")
        ep.setflags(write=False)
        object.__setattr__(self, "epochs", ep)

    def count(self, t) -> np.ndarray:
        """Number of switches up to and including time t."""
        return np.searchsorted(self.epochs, t, side="right")

    def value(self, t) -> np.ndarray:
        """Process value: (-1)^count(t)."""
        return 1 - 2 * (self.count(t) & 1)

    def step_points(self):
        """(x, y) polyline of the piecewise-constant path to the horizon, for
        plotting."""
        ep = self.epochs[self.epochs <= self.horizon]
        xs = np.concatenate([[0.0], np.repeat(ep, 2), [self.horizon]])
        return xs, np.repeat(1.0 - 2.0 * (np.arange(len(ep) + 1) & 1), 2)


def simulate_switch(dist: SwitchingDistribution, horizon: float, seed) -> SwitchTrajectory:
    """One switch-process path on [0, horizon], starting at +1."""
    _require_above("horizon", horizon, 0)
    if horizon / dist.mean > MAX_POINTS:
        raise ResourceLimitError(f"horizon / mean exceeds MAX_POINTS = {MAX_POINTS}")
    rounds = _rounds(dist, np.zeros(1), horizon, make_rng(seed))
    epochs = np.concatenate([epochs[0] for _, epochs in rounds])
    keep = int(np.searchsorted(epochs, horizon, side="right"))
    return SwitchTrajectory(epochs=epochs[: keep + 1], horizon=horizon)  # and the first past it


def _rounds(dist: SwitchingDistribution, start: np.ndarray, t_end: float, rng):
    """Rounds (rows, epochs) of epochs after ``start``, drawn until every
    row's last epoch has passed t_end.

    Row i's epochs are start[i] plus the partial sums of i.i.d. draws from
    ``dist``.  Each round tops up, in row order, the rows whose last epoch
    has not passed t_end, with k draws each; ``epochs[j]`` continues row
    ``rows[j]``.  k is int(1.5 w + 2), where w = (t_end - the smallest last
    epoch) / mean is the number of mean inter-arrivals the slowest open row
    has left, but a round draws at most ``_ROUND_DRAWS`` in all (and at
    least one a row).  The margin lets most rows pass t_end in one round,
    and what they draw past it is little.
    """
    last = np.array(start, dtype=float)
    rows = np.flatnonzero(last <= t_end)
    while rows.size:
        want = 1.5 * (t_end - last[rows].min()) / dist.mean + 2.0
        k = int(min(want, max(_ROUND_DRAWS // rows.size, 1)))
        # no name holds the draws, so they are freed once summed, before the
        # caller bins the epochs: one round-sized array fewer stays live
        epochs = np.cumsum(np.reshape(dist.sample(rng, rows.size * k), (rows.size, k)), axis=1)
        epochs += last[rows, None]
        yield rows, epochs
        last[rows] = epochs[:, -1]
        rows = rows[epochs[:, -1] <= t_end]


def _odd_counts(dist: SwitchingDistribution, t: np.ndarray, start: np.ndarray,
                rng) -> np.ndarray:
    """Number of paths whose switch count in (0, t_j] is odd, for each t_j.

    Path i switches at start[i] (unless it is 0) and then at start[i] plus
    each partial sum of i.i.d. draws from ``dist``.  The number of odd paths
    at t_j is the number of odd-numbered switches up to t_j minus the number
    of even-numbered ones: two integer histograms over the grid, never a
    matrix of paths by grid times.  The draws come in :func:`_rounds` up to t[-1].
    """
    n = len(t)
    # bin 2j + 1 (2j) counts the odd- (even-) numbered switches in
    # (t[j-1], t[j]]; bins 2n and 2n + 1 those past the grid
    hist = np.bincount(2 * np.searchsorted(t, start[start > 0]) + 1, minlength=2 * n + 2)
    numbered = (start > 0).astype(np.int64)
    for rows, epochs in _rounds(dist, start, t[-1], rng):
        # bins built in place, with no second rows-by-k temporary: the
        # parity of numbered[row] + j is the xor of a column's and a row's
        bins = np.searchsorted(t, epochs)
        bins <<= 1
        bins |= np.arange(1, epochs.shape[1] + 1) & 1
        bins ^= numbered[rows, None] & 1
        hist += np.bincount(bins.ravel(), minlength=2 * n + 2)
        numbered[rows] += epochs.shape[1]
    return np.cumsum(hist[1:2 * n:2] - hist[0:2 * n:2])


def _estimate(dist: SwitchingDistribution, grid: GridSpec, n_paths: int, seed, draw_start):
    """(mean, stderr) of the sign (-1)^(switches in (0, t]) over n_paths paths.

    Paths come in blocks of ``_BLOCK``, run in order; block b draws
    ``draw_start(dist, rng, m)`` and then its inter-arrivals from
    ``make_rng(seed, stream=(b,))``, and its odd counts join one running
    total.  Like :func:`simulate_switch`, it refuses t_end / mean above
    ``MAX_POINTS``.
    """
    if n_paths < 100:
        raise InvalidArgumentError(f"need at least 100 paths, got {n_paths}")
    if isinstance(seed, (np.random.Generator, np.random.SeedSequence)):
        raise InvalidArgumentError("block streams derive from an integer seed")
    if grid.t_end / dist.mean > MAX_POINTS:  # each path would draw that many switches
        raise ResourceLimitError(f"t_end / mean exceeds MAX_POINTS = {MAX_POINTS}")
    t = grid.times()
    odd = np.zeros(len(t), dtype=np.int64)
    for b in range(-(-n_paths // _BLOCK)):
        rng = make_rng(seed, stream=(b,))
        start = draw_start(dist, rng, min(_BLOCK, n_paths - b * _BLOCK))
        odd += _odd_counts(dist, t, start, rng)
    mean = 1.0 - 2.0 * odd / n_paths
    stderr = np.sqrt(np.maximum(1.0 - mean * mean, 0.0) / (n_paths - 1))
    return GridFunction(h=grid.h, values=mean), GridFunction(h=grid.h, values=stderr)


def estimate_expected_value(dist: SwitchingDistribution, grid: GridSpec, n_paths: int, seed):
    """Pointwise Monte Carlo mean of the switch process with standard errors.

    Returns (mean, stderr) as GridFunctions.  Every path starts a switching
    interval at 0.  Block b of ``_BLOCK`` paths draws from
    ``make_rng(seed, stream=(b,))``, so ``seed`` must be an integer.
    """
    return _estimate(dist, grid, n_paths, seed, lambda dist, rng, m: np.zeros(m))


def _forward_delays(dist: SwitchingDistribution, rng, m: int) -> np.ndarray:
    """m forward delays of the stationary process: uniform splits of
    length-biased straddling intervals, drawn in that order."""
    return dist.sample_size_biased(rng, m) * rng.random(m)


def estimate_covariance(dist: SwitchingDistribution, grid: GridSpec, n_paths: int, seed):
    """Monte Carlo mean of Y(t) Y(0) over stationary paths, with stderr.

    Only the forward construction matters for t >= 0: Y(t) Y(0) is +1 until
    the first switch at the forward delay (:func:`_forward_delays`) and
    flips at every switch after it; the symmetric sign cancels and is not
    drawn.
    """
    return _estimate(dist, grid, n_paths, seed, _forward_delays)
