"""Trajectory-level Monte Carlo for the switch process and its stationary
counterpart.

These simulators are the brute-force oracle for every analytic result in the
package.  Determinism contract: a path is a pure function of its seed, and
estimators derive one stream per fixed-size block of paths from
(seed, block_index), so results do not depend on how blocks are scheduled
across workers.  The reductions are integer counts (the processes are +/-1
valued), which makes them exactly order-insensitive.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import SwitchingDistribution, make_rng
from .errors import InvalidArgumentError
from .grid import GridFunction, GridSpec

# Paths per random stream: a constant, so an estimate does not depend on the
# number of worker threads.
_BLOCK = 1024
# Inter-arrival draws per round of one block, which bounds a block's memory
# whatever t_end / mean is.
_ROUND_DRAWS = 1 << 17


@dataclass(frozen=True)
class SwitchTrajectory:
    """Switch epochs of one realization plus the starting sign.

    The last epoch may exceed the horizon (the draw that crossed it is
    kept); evaluation clips at the horizon implicitly since callers only ask
    for t <= horizon.
    """

    epochs: np.ndarray
    initial_sign: int = 1
    horizon: float = math.inf

    def __post_init__(self):
        ep = np.asarray(self.epochs, dtype=float)
        if ep.ndim != 1:
            raise InvalidArgumentError("epochs must be a 1-d array")
        if len(ep) > 1 and not np.all(np.diff(ep) > 0):
            raise InvalidArgumentError("epochs must be strictly increasing")
        if len(ep) and ep[0] <= 0:
            raise InvalidArgumentError("epochs must be positive")
        ep.setflags(write=False)
        object.__setattr__(self, "epochs", ep)
        if self.initial_sign not in (-1, 1):
            raise InvalidArgumentError("initial_sign must be +1 or -1")

    def count(self, t) -> np.ndarray:
        """Number of switches up to and including time t."""
        return np.searchsorted(self.epochs, t, side="right")

    def value(self, t) -> np.ndarray:
        """Process value: initial_sign * (-1)^count(t)."""
        return self.initial_sign * (1 - 2 * (self.count(t) & 1))

    def step_points(self, t_end: float | None = None):
        """(x, y) polyline of the piecewise-constant path, for plotting."""
        end = self.horizon if t_end is None else t_end
        ep = self.epochs[self.epochs <= end]
        xs = [0.0]
        ys = [float(self.initial_sign)]
        sign = self.initial_sign
        for e in ep:
            xs.extend([e, e])
            ys.append(float(sign))
            sign = -sign
            ys.append(float(sign))
        xs.append(float(end))
        ys.append(float(sign))
        return np.asarray(xs), np.asarray(ys)


@dataclass(frozen=True)
class StationaryInitial:
    """Straddling-interval split (forward delay a, backward delay b) and sign."""

    a: float
    b: float
    delta: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise InvalidArgumentError("delays must be non-negative")
        if self.delta not in (-1, 1):
            raise InvalidArgumentError("delta must be +1 or -1")


def _draw_epochs(dist: SwitchingDistribution, horizon: float, rng) -> np.ndarray:
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


def simulate_switch(dist: SwitchingDistribution, horizon: float, seed) -> SwitchTrajectory:
    """One switch-process path on [0, horizon], starting at +1."""
    if not (horizon > 0 and math.isfinite(horizon)):
        raise InvalidArgumentError(f"horizon must be positive and finite, got {horizon}")
    rng = make_rng(seed)
    return SwitchTrajectory(epochs=_draw_epochs(dist, horizon, rng),
                            initial_sign=1, horizon=horizon)


def _draw_stationary_start(dist: SwitchingDistribution, rng):
    """(length-biased interval, forward delay a, backward delay b, delta).

    The straddling interval has the length-biased density t f(t)/mean and is
    split uniformly, which realizes the joint delay density f(a+b)/mean.
    Draw order is fixed: interval, split, sign.
    """
    length = float(dist.sample_size_biased(rng))
    u = float(rng.random())
    a = u * length
    b = length - a
    delta = 1 if rng.random() < 0.5 else -1
    return length, a, b, delta


def simulate_stationary(dist: SwitchingDistribution, horizon: float, seed):
    """One stationary-switch realization on [-horizon, horizon].

    Returns (initial, forward, backward): the delay/sign draw plus two
    independent switch paths.  Evaluate the process with
    :func:`evaluate_stationary`; on (-b, a) it sits at -delta, at a it hands
    over to the forward path, at -b to the (time-reversed) backward path.
    """
    if not (horizon > 0 and math.isfinite(horizon)):
        raise InvalidArgumentError(f"horizon must be positive and finite, got {horizon}")
    if not math.isfinite(dist.mean):
        raise InvalidArgumentError("stationary construction needs a finite mean")
    rng = make_rng(seed)
    _, a, b, delta = _draw_stationary_start(dist, rng)
    forward = SwitchTrajectory(
        epochs=_draw_epochs(dist, max(horizon - a, dist.mean), rng),
        initial_sign=1, horizon=max(horizon - a, dist.mean),
    )
    backward = SwitchTrajectory(
        epochs=_draw_epochs(dist, max(horizon - b, dist.mean), rng),
        initial_sign=1, horizon=max(horizon - b, dist.mean),
    )
    return StationaryInitial(a=a, b=b, delta=delta), forward, backward


def evaluate_stationary(initial: StationaryInitial, forward: SwitchTrajectory,
                        backward: SwitchTrajectory, t) -> np.ndarray:
    """Value of the stationary switch process at times t (scalar or array)."""
    t = np.asarray(t, dtype=float)
    d = initial.delta
    out = np.full(t.shape, -d, dtype=np.int64)
    fwd = t >= initial.a
    out[fwd] = d * forward.value(t[fwd] - initial.a)
    bwd = t <= -initial.b
    out[bwd] = -d * backward.value(-(t[bwd] + initial.b))
    return out


def _odd_counts(dist: SwitchingDistribution, t: np.ndarray, start: np.ndarray,
                rng) -> np.ndarray:
    """Number of paths whose switch count in (0, t_j] is odd, for each t_j.

    Path i switches at start[i] (unless it is 0) and then at start[i] plus
    each partial sum of i.i.d. draws from ``dist``.  The number of odd paths
    at t_j is the number of odd-numbered switches up to t_j minus the number
    of even-numbered ones: two integer histograms over the grid, never a
    matrix of paths by grid times.  Each round tops up, in row order, the rows whose
    last epoch has not passed t[-1], with at most ``_ROUND_DRAWS`` draws.
    """
    n = len(t)
    t_end = t[-1]
    # bin 2j + 1 (2j) counts the odd- (even-) numbered switches in
    # (t[j-1], t[j]]; bins 2n and 2n + 1 those past the grid
    hist = np.bincount(2 * np.searchsorted(t, start[start > 0]) + 1, minlength=2 * n + 2)
    numbered = (start > 0).astype(np.int64)
    last = np.array(start, dtype=float)
    rows = np.flatnonzero(last <= t_end)
    while rows.size:
        want = 1.5 * (t_end - last[rows].min()) / dist.mean
        k = int(min(max(want, 8.0), max(_ROUND_DRAWS // rows.size, 1)))
        gaps = np.reshape(dist.sample(rng, rows.size * k), (rows.size, k))
        epochs = last[rows, None] + np.cumsum(gaps, axis=1)
        is_odd = (numbered[rows, None] + np.arange(1, k + 1)) & 1
        hist += np.bincount((2 * np.searchsorted(t, epochs) + is_odd).ravel(),
                            minlength=2 * n + 2)
        numbered[rows] += k
        last[rows] = epochs[:, -1]
        rows = rows[epochs[:, -1] <= t_end]
    return np.cumsum(hist[1:2 * n:2] - hist[0:2 * n:2])


def _estimate(dist: SwitchingDistribution, grid: GridSpec, n_paths: int, seed,
              workers: int, draw_start):
    """(mean, stderr) of the sign (-1)^(switches in (0, t]) over n_paths paths.

    Paths come in blocks of ``_BLOCK``; block b draws ``draw_start(rng, m)``
    and then its inter-arrivals from ``make_rng(seed, stream=(b,))``.  The
    counts are integers, so the sum over blocks does not depend on how
    ``workers`` threads schedule them.
    """
    if n_paths < 100:
        raise InvalidArgumentError(f"need at least 100 paths, got {n_paths}")
    if isinstance(seed, (np.random.Generator, np.random.SeedSequence)):
        raise InvalidArgumentError("block streams derive from an integer seed")
    t = grid.times()

    def block(b: int) -> np.ndarray:
        m = min(_BLOCK, n_paths - b * _BLOCK)
        rng = make_rng(seed, stream=(b,))
        return _odd_counts(dist, t, draw_start(rng, m), rng)

    blocks = range(-(-n_paths // _BLOCK))
    if workers <= 1:
        parts = [block(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(block, blocks))
    mean = 1.0 - 2.0 * np.sum(parts, axis=0) / n_paths
    stderr = np.sqrt(np.maximum(1.0 - mean * mean, 0.0) / (n_paths - 1))
    return GridFunction(h=grid.h, values=mean), GridFunction(h=grid.h, values=stderr)


def estimate_expected_value(dist: SwitchingDistribution, grid: GridSpec,
                            n_paths: int, seed, workers: int = 1):
    """Pointwise Monte Carlo mean of the switch process with standard errors.

    Returns (mean, stderr) as GridFunctions.  Every path starts a switching
    interval at 0.  Block b of ``_BLOCK`` paths draws from
    ``make_rng(seed, stream=(b,))``, so ``seed`` must be an integer and the
    result does not depend on ``workers``.
    """
    return _estimate(dist, grid, n_paths, seed, workers, lambda rng, m: np.zeros(m))


def estimate_covariance(dist: SwitchingDistribution, grid: GridSpec,
                        n_paths: int, seed, workers: int = 1):
    """Monte Carlo mean of Y(t) Y(0) over stationary paths, with stderr.

    Only the forward construction matters for t >= 0: Y(t) Y(0) is +1 until
    the first switch at the forward delay a, a uniform split of the
    length-biased straddling interval (drawn in that order), and flips at
    every switch after it; the symmetric sign cancels and is not drawn.
    """
    return _estimate(dist, grid, n_paths, seed, workers,
                     lambda rng, m: dist.sample_size_biased(rng, m) * rng.random(m))
