"""Monte Carlo oracle for the independent interval approximation: the
intervals between sign changes of a clipped stationary Gaussian process.

Paths are exact on their grid, by circulant embedding (Wood & Chan, J.
Comput. Graph. Stat. 3, 1994): the correlation at lags 0..n, mirrored
into a circulant of length 2n, is diagonalized by one FFT, and the
FFT of complex white noise scaled by the root of that spectrum gives two
independent paths, its real and imaginary parts.
"""

from __future__ import annotations

import numpy as np


def paths(r, dt: float, n: int, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """``n_paths`` (even) independent paths of ``n`` points at step ``dt``
    of the zero-mean, unit-variance process with correlation ``r``."""
    c = np.asarray(r(dt * np.arange(n + 1)), dtype=float)
    spectrum = np.fft.fft(np.concatenate([c, c[-2:0:-1]])).real
    # a negative eigenvalue beyond roundoff means r has no embedding at n
    assert spectrum.min() > -1e-12 * spectrum.max(), spectrum.min()
    m = len(spectrum)
    root = np.sqrt(np.maximum(spectrum, 0.0) / m)
    out = np.empty((n_paths, n))
    for k in range(0, n_paths, 2):
        y = np.fft.fft(root * (rng.standard_normal(m) + 1j * rng.standard_normal(m)))
        out[k], out[k + 1] = y.real[:n], y.imag[:n]
    return out


def intervals(path: np.ndarray, dt: float) -> np.ndarray:
    """Lengths between successive sign changes of one path, each located by
    linear interpolation between the grid points that straddle it."""
    i = np.nonzero((path[1:] > 0) != (path[:-1] > 0))[0]
    crossings = dt * (i + path[i] / (path[i] - path[i + 1]))
    return np.diff(crossings)
