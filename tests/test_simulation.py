import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from switchkit import (
    GridSpec,
    InvalidArgumentError,
    SwitchingDistribution,
    estimate_covariance,
    estimate_expected_value,
    evaluate_stationary,
    make_rng,
    make_tabulated,
    simulate_stationary,
    simulate_switch,
)
from switchkit.simulation import _BLOCK, _odd_counts

from conftest import grid_fn
from mc_oracle import covariance_plus_counts, expected_plus_counts


# -- simulate_switch -------------------------------------------------------------


def test_starts_at_plus_one(exp1):
    traj = simulate_switch(exp1, 5.0, seed=1)
    assert traj.value(1e-12) == 1
    assert traj.initial_sign == 1


def test_sign_flips_between_first_epochs(exp1):
    traj = simulate_switch(exp1, 10.0, seed=4)
    mid = 0.5 * (traj.epochs[0] + traj.epochs[1])
    assert traj.value(mid) == -1


def test_epoch_count_matches_poisson_rate(exp1):
    # unit-rate renewals on [0, 5]: the count is Poisson(5)
    n = 10_000
    counts = np.array(
        [simulate_switch(exp1, 5.0, seed=make_rng(11, stream=(i,))).count(5.0) for i in range(n)]
    )
    se = math.sqrt(5.0 / n)
    assert abs(counts.mean() - 5.0) < 4 * se


def test_bitwise_determinism(exp1):
    a = simulate_switch(exp1, 20.0, seed=99)
    b = simulate_switch(exp1, 20.0, seed=99)
    np.testing.assert_array_equal(a.epochs, b.epochs)


def test_horizon_validation(exp1):
    for horizon in (0.0, np.inf, np.nan):
        with pytest.raises(InvalidArgumentError):
            simulate_switch(exp1, horizon, seed=1)
        with pytest.raises(InvalidArgumentError):
            simulate_stationary(exp1, horizon, seed=1)


def test_inter_epoch_gaps_follow_switching_law(exp1):
    # two-sample KS between simulated gaps and direct draws
    gaps = []
    for i in range(40):
        ep = simulate_switch(exp1, 300.0, seed=make_rng(5, stream=(i,))).epochs
        gaps.append(np.diff(ep))
    gaps = np.concatenate(gaps)[:10_000]
    direct = exp1.sample(make_rng(6), size=10_000)
    assert ks_2samp(gaps, direct).pvalue > 1e-3


# -- stationary construction --------------------------------------------------------


def test_stationary_value_at_origin_is_minus_delta(exp1):
    for i in range(25):
        init, fwd, bwd = simulate_stationary(exp1, 5.0, seed=make_rng(2, stream=(i,)))
        assert evaluate_stationary(init, fwd, bwd, 0.0) == -init.delta


def test_stationary_mean_is_zero(exp1):
    n = 20_000
    tgrid = np.array([0.0, 1.0, 2.0])
    acc = np.zeros(3)
    for i in range(n):
        init, fwd, bwd = simulate_stationary(exp1, 2.5, seed=make_rng(3, stream=(i,)))
        acc += evaluate_stationary(init, fwd, bwd, tgrid)
    mean = acc / n
    # each Y(t) is +/-1, so the standard error is at most 1/sqrt(n)
    assert np.all(np.abs(mean) < 4 / math.sqrt(n))


def test_forward_delay_density(exp1):
    # the forward delay of a unit-rate stationary process has density
    # (1 - F(t))/mu = e^{-t}
    n = 30_000
    draws = np.empty(n)
    for i in range(n):
        init, _, _ = simulate_stationary(exp1, 1.0, seed=make_rng(8, stream=(i,)))
        draws[i] = init.a
    xs = np.linspace(0.0, 3.0, 200)
    emp = np.searchsorted(np.sort(draws), xs, side="right") / n
    want = 1.0 - np.exp(-xs)
    assert np.max(np.abs(emp - want)) < 0.02


def test_stationary_negative_time_branch(exp1):
    init, fwd, bwd = simulate_stationary(exp1, 5.0, seed=17)
    t = -init.b - 1e-9
    assert evaluate_stationary(init, fwd, bwd, t) in (-1, 1)
    inside = evaluate_stationary(init, fwd, bwd, -init.b / 2 if init.b > 0 else 0.0)
    assert inside == -init.delta


def test_stationary_size_biased_requires_density(compound2):
    with pytest.raises(InvalidArgumentError):
        simulate_stationary(compound2, 5.0, seed=1)


def test_tabulated_size_biased_sampler_mean():
    # for the tabulated unit-rate exponential the straddling interval is a
    # shape-2 gamma with mean 2
    tab = make_tabulated(grid_fn(lambda t: np.exp(-t), 40.0, 2e-3))
    drails = tab.sample_size_biased(make_rng(21), size=20_000)
    se = drails.std(ddof=1) / math.sqrt(len(drails))
    assert abs(drails.mean() - 2.0) < 4 * se


def test_tabulated_size_biased_sampler_is_gamma2():
    tab = make_tabulated(grid_fn(lambda t: np.exp(-t), 40.0, 2e-3))
    draws = tab.sample_size_biased(make_rng(22), size=20_000)
    assert kstest(draws, "gamma", args=(2.0,)).pvalue > 1e-3


# -- estimators -----------------------------------------------------------------------


def test_estimate_expected_value_exponential(exp1):
    grid = GridSpec.from_t_end(4.0, 0.5)
    mean, stderr = estimate_expected_value(exp1, grid, 20_000, seed=12)
    t = grid.times()
    want = np.exp(-2 * t)
    z = np.abs(mean.values - want) / np.where(stderr.values > 0, stderr.values, 1.0)
    assert np.max(z[1:]) < 4.0
    assert mean.values[0] == 1.0 and stderr.values[0] == 0.0


def test_estimate_expected_value_limits(exp1):
    # near the origin the estimate sits at 1; at t = 20 * mean the start-up
    # bias has died out and it sits at 0
    grid = GridSpec(h=1e-3, n=2)
    mean, stderr = estimate_expected_value(exp1, grid, 5_000, seed=13)
    assert abs(mean.values[1] - 1.0) < 4 * max(stderr.values[1], 1e-12) + 1e-12
    grid = GridSpec(h=20.0, n=2)
    mean, stderr = estimate_expected_value(exp1, grid, 5_000, seed=13)
    assert abs(mean.values[1]) < 4 * stderr.values[1]


def test_estimate_covariance_exponential(exp1):
    grid = GridSpec.from_t_end(2.0, 0.5)
    mean, stderr = estimate_covariance(exp1, grid, 20_000, seed=14)
    assert mean.values[0] == 1.0
    want = math.exp(-2.0)
    i = 2  # t = 1
    assert abs(mean.values[i] - want) < 4 * stderr.values[i]


def test_estimate_covariance_gamma(gamma22):
    grid = GridSpec.from_t_end(2.0, 1.0)
    mean, stderr = estimate_covariance(gamma22, grid, 20_000, seed=15)
    want = 0.19876611034641298  # cos(1) e^{-1}
    assert abs(mean.values[2] - want) < 4 * stderr.values[2]


def test_estimators_are_scheduling_independent(exp1):
    grid = GridSpec.from_t_end(2.0, 0.5)
    a, _ = estimate_expected_value(exp1, grid, 600, seed=5, workers=1)
    b, _ = estimate_expected_value(exp1, grid, 600, seed=5, workers=3)
    np.testing.assert_array_equal(a.values, b.values)
    c, _ = estimate_covariance(exp1, grid, 600, seed=5, workers=1)
    d, _ = estimate_covariance(exp1, grid, 600, seed=5, workers=4)
    np.testing.assert_array_equal(c.values, d.values)


def test_estimators_need_enough_paths(exp1):
    with pytest.raises(InvalidArgumentError):
        estimate_expected_value(exp1, GridSpec.from_t_end(1.0, 0.5), 50, seed=0)


@pytest.mark.parametrize("seed", [np.random.SeedSequence(5), make_rng(5)])
def test_estimators_need_an_integer_seed(exp1, seed):
    # a SeedSequence or live Generator would give every block the same stream
    with pytest.raises(InvalidArgumentError):
        estimate_covariance(exp1, GridSpec.from_t_end(1.0, 0.5), 200, seed=seed)


def test_estimated_variance_is_flat_in_time(exp1):
    # stationarity witness: Var Y(t) = 1 - C-ish mean^2 stays near 1
    grid = GridSpec.from_t_end(3.0, 1.0)
    n = 20_000
    acc = np.zeros(grid.n)
    acc2 = np.zeros(grid.n)
    t = grid.times()
    for i in range(n):
        init, fwd, bwd = simulate_stationary(exp1, 3.5, seed=make_rng(31, stream=(i,)))
        y = evaluate_stationary(init, fwd, bwd, t)
        acc += y
        acc2 += y * y
    var = acc2 / n - (acc / n) ** 2
    assert np.all(np.abs(var - 1.0) < 0.02)


def test_estimates_are_worker_independent_over_blocks(exp1):
    grid = GridSpec.from_t_end(2.0, 0.5)
    n = 3 * _BLOCK + 17
    for estimate in (estimate_expected_value, estimate_covariance):
        runs = [estimate(exp1, grid, n, seed=6, workers=w)[0].values for w in (1, 2, 3)]
        np.testing.assert_array_equal(runs[0], runs[1])
        np.testing.assert_array_equal(runs[0], runs[2])


def test_estimates_do_not_depend_on_the_grid_step(gamma22):
    coarse = GridSpec.from_t_end(4.0, 0.5)
    fine = GridSpec.from_t_end(4.0, 1e-3)
    _, i, j = np.intersect1d(coarse.times(), fine.times(), return_indices=True)
    assert len(i) == coarse.n and coarse.t_end == fine.t_end
    for estimate in (estimate_expected_value, estimate_covariance):
        a, _ = estimate(gamma22, coarse, 3000, seed=8)
        b, _ = estimate(gamma22, fine, 3000, seed=8)
        np.testing.assert_array_equal(a.values[i], b.values[j])


def test_block_memory_does_not_grow_with_the_horizon(exp1):
    # one full block to t_end / mean = 1e4 draws about 1e7 epochs: 80 MB if
    # they were all held at once
    grid = GridSpec.from_t_end(1e4, 1e3)
    tracemalloc.start()
    try:
        mean, _ = estimate_expected_value(exp1, grid, _BLOCK, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert abs(mean.values[-1]) < 0.2


def _recording_dyadic_law(rounds):
    """Gaps in {0, 1/32, 4/32, ..., 2}: every epoch sum and grid comparison
    is exact (ties included), and each round's draws are kept."""

    def sampler(rng, size=None):
        draws = rng.integers(0, 9, size) ** 2 / 32.0
        rounds.append(draws)
        return draws

    return SwitchingDistribution(name="dyadic", mean=51 / 72, laplace=lambda s: s,
                                 sampler=sampler)


def _epoch_rows(start, t_end, rounds):
    """Each path's epochs, measured from its start, rebuilt from the rounds:
    a round tops up, in row order, the rows not yet past t_end."""
    gaps = [[] for _ in start]
    last = np.array(start, dtype=float)
    rows = np.flatnonzero(last <= t_end)
    for draws in rounds:
        block = draws.reshape(rows.size, -1)
        for i, g in zip(rows, block):
            gaps[i].extend(g)
        last[rows] += block.sum(axis=1)
        rows = rows[last[rows] <= t_end]
    assert rows.size == 0
    return [np.cumsum(g) for g in gaps]


# two horizons, so that rounds of both an odd and an even number of draws occur
@pytest.mark.parametrize("t_end", [6.0, 6.5])
@pytest.mark.parametrize("target", ["expected", "covariance"])
def test_kernel_matches_frozen_per_path_counts(target, t_end):
    t = GridSpec.from_t_end(t_end, 0.25).times()
    if target == "expected":
        start = np.zeros(2000)
    else:
        # exactly 0, positive, exactly t_end and beyond it
        start = np.concatenate([[0.0, 0.0, 0.125, t_end, t_end + 0.125, 40.0],
                                make_rng(4).integers(0, 56, 2000) / 8.0])
    rounds = []
    odd = _odd_counts(_recording_dyadic_law(rounds), t, start, make_rng(5))
    assert len(rounds) >= 2  # rows carry their switch parity across rounds
    rows = _epoch_rows(start, t[-1], rounds)
    if target == "expected":
        want = expected_plus_counts(rows, t)
    else:
        want = covariance_plus_counts(start, rows, t)
    np.testing.assert_array_equal(len(start) - odd, want)
