import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from switchkit import (
    GridSpec,
    InvalidArgumentError,
    ResourceLimitError,
    SwitchTrajectory,
    SwitchingDistribution,
    estimate_covariance,
    estimate_expected_value,
    make_gamma,
    make_rng,
    make_tabulated,
    parse_distribution,
    simulate_switch,
)
from switchkit import simulation
from switchkit.simulation import _BLOCK, _forward_delays, _odd_counts, _rounds

from conftest import grid_fn
from mc_oracle import covariance_plus_counts, draw_epochs, expected_plus_counts


# -- simulate_switch -------------------------------------------------------------


def test_starts_at_plus_one(exp1):
    traj = simulate_switch(exp1, 5.0, seed=1)
    assert traj.value(1e-12) == 1
    xs, ys = traj.step_points()
    assert xs[0] == 0.0 and ys[0] == 1.0 and xs[-1] == 5.0


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


def test_repeated_epochs_are_two_switches_at_one_time():
    traj = SwitchTrajectory(epochs=[0.0, 1.0, 1.0, 2.0])
    # an epoch of 0 (a first draw that underflowed) is a switch at time 0
    np.testing.assert_array_equal(traj.count([0.0, 0.5, 1.0, 1.5, 2.0]), [1, 1, 3, 3, 4])
    np.testing.assert_array_equal(traj.value([0.0, 0.5, 1.0, 1.5, 2.0]), [-1, -1, -1, -1, 1])
    xs, ys = SwitchTrajectory(epochs=[0.5, 0.5], horizon=1.0).step_points()
    np.testing.assert_array_equal(xs, [0.0, 0.5, 0.5, 0.5, 0.5, 1.0])
    np.testing.assert_array_equal(ys, [1.0, 1.0, -1.0, -1.0, 1.0, 1.0])


@pytest.mark.parametrize("epochs", [[1.0, 0.5], [-1.0, 1.0], [-0.5], [np.nan],
                                    [1.0, np.nan], [np.nan, 1.0]])
def test_decreasing_negative_and_nan_epochs_are_refused(epochs):
    with pytest.raises(InvalidArgumentError, match="epochs must be"):
        SwitchTrajectory(epochs=epochs)


@pytest.mark.parametrize("shape", [0.01, 0.1, 0.2])
def test_a_singular_law_draws_repeated_epochs(shape):
    epochs = simulate_switch(make_gamma(shape, 1.0), 1e4, seed=1).epochs
    assert np.all(np.diff(epochs) >= 0) and np.any(np.diff(epochs) == 0)


def test_horizon_validation(exp1):
    for horizon in (0.0, np.inf, np.nan):
        with pytest.raises(InvalidArgumentError):
            simulate_switch(exp1, horizon, seed=1)


def test_horizon_is_capped_before_drawing(exp1):
    # 1e12 unit-mean switches would be one 12 TB draw
    with pytest.raises(ResourceLimitError, match="MAX_POINTS"):
        simulate_switch(exp1, 1e12, 0)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_bad_seed_is_an_invalid_argument(exp1, seed):
    with pytest.raises(InvalidArgumentError, match="seed"):
        simulate_switch(exp1, 5.0, seed)


@pytest.mark.parametrize("spec", ["exp(rate=1)", "gamma(shape=2,scale=2)"])
@pytest.mark.parametrize("means", [10.0, 2e5])
def test_path_matches_the_frozen_epoch_draw(spec, means):
    # simulate_switch draws in the estimators' bounded rounds; for a sampler
    # that spends one variate per gap the gaps are the replaced loop's, and
    # only the grouping of the partial sums differs, which moves a sum of n
    # positive terms by at most (n - 1) eps relative to each side
    dist = parse_distribution(spec)
    got = simulate_switch(dist, means * dist.mean, 3).epochs
    want = draw_epochs(dist, means * dist.mean, make_rng(3))
    assert len(got) == len(want)
    np.testing.assert_allclose(got, want, rtol=2 * len(want) * np.finfo(float).eps, atol=0)


def test_inter_epoch_gaps_follow_switching_law(exp1):
    # two-sample KS between simulated gaps and direct draws
    gaps = []
    for i in range(40):
        ep = simulate_switch(exp1, 300.0, seed=make_rng(5, stream=(i,))).epochs
        gaps.append(np.diff(ep))
    gaps = np.concatenate(gaps)[:10_000]
    direct = exp1.sample(make_rng(6), size=10_000)
    assert ks_2samp(gaps, direct).pvalue > 1e-3


# -- stationary start --------------------------------------------------------------


def test_forward_delay_density(exp1):
    # the forward delay of a unit-rate stationary process has density
    # (1 - F(t))/mu = e^{-t}
    n = 30_000
    draws = _forward_delays(exp1, make_rng(8), n)
    xs = np.linspace(0.0, 3.0, 200)
    emp = np.searchsorted(np.sort(draws), xs, side="right") / n
    want = 1.0 - np.exp(-xs)
    assert np.max(np.abs(emp - want)) < 0.02


def test_stationary_size_biased_requires_density(compound2):
    with pytest.raises(InvalidArgumentError, match="size-biased"):
        estimate_covariance(compound2, GridSpec.from_t_end(1.0, 0.5), 200, seed=1)


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


def test_estimate_expected_value_of_a_compound_over_a_table(tmp_path):
    # the Geometric(1/2) compound of Exp(2) draws is Exp(1) in law, so
    # E(t) = e^{-2t}; here the divisor is an Exp(2) density read from a CSV
    path = tmp_path / "divisor.csv"
    grid_fn(lambda t: 2 * np.exp(-2 * t), 20.0, 1e-3).to_csv(path)
    law = parse_distribution(f"compound(r=2,divisor=table({path}))")
    mean, stderr = estimate_expected_value(law, GridSpec(h=0.5, n=5), 20_000, seed=16)
    i = [1, 2, 4]  # t = 0.5, 1, 2
    z = np.abs(mean.values[i] - np.exp(-2 * mean.times()[i])) / stderr.values[i]
    assert np.max(z) < 4.0


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
    # block b's counts depend on (seed, b) alone: summed in reverse order
    # they give the estimate
    grid = GridSpec.from_t_end(2.0, 0.5)
    t, n = grid.times(), 3 * _BLOCK + 17
    for estimate, draw_start in ((estimate_expected_value, lambda dist, rng, m: np.zeros(m)),
                                 (estimate_covariance, _forward_delays)):
        odd = 0
        for b in reversed(range(4)):
            rng = make_rng(5, stream=(b,))
            start = draw_start(exp1, rng, min(_BLOCK, n - b * _BLOCK))
            odd = odd + _odd_counts(exp1, t, start, rng)
        np.testing.assert_array_equal(estimate(exp1, grid, n, seed=5)[0].values,
                                      1.0 - 2.0 * odd / n)


def test_estimators_need_enough_paths(exp1):
    with pytest.raises(InvalidArgumentError):
        estimate_expected_value(exp1, GridSpec.from_t_end(1.0, 0.5), 50, seed=0)


@pytest.mark.parametrize("seed", [np.random.SeedSequence(5), make_rng(5)])
def test_estimators_need_an_integer_seed(exp1, seed):
    # a SeedSequence or live Generator would give every block the same stream
    with pytest.raises(InvalidArgumentError):
        estimate_covariance(exp1, GridSpec.from_t_end(1.0, 0.5), 200, seed=seed)


def test_estimates_are_worker_independent_over_blocks():
    # three full blocks and a partial one, run in order: the running total is
    # the frozen per-path count over every block's paths
    n, grid = 3 * _BLOCK + 17, GridSpec.from_t_end(6.0, 0.25)
    for target in ("expected", "covariance"):
        rounds, starts, first_round = [], [], []

        def draw_start(dist, rng, m):
            # dyadic delays (all 0 for E), so every epoch sum is exact
            starts.append(np.zeros(m) if target == "expected" else rng.integers(0, 56, m) / 8.0)
            first_round.append(len(rounds))
            return starts[-1]

        mean, _ = simulation._estimate(_recording_dyadic_law(rounds), grid, n, 6, draw_start)
        assert [len(start) for start in starts] == [_BLOCK] * 3 + [17]
        plus = 0
        for start, lo, hi in zip(starts, first_round, first_round[1:] + [len(rounds)]):
            rows = _epoch_rows(start, grid.t_end, rounds[lo:hi])
            if target == "expected":
                plus = plus + expected_plus_counts(rows, grid.times())
            else:
                plus = plus + covariance_plus_counts(start, rows, grid.times())
        np.testing.assert_array_equal(mean.values, 1.0 - 2.0 * (n - plus) / n)


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
    cases = [
        # one full block (_BLOCK = 4096 paths) to t_end / mean = 1e4 draws
        # about 4e7 epochs: 320 MB if they were all held at once
        (estimate_expected_value, GridSpec.from_t_end(1e4, 1e3), _BLOCK, 16e6),
        # 16 blocks on 200 001 points: 26 MB of counts if every block's were
        # kept to the end; about 15 MB peak with one running total
        (estimate_expected_value, GridSpec.from_t_end(200.0, 1e-3), 16 * _BLOCK, 24e6),
        (estimate_covariance, GridSpec.from_t_end(200.0, 1e-3), 16 * _BLOCK, 24e6),
    ]
    for estimate, grid, n_paths, bound in cases:
        tracemalloc.start()
        try:
            mean, _ = estimate(exp1, grid, n_paths, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (estimate.__name__, grid.n, peak)
        assert abs(mean.values[-1]) < 0.2


@pytest.mark.parametrize("spec", ["gamma(shape=2,scale=2)", "compound(r=2,divisor=exp(rate=1))"])
def test_rounds_draw_little_past_the_horizon(spec):
    # a row needs its draws up to its first epoch past t_end; at least half
    # of a block's draws are needed, in at most three rounds
    dist, t_end = parse_distribution(spec), 4.0
    needed = drawn = n_rounds = 0
    for _, epochs in _rounds(dist, np.zeros(_BLOCK), t_end, make_rng(1, stream=(0,))):
        n_rounds += 1
        drawn += epochs.size
        needed += np.minimum(np.sum(epochs <= t_end, axis=1) + 1, epochs.shape[1]).sum()
    assert n_rounds <= 3 and needed >= 0.5 * drawn, (n_rounds, needed / drawn)


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
