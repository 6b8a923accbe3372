"""Semantics of the engine's batched scan and its running maximum on hand-built and generated rows."""

import numpy as np

from stoppred import engine
from stoppred.engine import scan_first_accept
from stoppred.priors import Prior, Uniform, lambda_pair
from stoppred.thresholds import ThresholdFn, gm_threshold, robustify

from reference import run_bicriteria

HALF = ThresholdFn([1.0], [0.5])


class TablePrior(Prior):
    """Stub prior whose cdf looks each value up in a table; need not be monotone."""

    def __init__(self, table):
        self.table = table

    def cdf(self, x):
        return np.array([self.table[v] for v in np.asarray(x).tolist()], dtype=float)


class CountingPrior(Prior):
    def __init__(self, base):
        self.base = base
        self.seen = 0

    def cdf(self, x):
        self.seen += np.size(x)
        return self.base.cdf(x)


class CountingThreshold:
    def __init__(self, base):
        self.base = base
        self.seen = 0

    def eval(self, t):
        self.seen += np.size(t)
        return self.base.eval(t)


def test_python_kernel_semantics():
    values = np.array([[0.5, 0.4, 0.9], [0.5, 0.4, 0.3], [-0.5, 0.2, 0.1]])
    times = np.tile([0.2, 0.5, 0.8], (3, 1))
    prior = TablePrior({0.5: 0.1, 0.4: 0.9, 0.9: 0.9, 0.3: 0.9, -0.5: 0.9, 0.2: 0.9, 0.1: 0.9})
    pos, acc, _ = scan_first_accept(values, times, prior, HALF)
    # row 0: first value fails the quantile test, second is not best-so-far,
    # third passes both; row 1: nothing passes; row 2: the scan starts from
    # a maximum of 0, so a negative value is never best-so-far
    assert pos.tolist() == [2, -1, 1]
    assert acc.tolist() == [0.9, 0.0, 0.2]


def test_tie_counts_as_best_so_far():
    values = np.array([[0.5, 0.5]])
    times = np.array([[0.3, 0.7]])
    # level 1 at the first arrival rejects it; the tied second value is
    # still best-so-far and clears the level 0.5 after t = 0.5
    theta = ThresholdFn([0.5, 1.0], [1.0, 0.5])
    pos, acc, _ = scan_first_accept(values, times, TablePrior({0.5: 1.0}), theta)
    assert pos.tolist() == [1]


def test_levels_are_evaluated_at_best_so_far_entries_only():
    rng = np.random.default_rng(7)
    values = rng.random((64, 50))
    values[:, 10] = values[:, 9]  # ties count as best-so-far too
    times = np.sort(rng.random((64, 50)), axis=1)
    prior, theta = CountingPrior(Uniform(0.0, 1.0)), CountingThreshold(ThresholdFn([1.0], [1.0]))
    scan_first_accept(values, times, prior, theta)
    best = sum(1 for row in values for j in range(len(row)) if row[j] >= max(row[:j], default=0.0))
    assert best < values.size // 5
    assert prior.seen == best
    assert theta.seen == best


def test_running_max_matches_accumulate_on_both_branches():
    rng = np.random.default_rng(11)
    for (rows, n), columnwise in [((4096, 10), True), ((1024, 40), True), ((1, 1000), False), ((81, 5000), False)]:
        assert (rows >= engine._COLUMNWISE_MIN_ROWS and n <= engine._COLUMNWISE_MAX_COLS) == columnwise
        values = rng.random((rows, n))
        values[:, 1::7] = values[:, :-1:7]  # ties
        values[::5, 2::3] *= -1.0
        values[::9, -1] = np.nan
        assert np.array_equal(engine._running_max(values), np.maximum.accumulate(values, axis=1), equal_nan=True)


def test_running_max_on_simulated_rows(monkeypatch):
    # the 3 x 15 full rows of a 3-trial simulation, and a full 4096 x 15 batch
    seen = []

    def running_max(values):
        seen.append(values.shape)
        out = running_max_of(values)
        assert np.array_equal(out, np.maximum.accumulate(values, axis=1))
        return out

    running_max_of = engine._running_max
    monkeypatch.setattr(engine, "_running_max", running_max)
    engine.simulate(Uniform(0.0, 1.0), Uniform(0.0, 1.0), HALF, n=15, trials=3, seed=12)
    engine.simulate(Uniform(0.0, 1.0), Uniform(0.0, 1.0), HALF, n=15, trials=4096, seed=12)
    assert seen == [(3, 15), (4096, 15)]


def _literal(values, times, predicted, theta):
    pos = []
    for row, t in zip(values, times):
        idx = run_bicriteria(row, t, predicted, theta)
        pos.append(-1 if idx is None else idx)
    return np.array(pos)


def test_scan_matches_literal_loop_on_wide_and_tall_batches():
    rng = np.random.default_rng(13)
    theta = robustify(gm_threshold(40, 300), lambda_pair(0.3))
    prior = Uniform(0.0, 1.0)
    for shape in [(1, 1000), (3, 400), (1024, 12)]:
        values = rng.random(shape)
        times = np.sort(rng.random(shape), axis=1)
        pos, acc, maximum = scan_first_accept(values, times, prior, theta)
        assert pos.tolist() == _literal(values, times, prior, theta).tolist()
        hit = pos >= 0
        assert np.array_equal(acc[hit], values[hit, pos[hit]]) and not acc[~hit].any()
        assert np.array_equal(maximum, values.max(axis=1))


def test_scan_leaves_values_unchanged():
    rng = np.random.default_rng(14)
    for shape in [(4096, 10), (2, 300)]:
        values = rng.random(shape) - 0.2  # negatives that the scan's 0 start clips
        times = np.sort(rng.random(shape), axis=1)
        before, times_before = values.copy(), times.copy()
        scan_first_accept(values, times, Uniform(0.0, 1.0), HALF)
        assert np.array_equal(values, before) and np.array_equal(times, times_before)
