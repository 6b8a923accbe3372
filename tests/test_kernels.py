"""Semantics of the engine's batched scan on hand-built rows."""

import numpy as np

from stoppred.engine import scan_first_accept
from stoppred.priors import Prior, Uniform
from stoppred.thresholds import ThresholdFn

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
    pos, acc = scan_first_accept(values, times, prior, HALF)
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
    pos, acc = scan_first_accept(values, times, TablePrior({0.5: 1.0}), theta)
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
