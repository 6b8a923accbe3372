import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from stoppred import engine
from stoppred.engine import googol_win_mc, simulate, simulate_coupled_sharding
from stoppred.analytics import win_probability
from stoppred.priors import (
    E_INV,
    DiscretePrior,
    Exponential,
    Uniform,
    harmonic_prior,
    lambda_pair,
    power_root_cdf,
)
from stoppred.thresholds import ThresholdFn, dynkin_threshold, gm_threshold, robustify, single_threshold

from conftest import random_step_threshold
from reference import neg_lambda_log, padded, row_major, run_bicriteria

UNIT = Uniform(0.0, 1.0)
ONES = ThresholdFn([1.0], [1.0])


def test_run_bicriteria_example():
    assert run_bicriteria(np.array([0.9, 0.5]), np.array([0.5, 0.8]), UNIT, dynkin_threshold(E_INV)) == 0


def test_run_bicriteria_threshold_one_never_accepts():
    rng = np.random.default_rng(3)
    for _ in range(50):
        values = rng.random(8)
        assert run_bicriteria(values, np.sort(rng.random(8)), UNIT, ONES) is None


def test_run_bicriteria_mispredicted_support_rejects_all():
    # predicted support far above every realized value: cdf is 0 everywhere,
    # and the best-choice threshold stays positive on all of [0, 1]
    rng = np.random.default_rng(4)
    theta = gm_threshold(10, 50)
    wrong = Uniform(2.0, 3.0)
    for _ in range(200):
        values = rng.random(10)
        assert run_bicriteria(values, np.sort(rng.random(10)), wrong, theta) is None


def test_no_acceptance_predicate_matches_prefix_maximum_rule():
    # acceptance happened before time t iff the prefix maximum for t cleared
    # its threshold at its own arrival time
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        values = rng.random(n)
        times = rng.random(n)
        theta = random_step_threshold(rng)
        idx = run_bicriteria(values, times, UNIT, theta)
        t_acc = math.inf if idx is None else times[idx]
        probes = rng.random(100)
        before = times[None, :] < probes[:, None]
        any_before = before.any(axis=1)
        masked = np.where(before, values[None, :], -1.0)
        arg = masked.argmax(axis=1)
        y = values[arg]
        s = times[arg]
        cleared = np.asarray(UNIT.cdf(y)) <= theta.eval(s)
        predicted_no_accept = ~any_before | cleared
        actual_no_accept = t_acc >= probes
        assert np.array_equal(predicted_no_accept, actual_no_accept)


def test_scale_invariance_of_decisions():
    rng = np.random.default_rng(21)
    theta = robustify(gm_threshold(6, 40), lambda_pair(0.2))
    for _ in range(500):
        values = rng.random(6)
        times = rng.random(6)
        base = run_bicriteria(values, times, UNIT, theta)
        scaled = run_bicriteria(2.0 + 3.0 * values, times, Uniform(2.0, 5.0), theta)
        assert base == scaled


def test_simulate_dynkin_calibration_quick():
    rep = simulate(UNIT, UNIT, dynkin_threshold(0.6), 200, 30_000, 5)
    assert abs(rep.maxprob - neg_lambda_log(0.6)) <= 4.0 * rep.maxprob_se


def test_simulate_trials_one_degenerate():
    rep = simulate(UNIT, UNIT, dynkin_threshold(0.5), 5, 1, 9)
    assert rep.maxprob in (0.0, 1.0)
    assert rep.maxprob_se == 0.0


def test_simulate_deterministic():
    a = simulate(UNIT, UNIT, dynkin_threshold(0.4), 20, 5_000, 123)
    b = simulate(UNIT, UNIT, dynkin_threshold(0.4), 20, 5_000, 123)
    assert a == b


def test_simulate_report_invariants():
    rep = simulate(UNIT, Uniform(0.0, 2.0), dynkin_threshold(0.3), 10, 20_000, 77)
    assert 0.0 <= rep.maxprob <= rep.acceptance_rate <= 1.0
    assert rep.maxprob_se >= 0.0 and rep.maxexp_se >= 0.0


def test_robustness_floor_under_misprediction():
    pair = lambda_pair(0.25)
    theta = robustify(gm_threshold(8, 60), pair)
    floor = pair.beta  # -lambda ln(lambda) at either root
    for real, predicted, seed in [
        (UNIT, Uniform(2.0, 3.0), 31),
        (Uniform(1.0, 4.0), Uniform(0.0, 0.5), 32),
        (UNIT, UNIT, 33),
    ]:
        rep = simulate(real, predicted, theta, 8, 30_000, seed)
        assert rep.maxprob >= floor - 4.0 * rep.maxprob_se


def test_coupled_sharding_threshold_one_and_bad_k():
    rng = np.random.default_rng(6)
    shard_vals, t_sorted = engine._full_rows(rng, 5, 6 * 3, UNIT)
    sharding, base = engine._coupled_passes(shard_vals, t_sorted, 3, UNIT, ONES)
    assert not sharding.any() and not base.any()
    with pytest.raises(ValueError):
        simulate_coupled_sharding(UNIT, UNIT, ONES, 6, 0, 10, 6)


def test_coupled_sharding_k1_matches_bicriteria_distribution():
    # with one shard per value the sharding pass sees the plain time-ordered
    # row, so its win rate is simulate's, on an independent stream
    theta = dynkin_threshold(E_INV)
    n, trials = 6, 30_000
    values, times = engine._full_rows(np.random.default_rng(8), trials, n, UNIT)
    accepted, _ = engine._coupled_passes(values, times, 1, UNIT, theta)
    wins_shard = int(np.count_nonzero((accepted > 0.0) & (accepted == values.max(axis=1))))
    rep = simulate(UNIT, UNIT, theta, n, trials, 14)
    p1 = wins_shard / trials
    se = math.sqrt(p1 * (1 - p1) / trials + rep.maxprob_se**2)
    assert abs(p1 - rep.maxprob) <= 4.0 * se


def test_coupled_sharding_no_violations():
    theta = gm_threshold(5, 40)
    assert simulate_coupled_sharding(UNIT, UNIT, theta, 5, 3, 2_000, 15) == 0
    assert simulate_coupled_sharding(UNIT, Uniform(0.5, 2.0), theta, 4, 2, 2_000, 16) == 0


def test_coupled_sharding_k1_trivial():
    theta = dynkin_threshold(0.4)
    assert simulate_coupled_sharding(UNIT, UNIT, theta, 6, 1, 1_000, 17) == 0


def test_googol_win_mc_single_value():
    lam = 0.35
    p, se = googol_win_mc(np.array([0.5]), UNIT, dynkin_threshold(lam), 30_000, 18)
    assert abs(p - (1.0 - lam)) <= 4.0 * max(se, 1e-9)


def test_googol_win_mc_threshold_one():
    p, se = googol_win_mc(np.array([1.0, 2.0, 3.0]), Uniform(0, 4), ONES, 2_000, 19)
    assert p == 0.0


def test_googol_win_mc_rejects_ties():
    # two NaNs count as one value twice, as np.unique counts them
    for values in ([1.0, 1.0], [0.5, 0.0, -0.0], [math.nan, 1.0, math.nan]):
        with pytest.raises(ValueError, match="values must be distinct"):
            googol_win_mc(np.array(values), UNIT, ONES, 10, 20)


# Generated inputs for the scan: a few value levels (ties, zeros) mixed with
# arbitrary floats, thresholds whose levels include 0 (accept any
# best-so-far value) and 1 (accept nothing), and predicted priors whose
# support misses the values (cdf pinned at 0 or 1).
LEVELS = [0.0, 0.25, 0.5, 0.75, 1.0]
PREDICTED = [UNIT, Uniform(0.5, 1.5), Uniform(2.0, 3.0), Uniform(-1.0, 0.5)]


@st.composite
def step_thresholds(draw):
    pieces = draw(st.integers(1, 4))
    inner = draw(st.lists(st.floats(0.05, 0.95), min_size=pieces - 1, max_size=pieces - 1, unique=True))
    levels = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]), min_size=pieces, max_size=pieces))
    return ThresholdFn(sorted(inner) + [1.0], sorted(levels, reverse=True))


@st.composite
def timed_rows(draw, length):
    """Rows of non-negative values with strictly increasing arrival times."""
    rows = draw(st.integers(1, 5))
    value = st.one_of(st.sampled_from(LEVELS), st.floats(0.0, 1.0))
    values = [draw(st.lists(value, min_size=length, max_size=length)) for _ in range(rows)]
    times = [
        sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=length, max_size=length, unique=True)))
        for _ in range(rows)
    ]
    return np.array(values), np.array(times)


def _literal_accepted(values, times, predicted, theta):
    idx = run_bicriteria(values, times, predicted, theta)
    return (-1, 0.0) if idx is None else (idx, values[idx])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(timed_rows), st.sampled_from(PREDICTED), step_thresholds())
def test_scan_matches_literal_loop(rows, predicted, theta):
    values, times = rows
    pos, acc, _ = engine.scan_first_accept(values, times, predicted, theta)
    for i in range(len(values)):
        assert (pos[i], acc[i]) == _literal_accepted(values[i], times[i], predicted, theta)


@st.composite
def record_lists(draw):
    """Record lists of 1 to 6 rows, each a non-decreasing run of 1 to 5 values (ties, zeros) at increasing times."""
    x, t, row, col, maximum = [], [], [], [], []
    value = st.one_of(st.sampled_from(LEVELS), st.floats(0.0, 1.0))
    for i in range(draw(st.integers(1, 6))):
        count = draw(st.integers(1, 5))
        x += sorted(draw(st.lists(value, min_size=count, max_size=count)))
        t += sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count, unique=True)))
        row += [i] * count
        col += range(count)
        maximum.append(x[-1])
    return engine._Records(*map(np.array, (x, t, row, col, maximum)))


@settings(max_examples=300, deadline=None)
@given(record_lists(), st.sampled_from(PREDICTED), step_thresholds())
def test_record_list_acceptance_matches_the_padded_scan(records, predicted, theta):
    got = engine._accept(records, predicted, theta)
    want = engine.scan_first_accept(*padded(records), predicted, theta)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize(
    "real", [UNIT, Exponential(1.0), DiscretePrior(np.full(64, 1 / 64))], ids=["uniform", "exp", "tied"]
)
def test_record_rows_are_row_major_record_lists(real):
    # each row's records follow each other with columns 0, 1, ..., and the
    # acceptance test gives what the scan gives on the padded rows
    theta = robustify(gm_threshold(200, 300), lambda_pair(1.0 / 3.0))
    records = engine._record_rows(np.random.default_rng(50), 4096, 200, real)
    start = np.flatnonzero(records.col == 0)
    assert np.array_equal(records.row[start], np.arange(4096))
    assert np.array_equal(records.col, np.arange(len(records.col)) - start[records.row])
    values, times = padded(records)
    assert np.array_equal(records.maximum, values.max(axis=1))
    got = engine._accept(records, UNIT, theta)
    want = engine.scan_first_accept(values, times, UNIT, theta)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@st.composite
def chain_steps(draw):
    """(b, steps): a chain's per-step (rows, a, log(1 - t)) columns over nested live sets.

    Every row is live in step 0; each later step keeps a subset of the
    rows live before it, so some rows are live for one step only.
    """
    b = draw(st.integers(1, 6))
    rows, steps = np.arange(b), []
    while len(rows):
        a = draw(st.lists(st.floats(0.0, 1e3), min_size=len(rows), max_size=len(rows)))
        log_rest = draw(st.lists(st.floats(-50.0, 0.0), min_size=len(rows), max_size=len(rows)))
        steps.append((rows, np.array(a), np.array(log_rest)))
        rows = rows[np.array(draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))), dtype=bool)]
    return b, steps


@settings(max_examples=300, deadline=None)
@given(chain_steps())
def test_row_major_writes_the_concatenated_order_in_place(case):
    b, steps = case
    want = row_major(b, steps)
    got = engine._row_major(b, list(steps))
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


@pytest.mark.parametrize(
    "real, n",
    [(UNIT, 200), (Exponential(1.0), 10**16), (DiscretePrior(np.full(64, 1 / 64)), 1000)],
    ids=["rank-200", "rank-1e16", "tied-1000"],
)
def test_row_maximum_is_the_last_record(real, n):
    # records never fall along a row, so the last one is the maximum that
    # np.maximum.reduceat takes over the row; the 64-atom chain has ties
    records = engine._record_rows(np.random.default_rng(51), 4096, n, real)
    start = np.flatnonzero(records.col == 0)
    assert np.array_equal(records.maximum, np.maximum.reduceat(records.x, start))


@pytest.mark.parametrize("make", [lambda c: Uniform(0.0, c), lambda c: Exponential(1.0 / c)], ids=["uniform", "exp"])
@pytest.mark.parametrize("exponent", [1000, -1000])
def test_report_is_scale_free(make, exponent):
    # values 2**exponent times the unit ones give the same decisions and,
    # since the moments are taken near unit scale, the same report; taken
    # as they are, the squares overflow or underflow and maxexp_se is nan
    theta = dynkin_threshold(0.3)
    scaled = 2.0**exponent
    unit = simulate(make(1.0), make(1.0), theta, 30, 10_000, 52)
    assert simulate(make(scaled), make(scaled), theta, 30, 10_000, 52) == unit
    assert math.isfinite(unit.maxexp_se) and unit.maxexp_se > 0.0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, 4).flatmap(lambda n: timed_rows(n * k)))),
    st.sampled_from(PREDICTED),
    step_thresholds(),
)
def test_coupled_passes_match_literal_loops(case, predicted, theta):
    k, (shard_vals, t_sorted) = case
    shard_pred = power_root_cdf(predicted, k)
    sharding, base = engine._coupled_passes(shard_vals, t_sorted, k, shard_pred, theta)
    for i in range(len(shard_vals)):
        x, s = [], []
        for j in range(0, shard_vals.shape[1], k):
            a = j + int(np.argmax(shard_vals[i, j : j + k]))
            x.append(shard_vals[i, a])
            s.append(t_sorted[i, a])
        assert sharding[i] == _literal_accepted(np.array(x), np.array(s), shard_pred, theta)[1]
        assert base[i] == _literal_accepted(shard_vals[i], t_sorted[i], shard_pred, theta)[1]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**32 - 1), step_thresholds())
def test_coupled_passes_single_row_match_literal_loop(n, k, seed, theta):
    # one row of n * k shard values: the sharding pass scans its n block
    # maxima at their argmax times
    rng = np.random.default_rng(seed)
    shard_vals, t_sorted = rng.random((1, n * k)), np.sort(rng.random((1, n * k)), axis=1)
    shard_pred = power_root_cdf(UNIT, k)
    got = engine._coupled_passes(shard_vals, t_sorted, k, shard_pred, theta)[0][0]
    arg = np.arange(0, n * k, k) + shard_vals[0].reshape(n, k).argmax(axis=1)
    idx = run_bicriteria(shard_vals[0, arg], t_sorted[0, arg], shard_pred, theta)
    assert got == (0.0 if idx is None else shard_vals[0, arg[idx]])


@pytest.mark.parametrize(
    "call",
    [
        lambda: simulate(UNIT, UNIT, ONES, 0, 10, 1),
        lambda: engine.accepted_value_samples(UNIT, UNIT, ONES, 0, 10, 1),
        lambda: simulate_coupled_sharding(UNIT, UNIT, ONES, 0, 2, 10, 1),
        lambda: simulate_coupled_sharding(UNIT, UNIT, ONES, 5, 2, 0, 1),
        lambda: googol_win_mc([0.2, 0.7], UNIT, ONES, 0, 1),
        # sizes that are not integers
        lambda: simulate(UNIT, UNIT, ONES, 40.5, 10, 0),
        lambda: simulate(UNIT, UNIT, ONES, 2.5, 10, 0),
        lambda: simulate(UNIT, UNIT, ONES, 5, 2.5, 0),
        lambda: simulate(UNIT, UNIT, ONES, math.nan, 10, 0),
        lambda: googol_win_mc([0.2, 0.7], UNIT, ONES, 2.5, 1),
    ],
)
def test_engine_rejects_empty_sizes(call):
    with pytest.raises(ValueError):
        call()


def test_engine_rejects_negative_values():
    # the scan starts its running maximum at 0, so a negative value would
    # never count as best-so-far and the estimate would read 0
    with pytest.raises(ValueError, match="non-negative"):
        googol_win_mc([-1.0, -2.0, -0.5], Uniform(-3.0, 0.0), single_threshold(1), 1000, 1)
    with pytest.raises(ValueError, match="non-negative"):
        googol_win_mc([0.5, -0.5], UNIT, ONES, 10, 1)


# Record rows against full rows.  Each example runs both batch functions
# from the same seed (their streams differ, so the two estimates are
# independent) and asks every estimate to agree within 4 joint standard
# errors.  The examples are derandomized, so the test is deterministic.
TIED = DiscretePrior([0.1, 0.2, 0.3, 0.4])
REAL_PREDICTED = [
    (UNIT, UNIT),
    (UNIT, Uniform(2.0, 3.0)),  # predicted support above the values: cdf 0
    (UNIT, Uniform(-1.0, 0.5)),  # and partly below them: cdf 1
    (Exponential(1.0), Uniform(0.0, 3.0)),
    (TIED, TIED),
    (DiscretePrior([0.7, 0.2, 0.1]), Uniform(0.0, 4.0)),
    (DiscretePrior([0.5, 0.0, 0.5]), DiscretePrior([0.2, 0.3, 0.5])),
    (DiscretePrior([1.0]), UNIT),  # every value ties
    (TIED, Uniform(5.0, 6.0)),
]
MATRIX_TRIALS = 3 * 4096


def _batch_report(draw, real, predicted, theta, n, trials, seed):
    return engine._sim_report(engine._scan_rows(draw, real, predicted, theta, n, trials, seed), trials)


def _agree(a, b, se_a, se_b):
    return abs(a - b) <= 4.0 * math.sqrt(se_a**2 + se_b**2)


@pytest.mark.parametrize("real, predicted", REAL_PREDICTED)
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 40), step_thresholds(), st.integers(0, 2**32 - 1))
def test_record_rows_match_full_rows(real, predicted, n, theta, seed):
    full, rec = (
        _batch_report(draw, real, predicted, theta, n, MATRIX_TRIALS, seed)
        for draw in (engine._full_rows, engine._record_rows)
    )
    t = MATRIX_TRIALS

    def rate_se(r):
        return math.sqrt(r.acceptance_rate * (1.0 - r.acceptance_rate) / t)

    assert _agree(full.maxprob, rec.maxprob, full.maxprob_se, rec.maxprob_se)
    assert _agree(full.maxexp_ratio, rec.maxexp_ratio, full.maxexp_se, rec.maxexp_se)
    assert _agree(full.acceptance_rate, rec.acceptance_rate, rate_se(full), rate_se(rec))


@pytest.mark.parametrize("n, seed", [(10, 41), (200, 42), (10_000, 43)])
def test_record_rows_match_win_probability(n, seed):
    theta = robustify(gm_threshold(n, 300), lambda_pair(1.0 / 3.0))
    rep = _batch_report(engine._record_rows, UNIT, UNIT, theta, n, 100_000, seed)
    assert abs(rep.maxprob - win_probability(theta, n)) <= 4.0 * rep.maxprob_se


def test_simulate_picks_rows_by_n():
    # below the cutoff the estimators keep the full-row stream, from it on
    # they draw record rows
    theta = dynkin_threshold(E_INV)
    for n, draw in [
        (engine.RECORD_ROWS_MIN_N - 1, engine._full_rows),
        (engine.RECORD_ROWS_MIN_N, engine._record_rows),
    ]:
        assert simulate(UNIT, UNIT, theta, n, 5000, 44) == _batch_report(draw, UNIT, UNIT, theta, n, 5000, 44)


class _SpyExponential(Exponential):
    """Exponential prior that keeps the largest level passed to quantile."""

    top = 0.0

    def quantile(self, q):
        self.top = max(self.top, float(np.max(q)))
        return super().quantile(q)


def test_record_rows_keep_levels_below_one():
    # at n = 1e16 the record levels come within an ulp of 1, where
    # l + (1 - l) r rounds to 1 and Exponential's quantile would be inf
    real = _SpyExponential(1.0)
    records = engine._record_rows(np.random.default_rng(45), 4096, 10**16, real)
    pos, _, _ = engine._accept(records, UNIT, ONES)
    assert real.top < 1.0
    assert np.all(np.isfinite(records.x)) and np.all(pos == -1)


# Laws of the rank-space chain of a continuous prior that a pinned stream
# cannot show, over n i.i.d. Uniform(0, 1) values: H_n records per row, a
# maximum of mean n / (n + 1) and a first arrival at time Beta(1, n).
@pytest.mark.parametrize("n, seed", [(32, 46), (200, 47), (10_000, 48)])
def test_record_rows_follow_the_record_laws(n, seed):
    records = engine._record_rows(np.random.default_rng(seed), 20_000, n, UNIT)
    count = np.bincount(records.row, minlength=20_000)
    harmonic = sum(1.0 / k for k in range(1, n + 1))
    assert abs(count.mean() - harmonic) <= 4.0 * count.std() / math.sqrt(len(count))
    top = records.maximum
    assert abs(top.mean() - n / (n + 1)) <= 4.0 * top.std() / math.sqrt(len(top))
    assert stats.kstest(records.t[records.col == 0], "beta", args=(1, n)).pvalue > 1e-3


class _SpyGenerator:
    """Random generator that keeps the shapes of its gamma draws."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.shapes = []

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def standard_gamma(self, shape):
        self.shapes.append(shape)
        return self.rng.standard_gamma(shape)


def test_rank_chain_steps_down_at_huge_n():
    # each gamma shape is n - J0 or J - J', so all shapes >= 1 means every
    # step lowers J, and a row's shapes sum to n
    n, b = 2**62, 1024
    rng, real = _SpyGenerator(49), _SpyExponential(1.0)
    records = engine._record_rows(rng, b, n, real)
    shapes = np.concatenate(rng.shapes)
    assert shapes.min() >= 1
    assert sum(map(int, shapes)) == b * n
    assert real.top < 1.0 and np.all(np.isfinite(records.x))


def test_estimators_reject_n_beyond_int64():
    # both record chains count values in int64, so n = 2**63 is refused before
    # anything is drawn; the tied chain is asked past 2**64, where a missing
    # check fails in numpy rather than drawing about n ties per row
    for real, n in ((UNIT, 2**63), (harmonic_prior(8), 2**64)):
        for estimate in (simulate, engine.accepted_value_samples):
            with pytest.raises(ValueError, match="record chains count values in int64"):
                estimate(real, real, ONES, n, 10, 1)
    assert simulate(UNIT, UNIT, ONES, 2**63 - 1, 10, 1).trials == 10


@pytest.mark.parametrize(
    "call",
    [
        lambda real: simulate(real, UNIT, ONES, 40, 10, 1),
        lambda real: simulate(real, UNIT, ONES, 5, 10, 1),
        lambda real: engine.accepted_value_samples(real, UNIT, ONES, 40, 10, 1),
        lambda real: simulate_coupled_sharding(real, UNIT, ONES, 5, 2, 10, 1),
    ],
)
def test_estimators_reject_real_values_below_zero(call):
    with pytest.raises(ValueError, match="supported on"):
        call(Uniform(-1.0, 1.0))
