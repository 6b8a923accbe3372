import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stoppred import engine
from stoppred.engine import (
    Instance,
    attach_uniform_times,
    googol_win_mc,
    run_bicriteria,
    run_sharding,
    simulate,
    simulate_coupled_sharding,
)
from stoppred.priors import E_INV, Uniform, lambda_pair, neg_lambda_log, power_root_cdf
from stoppred.thresholds import ThresholdFn, dynkin_threshold, gm_threshold, robustify

from conftest import random_step_threshold

UNIT = Uniform(0.0, 1.0)
ONES = ThresholdFn([1.0], [1.0])


def test_run_bicriteria_example():
    inst = Instance(np.array([0.9, 0.5]), np.array([0.5, 0.8]))
    assert run_bicriteria(inst, UNIT, dynkin_threshold(E_INV)) == 0


def test_run_bicriteria_threshold_one_never_accepts():
    rng = np.random.default_rng(3)
    for _ in range(50):
        inst = attach_uniform_times(rng.random(8), rng)
        assert run_bicriteria(inst, UNIT, ONES) is None


def test_run_bicriteria_mispredicted_support_rejects_all():
    # predicted support far above every realized value: cdf is 0 everywhere,
    # and the best-choice threshold stays positive on all of [0, 1]
    rng = np.random.default_rng(4)
    theta = gm_threshold(10, 50)
    wrong = Uniform(2.0, 3.0)
    for _ in range(200):
        inst = attach_uniform_times(rng.random(10), rng)
        assert run_bicriteria(inst, wrong, theta) is None


def test_run_bicriteria_needs_times():
    with pytest.raises(ValueError):
        run_bicriteria(Instance(np.array([1.0, 2.0])), UNIT, ONES)


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        Instance(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Instance(np.array([1.0, 2.0]), np.array([0.5]))


def test_no_acceptance_predicate_matches_prefix_maximum_rule():
    # acceptance happened before time t iff the prefix maximum for t cleared
    # its threshold at its own arrival time
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        values = rng.random(n)
        times = rng.random(n)
        inst = Instance(values, times)
        theta = random_step_threshold(rng)
        idx = run_bicriteria(inst, UNIT, theta)
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
        base = run_bicriteria(Instance(values, times), UNIT, theta)
        scaled = run_bicriteria(Instance(2.0 + 3.0 * values, times), Uniform(2.0, 5.0), theta)
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
    floor = pair.robustness
    for real, predicted, seed in [
        (UNIT, Uniform(2.0, 3.0), 31),
        (Uniform(1.0, 4.0), Uniform(0.0, 0.5), 32),
        (UNIT, UNIT, 33),
    ]:
        rep = simulate(real, predicted, theta, 8, 30_000, seed)
        assert rep.maxprob >= floor - 4.0 * rep.maxprob_se


def test_run_sharding_threshold_one_and_bad_k():
    rng = np.random.default_rng(6)
    assert run_sharding(rng.random(6), 3, UNIT, ONES, rng) is None
    with pytest.raises(ValueError):
        run_sharding(rng.random(6), 0, UNIT, ONES, rng)


def test_run_sharding_k1_matches_bicriteria_distribution():
    # with one shard per value the virtual times are plain sorted uniforms
    rng = np.random.default_rng(8)
    theta = dynkin_threshold(E_INV)
    n, trials = 6, 30_000
    wins_shard = 0
    for _ in range(trials):
        values = rng.random(n)
        idx = run_sharding(values, 1, UNIT, theta, rng)
        wins_shard += idx is not None and values[idx] == values.max()
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
    with pytest.raises(ValueError):
        googol_win_mc(np.array([1.0, 1.0]), UNIT, ONES, 10, 20)


def test_attach_uniform_times_sorted():
    rng = np.random.default_rng(22)
    inst = attach_uniform_times(np.array([3.0, 1.0, 2.0]), rng)
    assert np.all(np.diff(inst.arrival_times) > 0)
    assert inst.values.tolist() == [3.0, 1.0, 2.0]


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
    idx = run_bicriteria(Instance(values, times), predicted, theta)
    return (-1, 0.0) if idx is None else (idx, values[idx])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(timed_rows), st.sampled_from(PREDICTED), step_thresholds())
def test_scan_matches_literal_loop(rows, predicted, theta):
    values, times = rows
    pos, acc = engine.scan_first_accept(values, times, predicted, theta)
    for i in range(len(values)):
        assert (pos[i], acc[i]) == _literal_accepted(values[i], times[i], predicted, theta)


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
def test_run_sharding_matches_literal_loop(n, k, seed, theta):
    values = np.random.default_rng(seed).random(n)
    got = run_sharding(values, k, UNIT, theta, np.random.default_rng(seed + 1))
    rng = np.random.default_rng(seed + 1)
    t_sorted = np.sort(rng.random(n * k))
    s = t_sorted[np.arange(n) * k + rng.integers(0, k, size=n)]
    assert got == run_bicriteria(Instance(values, s), power_root_cdf(UNIT, k), theta)


@pytest.mark.parametrize(
    "call",
    [
        lambda: simulate(UNIT, UNIT, ONES, 0, 10, 1),
        lambda: engine.accepted_value_samples(UNIT, UNIT, ONES, 0, 10, 1),
        lambda: simulate_coupled_sharding(UNIT, UNIT, ONES, 0, 2, 10, 1),
        lambda: simulate_coupled_sharding(UNIT, UNIT, ONES, 5, 2, 0, 1),
        lambda: googol_win_mc([0.2, 0.7], UNIT, ONES, 0, 1),
    ],
)
def test_engine_rejects_empty_sizes(call):
    with pytest.raises(ValueError):
        call()
