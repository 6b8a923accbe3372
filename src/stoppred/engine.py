"""Exact per-instance execution of the stopping algorithms and the Monte
Carlo harness estimating their consistency and robustness.

The core acceptance rule: a value is accepted when it is best-so-far (at
least as large as everything seen before) and its cdf under the predicted
prior strictly exceeds the threshold level at its arrival time, where a
level of 0 accepts every best-so-far value outright.  The zero-phase
carve-out matters only when the predicted support lies above the realized
values, pinning the cdf to exactly 0; full-support priors never tie the
threshold.

Every estimator applies that rule through one acceptance test,
``_accept``, over a record list: a batch's best-so-far entries in row-major
order with each row's maximum, so the cdf and the threshold are evaluated
at those entries only (a row of n i.i.d. values holds H_n of them on
average, 5.9 of 200).  ``scan_first_accept`` finds the record list of a
batch of time-ordered full rows with one running maximum.  On a tall batch
of short rows (4096 rows of up to 48 columns) ``_running_max`` takes one
np.maximum per column, which beats np.maximum.accumulate's per-row
overhead, and ThresholdFn.eval looks the times up in a cell table that
gives searchsorted's answer without sorting; both are exact, so the results
do not depend on either.  The literal per-value loop that the scan is
tested against is ``run_bicriteria`` in tests/reference.py.

The batches come from draws that scan nothing.  Full rows (``_full_rows``)
hold all n values and their sorted arrival times.  The record draw
(``_record_rows``) returns the record list itself: only the weak records
(the values at least as large as everything before them), drawn directly
as a Markov chain, so a trial costs O(H_n) instead of O(n).  The chain
steps through the rows still live, and ``_row_major`` writes each step's
column straight into its place in the record list; records never fall
along a row, so each row's maximum is its last record.  For a
continuous prior the chain runs in rank space: each record's rank among the
values above the previous one is uniform, and its level comes from
exponential spacings of uniform order statistics.  A discrete prior keeps a
chain in quantile space with binomial counts, since a later value that ties
the running maximum is again a weak record and ranks cannot express ties.
``simulate`` and ``accepted_value_samples`` draw record lists from n =
RECORD_ROWS_MIN_N on and full rows below it, where full rows are faster,
through ``_scan_rows``.  ``simulate_coupled_sharding`` (which needs every
shard value) draws full rows; ``googol_win_mc`` (fixed values) draws
arrival orders only (``_shuffled_rows``).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .priors import _count, power_root_cdf

_BATCH = 4096  # fixed so that a seed pins the whole random stream
# simulate and accepted_value_samples draw record lists from this n on and
# full rows below it.  For 4e5 trials of a robustified gm threshold on
# Uniform(0, 1) (2-CPU host, draw and acceptance, best of 7, two runs, with
# the heap policy of cli._keep_heap_mapped, which spares full rows most of
# their page faults) record lists take 0.74-1.15x the time of full rows at
# n = 16, 1.06x at 20, 0.91-0.96x at 24 and 0.53-0.66x at 32; on a 64-atom
# DiscretePrior 1.04-1.06x at n = 8 and 0.78-0.82x at 12.  The break-even
# lies near 20-24; another cutoff would change the streams that
# tests/test_stream.py pins.
RECORD_ROWS_MIN_N = 20
# the record chains count values in int64 (rng.integers, rng.binomial)
_MAX_N = np.iinfo(np.int64).max
# _running_max takes one np.maximum per column for batches of at least this
# many rows and at most this many columns (see there)
_COLUMNWISE_MIN_ROWS = 1024
_COLUMNWISE_MAX_COLS = 48
_BELOW_ONE = np.nextafter(1.0, 0.0)

__all__ = [
    "RECORD_ROWS_MIN_N",
    "SimReport",
    "scan_first_accept",
    "simulate",
    "accepted_value_samples",
    "simulate_coupled_sharding",
    "googol_win_mc",
]


def _running_max(values):
    """np.maximum.accumulate(values, axis=1), by columns where that is faster.

    A batch of many short rows (4096 full rows below RECORD_ROWS_MIN_N)
    pays accumulate's per-row overhead, about 40 ns a row; one np.maximum
    per column costs about 0.7 us a column instead, so on 1024 to 4096 rows
    of 10 to 48 columns it takes 0.36-0.71x the time.  Its reads are
    strided, though: at 256 rows, or at 64 columns (where the column stride
    is a power of two), it is up to 1.4x slower, at 4096 x 1000 2.5x and at
    1 x 1000 150x.  The maximum is exact, so both give the same array.
    """
    rows, n = values.shape
    if rows < _COLUMNWISE_MIN_ROWS or n > _COLUMNWISE_MAX_COLS:
        return np.maximum.accumulate(values, axis=1)
    running = np.empty_like(values)
    running[:, 0] = values[:, 0]
    for j in range(1, n):
        np.maximum(running[:, j - 1], values[:, j], out=running[:, j])
    return running


# A record list: a batch's records in row-major order (value x, arrival time
# t, row, and column within the row, which counts a chain's records) and each
# row's maximum; every row holds at least one record.
_Records = namedtuple("_Records", "x t row col maximum")


def _accept(records, predicted, theta):
    """(pos, accepted_value, maximum) per row of a record list, as scan_first_accept returns them.

    pos is the accepted record's col, -1 where none: a position among the n
    values in full rows, but an index in the row's chain for a drawn record
    list.  The callers only test pos >= 0.
    """
    x, t, row, col, maximum = records
    level = theta.eval(t)
    ok = np.flatnonzero((predicted.cdf(x) > level) | (level == 0.0))
    row_ok = row[ok]
    # records run row by row, so a row's first passing record is where the
    # row index changes; each row is then written once
    first = np.ones(len(ok), dtype=bool)
    np.not_equal(row_ok[1:], row_ok[:-1], out=first[1:])
    ok, row_ok = ok[first], row_ok[first]
    pos = np.full(len(maximum), -1, dtype=np.int64)
    acc = np.zeros(len(maximum))
    pos[row_ok] = col[ok]
    acc[row_ok] = x[ok]
    return pos, acc, maximum


def scan_first_accept(values, times, predicted, theta):
    """First accepted position per row of a time-ordered batch.

    Position j of row i is accepted when values[i, j] is greater than or
    equal to every earlier value in the row (running-max criterion) and its
    level clears the threshold: predicted.cdf(values[i, j]) >
    theta.eval(times[i, j]), or the threshold is 0 (the zero phase is
    prior-free; under a full-support prior the two readings coincide, but a
    mispredicted support can pin the cdf to exactly 0).  The best-so-far
    entries, about H_n of a row of n i.i.d. values, form the record list
    that _accept tests.  Returns (pos, accepted_value, maximum) per row,
    with pos = -1 and value 0.0 for rows that accept nothing and maximum the
    row's largest value.
    """
    n = values.shape[1]
    # a value is at least its running maximum through itself exactly when it
    # is at least every earlier value; the scan starts from a maximum of 0
    running = _running_max(values)
    maximum = running[:, -1].copy()
    flat = np.flatnonzero(values >= np.maximum(running, 0.0, out=running))
    del running  # a rows x n array, not needed for the per-entry work
    row = flat // n
    records = _Records(values.reshape(-1)[flat], times.reshape(-1)[flat], row, flat - row * n, maximum)
    return _accept(records, predicted, theta)


@dataclass(frozen=True)
class SimReport:
    """Monte Carlo estimates with standard errors."""

    trials: int
    maxprob: float
    maxprob_se: float
    maxexp_ratio: float
    maxexp_se: float
    acceptance_rate: float

    def __str__(self):
        return (
            f"trials={self.trials} maxprob={self.maxprob:.6f}+-{self.maxprob_se:.6f} "
            f"maxexp_ratio={self.maxexp_ratio:.6f}+-{self.maxexp_se:.6f} "
            f"acceptance_rate={self.acceptance_rate:.6f}"
        )


def _batches(total, size=_BATCH):
    done = 0
    while done < total:
        b = min(size, total - done)
        yield b
        done += b


def _full_rows(rng, b, n, real):
    """b full rows of n values each, in time order: (values, times)."""
    # values are i.i.d. and independent of the arrival order, so sorting the
    # times alone puts every row in time order
    vals = real.quantile(rng.random((b, n)))
    times = rng.random((b, n))
    times.sort(axis=1)
    return vals, times


def _row_major(b, steps):
    """A chain's per-step (rows, a, log(1 - t)) columns as (a, t, row, col, last) in row-major order.

    The live sets are nested, so a row is live in steps 0, ..., count - 1:
    the counts come from the live sets alone, and a row's record from step k
    goes to start[row] + k.  Each step's columns are written straight into
    place and then dropped from steps, which ends empty, so the batch is
    never held twice.  last[row] is the place of the row's last record.
    """
    count = np.empty(b, dtype=np.int64)  # every row is live in step 0
    for k, (rows, _, _) in enumerate(steps):
        count[rows] = k + 1
    end = np.cumsum(count)
    start = end - count
    a, t = np.empty(end[-1]), np.empty(end[-1])
    col = np.empty(end[-1], dtype=np.int64)
    while steps:
        k = len(steps) - 1
        rows, a_k, log_rest = steps.pop()
        dest = start[rows]
        dest += k
        a[dest] = a_k
        t[dest] = log_rest
        col[dest] = k
    np.negative(np.expm1(t, out=t), out=t)
    return a, t, np.repeat(np.arange(b), count), col, end - 1


def _record_rows(rng, b, n, real):
    """The record list of b rows: the weak records of n values, drawn as a chain.

    Only a best-so-far value can be accepted, so a row needs only its weak
    records, about H_n of its n values.  For a continuous prior the chain
    runs in rank space.  A record with J of the n values above it is
    followed by the first of those J to arrive: J' = floor(J U) of them lie
    above it, since its rank among the J is uniform, and they arrive i.i.d.
    uniform on (t, 1) after it, so t' = t + (1 - t) Beta(1, J).  The first
    arrival starts the chain with J ~ U{0, ..., n - 1} and t ~ Beta(1, n),
    and J = 0 ends it at the row maximum.  The level of the value with J
    above it is the (n - J)-th of n uniform order statistics, S_(n-J) /
    S_(n+1) for the partial sums S of n + 1 standard exponential spacings;
    the chain carries S, each step adds Gamma(J - J') of spacings, and the
    levels are read once the row's S_(n+1) is drawn.  A step costs no
    binomial draw, only two uniforms and a gamma.

    A discrete prior keeps the chain of _tied_record_rows: a later value that
    ties the running maximum is again a weak record, and ranks among
    distinct values cannot express that.  Returns the record list, written
    in place from the chain's steps by _row_major; the levels never fall
    along a row and quantile is monotone, so each row's maximum is its last
    record.
    """
    if real.kind != "continuous":
        return _tied_record_rows(rng, b, n, real)
    rows = np.arange(b)
    # Beta(1, m) is the first of m uniforms: 1 - t = V ** (1/m) with V
    # uniform on (0, 1]; the time is carried as log(1 - t)
    log_rest = np.log1p(-rng.random(b)) / n
    above = rng.integers(0, n, size=b)
    spacing_sum = rng.standard_gamma(n - above)
    steps = []  # (rows, S, log(1 - t)) per step
    while True:
        steps.append((rows, spacing_sum, log_rest))
        live = np.flatnonzero(above)
        if len(live) == 0:
            break
        rows, log_rest, above = rows[live], log_rest[live], above[live]
        log_rest = log_rest + np.log1p(-rng.random(len(rows))) / above
        # J U can round up to J (at n = 1e16 J itself is rounded), and a step
        # must lower J
        below = np.minimum((above * rng.random(len(rows))).astype(np.int64), above - 1)
        spacing_sum = spacing_sum[live] + rng.standard_gamma(above - below)
        above = below
    spacing_sum, t, row, col, last = _row_major(b, steps)
    # a row's last record is its maximum, with S_n spacings below it
    total = spacing_sum[last] + rng.standard_exponential(b)
    # a level within an ulp of 1 rounds to 1, where an unbounded quantile is inf
    x = real.quantile(np.minimum(spacing_sum / total[row], _BELOW_ONE))
    return _Records(x, t, row, col, x[last])


def _tied_record_rows(rng, b, n, real):
    """The record list of b rows of a discrete prior, drawn as a chain in quantile space.

    After a record at time t with left level l = F_real(x-), the cdf below x
    (so that a tie with x is again a record), the J later values at or above
    x arrive i.i.d. uniform on (t, 1) with levels uniform on (l, 1).  The
    chain draws

        t' = t + (1 - t) Beta(1, J),  u' ~ U(l, 1),
        J' ~ Bin(J - 1, (1 - l') / (1 - l)),

    from t ~ Beta(1, n), u ~ U(0, 1), J ~ Bin(n - 1, 1 - l), and stops at
    J = 0.  Each record is at least the one before it, so the last record is
    the row maximum.
    """
    rows = np.arange(b)
    log_rest = np.log1p(-rng.random(b)) / n
    x = real.quantile(rng.random(b))
    level = real.cdf_left(x)
    later = rng.binomial(n - 1, 1.0 - level)
    steps = []  # (rows, x, log(1 - t)) per step
    while True:
        steps.append((rows, x, log_rest))
        live = np.flatnonzero(later)
        if len(live) == 0:
            break
        rows, log_rest, level, later = rows[live], log_rest[live], level[live], later[live]
        log_rest = log_rest + np.log1p(-rng.random(len(rows))) / later
        # u' ~ U(l, 1), kept off l, whose quantile is the point below x, and
        # off 1, where an unbounded quantile is inf
        u = level + (1.0 - level) * rng.random(len(rows))
        x = real.quantile(np.clip(u, np.nextafter(level, 1.0), _BELOW_ONE))
        above = real.cdf_left(x)
        later = rng.binomial(later - 1, (1.0 - above) / (1.0 - level))
        level = above
    x, t, row, col, last = _row_major(b, steps)
    return _Records(x, t, row, col, x[last])


def _shuffled_rows(rng, b, n, values):
    """b rows of the n fixed values, each in a uniformly random arrival order: (values, times)."""
    times = rng.random((b, n))
    order = np.argsort(times, axis=1)
    return values[order], np.take_along_axis(times, order, axis=1)


def _scan_rows(draw, source, predicted, theta, n, trials, seed):
    """_accept's (pos, accepted, maximum) per batch of draw(rng, b, n, source): a record list or full rows."""
    rng = np.random.default_rng(seed)
    for b in _batches(trials):
        rows = draw(rng, b, n, source)
        if isinstance(rows, _Records):
            result = _accept(rows, predicted, theta)
        else:
            result = scan_first_accept(*rows, predicted, theta)
        del rows  # not kept while the next batch is drawn
        yield result


def _check_support(real):
    # the scan starts its running maximum at 0, so a negative value (or NaN)
    # would never count as best-so-far and every estimate would read 0
    if not real.quantile(0.0) >= 0.0:
        raise ValueError("real prior must be supported on [0, inf)")


def _row_batches(real, predicted, theta, n, trials, seed):
    """(pos, accepted, maximum) per batch of simulated rows.

    Record rows from n = RECORD_ROWS_MIN_N on, full rows below it; either
    way a seed pins the whole random stream.  The callers check n and trials
    and pass them as ints; an n above _MAX_N is a ValueError.
    """
    if n > _MAX_N:
        raise ValueError(f"need n <= {_MAX_N}: the record chains count values in int64")
    _check_support(real)
    draw = _record_rows if n >= RECORD_ROWS_MIN_N else _full_rows
    return _scan_rows(draw, real, predicted, theta, n, trials, seed)


def accepted_value_samples(real, predicted, theta, n, trials, seed):
    """Per-trial (accepted value, maximum value); 0 marks no acceptance."""
    n, trials, seed = _count(n, "n"), _count(trials, "trials"), _count(seed, "seed", 0)
    _, accepted, maxima = map(np.concatenate, zip(*_row_batches(real, predicted, theta, n, trials, seed)))
    return accepted, maxima


def simulate(real, predicted, theta, n, trials, seed):
    """Estimate the win probability and the expectation ratio jointly.

    Instances are i.i.d. draws from the real prior with uniform arrival
    times; the threshold consults the (possibly different) predicted prior.
    Deterministic for a fixed seed.
    """
    n, trials, seed = _count(n, "n"), _count(trials, "trials"), _count(seed, "seed", 0)
    return _sim_report(_row_batches(real, predicted, theta, n, trials, seed), trials)


def _sim_report(batches, trials):
    """SimReport over (pos, accepted, maximum) batches of trials rows in all."""
    wins = 0
    accepts = 0
    s_a = s_aa = s_m = s_mm = s_am = 0.0
    scale = None
    for pos, acc, mx in batches:
        wins += int(np.count_nonzero((pos >= 0) & (acc == mx)))
        accepts += int(np.count_nonzero(pos >= 0))
        if scale is None:
            # the moments are taken of acc / scale and mx / scale, so that
            # their squares neither overflow nor underflow on a prior far
            # from unit scale; a power of two scales exactly, and the ratio
            # and its standard error are scale-free
            scale = math.ldexp(0.5, math.frexp(float(mx.max()))[1])
        acc, mx = acc / scale, mx / scale
        s_a += acc.sum()
        s_aa += (acc * acc).sum()
        s_m += mx.sum()
        s_mm += (mx * mx).sum()
        s_am += (acc * mx).sum()
    t = float(trials)
    p = wins / t
    p_se = math.sqrt(p * (1.0 - p) / t)
    mean_a, mean_m = s_a / t, s_m / t
    ratio = mean_a / mean_m
    var_a = max(s_aa / t - mean_a**2, 0.0)
    var_m = max(s_mm / t - mean_m**2, 0.0)
    cov = s_am / t - mean_a * mean_m
    # delta method for the ratio of means
    var_ratio = max(var_a - 2.0 * ratio * cov + ratio**2 * var_m, 0.0) / mean_m**2
    ratio_se = math.sqrt(var_ratio / t)
    return SimReport(
        trials=trials,
        maxprob=p,
        maxprob_se=p_se,
        maxexp_ratio=ratio,
        maxexp_se=ratio_se,
        acceptance_rate=accepts / t,
    )


def googol_win_mc(values, predicted, theta, trials, seed):
    """Fixed values, random arrival order: Monte Carlo win probability.

    Returns (estimate, standard error) of the probability that the scan
    accepts the maximum value.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) == 0:
        raise ValueError("values must be a non-empty 1-d array")
    # np.unique would load numpy.ma; like it, this counts two NaNs (sorted last) as equal
    ordered = np.sort(values)
    if np.any(ordered[1:] == ordered[:-1]) or np.count_nonzero(np.isnan(ordered[-2:])) == 2:
        raise ValueError("values must be distinct")
    if not np.all(values >= 0.0):  # written so that a NaN fails it
        raise ValueError("values must be non-negative")
    trials, seed = _count(trials, "trials"), _count(seed, "seed", 0)
    wins = 0
    for pos, acc, mx in _scan_rows(_shuffled_rows, values, predicted, theta, len(values), trials, seed):
        wins += int(np.count_nonzero((pos >= 0) & (acc == mx)))
    p = wins / trials
    return p, math.sqrt(p * (1.0 - p) / trials)


def _coupled_passes(shard_vals, t_sorted, k, shard_pred, theta):
    """Accepted values of the sharding pass and of the base scan, per row.

    Rows hold n*k shard values with their sorted arrival times.  The sharding
    pass sees the n block maxima at their argmax times; the base scan sees
    every shard value (already in time order).
    """
    blocks = shard_vals.reshape(len(shard_vals), -1, k)
    arg = blocks.argmax(axis=2)[:, :, None]
    x = np.take_along_axis(blocks, arg, axis=2)[:, :, 0]
    s = np.take_along_axis(t_sorted.reshape(blocks.shape), arg, axis=2)[:, :, 0]
    accepted_sharding = scan_first_accept(x, s, shard_pred, theta)[1]
    accepted_base = scan_first_accept(shard_vals, t_sorted, shard_pred, theta)[1]
    return accepted_sharding, accepted_base


def simulate_coupled_sharding(real, predicted, theta, n, k, trials, seed):
    """Count couplings where sharding accepts strictly less than the base run.

    Each trial draws n*k shard values from the k-th-root prior with sorted
    arrival times, forms the n-value instance (block maxima, with the block
    argmax times as virtual times), and runs both the sharding pass on the
    n values and the plain scan on the full n*k shard instance.  The shared
    realization makes the sharding value dominate; the return value counts
    violations of that dominance (expected 0).
    """
    n, k, trials = _count(n, "n"), _count(k, "k"), _count(trials, "trials")
    seed = _count(seed, "seed", 0)
    _check_support(real)
    rng = np.random.default_rng(seed)
    shard_real = power_root_cdf(real, k)
    shard_pred = power_root_cdf(predicted, k)
    violations = 0
    # a batch of n*k-value rows holds as many values as a plain batch
    for b in _batches(trials, max(1, _BATCH // k)):
        shard_vals, t_sorted = _full_rows(rng, b, n * k, shard_real)
        sharding, base = _coupled_passes(shard_vals, t_sorted, k, shard_pred, theta)
        violations += int(np.count_nonzero(sharding < base))
    return violations
