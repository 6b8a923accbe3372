"""Exact per-instance execution of the stopping algorithms and the Monte
Carlo harness estimating their consistency and robustness.

The core acceptance rule: a value is accepted when it is best-so-far (at
least as large as everything seen before) and its cdf under the predicted
prior strictly exceeds the threshold level at its arrival time, where a
level of 0 accepts every best-so-far value outright.  The zero-phase
carve-out matters only when the predicted support lies above the realized
values, pinning the cdf to exactly 0; full-support priors never tie the
threshold.

Every estimator applies that rule through one vectorized numpy scan,
``scan_first_accept``, over batches of time-ordered rows.  The scan finds
the best-so-far entries first and evaluates the predicted cdf and the
threshold at those entries only: a row of n i.i.d. values holds H_n of
them on average (5.9 of 200), so the per-entry work is one running
maximum.  ``run_bicriteria`` keeps the literal per-value loop as the
reference the scan is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .priors import power_root_cdf

_BATCH = 4096  # fixed so that a seed pins the whole random stream

__all__ = [
    "Instance",
    "SimReport",
    "scan_first_accept",
    "run_bicriteria",
    "run_sharding",
    "attach_uniform_times",
    "simulate",
    "accepted_value_samples",
    "simulate_coupled_sharding",
    "googol_win_mc",
]


@dataclass(frozen=True)
class Instance:
    """Realized values in arrival order, with optional arrival times."""

    values: np.ndarray
    arrival_times: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if np.any(values < 0.0):
            raise ValueError("values must be non-negative")
        if self.arrival_times is not None:
            times = np.asarray(self.arrival_times, dtype=float)
            object.__setattr__(self, "arrival_times", times)
            if times.shape != values.shape:
                raise ValueError("values and arrival_times must have equal length")
            if len(np.unique(times)) != len(times):
                raise ValueError("arrival times must be pairwise distinct")
            if np.any(times < 0.0) or np.any(times > 1.0):
                raise ValueError("arrival times must lie in [0, 1]")


def attach_uniform_times(values, rng):
    """Discrete-time adapter: sorted uniform draws become the arrival times."""
    values = np.asarray(values, dtype=float)
    times = np.sort(rng.random(len(values)))
    return Instance(values, times)


def run_bicriteria(inst, predicted, theta):
    """Index of the accepted value, or None.

    Scans in time order and takes the first value that is best-so-far with
    predicted cdf strictly above the threshold at its arrival time (a zero
    threshold accepts any best-so-far value).
    """
    if inst.arrival_times is None:
        raise ValueError("instance needs arrival times; see attach_uniform_times")
    order = np.argsort(inst.arrival_times)
    prefix_max = 0.0
    for i in order:
        x = inst.values[i]
        if x >= prefix_max:
            level = theta.eval(inst.arrival_times[i])
            if predicted.cdf(x) > level or level == 0.0:
                return int(i)
            prefix_max = x
    return None


def scan_first_accept(values, times, predicted, theta):
    """First accepted position per row of a time-ordered batch.

    Position j of row i is accepted when values[i, j] is greater than or
    equal to every earlier value in the row (running-max criterion) and its
    level clears the threshold: predicted.cdf(values[i, j]) >
    theta.eval(times[i, j]), or the threshold is 0 (the zero phase is
    prior-free; under a full-support prior the two readings coincide, but a
    mispredicted support can pin the cdf to exactly 0).  The cdf and the
    threshold are evaluated at the best-so-far entries only, about H_n of a
    row of n i.i.d. values.  Returns (pos, accepted_value) with pos = -1 and
    value 0.0 for rows that accept nothing.
    """
    rows, n = values.shape
    # a value is at least its running maximum through itself exactly when it
    # is at least every earlier value; the scan starts from a maximum of 0
    running = np.maximum.accumulate(values, axis=1)
    flat = np.flatnonzero(values >= np.maximum(running, 0.0, out=running))
    x = values.reshape(-1)[flat]
    level = theta.eval(times.reshape(-1)[flat])
    ok = (predicted.cdf(x) > level) | (level == 0.0)
    flat, x = flat[ok], x[ok]
    row, col = np.divmod(flat, n)
    # flat indices run row by row, so a row's first passing entry is where
    # the row index changes
    first = np.ones(len(row), dtype=bool)
    np.not_equal(row[1:], row[:-1], out=first[1:])
    pos = np.full(rows, -1, dtype=np.int64)
    acc = np.zeros(rows)
    pos[row[first]] = col[first]
    acc[row[first]] = x[first]
    return pos, acc


def run_sharding(values, k, predicted, theta, rng):
    """One pass of the implicit-sharding algorithm over values in arrival order.

    Draws n*k sorted uniform arrival times, picks one uniformly from the i-th
    block of k as the virtual time of value i, and accepts the first
    best-so-far value whose cdf under the k-th root of the predicted prior
    exceeds the threshold at its virtual time.
    """
    values = np.asarray(values, dtype=float)
    k = int(k)
    if k < 1:
        raise ValueError("need k >= 1")
    n = len(values)
    shard_prior = power_root_cdf(predicted, k)
    t_sorted = np.sort(rng.random(n * k))
    s = t_sorted[np.arange(n) * k + rng.integers(0, k, size=n)]
    pos, _ = scan_first_accept(values[None, :], s[None, :], shard_prior, theta)
    return None if pos[0] < 0 else int(pos[0])


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


def _check_sizes(n, trials):
    if n < 1:
        raise ValueError("need n >= 1")
    if trials < 1:
        raise ValueError("need trials >= 1")


def _scan_batch(rng, b, n, real, predicted, theta):
    # values are i.i.d. and independent of the arrival order, so sorting the
    # times alone puts every row in time order
    vals = real.quantile(rng.random((b, n)))
    times = rng.random((b, n))
    times.sort(axis=1)
    pos, acc = scan_first_accept(vals, times, predicted, theta)
    return pos, acc, vals.max(axis=1)


def accepted_value_samples(real, predicted, theta, n, trials, seed):
    """Per-trial (accepted value, maximum value); 0 marks no acceptance."""
    _check_sizes(n, trials)
    if real.quantile(0.0) < 0.0:
        raise ValueError("real prior must be supported on [0, inf)")
    rng = np.random.default_rng(seed)
    accepted = np.empty(trials)
    maxima = np.empty(trials)
    done = 0
    for b in _batches(trials):
        _, acc, mx = _scan_batch(rng, b, n, real, predicted, theta)
        accepted[done : done + b] = acc
        maxima[done : done + b] = mx
        done += b
    return accepted, maxima


def simulate(real, predicted, theta, n, trials, seed):
    """Estimate the win probability and the expectation ratio jointly.

    Instances are i.i.d. draws from the real prior with uniform arrival
    times; the threshold consults the (possibly different) predicted prior.
    Deterministic for a fixed seed.
    """
    _check_sizes(n, trials)
    if real.quantile(0.0) < 0.0:
        raise ValueError("real prior must be supported on [0, inf)")
    rng = np.random.default_rng(seed)
    wins = 0
    accepts = 0
    s_a = s_aa = s_m = s_mm = s_am = 0.0
    for b in _batches(trials):
        pos, acc, mx = _scan_batch(rng, b, n, real, predicted, theta)
        wins += int(np.count_nonzero((pos >= 0) & (acc == mx)))
        accepts += int(np.count_nonzero(pos >= 0))
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
    if len(np.unique(values)) != len(values):
        raise ValueError("values must be distinct")
    n = len(values)
    _check_sizes(n, trials)
    vmax = values.max()
    rng = np.random.default_rng(seed)
    wins = 0
    for b in _batches(trials):
        times = rng.random((b, n))
        order = np.argsort(times, axis=1)
        tv = np.take_along_axis(times, order, axis=1)
        pos, acc = scan_first_accept(values[order], tv, predicted, theta)
        wins += int(np.count_nonzero((pos >= 0) & (acc == vmax)))
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
    _, accepted_sharding = scan_first_accept(x, s, shard_pred, theta)
    _, accepted_base = scan_first_accept(shard_vals, t_sorted, shard_pred, theta)
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
    k = int(k)
    if k < 1:
        raise ValueError("need k >= 1")
    _check_sizes(n, trials)
    rng = np.random.default_rng(seed)
    shard_real = power_root_cdf(real, k)
    shard_pred = power_root_cdf(predicted, k)
    violations = 0
    # a batch of n*k-value rows holds as many values as a plain batch
    for b in _batches(trials, max(1, _BATCH // k)):
        shard_vals = shard_real.quantile(rng.random((b, n * k)))
        t_sorted = rng.random((b, n * k))
        t_sorted.sort(axis=1)
        sharding, base = _coupled_passes(shard_vals, t_sorted, k, shard_pred, theta)
        violations += int(np.count_nonzero(sharding < base))
    return violations
