"""Prior distributions and the lambda-root machinery shared by all modules.

Two kinds of priors appear throughout:

* continuous priors with full support, represented by a (cdf, quantile) pair
  so that algorithms can work purely in quantile space;
* discrete priors over the integer support {1, ..., K}, given by a pmf,
  such as the harmonic prior (pmf proportional to 1/k) of the hardness
  construction.

The module also solves ``-lambda * ln(lambda) = beta`` for the two roots
``lambda1 <= 1/e <= lambda2`` that delimit the prior-free phases of a robust
threshold function, each as a Brent root (stoppred._roots.brentq) in
u = -ln(lambda).

It is also the home of the argument checks that every module shares:
``_check_probability`` for levels in [0, 1] and ``_count`` for the counts
(n values, m steps, k shards, a support of size K, Monte Carlo trials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import brentq

E_INV = 1.0 / math.e

__all__ = [
    "Prior",
    "Uniform",
    "Exponential",
    "PowerRoot",
    "DiscretePrior",
    "harmonic_prior",
    "power_root_cdf",
    "LambdaPair",
    "lambda_pair",
    "E_INV",
]


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _maybe_scalar(arr, scalar):
    return float(arr) if scalar else arr


def _check_probability(q):
    arr, scalar = _as_float_array(q)
    # written so that a NaN fails it
    if not (np.all(arr >= 0.0) and np.all(arr <= 1.0)):
        raise ValueError("probability argument outside [0, 1]")
    return arr, scalar


def _count(x, name, least=1):
    """int(x) for an integer-valued x >= least, so that 10.0 counts as 10; NaN and +-inf fail."""
    if not (least <= x < math.inf and int(x) == x):
        raise ValueError(f"need integer {name} >= {least}")
    return int(x)


class Prior:
    """Base class; subclasses provide vectorized cdf and quantile."""

    kind = "continuous"

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, q):
        raise NotImplementedError


class Uniform(Prior):
    """Uniform distribution on [a, b]."""

    def __init__(self, a, b):
        self.a, self.b = float(a), float(b)
        if not (-math.inf < self.a < self.b < math.inf and self.b - self.a < math.inf):
            raise ValueError("need finite a < b with a finite b - a")

    def __repr__(self):
        return f"Uniform({self.a}, {self.b})"

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        out = np.clip((arr - self.a) / (self.b - self.a), 0.0, 1.0)
        return _maybe_scalar(out, scalar)

    def quantile(self, q):
        arr, scalar = _check_probability(q)
        return _maybe_scalar(self.a + (self.b - self.a) * arr, scalar)


class Exponential(Prior):
    """Exponential distribution with the given rate; support [0, inf)."""

    def __init__(self, rate):
        self.rate = float(rate)
        # the largest draw is the quantile of the level 1 - 2**-53, 53 ln 2 / rate
        if not (0.0 < self.rate < math.inf and 53.0 * math.log(2.0) / self.rate < math.inf):
            raise ValueError("need a finite rate > 0 whose largest draw, 53 ln 2 / rate, is finite")

    def __repr__(self):
        return f"Exponential({self.rate})"

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        out = np.where(arr <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(arr, 0.0)))
        return _maybe_scalar(out, scalar)

    def quantile(self, q):
        arr, scalar = _check_probability(q)
        with np.errstate(divide="ignore"):
            out = -np.log1p(-arr) / self.rate
        return _maybe_scalar(out, scalar)


class PowerRoot(Prior):
    """Prior whose cdf is base.cdf ** (1/k).

    The maximum of k i.i.d. draws from this prior follows the base prior.
    """

    def __init__(self, base, k):
        if base.kind != "continuous":
            raise ValueError("power-root priors require a continuous base")
        self.k = _count(k, "k")
        self.base = base

    def __repr__(self):
        return f"PowerRoot({self.base!r}, {self.k})"

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        out = np.asarray(self.base.cdf(arr)) ** (1.0 / self.k)
        return _maybe_scalar(out, scalar)

    def quantile(self, q):
        arr, scalar = _check_probability(q)
        out = np.asarray(self.base.quantile(arr**self.k))
        return _maybe_scalar(out, scalar)


def power_root_cdf(prior, k):
    """Prior with cdf equal to ``cdf(prior, .) ** (1/k)``; k = 1 returns prior."""
    if _count(k, "k") == 1:
        return prior
    return PowerRoot(prior, k)


class DiscretePrior(Prior):
    """Discrete prior over the support {1, ..., K} given by a pmf."""

    kind = "discrete"

    def __init__(self, pmf):
        pmf = np.asarray(pmf, dtype=float)
        if pmf.ndim != 1 or len(pmf) < 1:
            raise ValueError("pmf must be a non-empty 1-d array")
        # written so that a NaN fails each check
        if not np.all(pmf >= 0.0):
            raise ValueError("pmf entries must be non-negative")
        if not abs(pmf.sum() - 1.0) <= 1e-12:
            raise ValueError("pmf must sum to 1 within 1e-12")
        self.pmf = pmf
        # rounding can lift a partial sum above 1 where the later masses are 0 or tiny
        cum = np.minimum(np.cumsum(pmf), 1.0)
        cum[-1] = 1.0
        self._cum = cum
        self._cdf_table = np.concatenate(([0.0], cum, [np.nan]))  # entry l <= K: P[X <= l]

    def __repr__(self):
        return f"DiscretePrior(K={self.support_size})"

    @property
    def support_size(self):
        return len(self.pmf)

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        # clip before the cast (a float past 2**63 has no int); NaN reads the table's last entry, NaN
        idx = np.nan_to_num(np.clip(np.floor(arr), 0, self.support_size), nan=self.support_size + 1)
        return _maybe_scalar(self._cdf_table[idx.astype(int)], scalar)

    def cdf_left(self, x):
        """Left limit of the cdf, P[X < x]: the cdf at the support point below x."""
        arr, scalar = _as_float_array(x)
        idx = np.nan_to_num(np.clip(np.ceil(arr) - 1.0, 0, self.support_size), nan=self.support_size + 1)
        return _maybe_scalar(self._cdf_table[idx.astype(int)], scalar)

    def quantile(self, q):
        """Right-continuous inverse: the smallest level with cdf >= q."""
        arr, scalar = _check_probability(q)
        idx = np.searchsorted(self._cum, arr, side="left")
        out = np.minimum(idx, self.support_size - 1) + 1.0
        return _maybe_scalar(out, scalar)

    def truncate(self, k):
        """Condition on the values being at most k.

        The returned prior has support {1, ..., k} and cdf equal to
        ``cdf(l) / cdf(k)`` for l <= k.
        """
        k = _count(k, "k")
        if k > self.support_size:
            raise ValueError("truncation level outside the support")
        mass = self._cum[k - 1]
        if mass <= 0.0:
            raise ValueError("no probability mass at or below the truncation level")
        return DiscretePrior(self.pmf[:k] / mass)


def harmonic_prior(K):
    """Discrete prior with pmf proportional to 1/k on {1..K}."""
    K = _count(K, "K")
    w = 1.0 / np.arange(1, K + 1)
    return DiscretePrior(w / w.sum())


@dataclass(frozen=True)
class LambdaPair:
    """The two roots of -lambda ln(lambda) = beta, lambda1 <= 1/e <= lambda2."""

    beta: float
    lambda1: float
    lambda2: float


def lambda_pair(beta):
    """Solve -lambda ln(lambda) = beta on both sides of the peak at 1/e.

    In u = -ln(lambda) the equation is h(u) = ln(u) - u - ln(beta) = 0, with
    h smooth and rising to its peak at u = 1.  lambda2 = e^-u2 for the Brent
    root u2 in [beta, 1], where h(beta) = -beta; lambda1 = e^-u1 for the
    root u1 in [1, 2 (1 - ln beta)], where h is again negative.  The roots
    are exp(W_-1(-beta)) and exp(W_0(-beta)) in the Lambert W function.
    beta must lie in [0, 1/e] (the map peaks at 1/e where both roots
    coincide).
    """
    beta = float(beta)
    if not (0.0 <= beta <= E_INV + 1e-15):
        raise ValueError("beta must lie in [0, 1/e]")
    beta = min(beta, E_INV)
    if beta == 0.0:
        return LambdaPair(0.0, 0.0, 1.0)
    if beta >= E_INV - 1e-13:
        # double root at the peak, where h'(1) = 0 leaves the equation too
        # flat to tell the two roots apart
        return LambdaPair(beta, E_INV, E_INV)
    log_beta = math.log(beta)

    def h(u):
        return math.log(u) - u - log_beta

    u1 = brentq(h, 1.0, 2.0 * (1.0 - log_beta), xtol=1e-15, rtol=1e-15)
    u2 = brentq(h, beta, 1.0, xtol=1e-15, rtol=1e-15)
    return LambdaPair(beta, math.exp(-u1), math.exp(-u2))
