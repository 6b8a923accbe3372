"""Prior distributions and the lambda-root machinery shared by all modules.

Two kinds of priors appear throughout:

* continuous priors with full support, represented by a (cdf, quantile) pair
  so that algorithms can work purely in quantile space;
* discrete priors over the integer support {1, ..., K}, given by a pmf, used
  by the hardness construction.

The module also solves ``-lambda * ln(lambda) = beta`` for the two roots
``lambda1 <= 1/e <= lambda2`` that delimit the prior-free phases of a robust
threshold function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

E_INV = 1.0 / math.e

__all__ = [
    "Prior",
    "Uniform",
    "Exponential",
    "QuantileTable",
    "PowerRoot",
    "DiscretePrior",
    "power_root_cdf",
    "truncate_conditional",
    "LambdaPair",
    "lambda_pair",
    "neg_lambda_log",
    "E_INV",
]


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _maybe_scalar(arr, scalar):
    return float(arr) if scalar else arr


def _check_probability(q):
    arr, scalar = _as_float_array(q)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("probability argument outside [0, 1]")
    return arr, scalar


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
        if not (-math.inf < a < b < math.inf):
            raise ValueError("need finite a < b")
        self.a = float(a)
        self.b = float(b)

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
        if not (0.0 < rate < math.inf):
            raise ValueError("need a finite rate > 0")
        self.rate = float(rate)

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


class QuantileTable(Prior):
    """Empirical continuous prior given by a piecewise-linear quantile table.

    ``probs`` must start at 0, end at 1, and be strictly increasing;
    ``values`` must be strictly increasing.  cdf and quantile are linear
    interpolations, inverse to each other on the interior.
    """

    def __init__(self, probs, values):
        probs = np.asarray(probs, dtype=float)
        values = np.asarray(values, dtype=float)
        if probs.shape != values.shape or probs.ndim != 1 or len(probs) < 2:
            raise ValueError("probs and values must be 1-d arrays of equal length >= 2")
        if probs[0] != 0.0 or probs[-1] != 1.0:
            raise ValueError("probs must span [0, 1]")
        if np.any(np.diff(probs) <= 0) or np.any(np.diff(values) <= 0):
            raise ValueError("probs and values must be strictly increasing")
        self.probs = probs
        self.values = values

    def __repr__(self):
        return f"QuantileTable(<{len(self.probs)} knots>)"

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        out = np.interp(arr, self.values, self.probs, left=0.0, right=1.0)
        return _maybe_scalar(out, scalar)

    def quantile(self, q):
        arr, scalar = _check_probability(q)
        return _maybe_scalar(np.interp(arr, self.probs, self.values), scalar)


class PowerRoot(Prior):
    """Prior whose cdf is base.cdf ** (1/k).

    The maximum of k i.i.d. draws from this prior follows the base prior.
    """

    def __init__(self, base, k):
        if base.kind != "continuous":
            raise ValueError("power-root priors require a continuous base")
        if int(k) != k or k < 1:
            raise ValueError("need integer k >= 1")
        self.base = base
        self.k = int(k)

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
    if int(k) != k or k < 1:
        raise ValueError("need integer k >= 1")
    if k == 1:
        return prior
    return PowerRoot(prior, k)


class DiscretePrior(Prior):
    """Discrete prior over the support {1, ..., K} given by a pmf."""

    kind = "discrete"

    def __init__(self, pmf):
        pmf = np.asarray(pmf, dtype=float)
        if pmf.ndim != 1 or len(pmf) < 1:
            raise ValueError("pmf must be a non-empty 1-d array")
        if np.any(pmf < 0.0):
            raise ValueError("pmf entries must be non-negative")
        if abs(pmf.sum() - 1.0) > 1e-12:
            raise ValueError("pmf must sum to 1 within 1e-12")
        self.pmf = pmf
        cum = np.cumsum(pmf)
        cum[-1] = 1.0
        self._cum = cum
        self._cdf_table = np.concatenate(([0.0], cum))  # entry l: P[X <= l]

    def __repr__(self):
        return f"DiscretePrior(K={self.support_size})"

    @property
    def support_size(self):
        return len(self.pmf)

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        # clip before the cast: a float past 2**63 has no integer to cast to
        idx = np.clip(np.floor(arr), 0, self.support_size).astype(int)
        return _maybe_scalar(self._cdf_table[idx], scalar)

    def cdf_left(self, x):
        """Left limit of the cdf, P[X < x]: the cdf at the support point below x."""
        arr, scalar = _as_float_array(x)
        idx = np.clip(np.ceil(arr) - 1.0, 0, self.support_size).astype(int)
        return _maybe_scalar(self._cdf_table[idx], scalar)

    def quantile(self, q):
        """Right-continuous inverse: the smallest level with cdf >= q."""
        arr, scalar = _check_probability(q)
        idx = np.searchsorted(self._cum, arr, side="left")
        out = np.minimum(idx, self.support_size - 1) + 1.0
        return _maybe_scalar(out, scalar)

    def truncate(self, k):
        return truncate_conditional(self, k)


def truncate_conditional(prior, k):
    """Condition a discrete prior on its values being at most k.

    The returned prior has support {1, ..., k} and cdf equal to
    ``cdf(prior, l) / cdf(prior, k)`` for l <= k.
    """
    if prior.kind != "discrete":
        raise ValueError("truncate_conditional requires a discrete prior")
    k = int(k)
    if k < 1 or k > prior.support_size:
        raise ValueError("truncation level outside the support")
    mass = prior._cum[k - 1]
    if mass <= 0.0:
        raise ValueError("no probability mass at or below the truncation level")
    return DiscretePrior(prior.pmf[:k] / mass)


def neg_lambda_log(lam):
    """-lambda * ln(lambda), with the 0 * ln(0) = 0 convention."""
    if lam == 0.0:
        return 0.0
    return -lam * math.log(lam)


@dataclass(frozen=True)
class LambdaPair:
    """The two roots of -lambda ln(lambda) = beta, lambda1 <= 1/e <= lambda2."""

    beta: float
    lambda1: float
    lambda2: float

    @property
    def robustness(self):
        return min(neg_lambda_log(self.lambda1), neg_lambda_log(self.lambda2))


def _bisect_root(lo, hi, increasing, beta):
    # sign convention: g(lam) = -lam ln lam - beta crosses zero once per side;
    # 100 halvings leave a bracket under 1e-30 wide
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        g = neg_lambda_log(mid) - beta
        if (g < 0.0) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lambda_pair(beta):
    """Solve -lambda ln(lambda) = beta on both sides of the peak at 1/e.

    Bisection with 100 iterations per root; beta must lie in [0, 1/e]
    (the map peaks at 1/e where both roots coincide).
    """
    beta = float(beta)
    if not (0.0 <= beta <= E_INV + 1e-15):
        raise ValueError("beta must lie in [0, 1/e]")
    beta = min(beta, E_INV)
    if beta == 0.0:
        return LambdaPair(0.0, 0.0, 1.0)
    if beta >= E_INV - 1e-13:
        # double root at the peak; bisection would leave the two roots a
        # spurious ~1e-8 apart on the flat top
        return LambdaPair(beta, E_INV, E_INV)
    lam1 = _bisect_root(0.0, E_INV, True, beta)
    lam2 = _bisect_root(E_INV, 1.0, False, beta)
    return LambdaPair(beta, lam1, lam2)
