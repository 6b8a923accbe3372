"""Step threshold functions.

A threshold function maps time in [0, 1] to an acceptance level.  Every
threshold in this package is a left-continuous, non-increasing step function:
piece i covers the half-open interval (b[i-1], b[i]] and theta(0) equals the
first value.  Levels above 1 are tolerated because the consistency solver
produces them as intermediate output; robustification clamps them.

Besides the representation, this module constructs the classical thresholds
(the 1/e rule, the constant single-threshold rule, and the full-information
best-choice rule, whose first-order condition reduces to one polynomial root
per n) and the robustified variant that pins the function to 1 before
lambda1 and 0 from lambda2 on.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._roots import brentq
from .priors import _count

__all__ = [
    "ThresholdFn",
    "robustify",
    "dynkin_threshold",
    "single_threshold",
    "gm_threshold",
    "threshold_to_csv",
    "threshold_from_csv",
]

# eval answers an array of at least this many times, all in [0, 1], from the
# threshold's cell table (_cell_table); smaller ones go to searchsorted.  At
# 12k times the table takes 0.07-0.4x searchsorted's time; at 1024 it takes
# 0.4-1.4x (the most for a few-piece threshold that needs two passes)
_TABLE_MIN_SIZE = 1024
# a table has at most this many cells (0.5 MB of indices), so a threshold of
# more than half as many pieces keeps searchsorted
_TABLE_MAX_CELLS = 1 << 16
# and at most this many correction passes, one per breakpoint that can share
# a cell; clustered breakpoints that need more keep searchsorted
_TABLE_MAX_PASSES = 2


def _cell_table(bp):
    """(cells, first, passes) for eval's table lookup, or None where searchsorted stays.

    The cells are the 2**j + 1 sets of times t with floor(t * cells) = c:
    [c/cells, (c+1)/cells) for c < cells, and t = 1.  With a power of two
    t * cells is exact, so floor(t * cells) is exactly t's cell, and a
    breakpoint's cell is found the same way.  first[c] counts the
    breakpoints below cell c; searchsorted counts those below t, which adds
    the breakpoints in [c / cells, t), at most passes of them: the most any
    cell holds.
    """
    cells = 1 << (2 * len(bp) - 1).bit_length()  # the power of two at or above 2 len(bp)
    if cells > _TABLE_MAX_CELLS:
        return None
    # the last cell holds the breakpoint 1 and the time 1, which needs no pass
    counts = np.bincount((bp * cells).astype(np.intp), minlength=cells + 1)[:-1]
    passes = int(counts.max())
    if passes > _TABLE_MAX_PASSES:
        return None
    first = np.zeros(cells + 1, dtype=np.intp)
    np.cumsum(counts, out=first[1:])
    return cells, first, passes


class ThresholdFn:
    """Left-continuous non-increasing step function on [0, 1].

    Treat an instance as immutable: eval keeps a table built from the
    breakpoints.
    """

    __slots__ = ("breakpoints", "values", "_table")

    def __init__(self, breakpoints, values):
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        if bp.shape != vals.shape or bp.ndim != 1 or len(bp) == 0:
            raise ValueError("breakpoints and values must be 1-d arrays of equal length")
        # every check is written so that a NaN fails it
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if bp[-1] != 1.0:
            raise ValueError("last breakpoint must be 1")
        if not bp[0] > 0.0:
            raise ValueError("breakpoints must be positive")
        if not np.all(np.diff(vals) <= 0.0):
            raise ValueError("values must be non-increasing")
        if not np.all(vals >= 0.0):
            raise ValueError("values must be non-negative")
        self.breakpoints = bp
        self.values = vals
        self._table = False  # eval builds it on first use; None means searchsorted

    def __repr__(self):
        return f"ThresholdFn({len(self.values)} pieces)"

    def __eq__(self, other):
        return (
            isinstance(other, ThresholdFn)
            and np.array_equal(self.breakpoints, other.breakpoints)
            and np.array_equal(self.values, other.values)
        )

    def eval(self, t):
        """Left-continuous evaluation; vectorized over t.

        The result is values[min(searchsorted(breakpoints, t, "left"),
        len - 1)] exactly.  An array of times in [0, 1] is looked up in a
        cell table, which sorts nothing; scalars, small arrays and times
        outside [0, 1] (NaN too) go to searchsorted, whose cost per unsorted
        time grows with the pieces (at 12k times, 8 ns for 2 and 45 ns for
        300; the table takes 3-5 ns).
        """
        arr = np.asarray(t, dtype=float)
        if arr.size >= _TABLE_MIN_SIZE:
            if self._table is False:
                self._table = _cell_table(self.breakpoints)
            # written so that a NaN fails it and never reaches the integer cast
            if self._table is not None and arr.min() >= 0.0 and arr.max() <= 1.0:
                cells, first, passes = self._table
                idx = first[(arr * cells).astype(np.intp)]
                # the last breakpoint is 1 >= t, so idx stops there
                for _ in range(passes):
                    idx += self.breakpoints[idx] < arr
                return self.values[idx]
        idx = np.searchsorted(self.breakpoints, arr, side="left")
        out = self.values[np.minimum(idx, len(self.values) - 1)]
        return float(out) if arr.ndim == 0 else out

    def pieces(self):
        """Iterate (a, b, value) with the piece covering (a, b]."""
        a = 0.0
        for b, v in zip(self.breakpoints, self.values):
            yield a, float(b), float(v)
            a = float(b)


def dynkin_threshold(lam):
    """1 on [0, lam], 0 on (lam, 1]: wait, then take the first best-so-far value."""
    lam = float(lam)
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lam must lie in [0, 1]")
    if lam == 0.0:
        return ThresholdFn([1.0], [0.0])
    if lam == 1.0:
        return ThresholdFn([1.0], [1.0])
    return ThresholdFn([lam, 1.0], [1.0, 0.0])


def single_threshold(n):
    """Constant level 1 - 1/n."""
    n = _count(n, "n")
    return ThresholdFn([1.0], [1.0 - 1.0 / n])


def robustify(theta, pair):
    """Force the level to 1 up to pair.lambda1 and to 0 beyond pair.lambda2 (pair: a LambdaPair).

    In between, the input levels are kept (clamped to at most 1).  With
    lambda1 = lambda2 the middle band is empty and the result is the
    classical wait-then-accept rule at that point.

    Every pair lambda_pair returns has 0 <= lambda1 <= lambda2 <= 1, and
    then the result ends at 1: lambda2 < 1 appends the 0 piece, and
    lambda2 = 1 keeps the piece of theta that ends at 1.  A hand-built pair
    that leaves the result short of 1 gets ThresholdFn's ValueError.
    """
    lam1, lam2 = pair.lambda1, pair.lambda2
    bp = theta.breakpoints
    # the 1-piece (0, lam1], theta's pieces clipped to [lam1, lam2] and the
    # 0-piece (lam2, 1], of which the nonempty ones stay
    starts = np.concatenate(([0.0], np.maximum(np.append(0.0, bp[:-1]), lam1), [lam2]))
    ends = np.concatenate(([lam1], np.minimum(bp, lam2), [1.0]))
    vals = np.concatenate(([1.0], np.minimum(theta.values, 1.0), [0.0]))
    keep = starts < ends
    breaks, vals = ends[keep], vals[keep]
    # a run of equal levels keeps its last breakpoint; levels are >= 0, so -1 ends the last run
    last = np.diff(vals, append=-1.0) != 0.0
    return ThresholdFn(breaks[last], vals[last])


def _gm_series(c, n):
    """sum_{k=1}^{n-1} C(n-1, k) (c/(n-1))**k / k by the ratio recurrence of the terms.

    C(n-1, k) itself overflows past n of about 1030.  For c <= 1 the terms
    never increase, so the sum stops once they fall below rounding.
    """
    y = c / (n - 1)
    total = 0.0
    term = 1.0
    for k in range(1, n):
        term *= y * (n - k) / k
        total += term / k
        if term <= 1e-17 * total:
            break
    return total


@lru_cache(maxsize=1024)
def _gm_root(n):
    """c_n = (n-1) y_n, with y_n the root of sum_{k=1}^{n-1} C(n-1, k) y**k / k = 1.

    The series is at least (n-1) y, so c_n lies in (0, 1]; c_2 = 1, and c_n
    tends to the series constant c of about 0.80435 as n grows.
    """
    return brentq(lambda c: _gm_series(c, n) - 1.0, 0.0, 1.0, xtol=1e-15, rtol=1e-15)


def _gm_levels(n, s):
    """Best-choice threshold level at times s (scalar or array in [0, 1)) for n values.

    With x = 1/theta - 1, the first-order condition
    int_0^{1-s} ((1 + x u)**(n-1) - 1) / u du = 1 expands to
    sum_{k=1}^{n-1} C(n-1, k) (x (1-s))**k / k = 1 (Gilbert & Mosteller
    1966), so x (1-s) is the same root y_n = c_n / (n - 1) at every s and the
    level is 1 / (1 + y_n / (1-s)), solved once per n.
    """
    return 1.0 / (1.0 + _gm_root(n) / ((n - 1) * (1.0 - s)))


def gm_threshold(n, m):
    """Step sampling of the best-choice threshold on a uniform m-piece grid.

    Piece ((i-1)/m, i/m] takes the level at its left endpoint, so the step
    function upper-bounds the exact threshold and stays strictly positive on
    all of [0, 1]; the exact level reaches 0 only at the single point s = 1.
    """
    n, m = _count(n, "n", 2), _count(m, "m", 2)
    vals = _gm_levels(n, np.arange(m) / m)
    breaks = np.arange(1, m + 1) / m
    breaks[-1] = 1.0
    return ThresholdFn(breaks, vals)


def threshold_to_csv(theta):
    """CSV dump, header ``t,theta``, one row per piece right endpoint."""
    lines = ["t,theta"]
    for b, v in zip(theta.breakpoints, theta.values):
        lines.append(f"{b:.17g},{v:.17g}")
    return "\n".join(lines) + "\n"


def threshold_from_csv(text):
    rows = [line.strip() for line in text.strip().splitlines() if line.strip()]
    rows = [r for r in rows if not r.startswith("#")]
    if not rows or rows[0] != "t,theta":
        raise ValueError("expected header 't,theta'")
    breaks, vals = [], []
    for row in rows[1:]:
        b, v = row.split(",")
        breaks.append(float(b))
        vals.append(float(v))
    return ThresholdFn(breaks, vals)
