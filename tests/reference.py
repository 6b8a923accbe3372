"""Reference implementations that the tests compare the package against.

Each one is a second, independent route to a quantity the package computes
(or, for parse_lp, reads back what it writes):

* neg_lambda_log: -lambda ln(lambda), the equation priors.lambda_pair
  solves and the win probability of the wait-until-lambda rule;
* consistency_integral: L(z) piece by piece, against analytics._LTable;
* generalized_inverse, powered and clamped: operations on a ThresholdFn
  that only the tests' references and rules use;
* unclamped_threshold: a solved recursion's raw step values, for _LTable;
* run_bicriteria: the literal per-value loop, against engine.scan_first_accept;
* padded: a record list laid out as full rows, so that scan_first_accept
  checks the engine's acceptance test on record lists;
* row_major: a chain's per-step columns put in row-major order by
  concatenation and one permutation, against engine._row_major, which
  writes each step in place;
* rej_to_acc, rule_solution_vector and brute_force_win_prob: the inverse
  of hardness.acc_to_rej, a rule's point in the LP, and exhaustive
  enumeration, against the LP's win-probability rows;
* export_lp_body_by_rows: hardness.export_lp_body's text written one
  line at a time, with each coefficient formatted where it is written;
* parse_lp: a reader for the LP text format of hardness.export_lp_objective
  and export_lp_body.
"""

import math
import re

import numpy as np

from stoppred.hardness import _cdf_pair, _pmf_array, delta_table, win_prob_by_truncation
from stoppred.quadrature import log_time_integral, pow_integral
from stoppred.thresholds import ThresholdFn


def neg_lambda_log(lam):
    """-lambda * ln(lambda), with the 0 * ln(0) = 0 convention."""
    if lam == 0.0:
        return 0.0
    return -lam * math.log(lam)


def consistency_integral(theta, z):
    """L(z) = int_z^1 int_0^t (1/t) theta(max{s, z})^t ds dt for a step theta.

    Exchanging the integration order gives

        L(z) = z int_z^1 theta(z)^t / t dt
             + sum over pieces (a, b] with level v inside (z, 1] of
               [ int_a^b (t - a) v^t / t dt + (b - a) int_b^1 v^t / t dt ]

    where the piece integrals reduce to pow_integral and log_time_integral.
    """
    z = float(z)
    if not (0.0 <= z <= 1.0):
        raise ValueError("z must lie in [0, 1]")
    total = 0.0
    if z < 1.0:
        v0 = theta.eval(z)
        if z > 0.0 and v0 > 0.0:
            total += z * log_time_integral(v0, z, 1.0)
        for a, b, v in theta.pieces():
            lo = max(a, z)
            if lo >= b or v == 0.0:
                continue
            piece = pow_integral(v, lo, b)
            if lo > 0.0:  # the lo term vanishes at lo = 0, where its integral diverges
                piece -= lo * log_time_integral(v, lo, b)
            total += piece
            if b < 1.0:
                total += (b - lo) * log_time_integral(v, b, 1.0)
    return total


def generalized_inverse(theta, x):
    """inf{t : theta(t) < x}, or 1 if theta never drops below x."""
    x = float(x)
    below = np.flatnonzero(theta.values < x)
    if len(below) == 0:
        return 1.0
    i = below[0]
    return 0.0 if i == 0 else float(theta.breakpoints[i - 1])


def powered(theta, exponent):
    """Pointwise power of theta's levels, e.g. theta ** (1/n)."""
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    return ThresholdFn(theta.breakpoints, theta.values**exponent)


def clamped(theta):
    """theta's levels clipped into [0, 1]."""
    return ThresholdFn(theta.breakpoints, np.minimum(theta.values, 1.0))


def unclamped_threshold(sol):
    """Raw step values of a maxexp.StepSolution as a threshold on (lambda1, lambda2], 0 beyond."""
    if len(sol.theta_values) == 0:
        raise ValueError("degenerate solution has no step values")
    z = sol.grid
    return ThresholdFn(np.append(z[1:], 1.0), np.append(sol.theta_values, 0.0))


def run_bicriteria(values, times, predicted, theta):
    """Index of the accepted value, or None.

    Scans in time order and takes the first value that is best-so-far with
    predicted cdf strictly above the threshold at its arrival time (a zero
    threshold accepts any best-so-far value).
    """
    order = np.argsort(times)
    prefix_max = 0.0
    for i in order:
        x = values[i]
        if x >= prefix_max:
            level = theta.eval(times[i])
            if predicted.cdf(x) > level or level == 0.0:
                return int(i)
            prefix_max = x
    return None


def padded(records):
    """(values, times) of a record list's rows (engine._Records), one column per record.

    Row i's records fill its first columns; the rest is padded with -1 at
    time 1, which the scan's running maximum (started at 0) never takes for a
    best-so-far value.
    """
    width = int(records.col.max()) + 1
    values = np.full((len(records.maximum), width), -1.0)
    times = np.ones((len(records.maximum), width))
    values[records.row, records.col] = records.x
    times[records.row, records.col] = records.t
    return values, times


def row_major(b, steps):
    """engine._row_major's (a, t, row, col, last) by concatenating the steps and permuting them.

    steps holds (rows, a, log(1 - t)) per step, with nested live sets that
    all hold row 0, ..., b - 1 in step 0; it is left as it is.
    """
    rows = np.concatenate([r for r, _, _ in steps])
    count = np.bincount(rows, minlength=b)
    start = np.zeros(b, dtype=np.int64)
    np.cumsum(count[:-1], out=start[1:])
    col = np.repeat(np.arange(len(steps)), [len(r) for r, _, _ in steps])
    order = np.empty(len(rows), dtype=np.int64)
    order[start[rows] + col] = np.arange(len(rows))
    a = np.concatenate([a for _, a, _ in steps])[order]
    t = -np.expm1(np.concatenate([lr for _, _, lr in steps])[order])
    return a, t, np.repeat(np.arange(b), count), col[order], start + count - 1


def rej_to_acc(rej, pmf):
    """Inverse of acc_to_rej; entries with zero arrival mass map to 0."""
    rej = np.asarray(rej, dtype=float)
    n, K = rej.shape
    pmf = _pmf_array(pmf)
    _, Fm1 = _cdf_pair(pmf)
    delta = delta_table(pmf, n)
    acc = np.empty_like(rej)
    prev = np.ones(K)
    for t in range(1, n + 1):
        den = pmf * np.cumsum(delta[t - 1] * prev)
        num = rej[t - 1] * delta[t] - prev * delta[t - 1] * Fm1
        with np.errstate(invalid="ignore", divide="ignore"):
            acc[t - 1] = np.where(den > 0.0, 1.0 - num / np.where(den > 0.0, den, 1.0), 0.0)
        prev = rej[t - 1]
    return acc


def rule_solution_vector(model, rej):
    """Full variable vector (y, scaled prefixes, wins, cumulatives, alpha,
    beta) induced by a rejection table; feasible whenever the table comes
    from a genuine rule."""
    rej = np.asarray(rej, dtype=float)
    n, K = model.n, model.K
    if rej.shape != (n, K):
        raise ValueError("rejection table shape does not match the model")
    pmf = model.pmf
    F, _ = _cdf_pair(pmf)
    delta = delta_table(pmf, n)
    x = np.zeros(model.num_vars)
    x[: n * K] = rej.ravel()
    for t in range(1, n):
        x[n * K + (t - 1) * K : n * K + t * K] = np.cumsum(delta[t] * rej[t - 1]) / F**t
    exprs = win_prob_by_truncation(rej, pmf)
    # v_l is the l-th increment of the scaled cumulative win probabilities
    b = exprs
    v = b - np.concatenate(([0.0], b[:-1])) * np.concatenate(([0.0], (F[:-1] / F[1:]) ** n))
    x[(2 * n - 1) * K : 2 * n * K] = v
    x[2 * n * K : (2 * n + 1) * K] = b
    x[-2] = exprs[-1]
    x[-1] = exprs.min()
    return x


def brute_force_win_prob(acc, pmf, k):
    """Exhaustive win probability under the truncation to {1..k}.

    Enumerates all k**n sequences; a sequence wins at step t when the rule
    fires there, the value is best-so-far, and it ties the overall maximum
    (all-ties-win convention).  Budgeted at 1e6 sequences.
    """
    acc = np.asarray(acc, dtype=float)
    n, K = acc.shape
    if not (1 <= k <= K and int(k) == k):
        raise ValueError("truncation level outside the support")
    k = int(k)
    if k**n > 1_000_000:
        raise ValueError("enumeration budget exceeded (k**n > 1e6)")
    pmf = _pmf_array(pmf)
    fk = pmf[:k] / pmf[:k].sum()
    seqs = np.indices((k,) * n).reshape(n, -1).T + 1  # (k**n, n)
    probs = fk[seqs - 1].prod(axis=1)
    prefmax = np.maximum.accumulate(seqs, axis=1)
    best = seqs == prefmax
    fire = np.where(best, acc[np.arange(n)[None, :], seqs - 1], 0.0)
    surv = np.cumprod(1.0 - fire, axis=1)
    surv = np.concatenate([np.ones((len(seqs), 1)), surv[:, :-1]], axis=1)
    is_max = seqs == seqs.max(axis=1, keepdims=True)
    return float(np.sum(probs * np.sum(surv * fire * is_max, axis=1)))


def dense(csr):
    """The hardness.Csr matrix csr as a dense array."""
    matrix = np.zeros(csr.shape)
    matrix[csr.rows(), csr.indices] = csr.data
    return matrix


def export_lp_body_by_rows(model):
    """The constraint and bounds sections of the LP text (hardness.export_lp_body), row by row."""
    names = model.col_names
    lines = ["Subject To"]
    exprs = _row_exprs(model.a, names)
    for name, expr, lo, hi in zip(model.row_names, exprs, model.row_lower.tolist(), model.row_upper.tolist()):
        sense = "=" if lo == hi else "<="
        lines.append(f" {name}: {expr} {sense} {hi:.17g}")
    lines.append("Bounds")
    for name, lo, hi in zip(names, model.col_lower.tolist(), model.col_upper.tolist()):
        if hi < np.inf:
            lines.append(f" {lo:.17g} <= {name} <= {hi:.17g}")
        elif lo == -np.inf:
            lines.append(f" {name} free")
        else:
            lines.append(f" {name} >= {lo:.17g}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _row_exprs(csr, names):
    """Each row's terms as the LP text format writes them, for a whole Csr matrix.

    Zero coefficients are dropped; a row's first term has no sign if it is
    positive, and a row with no term left reads "0 <first column>".
    """
    keep = csr.data != 0.0
    coefs = csr.data[keep]
    # kept[r]: the terms kept before row r, so row r's terms are kept[r]:kept[r+1]
    kept = np.concatenate(([0], np.cumsum(keep)))[csr.indptr]
    first = np.zeros(len(coefs) + 1, dtype=bool)
    first[kept] = True
    signs = np.where(coefs < 0.0, "- ", np.where(first[:-1], "", "+ ")).tolist()
    terms = [
        f"{sign}{mag:.17g} {names[col]}"
        for sign, mag, col in zip(signs, np.abs(coefs).tolist(), csr.indices[keep].tolist())
    ]
    return [
        " ".join(terms[lo:hi]) if hi > lo else "0 " + names[csr.indices[start]]
        for lo, hi, start in zip(kept[:-1].tolist(), kept[1:].tolist(), csr.indptr[:-1].tolist())
    ]


_TERM_RE = re.compile(r"([+-])?\s*(\d[\d.eE+-]*)?\s*([A-Za-z]\w*)")


def _parse_terms(expr):
    terms = {}
    for sign, coef, name in _TERM_RE.findall(expr):
        value = float(coef) if coef else 1.0
        if sign == "-":
            value = -value
        terms[name] = terms.get(name, 0.0) + value
    return terms


def parse_lp(text):
    """Parse the canonical export format back into objective/rows/bounds."""
    section = None
    objective = {}
    rows = {}
    bounds = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        lowered = line.lower()
        if lowered in ("maximize", "minimize"):
            section = "obj"
            continue
        if lowered == "subject to":
            section = "rows"
            continue
        if lowered == "bounds":
            section = "bounds"
            continue
        if lowered == "end":
            break
        if section == "obj":
            _, expr = line.split(":", 1)
            objective = _parse_terms(expr)
        elif section == "rows":
            name, rest = line.split(":", 1)
            if "<=" in rest:
                expr, rhs = rest.split("<=")
                sense = "<="
            elif ">=" in rest:
                expr, rhs = rest.split(">=")
                sense = ">="
            else:
                expr, rhs = rest.split("=")
                sense = "="
            rows[name.strip()] = (_parse_terms(expr), sense, float(rhs))
        elif section == "bounds":
            if line.endswith(" free"):
                bounds[line[:-5].strip()] = (-np.inf, np.inf)
            elif "<=" in line:
                lo, name, hi = line.split("<=")
                bounds[name.strip()] = (float(lo), float(hi))
            elif ">=" in line:
                name, lo = line.split(">=")
                bounds[name.strip()] = (float(lo), np.inf)
    return {"objective": objective, "rows": rows, "bounds": bounds}
