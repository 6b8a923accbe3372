"""Factor-revealing linear program bounding the win-probability trade-off.

A stopping rule facing a discrete predicted prior over {1..K} and the family
of its truncations to {1..k} can be summarized, without loss, by a
"minor-oblivious" table: the probability of accepting at step t given that
the current value equals the running maximum level l.  Equivalently, by the
rejection table

    Rej_t(l) = P[no acceptance through step t | max of first t values = l].

With Delta^t(l) := F(l)^t - F(l-1)^t (Delta^0(l) := 1{l=1}, 0^0 = 0), the
win probability under the truncation to {1..k} is a fixed linear expression
in the rejection table, and the feasible tables form a polytope.  Maximizing
lambda * alpha + (1 - lambda) * beta over that polytope therefore upper
bounds every achievable (consistency, robustness) pair; sweeping lambda
traces the hardness frontier.

The model is assembled sparsely with auxiliary variables, each scaled by
the power of F that bounds it:

    p_{t,l} = sum_{m <= l} Delta^t(m) y_{t,m} / F(l)^t      (prefix sums)
    v_l     = the level-l win contribution / F(l)^n
    b_l     = win probability under the truncation to {1..l}

so row lengths stay O(1) or O(n), every coefficient lies in [0, 1] (the
unscaled rows carry factors down to F(1)^n, which sink below solver
tolerances at full scale), and the robustness rows read beta <= b_l.
The polytope does not depend on lambda, so build_polytope takes none: lambda
enters only as the alpha and beta costs of Lp.solve and export_lp_objective.
The model is held in the form HiGHS takes: one Csr matrix (a
compressed-sparse-row triple with the matrix-vector product the solution
check needs) with the <= rows first and the = rows after them, lower and
upper bounds on each row (-inf below a <= row, both equal on an = row),
and lower and upper bounds on each column.  Lp(model) hands that model to
the HiGHS binding bundled with scipy, row-wise as it is, loaded from its
extension file alone (scipy.optimize's package imports are not run) and
set up as linprog(method="highs") sets it up.  Each Lp.solve(lam) changes
only the two costs, so after the first solve every optimal basis stays
primal feasible for the next lambda and the primal simplex resumes from
it, with HiGHS's bound perturbation off: perturbing the bounds would move
the run off the vertex it already holds, and the perturbation would have
to be cleaned up at its end.  frontier_sweep runs a whole lambda grid on
one Lp.
export_lp_objective and export_lp_body write an LP file's two parts, a
lambda's objective and the model, in the standard LP text format for
external solvers.  The body is array code: each distinct coefficient is
formatted once, and export_lp_body yields the text as encoded blocks of
rows, each joined from tokens with its row names made for it from the row
layout, then the Bounds block.  A caller streams the blocks to a file and
never holds the text whole: at (20, 512) the traced peak is about 2.2
times the text's length.  The export command formats the body once,
streams it into the first lambda's file and copies it from there into the
others; its peak resident memory is 73 MB at (30, 1024), two files of
12 MB, and 319 MB at (60, 4096), three files of 101 MB (2-CPU host).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import scipy

from .priors import DiscretePrior, _count, harmonic_prior  # also read as hardness.harmonic_prior

_HIGHS_MODULE = "scipy.optimize._highspy._core"  # the HiGHS binding linprog(method="highs") drives


def _load_highs(directory):
    """scipy's HiGHS binding, loaded from its extension file in directory.

    Importing it by name would first run scipy.optimize's package imports
    (linprog and the rest of scipy.optimize, with scipy.sparse), which the
    LP here never uses.  The module is registered under its own name, so a
    later ``import scipy.optimize`` reuses it, and an earlier one is reused
    here.
    """
    if _HIGHS_MODULE in sys.modules:
        return sys.modules[_HIGHS_MODULE]
    spec = importlib.machinery.PathFinder.find_spec(_HIGHS_MODULE, [os.fspath(directory)])
    if spec is None:
        raise ImportError(f"{_HIGHS_MODULE} not found in {directory}; stoppred.hardness needs scipy>=1.15")
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_MODULE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_HIGHS_MODULE]
        raise
    return module


_highs = _load_highs(os.path.join(scipy.__path__[0], "optimize", "_highspy"))

__all__ = [
    "FEASIBILITY_TOL",
    "Csr",
    "PolytopeModel",
    "build_polytope",
    "LpSolution",
    "LpError",
    "Lp",
    "export_lp_objective",
    "export_lp_body",
    "FrontierPoint",
    "frontier_sweep",
    "delta_table",
    "win_prob_by_truncation",
    "acc_to_rej",
]

FEASIBILITY_TOL = 1e-7  # largest constraint or bound violation a solution may show


def _pmf_array(pmf):
    if isinstance(pmf, DiscretePrior):
        return pmf.pmf
    arr = np.asarray(pmf, dtype=float)
    DiscretePrior(arr)  # reuse the validation
    return arr


def _cdf_pair(pmf):
    """F(l) and F(l-1) for l = 1..K, with F(K) set to exactly 1."""
    F = np.cumsum(pmf)
    F[-1] = 1.0
    return F, np.concatenate(([0.0], F[:-1]))


def _check_lambda(lam):
    """lam as a float, or a ValueError if it lies outside [0, 1]."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda weight must lie in [0, 1]")
    return lam


def delta_table(pmf, n):
    """Delta^t(l) for t = 0..n as an (n+1, K) array.

    Delta^t(l) = F(l)^t - F(l-1)^t, computed as F(l)^t times the scaled
    table of _scaled_delta, which build_polytope's rows carry.
    """
    n = _count(n, "n", 0)
    F, Fm1 = _cdf_pair(_pmf_array(pmf))
    with np.errstate(invalid="ignore"):
        D = _scaled_delta(Fm1 / F, n)  # F(l) = 0 gives a NaN ratio, and F(l)^t D[t, l] = 0
    return np.array([F**t * D[t] for t in range(n + 1)])


def _scaled_delta(ratio, n):
    """D[t, l] = Delta^t(l) / F(l)^t for t = 0..n, as an (n+1, K) array.

    ratio holds F(l-1)/F(l).  D[0, l] = 1{l = 1}, and D[t, l] = 1 - ratio^t
    is computed as -expm1(t * log(ratio)) to avoid the subtractive
    cancellation at large l; a ratio that is not positive gives 1.
    """
    D = np.zeros((n + 1, len(ratio)))
    D[0, 0] = 1.0
    with np.errstate(divide="ignore"):
        logratio = np.where(ratio > 0.0, np.log(np.maximum(ratio, 1e-300)), -np.inf)
    for t in range(1, n + 1):
        D[t] = -np.expm1(t * logratio)
    return D


@dataclass(frozen=True)
class Csr:
    """A sparse matrix in compressed sparse rows, scipy's csr_matrix layout.

    Row r holds the entries data[indptr[r]:indptr[r+1]] in the columns
    indices[indptr[r]:indptr[r+1]], in increasing column order, with no
    column twice.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    @property
    def nnz(self):
        return len(self.data)

    def rows(self):
        """The row number of each entry."""
        return np.repeat(np.arange(self.shape[0], dtype=self.indices.dtype), np.diff(self.indptr))

    def __matmul__(self, x):
        return np.bincount(self.rows(), weights=self.data * x[self.indices], minlength=self.shape[0])


@dataclass(frozen=True)
class PolytopeModel:
    """Assembled polytope; the LP maximizes lam * alpha + (1 - lam) * beta over it."""

    n: int
    K: int
    pmf: np.ndarray
    a: Csr  # the <= rows (slo, sup, cons, rob), then the = rows (pdef, vdef, bdef)
    row_lower: np.ndarray  # -inf on a <= row, row_upper on an = row
    row_upper: np.ndarray
    col_lower: np.ndarray  # -inf on a column without a lower bound
    col_upper: np.ndarray  # inf on a column without an upper bound
    col_names: list

    @property
    def num_vars(self):
        return len(self.col_names)

    @property
    def row_names(self):
        """The row names in order, expanded from the row layout by _row_names."""
        return list(itertools.chain.from_iterable(_row_names(self.n, self.K)))


def _levels(K):
    """The suffixes "_1" .. "_K" of the names of a level family."""
    return [f"_{l}" for l in range(1, K + 1)]


def _grid(family, steps, levels):
    """The names family_{t}_{l} for t in [steps], a list per step: the step's prefix and each level suffix."""
    for t in range(1, steps + 1):
        prefix = f"{family}_{t}"
        yield [prefix + level for level in levels]


def _row_names(n, K):
    """The row names in row order, a run at a time: one step of a grid family, or a whole family.

    The rows are slo_{t}_{l} and sup_{t}_{l} (t in [n]), cons, rob_{k},
    pdef_{t}_{l} (t in [n-1]), vdef_{l} and bdef_{l}.
    """
    levels = _levels(K)
    yield from _grid("slo", n, levels)
    yield from _grid("sup", n, levels)
    yield ["cons"]
    yield ["rob" + level for level in levels]
    yield from _grid("pdef", n - 1, levels)
    yield ["vdef" + level for level in levels]
    yield ["bdef" + level for level in levels]


def _slots(shape, cols, vals, present):
    """One family of constraint rows as (columns, values, present) tables.

    Row r of a table holds the r-th row of the family (rows in C order over
    the grid ``shape``) and slot j its j-th possible entry: cols[j], vals[j]
    and present[j], each broadcast over the grid.  A slot whose present flag
    is false (say, the l - 1 term at l = 1) is not an entry of that row.
    The slots of each row are then put in column order.
    """

    def table(parts):
        return np.stack([np.broadcast_to(x, shape) for x in parts], axis=-1).reshape(-1, len(parts))

    cols = table(cols)
    order = np.argsort(cols, axis=1, kind="stable")
    return tuple(np.take_along_axis(x, order, axis=1) for x in (cols, table(vals), table(present)))


def _csr_from_slots(families, ncols):
    """Csr matrix of the families' rows in turn."""
    counts = np.concatenate([m.sum(axis=1) for _, _, m in families])
    indptr = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate([cols[m] for cols, _, m in families]).astype(np.int32)
    data = np.concatenate([vals[m] for _, vals, m in families])
    return Csr(indptr, indices, data, (len(counts), ncols))


def build_polytope(n, K, pmf):
    """Assemble the polytope for n steps over support {1..K}.

    Columns: the rejection table y_{t,l} (t in [n]) in [0,1], the scaled
    prefix sums p_{t,l} = sum_{m<=l} Delta^t(m) y_{t,m} / F(l)^t in [0,1]
    (t in [n-1]), the scaled per-level win contributions v_l, the cumulative
    win probabilities b_l under the truncation to {1..l} (so the robustness
    rows read beta <= b_l), then alpha and beta.  The t = 0 table is fixed
    at 1 and folded into the right-hand sides.

    The scaling by powers of F keeps every coefficient inside [0, 1]; the
    unscaled rows carry factors down to F(1)^n, which underflow the
    solver's feasibility tolerance at full scale and silently void the
    robustness rows.
    """
    n, K = _count(n, "n"), _count(K, "K")
    pmf = _pmf_array(pmf)
    if len(pmf) != K:
        raise ValueError("pmf length must equal K")
    if np.any(pmf <= 0.0):
        raise ValueError("the truncation family needs strictly positive pmf entries")
    F, Fm1 = _cdf_pair(pmf)
    ratio = Fm1 / F  # F(l-1)/F(l), zero at l = 1
    D = _scaled_delta(ratio, n)  # D[t, l] = 1 - ratio^t, with D[0, l] = 1{l = 1}
    hazard = pmf / F  # f(l)/F(l) = D[1, l]
    # R[t - 1, l - 1] = ratio_l^t by scalar pow: numpy's vectorized power can
    # differ from it in the last bit, and the model is pinned bit for bit
    ratios = ratio.tolist()
    R = np.array([[r**t for r in ratios] for t in range(1, n + 1)])

    # column numbers: y_{t,l} = y[t-1, l-1], p_{t,l} = y[t-1, l-1] + n K,
    # then v_l, b_l, alpha and beta; seen from y_{t,l}, y_{t-1,l} is y - K
    # and p_{t-1,l} is y + (n - 1) K; seen from p_{t,l}, p_{t,l-1} is p - 1
    y = np.arange(n * K).reshape(n, K)
    p = y[: n - 1] + n * K
    v = (2 * n - 1) * K + np.arange(K)
    b = 2 * n * K + np.arange(K)
    ialpha = (2 * n + 1) * K
    ibeta = ialpha + 1
    nvars = ibeta + 1
    later_level = np.arange(K) > 0  # l > 1
    later_step = (np.arange(n) > 0)[:, None]  # t > 1

    levels = _levels(K)
    col_names = list(
        itertools.chain(
            *_grid("y", n, levels),
            *_grid("p", n - 1, levels),
            ["v" + level for level in levels],
            ["b" + level for level in levels],
            ["alpha", "beta"],
        )
    )

    # v_l = sum_t [hazard_l p_{t-1,l} + D[t-1,l] ratio_l y_{t-1,l} - D[t,l] y_{t,l}]
    # gathered per tau: y_{tau,l} carries D[tau,l] (1 - ratio_l) below tau = n
    vcoef = np.vstack((D[1:n] - D[1:n] * ratio, D[n:]))
    a = _csr_from_slots(
        [
            # slo: D[t-1,l] ratio_l y_{t-1,l} <= D[t,l] y_{t,l}
            _slots((n, K), (y, y - K), (-D[1:], D[:n] * ratio), (True, later_step)),
            # sup: D[t,l] y_{t,l} <= D[t-1,l] ratio_l y_{t-1,l} + hazard_l p_{t-1,l},
            # with p_{0,l} = 1 on the right-hand side at t = 1
            _slots(
                (n, K), (y, y - K, y + (n - 1) * K), (D[1:], -D[:n] * ratio, -hazard), (True, later_step, later_step)
            ),
            # cons: alpha <= b_K, and rob: beta <= b_k for every k
            _slots((1,), (ialpha, b[-1]), (1.0, -1.0), (True, True)),
            _slots((K,), (ibeta, b), (1.0, -1.0), (True, True)),
            # pdef: p_{t,l} = ratio_l^t p_{t,l-1} + D[t,l] y_{t,l}
            _slots((n - 1, K), (p, y[: n - 1], p - 1), (1.0, -D[1:n], -R[: n - 1]), (True, True, later_level)),
            # vdef, with the t = 1 terms (p_{0,l} = 1) on the right-hand side
            _slots((K,), (v, *p, *y), (1.0, *[-hazard] * (n - 1), *vcoef), (True,) * 2 * n),
            # bdef: b_l = ratio_l^n b_{l-1} + v_l
            _slots((K,), (b, v, b - 1), (1.0, -1.0, -R[n - 1]), (True, True, later_level)),
        ],
        nvars,
    )
    num_ub = 2 * n * K + 1 + K  # slo, sup, cons and rob
    row_upper = np.concatenate(
        (np.zeros(n * K), hazard, np.zeros((n - 1) * K), [0.0], np.zeros(K))  # the <= rows
        + (np.zeros((n - 1) * K), hazard, np.zeros(K))  # the = rows
    )
    row_lower = row_upper.copy()
    row_lower[:num_ub] = -np.inf
    boxed = np.arange(nvars) < (2 * n - 1) * K  # y and p lie in [0, 1]; v, b, alpha and beta are free
    return PolytopeModel(
        n=n,
        K=K,
        pmf=pmf,
        a=a,
        row_lower=row_lower,
        row_upper=row_upper,
        col_lower=np.where(boxed, 0.0, -np.inf),
        col_upper=np.where(boxed, 1.0, np.inf),
        col_names=col_names,
    )


@dataclass(frozen=True)
class LpSolution:
    lam: float
    objective: float
    alpha: float
    beta: float
    y: np.ndarray
    iterations: int  # simplex iterations of this run; 0 where it started at its optimum


class LpError(ArithmeticError):
    """The LP solve failed or its solution did not check out."""


def _read_solution(highs, model, lam):
    """Check the solve HiGHS just finished and read back the envelope point.

    alpha and beta are recomputed from the optimal rejection table (they are
    the win-probability expressions at y*), which pins them even when their
    objective weight is 0.  Both checks are written so that a NaN fails them.
    """
    status = highs.getModelStatus()
    if status == _highs.HighsModelStatus.kUnbounded:
        raise LpError("LP reported unbounded; alpha and beta are bounded by 1, so the model is broken")
    if status == _highs.HighsModelStatus.kInfeasible:
        raise LpError("LP reported infeasible; the reject-all table is always feasible, so the model is broken")
    if status != _highs.HighsModelStatus.kOptimal:
        raise LpError(f"LP solve failed: {highs.modelStatusToString(status)}")
    x = np.array(highs.getSolution().col_value)
    ax = model.a @ x
    excess = (model.row_lower - ax, ax - model.row_upper, model.col_lower - x, x - model.col_upper)
    resid = float(np.max(np.concatenate(excess), initial=0.0))
    if not resid <= FEASIBILITY_TOL:
        raise LpError(f"solution violates constraints by {resid:.3e}")
    y = x[: model.n * model.K].reshape(model.n, model.K)
    exprs = win_prob_by_truncation(y, model.pmf)
    alpha = float(exprs[-1])
    beta = float(exprs.min())
    info = highs.getInfo()
    objective = -info.objective_function_value
    if not abs(lam * alpha + (1.0 - lam) * beta - objective) <= 1e-6:
        raise LpError("recomputed envelope point disagrees with the LP objective")
    iterations = info.simplex_iteration_count
    return LpSolution(lam=lam, objective=objective, alpha=alpha, beta=beta, y=y, iterations=iterations)


# HiGHS options of every run after the first: the primal simplex, without bound perturbation (see Lp)
_WARM_OPTIONS = (("simplex_strategy", 4), ("primal_simplex_bound_perturbation_multiplier", 0.0))


class Lp:
    """The model on one HiGHS instance, which solve(lam) runs at a lambda.

    The instance takes the model at zero cost, its Csr matrix row-wise as
    it is, with linprog(method="highs")'s options.  Each solve sets the
    alpha and beta costs before its run, so every run after the first
    resumes from the previous optimal basis.  That basis is still primal
    feasible, as only costs changed, so the re-solves use the primal
    simplex, and without bound perturbation: perturbing the bounds would
    move each run off the vertex it already holds and leave the
    perturbation to clean up at its end.  The first, cold run keeps
    linprog's default strategy.  Every option is set through _set_option,
    which raises LpError where HiGHS rejects one.
    """

    def __init__(self, model):
        lp = _highs.HighsLp()
        lp.num_row_ = lp.a_matrix_.num_row_ = model.a.shape[0]
        lp.num_col_ = lp.a_matrix_.num_col_ = model.num_vars
        lp.a_matrix_.format_ = _highs.MatrixFormat.kRowwise
        lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = model.a.indptr, model.a.indices, model.a.data
        lp.col_cost_ = np.zeros(model.num_vars)
        lp.col_lower_ = model.col_lower
        lp.col_upper_ = model.col_upper
        lp.row_lower_ = model.row_lower
        lp.row_upper_ = model.row_upper
        self.model = model
        self._highs = _highs._Highs()
        for option, value in (("presolve", "on"), ("output_flag", False), ("log_to_console", False)):
            self._set_option(option, value)
        self._highs.passModel(lp)

    def _set_option(self, option, value):
        # HiGHS answers an unknown name or a bad value with a status, not an exception
        status = self._highs.setOptionValue(option, value)
        if status != _highs.HighsStatus.kOk:
            raise LpError(f"HiGHS rejected option {option} = {value!r}: {status.name}")

    def solve(self, lam):
        """Maximize lam * alpha + (1 - lam) * beta over the model and read back the envelope point.

        alpha and beta are recomputed from the optimal rejection table; a
        non-optimal status, a residual above FEASIBILITY_TOL or a mismatched
        envelope raises LpError.
        """
        lam = _check_lambda(lam)
        cols = np.array([self.model.num_vars - 2, self.model.num_vars - 1], dtype=np.int32)
        self._highs.changeColsCost(2, cols, np.array([-lam, -(1.0 - lam)]))
        self._highs.run()
        for option, value in _WARM_OPTIONS:  # from the second run on
            self._set_option(option, value)
        return _read_solution(self._highs, self.model, lam)


@dataclass(frozen=True)
class FrontierPoint:
    lam: float
    lp_star: float
    alpha_star: float
    beta_star: float
    error: str | None = None


def frontier_sweep(n, K, pmf, lambdas):
    """Solve the LP across a lambda grid; per-point failures become gaps.

    Every lambda is checked before anything is built.  The distinct lambdas
    are solved in descending order on one Lp (the lambda = 1 cold solve is
    the cheapest), and the points come back in input order.
    """
    lambdas = [_check_lambda(lam) for lam in lambdas]
    lp = Lp(build_polytope(n, K, pmf))
    solved = {}
    for lam in sorted(set(lambdas), reverse=True):
        try:
            sol = lp.solve(lam)
        except LpError as exc:
            solved[lam] = (math.nan, math.nan, math.nan, str(exc))
        else:
            solved[lam] = (sol.objective, sol.alpha, sol.beta)
    return [FrontierPoint(lam, *solved[lam]) for lam in lambdas]


# ---------------------------------------------------------------------------
# Rule representations


def acc_to_rej(acc, pmf):
    """Forward induction from acceptance to rejection probabilities.

    Where the conditioning event has zero probability (delta^t(l) = 0) the
    entry is vacuous and set to 1; where the best-so-far arrival mass is
    zero the acceptance entry is irrelevant and drops out on its own.
    """
    acc = np.asarray(acc, dtype=float)
    if not np.all((acc >= 0.0) & (acc <= 1.0)):  # written so that a NaN fails it
        raise ValueError("acceptance entries must lie in [0, 1]")
    n, K = acc.shape
    pmf = _pmf_array(pmf)
    _, Fm1 = _cdf_pair(pmf)
    delta = delta_table(pmf, n)
    rej = np.empty_like(acc)
    prev = np.ones(K)
    for t in range(1, n + 1):
        arrivals = pmf * np.cumsum(delta[t - 1] * prev)
        num = prev * delta[t - 1] * Fm1 + (1.0 - acc[t - 1]) * arrivals
        with np.errstate(invalid="ignore", divide="ignore"):
            row = np.where(delta[t] > 0.0, num / np.where(delta[t] > 0.0, delta[t], 1.0), 1.0)
        rej[t - 1] = np.clip(row, 0.0, 1.0)
        prev = rej[t - 1]
    return rej


def win_prob_by_truncation(rej, pmf):
    """Win probability of a rejection table under each truncated prior.

    Entry k - 1 is the linear expression behind the k-th robustness row
    (k = K gives the consistency row), evaluated at the table.
    """
    rej = np.asarray(rej, dtype=float)
    n, K = rej.shape
    pmf = _pmf_array(pmf)
    F, Fm1 = _cdf_pair(pmf)
    delta = delta_table(pmf, n)
    rej_ext = np.vstack([np.ones(K), rej])
    V = np.zeros(K)
    for t in range(1, n + 1):
        arrivals = pmf * np.cumsum(delta[t - 1] * rej_ext[t - 1])
        w = arrivals + delta[t - 1] * Fm1 * rej_ext[t - 1] - delta[t] * rej_ext[t]
        V += F ** (n - t) * w
    with np.errstate(divide="ignore"):
        return np.cumsum(V) / F**n


# ---------------------------------------------------------------------------
# LP text format


def export_lp_objective(lam):
    """The objective section of the LP text at lambda lam, the only part that depends on lambda."""
    lam = _check_lambda(lam)
    terms = [f"{coef:.17g} {name}" for name, coef in (("alpha", lam), ("beta", 1.0 - lam)) if coef != 0.0]
    return f"Maximize\n obj: {' + '.join(terms)}\n"


def export_lp_body(model):
    """The constraint and bounds sections of the LP text, shared by every lambda, as encoded blocks.

    A generator: each block is formatted when it is asked for.  The rows
    come _BLOCK_ROWS to a block (the first block opens with "Subject To"),
    then one block holds the Bounds section and the closing "End".
    """
    cols = np.array(model.col_names, dtype=object)
    for block in _row_lines(model, cols):
        yield block.encode()
    yield _bound_lines(model, cols).encode()


_BLOCK_ROWS = 4096  # rows joined into one string at a time, which bounds the token arrays
# a term's sign token, indexed by 2 * (not the row's first term) + (negative); the
# first one also closes the "name:" that opens its row
_SIGNS = np.array([": ", ": - ", " + ", " - "], dtype=object)


def _formatted(x, pattern):
    """pattern % v for each entry v of x, as an object array.

    Each distinct double is formatted once; doubles are told apart by their
    bits, so -0.0 ("-0") stays apart from 0.0 ("0").
    """
    bits, inverse = np.unique(np.ascontiguousarray(x, dtype=float).view(np.int64), return_inverse=True)
    return np.array([pattern % v for v in bits.view(np.float64).tolist()], dtype=object)[inverse]


def _row_lines(model, cols):
    """The lines " name: terms sense rhs" of the rows, in order.

    Each string yielded holds _BLOCK_ROWS rows (the last one fewer), and
    the first one opens with the "Subject To" line.

    Zero coefficients are dropped, a row's first term has no sign if it is
    positive, and a row with no term left reads "0 <first column>".  The
    sense is "=" where the row's bounds are equal and "<=" elsewhere, and
    the right-hand side is the row's upper bound.  A block is the tokens of
    its head (the section line, or "") and of its rows: " ", the row's name,
    three per term (sign, magnitude, column) and its end (sense, rhs,
    newline).  Each block's row names are made with it, from _row_names.
    """
    indptr, data = model.a.indptr, model.a.data
    keep = data != 0.0
    kept = np.concatenate(([0], np.cumsum(keep)))[indptr]
    # an all-zero row keeps its first entry, whose magnitude reads "0"
    keep[indptr[:-1][kept[:-1] == kept[1:]]] = True
    # kept[r]: the terms before row r, so row r's terms are kept[r]:kept[r+1]
    kept = np.concatenate(([0], np.cumsum(keep)))[indptr]
    coefs = data[keep]
    signs = (coefs < 0.0).astype(np.int8) + 2
    signs[kept[:-1]] -= 2  # each row's first term
    mags = _formatted(np.abs(coefs), "%.17g ")
    indices = model.a.indices[keep]
    del keep, coefs  # the blocks need only the term tokens' parts
    names = itertools.chain.from_iterable(_row_names(model.n, model.K))
    ends = _formatted(model.row_upper, " <= %.17g\n")
    eq = model.row_lower == model.row_upper
    ends[eq] = _formatted(model.row_upper[eq], " = %.17g\n")
    nrows = len(ends)
    for lo in range(0, nrows, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, nrows)
        a, b = kept[lo], kept[hi]
        # at[i]: where row lo + i starts among the block's tokens; at[-1] is their count
        at = 1 + 3 * (np.arange(hi - lo + 1) + kept[lo : hi + 1] - a)
        tokens = np.empty(at[-1], dtype=object)
        tokens[0] = "" if lo else "Subject To\n"
        tokens[at[:-1]] = " "
        tokens[at[:-1] + 1] = list(itertools.islice(names, hi - lo))
        tokens[at[1:] - 1] = ends[lo:hi]
        # term j of the block, in its i-th row, opens at 1 + 3 (i + j) + 2
        term_at = 3 * (np.repeat(np.arange(hi - lo), np.diff(kept[lo : hi + 1])) + np.arange(b - a)) + 3
        tokens[term_at] = _SIGNS[signs[a:b]]
        tokens[term_at + 1] = mags[a:b]
        tokens[term_at + 2] = cols[indices[a:b]]
        yield "".join(tokens.tolist())


def _bound_lines(model, cols):
    """The Bounds section: its line, the lines " lo <= name <= hi", " name >= lo" and " name free", and "End"."""
    lo, hi = model.col_lower, model.col_upper
    boxed = hi < np.inf
    tokens = np.empty((len(cols), 3), dtype=object)
    tokens[:, 0] = np.where(boxed, _formatted(lo, " %.17g <= "), " ")
    tokens[:, 1] = cols
    tokens[:, 2] = np.where(
        boxed, _formatted(hi, " <= %.17g\n"), np.where(lo == -np.inf, " free\n", _formatted(lo, " >= %.17g\n"))
    )
    return "".join(["Bounds\n", *tokens.ravel().tolist(), "End\n"])
