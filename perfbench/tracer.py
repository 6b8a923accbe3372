"""Span recorder for the traced benchmark run.

The traced run replaces, from outside the package, the names that callers
look up (module functions, ``ThresholdFn.eval``, the priors' ``cdf`` and
``quantile``) with wrappers that record one span per call: name, start,
end and the enclosing span.  Spans stay in memory in flat arrays and are
written out when the run ends.  The untraced run never imports this module.

Per name, ``<name>.s`` is the summed duration of its outermost spans (a
span nested in a span of the same name, like ``PowerRoot.cdf`` calling its
base ``cdf``, is not counted twice), ``<name>.calls`` the number of spans
and ``<name>.self_s`` the summed duration minus the time covered by child
spans.
"""

from __future__ import annotations

import collections
import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._active = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts = collections.Counter()

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def wrap(self, name, fn, after=None):
        """Wrap fn in a span; after(counts, args, kwargs, result) adds counts."""
        nid = self._name_id(name)
        names, parents, outer = self.span_name, self.span_parent, self.span_outer
        starts, ends, stack, active = self.span_start, self.span_end, self._stack, self._active
        counts, clock = self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            outer.append(active[nid] == 0)
            ends.append(0.0)
            stack.append(i)
            active[nid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                active[nid] -= 1
                stack.pop()
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        return traced

    def totals(self):
        """Per name: (calls, outermost duration, self time)."""
        n = len(self.span_name)
        child = [0.0] * n
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = collections.Counter()
        total = collections.defaultdict(float)
        self_s = collections.defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            d = ends[i] - starts[i]
            calls[name] += 1
            if self.span_outer[i]:
                total[name] += d
            self_s[name] += d - child[i]
        return calls, total, self_s

    def count_under(self, name, ancestor):
        """Number of spans called name that have an ancestor span called ancestor."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        nid, aid = self._ids[name], self._ids[ancestor]
        names, parents = self.span_name, self.span_parent
        found = 0
        for i in range(len(names)):
            if names[i] == nid:
                p = parents[i]
                while p >= 0 and names[p] != aid:
                    p = parents[p]
                found += p >= 0
        return found

    def write_spans(self, path):
        """One line per span: index, name, start, end, parent index (-1 for none)."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart\tend\tparent\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]!r}"
                    f"\t{self.span_end[i]!r}\t{self.span_parent[i]}\n"
                )


def _replace_everywhere(namespaces, orig, wrapped):
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is orig:
                setattr(ns, key, wrapped)


def install(tracer):
    """Wrap the layer entry points of the imported stoppred package.

    A function is replaced under every name that holds it in any stoppred
    module, so ``from .quadrature import log_time_integral`` callers are
    traced too.  Names a later version no longer defines are skipped and
    their metrics read 0.
    """
    modules = [m for name, m in sys.modules.items() if name == "stoppred" or name.startswith("stoppred.")]
    gm_outputs = []

    def patch(span, module, attr, after=None):
        orig = getattr(sys.modules.get(f"stoppred.{module}"), attr, None)
        if orig is not None:
            _replace_everywhere(modules, orig, tracer.wrap(span, orig, after))

    def patch_method(span, cls, attr):
        orig = cls.__dict__.get(attr)
        if orig is not None:
            _replace_everywhere([cls], orig, tracer.wrap(span, orig))

    def count_trials(counts, args, kwargs, report):
        counts["engine.trials"] += report.trials

    def count_scan(counts, args, kwargs, result):
        rows, n = args[0].shape
        pos = result[0]
        counts["engine.scan_useful"] += int(np.where(pos >= 0, pos + 1, n).sum())
        counts["engine.scan_positions"] += rows * n

    def count_gm(counts, args, kwargs, theta):
        counts["thresholds.gm_pieces"] += len(theta.values)
        gm_outputs.append(theta)

    def count_kept(counts, args, kwargs, result):
        theta, pair = args[0], args[1]
        if any(theta is g for g in gm_outputs) and hasattr(pair, "lambda2"):
            counts["thresholds.gm_kept"] += sum(
                1 for a, b, _ in theta.pieces() if b > pair.lambda1 and a < pair.lambda2
            )

    def count_nnz(counts, args, kwargs, model):
        counts["hardness.build_polytope.nnz"] += model.a_ub.nnz + model.a_eq.nnz

    def count_linprog(counts, args, kwargs, res):
        counts["hardness.linprog.nit"] += int(res.nit)
        counts["hardness.linprog.failed"] += 0 if res.success else 1

    def count_bytes(counts, args, kwargs, text):
        counts["hardness.export_lp.bytes"] += len(text.encode())

    patch("cli.main", "cli", "main")
    patch("priors.lambda_pair", "priors", "lambda_pair")
    priors = sys.modules["stoppred.priors"]
    for cls in vars(priors).values():
        if isinstance(cls, type) and issubclass(cls, priors.Prior):
            patch_method("priors.cdf", cls, "cdf")
            patch_method("priors.quantile", cls, "quantile")
    patch_method("thresholds.eval", sys.modules["stoppred.thresholds"].ThresholdFn, "eval")
    patch("thresholds.gm_threshold", "thresholds", "gm_threshold", count_gm)
    patch("thresholds.gm_threshold_value", "thresholds", "gm_threshold_value")
    patch("thresholds.foc_quadrature", "thresholds", "_gm_foc_residual")
    patch("thresholds.robustify", "thresholds", "robustify", count_kept)
    patch("quadrature.log_time_integral", "quadrature", "log_time_integral")
    patch("quadrature.gauss_refine", "quadrature", "gauss_refine")
    patch("quadrature.adaptive_simpson", "quadrature", "adaptive_simpson")
    patch("maxexp.max_alpha_for_beta", "maxexp", "max_alpha_for_beta")
    patch("maxexp.solve_steps", "maxexp", "solve_steps")
    patch("analytics.maxprob_alpha", "analytics", "maxprob_alpha")
    patch("analytics.win_probability", "analytics", "win_probability")
    patch("analytics.googol_win_formula", "analytics", "googol_win_formula")
    patch("engine.simulate", "engine", "simulate", count_trials)
    patch("engine.scan_first_accept", "engine", "scan_first_accept", count_scan)
    patch("engine.googol_win_mc", "engine", "googol_win_mc")
    patch("engine.simulate_coupled_sharding", "engine", "simulate_coupled_sharding")
    patch("hardness.build_polytope", "hardness", "build_polytope", count_nnz)
    patch("hardness.linprog", "hardness", "linprog", count_linprog)
    patch("hardness.solve_lp", "hardness", "solve_lp")
    patch("hardness.export_lp", "hardness", "export_lp", count_bytes)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics of one traced workload run, by name."""
    calls, total, self_s = tracer.totals()
    counts = tracer.counts
    lti_in_solve = tracer.count_under("quadrature.log_time_integral", "maxexp.solve_steps")
    metrics = {
        "cli.main.s": total["cli.main"],
        "cli.self_s": self_s["cli.main"],
        "priors.quantile.s": total["priors.quantile"],
        "priors.cdf.s": total["priors.cdf"],
        "priors.lambda_pair.s": total["priors.lambda_pair"],
        "thresholds.gm_threshold.s": total["thresholds.gm_threshold"],
        "thresholds.gm_threshold_value.calls": calls["thresholds.gm_threshold_value"],
        "thresholds.foc_quadratures": calls["thresholds.foc_quadrature"],
        "thresholds.gm_kept_frac": _ratio(counts["thresholds.gm_kept"], counts["thresholds.gm_pieces"]),
        "thresholds.eval.s": total["thresholds.eval"],
        "thresholds.eval.calls": calls["thresholds.eval"],
        "maxexp.max_alpha_for_beta.s": total["maxexp.max_alpha_for_beta"],
        "maxexp.solve_steps.calls": calls["maxexp.solve_steps"],
        "maxexp.lti_per_solve": _ratio(lti_in_solve, calls["maxexp.solve_steps"]),
        "analytics.maxprob_alpha.s": total["analytics.maxprob_alpha"],
        "analytics.maxprob_alpha.calls": calls["analytics.maxprob_alpha"],
        "analytics.win_probability.s": total["analytics.win_probability"],
        "analytics.googol_win_formula.s": total["analytics.googol_win_formula"],
        "engine.simulate.s": total["engine.simulate"],
        "engine.simulate.self_s": self_s["engine.simulate"],
        "engine.scan_first_accept.s": total["engine.scan_first_accept"],
        "engine.scan_first_accept.calls": calls["engine.scan_first_accept"],
        "engine.scan_useful_frac": _ratio(counts["engine.scan_useful"], counts["engine.scan_positions"]),
        "engine.trials_per_s": _ratio(counts["engine.trials"], total["engine.simulate"]),
        "engine.googol_win_mc.s": total["engine.googol_win_mc"],
        "engine.simulate_coupled_sharding.s": total["engine.simulate_coupled_sharding"],
        "hardness.build_polytope.s": total["hardness.build_polytope"],
        "hardness.build_polytope.nnz": counts["hardness.build_polytope.nnz"],
        "hardness.linprog.s": total["hardness.linprog"],
        "hardness.linprog.nit": counts["hardness.linprog.nit"],
        "hardness.linprog.failed": counts["hardness.linprog.failed"],
        "hardness.solve_lp.self_s": self_s["hardness.solve_lp"],
        "hardness.export_lp.s": total["hardness.export_lp"],
        "hardness.export_lp.bytes": counts["hardness.export_lp.bytes"],
    }
    for name in ("log_time_integral", "gauss_refine", "adaptive_simpson"):
        metrics[f"quadrature.{name}.calls"] = calls[f"quadrature.{name}"]
        metrics[f"quadrature.{name}.s"] = total[f"quadrature.{name}"]
    return metrics

