"""Batch command-line interface.

Subcommands reproduce the trade-off curves, dump thresholds, run Monte
Carlo simulations, sweep the hardness frontier, and execute the built-in
verification suites.  Every output starts with a one-line ``#`` manifest
(command plus all parameters, seed included) so a run is reproducible from
its own output file; identical manifests produce byte-identical files.

Prior specs: ``uniform:a,b``, ``exp:rate``, ``pmf:FILE`` (one probability
per line over {1..K}), ``harmonic:K``.
Threshold specs: ``dynkin:lam``, ``gm:n`` (grid size from --m),
``single:n``, ``file:PATH`` (CSV as written by the thresholds command);
``--robustify beta`` wraps any of them.

Exit codes: 0 ok, 2 bad arguments (including values the library rejects
with ValueError and output paths that cannot be written), 3 numerical
failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import analytics, engine, maxexp, thresholds
from .priors import E_INV, DiscretePrior, Exponential, Uniform, lambda_pair

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


class CliError(Exception):
    pass


def parse_prior(spec):
    kind, _, arg = spec.partition(":")
    try:
        if kind == "uniform":
            a, b = (float(x) for x in arg.split(","))
            return Uniform(a, b)
        if kind == "exp":
            return Exponential(float(arg))
        if kind == "harmonic":
            from . import hardness  # the LP stack loads only for LP commands

            return hardness.harmonic_prior(int(arg))
        if kind == "pmf":
            with open(arg) as fh:
                probs = [float(line) for line in fh if line.strip()]
            return DiscretePrior(np.asarray(probs))
    except (ValueError, OSError) as exc:
        raise CliError(f"bad prior spec {spec!r}: {exc}") from exc
    raise CliError(f"unknown prior family {kind!r}")


def parse_threshold(spec, m=300, robustify_beta=None):
    kind, _, arg = spec.partition(":")
    try:
        if kind == "dynkin":
            theta = thresholds.dynkin_threshold(float(arg))
        elif kind == "gm":
            theta = thresholds.gm_threshold(int(arg), m)
        elif kind == "single":
            theta = thresholds.single_threshold(int(arg))
        elif kind == "file":
            with open(arg) as fh:
                theta = thresholds.threshold_from_csv(fh.read())
        else:
            raise CliError(f"unknown threshold spec {kind!r}")
    except (ValueError, OSError) as exc:
        raise CliError(f"bad threshold spec {spec!r}: {exc}") from exc
    if robustify_beta is not None:
        theta = thresholds.robustify(theta, lambda_pair(robustify_beta))
    return theta


def parse_grid(text):
    """'a:b:step' inclusive grid, or a comma-separated list."""
    try:
        if ":" in text:
            a, b, step = (float(x) for x in text.split(":"))
            if not all(-math.inf < x < math.inf for x in (a, b, step)):
                raise ValueError("grid bounds and step must be finite")
            if step <= 0:
                raise ValueError("step must be positive")
            count = int(math.floor((b - a) / step + 1e-9)) + 1
            return [a + i * step for i in range(count)]
        grid = [float(x) for x in text.split(",")]
        if not all(-math.inf < x < math.inf for x in grid):
            raise ValueError("grid values must be finite")
        return grid
    except ValueError as exc:
        raise CliError(f"bad grid {text!r}: {exc}") from exc


def manifest_line(command, params):
    parts = [f"command={command}"]
    parts += [f"{k}={params[k]}" for k in sorted(params)]
    return "# " + " ".join(parts)


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _g(x):
    return f"{x:.17g}"


def cmd_maxexp_curve(args):
    betas = parse_grid(args.beta_grid) if args.beta_grid else [args.beta]
    if any(b is None for b in betas):
        raise CliError("need --beta or --beta-grid")
    lines = [manifest_line("maxexp-curve", {"betas": ",".join(_g(b) for b in betas), "m": args.m, "tol": args.tol})]
    lines.append("beta,alpha")
    points = maxexp.tradeoff_curve_maxexp(betas, args.m, args.tol)
    failures = 0
    for p in points:
        if p.alpha is None:
            failures += 1
            print(f"maxexp-curve: beta={p.beta} failed: {p.error}", file=sys.stderr)
            continue
        lines.append(f"{_g(p.beta)},{_g(p.alpha)}")
        if args.dump_thresholds:
            os.makedirs(args.dump_thresholds, exist_ok=True)
            path = os.path.join(args.dump_thresholds, f"theta_beta_{p.beta:.6f}.csv")
            head = manifest_line("maxexp-curve", {"beta": _g(p.beta), "m": args.m, "alpha": _g(p.alpha)})
            with open(path, "w") as fh:
                fh.write(head + "\n" + thresholds.threshold_to_csv(p.solution.threshold()))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_NUMERICAL if failures == len(points) else EXIT_OK


def cmd_maxprob_curve(args):
    betas = parse_grid(args.beta_grid) if args.beta_grid else [args.beta]
    if any(b is None for b in betas):
        raise CliError("need --beta or --beta-grid")
    lines = [manifest_line("maxprob-curve", {"betas": ",".join(_g(b) for b in betas)})]
    lines.append("beta,alpha")
    for beta in betas:
        lines.append(f"{_g(beta)},{_g(analytics.maxprob_alpha(beta))}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_thresholds(args):
    theta = parse_threshold(args.threshold, args.m, args.robustify)
    head = manifest_line(
        "thresholds", {"threshold": args.threshold, "m": args.m, "robustify": args.robustify}
    )
    _emit(head + "\n" + thresholds.threshold_to_csv(theta), args.out)
    return EXIT_OK


def cmd_simulate(args):
    real = parse_prior(args.real)
    predicted = parse_prior(args.predicted)
    theta = parse_threshold(args.threshold, args.m, args.robustify)
    report = engine.simulate(real, predicted, theta, args.n, args.trials, args.seed)
    head = manifest_line(
        "simulate",
        {
            "real": args.real,
            "predicted": args.predicted,
            "threshold": args.threshold,
            "robustify": args.robustify,
            "n": args.n,
            "trials": args.trials,
            "seed": args.seed,
            "m": args.m,
        },
    )
    body = [
        head,
        f"trials={report.trials}",
        f"maxprob={_g(report.maxprob)}",
        f"maxprob_se={_g(report.maxprob_se)}",
        f"maxexp_ratio={_g(report.maxexp_ratio)}",
        f"maxexp_se={_g(report.maxexp_se)}",
        f"acceptance_rate={_g(report.acceptance_rate)}",
    ]
    _emit("\n".join(body) + "\n", args.out)
    return EXIT_OK


def cmd_hardness_frontier(args):
    from . import hardness

    prior = hardness.harmonic_prior(args.k_support)
    lambdas = parse_grid(args.lambda_grid)
    params = {"n": args.n, "k_support": args.k_support, "lambdas": args.lambda_grid, "solver": args.solver}
    if args.solver == "export":
        if not args.out:
            raise CliError("export mode needs --out DIRECTORY")
        # every lambda and its file name are checked before anything is built or written
        objectives = {}
        for lam in lambdas:
            name = f"frontier_lambda_{lam:.4f}.lp"
            if name in objectives:
                raise CliError(f"lambdas {_g(objectives[name][0])} and {_g(lam)} both map to the file {name}")
            objectives[name] = (lam, hardness.export_lp_objective(lam))
        # only the objective depends on lambda, so the body is serialized once
        body = hardness.export_lp_body(hardness.build_polytope(args.n, args.k_support, prior))
        os.makedirs(args.out, exist_ok=True)
        for name, (lam, objective) in objectives.items():
            header = manifest_line("hardness-frontier", {**params, "lambda": _g(lam)}).lstrip("# ")
            with open(f"{args.out}/{name}", "w") as fh:
                fh.write("\\ " + header + "\n" + objective + body)
        print(f"wrote {len(objectives)} LP files to {args.out}")
        return EXIT_OK
    points = hardness.frontier_sweep(args.n, args.k_support, prior, lambdas)
    lines = [manifest_line("hardness-frontier", params), "lambda,lp_star,alpha_star,beta_star"]
    failures = 0
    for p in points:
        if p.error:
            failures += 1
            print(f"hardness-frontier: lambda={p.lam} failed: {p.error}", file=sys.stderr)
        else:
            lines.append(f"{_g(p.lam)},{_g(p.lp_star)},{_g(p.alpha_star)},{_g(p.beta_star)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_NUMERICAL if failures == len(points) else EXIT_OK


def _verify_quick():
    checks = []
    pair = lambda_pair(1.0 / 3.0)
    checks.append(("lambda roots bracket 1/e", pair.lambda1 <= E_INV <= pair.lambda2))
    checks.append(("lambda_pair(0) = (0, 1)", lambda_pair(0.0).lambda1 == 0.0 and lambda_pair(0.0).lambda2 == 1.0))
    d = thresholds.dynkin_threshold(E_INV)
    checks.append(("wait-phase eval", d.eval(0.2) == 1.0 and d.eval(0.5) == 0.0))
    rob = thresholds.robustify(thresholds.single_threshold(10), pair)
    rob2 = thresholds.robustify(rob, pair)
    checks.append(("robustify idempotent", rob == rob2))
    c = analytics.solve_constant_c()
    checks.append(("series constant residual", abs(analytics.c_series(c) - 1.0) <= 1e-12))
    prior = DiscretePrior([0.5, 0.3, 0.2])
    t2 = prior.truncate(2)
    checks.append(("truncation renormalizes", np.allclose(t2.pmf, [0.625, 0.375])))
    no_wait = thresholds.single_threshold(1)  # constant 0
    checks.append(("no-wait rule wins half at n=2", analytics.googol_win_formula([0.2, 0.9], no_wait) == 0.5))
    theta1 = thresholds.ThresholdFn([1.0], [1.0])
    checks.append(("threshold one never accepts", analytics.googol_win_formula([0.2, 0.9], theta1) == 0.0))
    return checks


def _verify_oracle():
    checks = []
    trials, seed = 50_000, 20240901
    uni = Uniform(0.0, 1.0)
    pair = lambda_pair(1.0 / 3.0)
    for n in (3, 10):
        gm = thresholds.gm_threshold(n, 120)
        cases = {
            "dynkin": thresholds.dynkin_threshold(E_INV),
            "gm": gm,
            "robust-gm": thresholds.robustify(gm, pair),
        }
        for name, theta in cases.items():
            exact = analytics.win_probability(theta, n)
            rep = engine.simulate(uni, uni, theta, n, trials, seed)
            ok = abs(rep.maxprob - exact) <= 4.0 * max(rep.maxprob_se, 1e-12)
            checks.append((f"win prob vs simulate n={n} {name}", ok))
            values = np.linspace(0.5, 3.5, n)
            wide = Uniform(0.0, 4.0)
            formula = analytics.googol_win_formula(np.asarray(wide.cdf(values)), theta)
            mc, se = engine.googol_win_mc(values, wide, theta, trials, seed + 1)
            checks.append((f"googol formula vs mc n={n} {name}", abs(formula - mc) <= 4.0 * max(se, 1e-12)))
    return checks


def _verify_golden():
    checks = []
    c = analytics.solve_constant_c()
    checks.append(("series constant near 0.80435", 0.80430 <= c <= 0.80440))
    pair = lambda_pair(1.0 / 3.0)
    checks.append(("roots at beta=1/3", abs(pair.lambda1 - 0.220) <= 1e-3 and abs(pair.lambda2 - 0.538) <= 1e-3))
    checks.append(("full-information constant", abs(analytics.maxprob_alpha(0.0) - 0.5801) <= 5e-4))
    checks.append(("degenerate band", abs(analytics.maxprob_alpha(E_INV) - E_INV) <= 1e-9))
    # the recursion at the golden pair: the fixed alpha = 0.6908 certifies
    # with first step value 1.0165 at beta = 0.01, m = 300
    sol = maxexp.solve_steps(0.6908, 0.01, 300)
    checks.append(("golden curve point certifies", sol.feasible))
    checks.append(("golden boundary step value", abs(sol.theta_values[0] - 1.0165) <= 0.01))
    return checks


def cmd_verify(args):
    suites = {"quick": _verify_quick, "oracle": _verify_oracle, "paper": _verify_golden}
    if args.suite not in suites:
        raise CliError(f"unknown suite {args.suite!r}; choose from {sorted(suites)}")
    checks = suites[args.suite]()
    failed = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_VERIFY if failed else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="stoppred", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("maxexp-curve", help="expectation-objective trade-off curve")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--beta-grid", default=None, help="a:b:step or comma list")
    p.add_argument("--m", type=int, default=300)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--dump-thresholds", default=None, metavar="DIR",
                   help="also write the solved threshold CSV per beta")
    common(p)
    p.set_defaults(func=cmd_maxexp_curve)

    p = sub.add_parser("maxprob-curve", help="probability-objective trade-off curve")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--beta-grid", default=None)
    common(p)
    p.set_defaults(func=cmd_maxprob_curve)

    p = sub.add_parser("thresholds", help="dump a threshold as CSV")
    p.add_argument("--threshold", required=True)
    p.add_argument("--m", type=int, default=300)
    p.add_argument("--robustify", type=float, default=None, metavar="BETA")
    common(p)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("simulate", help="Monte Carlo run of the scan algorithm")
    p.add_argument("--real", required=True)
    p.add_argument("--predicted", required=True)
    p.add_argument("--threshold", required=True)
    p.add_argument("--robustify", type=float, default=None, metavar="BETA")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=300)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("hardness-frontier", help="sweep the hardness LP over lambda")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-support", type=int, required=True, metavar="K")
    p.add_argument("--lambda-grid", default="0:1:0.05")
    p.add_argument("--solver", choices=("embedded", "export"), default="embedded")
    common(p)
    p.set_defaults(func=cmd_hardness_frontier)

    p = sub.add_parser("verify", help="run a built-in verification suite")
    p.add_argument("suite", choices=("quick", "oracle", "paper"))
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        # the library raises ValueError for arguments outside its domain, and
        # an output path that cannot be written raises OSError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # hardness.LpError included
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
