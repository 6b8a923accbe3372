"""Batch command-line interface.

Subcommands reproduce the trade-off curves, dump thresholds, run Monte
Carlo simulations, sweep the hardness frontier, and execute the built-in
verification suites.  Every output starts with a one-line ``#`` manifest
(command plus all parameters, seed included) so a run is reproducible from
its own output file; identical manifests produce byte-identical files.

Prior specs: ``uniform:a,b``, ``exp:rate``, ``pmf:FILE`` (one probability
per line over {1..K}), ``harmonic:K``.
Threshold specs: ``dynkin:lam``, ``gm:n`` (grid size from --m),
``single:n``, ``file:PATH`` (CSV as written by the thresholds command, or a
maxexp-curve dump, which simulate reads at theta ** (1/n)); ``--robustify
beta`` wraps any of them.

Exit codes: 0 ok, 2 bad arguments (including values the library rejects
with ValueError, output paths that cannot be written, and arguments whose
arrays do not fit in memory, a MemoryError), 3 numerical failure, 4
verification failure.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import shutil
import sys

import numpy as np

from . import analytics, engine, maxexp, thresholds
from .priors import E_INV, DiscretePrior, Exponential, Uniform, _count, harmonic_prior, lambda_pair

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4
# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


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
            return harmonic_prior(int(arg))
        if kind == "pmf":
            with open(arg) as fh:
                probs = [float(line) for line in fh if line.strip()]
            return DiscretePrior(np.asarray(probs))
    except (ValueError, OSError) as exc:
        raise CliError(f"bad prior spec {spec!r}: {exc}") from exc
    raise CliError(f"unknown prior family {kind!r}")


def parse_threshold(args, n):
    """(theta, scale) at simulate's n, or at None, which refuses a dump; scale is "theta^(1/n)" for a dump."""
    kind, _, arg = args.threshold.partition(":")
    scale = None
    try:
        if kind == "dynkin":
            theta = thresholds.dynkin_threshold(float(arg))
        elif kind == "gm":
            theta = thresholds.gm_threshold(int(arg), args.m)
        elif kind == "single":
            theta = thresholds.single_threshold(int(arg))
        elif kind == "file":
            with open(arg) as fh:
                text = fh.read()
            theta = thresholds.threshold_from_csv(text)
            # a maxexp-curve dump's levels are on the F(x)**n scale, which needs simulate's --n
            if text.startswith("# command=maxexp-curve "):
                if n is None:
                    raise CliError(f"{arg} is a maxexp-curve dump on the F(x)^n scale; only simulate reads it")
                theta = thresholds.ThresholdFn(theta.breakpoints, theta.values ** (1.0 / _count(n, "n")))
                scale = "theta^(1/n)"
        else:
            raise CliError(f"unknown threshold spec {kind!r}")
    except (ValueError, OSError) as exc:
        raise CliError(f"bad threshold spec {args.threshold!r}: {exc}") from exc
    if args.robustify is not None:
        theta = thresholds.robustify(theta, lambda_pair(args.robustify))
    return theta, scale


MAX_GRID_POINTS = 10**6  # the most points an 'a:b:step' grid or an --m grid may have


def _check_m(m):
    """Fail before any work when --m asks for a grid of more than MAX_GRID_POINTS pieces."""
    if m > MAX_GRID_POINTS:
        raise CliError(f"--m {m} is more than {MAX_GRID_POINTS} grid points")


def parse_grid(text):
    """'a:b:step' inclusive grid, or a comma-separated list."""
    try:
        if ":" in text:
            a, b, step = (float(x) for x in text.split(":"))
            if not all(-math.inf < x < math.inf for x in (a, b, step)):
                raise ValueError("grid bounds and step must be finite")
            if step <= 0:
                raise ValueError("step must be positive")
            # the grid has floor(span) + 1 points; span is inf when b - a overflows
            span = (b - a) / step + 1e-9
            if span < 0.0:
                raise ValueError("grid is empty: its end lies below its start")
            if not span < MAX_GRID_POINTS:
                raise ValueError(f"grid has more than {MAX_GRID_POINTS} points")
            return [a + i * step for i in range(math.floor(span) + 1)]
        # + 0.0 turns -0.0 into 0.0, which prints and names files as 0 does (a:b:step makes no -0.0)
        grid = [float(x) + 0.0 for x in text.split(",")]
        if not all(-math.inf < x < math.inf for x in grid):
            raise ValueError("grid values must be finite")
        return grid
    except ValueError as exc:
        raise CliError(f"bad grid {text!r}: {exc}") from exc


def manifest_line(command, params):
    parts = [f"command={command}"]
    parts += [f"{k}={params[k]}" for k in sorted(params)]
    return "# " + " ".join(parts)


def _check_out(path, creates_dir=False):
    """Fail before any work when the output at path cannot be written.

    A file needs an existing, writable directory.  A directory that the
    command creates (with its missing parents) needs path to be a directory
    if it exists, and otherwise its nearest existing parent to be a
    writable one.
    """
    if not path:  # stdout
        return
    if creates_dir:
        where = os.path.abspath(path)
        while not os.path.exists(where):
            where = os.path.dirname(where)
    elif os.path.isdir(path):
        raise CliError(f"cannot write {path}: it is a directory")
    else:
        where = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(where):
        reason = "is not a directory" if os.path.exists(where) else "does not exist"
        raise CliError(f"cannot write {path}: {where} {reason}")
    if not os.access(where, os.W_OK | os.X_OK):
        raise CliError(f"cannot write {path}: {where} is not writable")


def _file_names(values, pattern, what):
    """Each value's file name by pattern, failing before any work when two values share one."""
    owners = {}
    for value in values:
        name = pattern.format(value)
        if name in owners:
            raise CliError(f"{what} {_g(owners[name])} and {_g(value)} both map to the file {name}")
        owners[name] = value
    return list(owners)


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _g(x):
    return f"{x:.17g}"


def cmd_maxexp_curve(args):
    _check_m(args.m)
    _check_out(args.out)
    _check_out(args.dump_thresholds, creates_dir=True)
    betas = parse_grid(args.beta_grid)
    # every file name is checked before any point is solved or written
    names = _file_names(betas, "theta_beta_{:.6f}.csv", "betas") if args.dump_thresholds else [None] * len(betas)
    lines = [manifest_line("maxexp-curve", {"betas": ",".join(_g(b) for b in betas), "m": args.m})]
    lines.append("beta,alpha")
    points = maxexp.tradeoff_curve_maxexp(betas, args.m)
    if args.dump_thresholds:
        os.makedirs(args.dump_thresholds, exist_ok=True)
    failures = 0
    for p, name in zip(points, names):
        if p.alpha is None:
            failures += 1
            print(f"maxexp-curve: beta={p.beta} failed: {p.error}", file=sys.stderr)
            continue
        lines.append(f"{_g(p.beta)},{_g(p.alpha)}")
        if name:
            head = manifest_line("maxexp-curve", {"beta": _g(p.beta), "m": args.m, "alpha": _g(p.alpha)})
            with open(os.path.join(args.dump_thresholds, name), "w") as fh:
                fh.write(head + "\n" + thresholds.threshold_to_csv(p.solution.threshold()))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_NUMERICAL if failures == len(points) else EXIT_OK


def cmd_maxprob_curve(args):
    _check_out(args.out)
    betas = parse_grid(args.beta_grid)
    lines = [manifest_line("maxprob-curve", {"betas": ",".join(_g(b) for b in betas)})]
    lines.append("beta,alpha")
    for beta in betas:
        lines.append(f"{_g(beta)},{_g(analytics.maxprob_alpha(beta))}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_thresholds(args):
    _check_m(args.m)
    _check_out(args.out)
    theta, _ = parse_threshold(args, None)
    head = manifest_line(
        "thresholds", {"threshold": args.threshold, "m": args.m, "robustify": args.robustify}
    )
    _emit(head + "\n" + thresholds.threshold_to_csv(theta), args.out)
    return EXIT_OK


def cmd_simulate(args):
    _check_m(args.m)
    _check_out(args.out)
    real = parse_prior(args.real)
    predicted = parse_prior(args.predicted)
    theta, scale = parse_threshold(args, args.n)
    report = engine.simulate(real, predicted, theta, args.n, args.trials, args.seed)
    params = {
        "real": args.real,
        "predicted": args.predicted,
        "threshold": args.threshold,
        "robustify": args.robustify,
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "m": args.m,
    }
    if scale:  # the file alone does not say how it was read: its first line may be lost
        params["threshold_scale"] = scale
    head = manifest_line("simulate", params)
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
    _check_out(args.out, creates_dir=args.solver == "export")
    from . import hardness

    prior = harmonic_prior(args.k_support)
    lambdas = parse_grid(args.lambda_grid)
    params = {"n": args.n, "k_support": args.k_support, "lambdas": args.lambda_grid, "solver": args.solver}
    if args.solver == "export":
        if not args.out:
            raise CliError("export mode needs --out DIRECTORY")
        # every lambda and its file name are checked before anything is built or written
        names = _file_names(lambdas, "frontier_lambda_{:.4f}.lp", "lambdas")
        heads = [
            ("\\ " + manifest_line("hardness-frontier", {**params, "lambda": _g(lam)}).lstrip("# ") + "\n"
             + hardness.export_lp_objective(lam)).encode()
            for lam in lambdas
        ]
        model = hardness.build_polytope(args.n, args.k_support, prior)
        os.makedirs(args.out, exist_ok=True)
        # only the objective depends on lambda: the body is formatted once, streamed into the
        # first file, and copied from there after each further file's comment line and objective
        first = f"{args.out}/{names[0]}"
        with open(first, "wb") as fh:
            fh.write(heads[0])
            fh.writelines(hardness.export_lp_body(model))
        for name, head in zip(names[1:], heads[1:]):
            with open(first, "rb") as body, open(f"{args.out}/{name}", "wb") as fh:
                body.seek(len(heads[0]))
                fh.write(head)
                shutil.copyfileobj(body, fh)
        print(f"wrote {len(heads)} LP files to {args.out}")
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
    # the certified rule meets the sufficient consistency conditions, and
    # sharding never accepts less than the plain scan on coupled shard values
    slack = analytics.check_consistency_conditions(sol.threshold(), 0.6908, sol.pair)
    checks.append(("golden rule meets the consistency conditions", slack >= -1e-6))
    rule, uni = thresholds.robustify(thresholds.gm_threshold(10, 300), pair), Uniform(0.0, 1.0)
    violations = engine.simulate_coupled_sharding(uni, uni, rule, 10, 4, 2000, 20240901)
    checks.append(("sharding coupling dominates n=10 k=4", violations == 0))
    return checks


SUITES = {"quick": _verify_quick, "oracle": _verify_oracle, "paper": _verify_golden}


def cmd_verify(args):
    checks = SUITES[args.suite]()
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
    p.add_argument("--beta-grid", "--beta", required=True, help="a:b:step or comma list")
    p.add_argument("--m", type=int, default=300)
    p.add_argument("--dump-thresholds", default=None, metavar="DIR",
                   help="also write the solved threshold CSV per beta")
    common(p)
    p.set_defaults(func=cmd_maxexp_curve)

    p = sub.add_parser("maxprob-curve", help="probability-objective trade-off curve")
    p.add_argument("--beta-grid", "--beta", required=True, help="a:b:step or comma list")
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
    p.add_argument("suite", choices=SUITES)
    p.set_defaults(func=cmd_verify)
    return parser


def _keep_heap_mapped():
    """Keep freed heap pages mapped for the rest of the command.

    The Monte Carlo batches allocate and free arrays of up to about 0.6 MB
    (4096 full rows of 19 doubles, just below RECORD_ROWS_MIN_N).  Under
    glibc's default, dynamic thresholds the heap is trimmed after each batch
    and the next batch faults its pages in again (about 15k minor faults
    for simulate at n = 200 and 2e5 trials).  With a 1 MB mmap threshold and
    a 16 MB trim threshold every batch array comes from a heap that stays
    mapped, while larger arrays (the hardness LP's) are still mapped apart
    and returned when freed; a 4 MB mmap threshold raised the frontier
    benchmark's peak RSS by about 0.5 MB (2-CPU host).  Setting either
    threshold turns off the dynamic adjustment, so both are set.  The CLI
    owns its process, so it sets the policy; importing the library sets
    nothing.  Where libc has no mallopt (macOS, Windows) the heap is left
    as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 1 << 20)
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)


def main(argv=None):
    _keep_heap_mapped()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        # the library raises ValueError for arguments outside its domain, and
        # an output path that cannot be written raises OSError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy's message names the array that did not fit
        print(f"error: the arguments need more memory than there is{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # hardness.LpError included
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
