"""One benchmark sample: a fresh interpreter that imports the CLI, runs one
workload once and checks its outputs.

    python3 perfbench/sample.py --workload NAME --seed N --out DIR [--trace SPANS]
    python3 perfbench/sample.py --setup-only

``src`` must be on PYTHONPATH.  The last stdout line is a JSON object:
``setup_end`` (``time.perf_counter()`` right after ``import stoppred.cli``;
the parent subtracts its own reading taken before it started this process,
both on the system-wide monotonic clock), ``setup_speed`` and
``setup_probe_s`` (the host's speed during the import and the probe's own
time, perfbench/probe.py), ``wall_s`` and ``wall_ref_s`` (the timed span as
measured and at reference speed), ``probe_s``, ``peak_rss_mb``, ``attempted``,
``failures``, ``record`` and, with ``--trace``, ``layers``.  Output checks
run after the timed span.
"""

import time

from probe import SpeedProbe, numpy_units

with SpeedProbe() as SETUP_PROBE:
    import stoppred.cli  # the user's set-up cost ends when this returns

SETUP_END = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def cli(argv):
    """Run one CLI command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = stoppred.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def read_kv(path):
    with open(path) as fh:
        return dict(line.strip().split("=", 1) for line in fh if "=" in line and not line.startswith("#"))


def read_csv(path):
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def cli_status(result):
    code, _, err = result
    if code != 0:
        return f"exit code {code}: {err.strip()[-500:]}"
    if err.strip():
        return f"stderr: {err.strip()[-500:]}"
    return None


def within_se(report, expected, name):
    p, se = float(report["maxprob"]), float(report["maxprob_se"])
    if not abs(p - expected) <= 4.0 * se:
        return f"{name}: maxprob {p} is not within 4 se ({se}) of {expected}"
    return None


# Each workload is a list of operations.  An operation runs inside the timed
# span and returns an artifact; its check runs after the span and returns an
# error message or None.


def op_maxexp_curve(seed, out):
    return cli(["maxexp-curve", "--beta-grid", "0.01,0.3", "--m", "40", "--out", f"{out}/maxexp.csv"])


def check_maxexp_curve(result, out, ref):
    error = cli_status(result)
    if error:
        return error
    rows = read_csv(f"{out}/maxexp.csv")
    got = {beta: alpha for beta, alpha in rows}
    for beta, alpha in ref["maxexp_alpha"].items():
        value = got.get(float(beta))
        if value is None or not abs(value - alpha) <= 2e-4:
            return f"maxexp-curve: alpha({beta}) = {value}, reference {alpha}"
    return None


def op_maxprob_curve(seed, out):
    return cli(["maxprob-curve", "--beta-grid", "0:0.3678:0.004", "--out", f"{out}/maxprob.csv"])


def check_maxprob_curve(result, out, ref):
    error = cli_status(result)
    if error:
        return error
    rows = read_csv(f"{out}/maxprob.csv")
    alphas = [alpha for _, alpha in rows]
    expected = ref["maxprob_alpha"]
    if len(alphas) != len(expected):
        return f"maxprob-curve: {len(alphas)} rows, expected {len(expected)}"
    if any(b > a for a, b in zip(alphas, alphas[1:])):
        return "maxprob-curve: alpha increases somewhere in beta"
    if not abs(alphas[0] - 0.5801) <= 5e-4:
        return f"maxprob-curve: alpha(0) = {alphas[0]}, criterion 3 wants 0.5801 +- 5e-4"
    worst = max(abs(a - e) for a, e in zip(alphas, expected))
    if not worst <= 1e-8:
        return f"maxprob-curve: differs from the reference by {worst}"
    return None


def op_simulate(seed, out):
    return cli([
        "simulate", "--real", "uniform:0,1", "--predicted", "uniform:0,1", "--threshold", "gm:200",
        "--robustify", "0.3333", "--n", "200", "--trials", "200000", "--seed", str(seed),
        "--out", f"{out}/simulate.txt",
    ])


def check_simulate(result, out, ref):
    return cli_status(result) or within_se(read_kv(f"{out}/simulate.txt"), ref["simulate_win_prob"], "simulate")


def op_verify_oracle(seed, out):
    return cli(["verify", "oracle"])


def check_verify_oracle(result, out, ref):
    error = cli_status(result)
    if error:
        return error
    last = result[1].strip().splitlines()[-1]
    return None if last == "12/12 checks passed" else f"verify oracle: {last!r}"


def op_adversarial(seed, out):
    return cli([
        "simulate", "--real", "uniform:0,1", "--predicted", "uniform:2,3", "--threshold", "gm:10",
        "--robustify", "0.3333", "--n", "10", "--trials", "1000000", "--seed", str(seed),
        "--out", f"{out}/adversarial.txt",
    ])


def check_adversarial(result, out, ref):
    return cli_status(result) or within_se(
        read_kv(f"{out}/adversarial.txt"), ref["adversarial_win_prob"], "adversarial simulate"
    )


def op_sharding(seed, out):
    from stoppred import engine, thresholds
    from stoppred.priors import Uniform, lambda_pair

    theta = thresholds.robustify(thresholds.gm_threshold(10, 300), lambda_pair(1.0 / 3.0))
    return engine.simulate_coupled_sharding(Uniform(0, 1), Uniform(0, 1), theta, n=10, k=4, trials=20000, seed=seed)


def check_sharding(violations, out, ref):
    return None if violations == 0 else f"sharding: {violations} dominance violations"


def op_frontier(seed, out):
    return cli([
        "hardness-frontier", "--n", "15", "--k-support", "128", "--lambda-grid", "0:1:0.05",
        "--out", f"{out}/frontier.csv",
    ])


def check_frontier(result, out, ref):
    error = cli_status(result)
    if error:
        return error
    rows = read_csv(f"{out}/frontier.csv")
    expected = ref["frontier_lp_star"]
    if len(rows) != len(expected):
        return f"hardness-frontier: {len(rows)} rows, expected {len(expected)}"
    lp = [row[1] for row in rows]
    worst = max(abs(a - e) for a, e in zip(lp, expected))
    if not worst <= 1e-6:
        return f"hardness-frontier: lp_star differs from the reference by {worst}"
    # the grid is uniform, so convexity is a sign condition on second differences
    if any(lp[i - 1] + lp[i + 1] - 2.0 * lp[i] < -1e-9 for i in range(1, len(lp) - 1)):
        return "hardness-frontier: lp_star is not convex in lambda"
    return None


def op_export(seed, out):
    return cli([
        "hardness-frontier", "--n", "30", "--k-support", "1024", "--lambda-grid", "0,1",
        "--solver", "export", "--out", f"{out}/lp",
    ])


def check_export(result, out, ref):
    error = cli_status(result)
    if error:
        return error
    names = sorted(os.listdir(f"{out}/lp"))
    if len(names) != 2:
        return f"export: wrote {len(names)} files, expected 2"
    for name in names:
        with open(f"{out}/lp/{name}", "rb") as fh:
            head = fh.readline()
            fh.seek(-4, os.SEEK_END)
            tail = fh.read()
        if not head.startswith(b"\\ command=hardness-frontier ") or tail != b"End\n":
            return f"export: {name} lacks its manifest comment or its End line"
    return None


WORKLOADS = {
    "curves": [(op_maxexp_curve, check_maxexp_curve), (op_maxprob_curve, check_maxprob_curve)],
    "simulate": [(op_simulate, check_simulate)],
    "oracle": [(op_verify_oracle, check_verify_oracle), (op_adversarial, check_adversarial), (op_sharding, check_sharding)],
    "frontier": [(op_frontier, check_frontier), (op_export, check_export)],
}


def setup_probe():
    return {"setup_probe_s": SETUP_PROBE.probe_s, "setup_speed": SETUP_PROBE.speed()}


def run_record():
    engine = sys.modules.get("stoppred.engine")
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "kernel_backend": getattr(engine, "KERNEL_BACKEND", None),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--trace", metavar="SPANS", help="trace the run and write every span to SPANS")
    args = parser.parse_args()
    if args.setup_only:
        print(json.dumps({"setup_end": SETUP_END, **setup_probe()}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ops = WORKLOADS[args.workload]
    artifacts = []
    start = time.perf_counter()
    with SpeedProbe(numpy_units()) as probe:
        for op, _ in ops:
            try:
                artifacts.append((op(args.seed, args.out), None))
            except Exception:
                artifacts.append((None, traceback.format_exc()))
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    failures = []
    for (op, check), (artifact, error) in zip(ops, artifacts):
        if error is None:
            try:
                error = check(artifact, args.out, ref)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            failures.append(f"{op.__name__}: {error}")

    result = {
        "setup_end": SETUP_END,
        **setup_probe(),
        "wall_s": wall,
        "wall_ref_s": probe.ref_s(),
        "probe_s": probe.probe_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failures": failures,
        "record": run_record(),
    }
    if tracer is not None:
        tracer.write_spans(args.trace)
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = len(tracer.span_name)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
