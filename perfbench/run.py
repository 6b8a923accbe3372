#!/usr/bin/env python3
"""stoppred benchmark: CLI workloads timed the way a researcher meets them.

    python3 perfbench/run.py --workload curves --seed 11 --seconds 30 --trace 0

Run from the repository root (the package is imported from ``src``).  A
researcher runs one command per process and waits for the interpreter and
the imports, then for a correct output, so every sample is a fresh process
(perfbench/sample.py): it imports ``stoppred.cli`` and runs the workload
once.  A deferred import or a first-call cache is charged to the workload
that triggers it, as it is for users.

The host this runs on is shared, and its speed drifts by a third within
minutes as other tenants come and go; every timing drifts with it.  So each
sample also runs a speed probe (perfbench/probe.py) that times a fixed unit
of interpreter work through the timed span, and the times reported are
rescaled to the probe's reference speed.  The times as measured are in the
run record.

Each run first starts WARMUP_RUNS processes that only import the CLI (not
counted; they fill the page and byte-code caches), then workload samples
until the next one would overrun ``--seconds`` (at least one), then more
import-only processes until the run's time is used up (at least MIN_SETUPS
set-up samples in all).  With ``--trace 0`` it reports the end-to-end
metrics, each the median over its samples:

* ``wall_ref_s``: first call of the workload to its last output written,
  at reference speed;
* ``setup_s``: process start until ``import stoppred.cli`` returns, at
  reference speed, over the import-only and the workload processes;
* ``peak_rss_mb``: peak resident memory of a workload process.

With ``--trace 1`` one traced sample (perfbench/tracer.py) gives the
per-layer metrics, and the untraced samples after it give the tracing
overhead as the difference of the two ``wall_ref_s``.

Every operation (one CLI command or library call) is checked against
perfbench/reference.json after the timed span; ``failed`` counts the
operations that exited non-zero, reported a failed point or gave a wrong
output, so ``failed / attempted`` is the failed fraction.  The last stdout
line is the result object; the line before it is the run record.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WARMUP_RUNS = 1
MIN_SETUPS = 3
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env():
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(args, env, deadline):
    """Run one sample process; returns its result object and its set-up
    seconds as measured and at reference host speed (perfbench/probe.py)."""
    argv = [sys.executable, str(HERE / "sample.py"), *args]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"sample timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"sample failed ({proc.returncode}): {' '.join(args)}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    setup = result["setup_end"] - start
    return result, (setup, (setup - result["setup_probe_s"]) * result["setup_speed"])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "stoppred" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'stoppred'} not found; run from a stoppred checkout", file=sys.stderr)
        return 2
    # On SIGTERM, unwind so that subprocess.run kills and reaps the running sample.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    env = child_env()
    try:
        return measure(args, spec, env, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec, env, work, deadline):
    start = time.monotonic()

    def setup_only():
        t0 = time.monotonic()
        setups.append(spawn(["--setup-only"], env, deadline)[1])
        return time.monotonic() - t0

    setups = []
    for _ in range(WARMUP_RUNS):
        setup_only()
    setups.clear()

    def sample(index, trace=False):
        out = work / f"s{index}"
        out.mkdir(parents=True)
        extra = []
        if trace:
            traces = ROOT / ".perfbench" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            extra = ["--trace", str(traces / f"{args.workload}-seed{args.seed}.tsv")]
        t0 = time.monotonic()
        result, setup = spawn(
            ["--workload", args.workload, "--seed", str(args.seed), "--out", str(out), *extra], env, deadline
        )
        shutil.rmtree(out)
        setups.append(setup)
        return result, time.monotonic() - t0

    traced = sample(0, trace=True)[0] if args.trace else None
    samples, longest = [], 0.0
    while not samples or time.monotonic() - start + longest <= args.seconds:
        result, took = sample(len(samples) + 1)
        samples.append(result)
        longest = max(longest, took)
    longest = 0.0
    while len(setups) < MIN_SETUPS or time.monotonic() - start + longest <= args.seconds:
        longest = max(longest, setup_only())

    runs = samples + ([traced] if traced else [])
    failures = [f for r in runs for f in r["failures"]]
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    wall = statistics.median(r["wall_ref_s"] for r in samples)
    if args.trace:
        values = dict(traced["layers"])
        values["trace.wall_ref_s"] = traced["wall_ref_s"]
        values["trace.overhead_s"] = traced["wall_ref_s"] - wall
        values["trace.overhead_frac"] = (traced["wall_ref_s"] - wall) / wall
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_ref_s": wall,
            "setup_s": statistics.median(ref for _, ref in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in samples),
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")

    record = dict(samples[0]["record"])
    record.update(
        workload=args.workload,
        why=next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        seed=args.seed,
        nproc=len(os.sched_getaffinity(0)),
        git_sha=git_sha(),
        samples=len(samples),
        setup_samples=len(setups),
        wall_s_samples=[r["wall_s"] for r in samples],
        wall_ref_s_samples=[r["wall_ref_s"] for r in samples],
        probe_s_samples=[r["probe_s"] for r in samples],
        setup_s_samples=[raw for raw, _ in setups],
        setup_ref_s_samples=[ref for _, ref in setups],
    )
    if traced:
        record["spans"] = traced["spans"]
    print(json.dumps({"run_record": record}))
    attempted = sum(r["attempted"] for r in runs)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


if __name__ == "__main__":
    sys.exit(main())
