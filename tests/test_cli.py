import ctypes
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from stoppred import analytics, cli, engine, hardness, maxexp, priors, quadrature, thresholds
from stoppred.priors import E_INV
from stoppred.thresholds import threshold_from_csv

from reference import powered


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_quick_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "quick")
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("suite, count", [("oracle", 12), ("paper", 8)])
def test_verify_oracle_and_paper_pass(capsys, suite, count):
    code, out, _ = run_cli(capsys, "verify", suite)
    assert code == 0
    assert out.splitlines()[-1] == f"{count}/{count} checks passed"


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(cli.SUITES, "quick", lambda: [("forced", False)])
    code, out, _ = run_cli(capsys, "verify", "quick")
    assert code == 4
    assert "FAIL  forced" in out


def test_maxprob_curve_stdout(capsys):
    code, out, _ = run_cli(capsys, "maxprob-curve", "--beta-grid", f"0.2,{E_INV}")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# command=maxprob-curve")
    assert lines[1] == "beta,alpha"
    assert len(lines) == 4
    beta, alpha = lines[3].split(",")
    assert float(alpha) == pytest.approx(E_INV, abs=1e-9)


def test_identical_manifest_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--real", "uniform:0,1", "--predicted", "uniform:0,1",
            "--threshold", "dynkin:0.368", "--n", "50", "--trials", "2000", "--seed", "5"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()



@pytest.mark.parametrize("command, extra", [("maxprob-curve", []), ("maxexp-curve", ["--m", "40"])])
def test_beta_is_a_spelling_of_beta_grid(tmp_path, capsys, command, extra):
    outs = [tmp_path / "beta.csv", tmp_path / "grid.csv"]
    for option, out in zip(("--beta", "--beta-grid"), outs):
        assert cli.main([command, option, "0.01", *extra, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_thresholds_dump_and_reload(tmp_path, capsys):
    path = tmp_path / "theta.csv"
    code = cli.main(["thresholds", "--threshold", "gm:6", "--m", "40",
                     "--robustify", "0.25", "--out", str(path)])
    assert code == 0
    text = path.read_text()
    assert text.splitlines()[0].startswith("# command=thresholds")
    theta = threshold_from_csv(text)
    assert theta.eval(0.01) == 1.0
    code, out, _ = run_cli(capsys, "simulate", "--real", "uniform:0,1",
                           "--predicted", "uniform:0,1", "--threshold", f"file:{path}",
                           "--n", "6", "--trials", "1000", "--seed", "0")
    assert code == 0
    assert "maxprob=" in out


def test_simulate_adversarial_prior(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--real", "uniform:0,1", "--predicted", "uniform:2,3",
        "--threshold", "gm:10", "--m", "60", "--n", "10", "--trials", "3000", "--seed", "1",
    )
    assert code == 0
    fields = dict(line.split("=") for line in out.strip().splitlines()[1:])
    assert float(fields["maxprob"]) == 0.0  # sampled levels never clear the threshold


@pytest.mark.parametrize("real", ["uniform:0,1e300", "exp:1e300", "uniform:0,1e-320"])
def test_simulate_reports_a_finite_se_far_from_unit_scale(capsys, real):
    # values near 1e300 or 1e-300 (1e-320 is subnormal) overflow or underflow
    # when squared, which made maxexp_se nan with a RuntimeWarning
    code, out, _ = run_cli(capsys, "simulate", "--real", real, "--predicted", "uniform:0,1",
                           "--threshold", "dynkin:0.3", "--n", "30", "--trials", "5000")
    assert code == 0
    fields = dict(line.split("=") for line in out.strip().splitlines()[1:])
    assert 0.0 < float(fields["maxexp_se"]) < math.inf


SIMULATE_200 = ["simulate", "--real", "uniform:0,1", "--predicted", "uniform:0,1", "--threshold", "gm:200",
                "--robustify", "0.3333", "--n", "200", "--seed", "7"]


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def test_heap_policy_is_skipped_without_mallopt(tmp_path, monkeypatch):
    argv = SIMULATE_200 + ["--trials", "5000"]
    outs = [tmp_path / "mallopt.txt", tmp_path / "none.txt"]
    assert cli.main(argv + ["--out", str(outs[0])]) == 0
    opened = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or object())
    assert cli.main(argv + ["--out", str(outs[1])]) == 0
    assert opened == [None]
    assert outs[0].read_bytes() == outs[1].read_bytes()


def _src_env():
    """The environment with this checkout's src first on PYTHONPATH, for a fresh interpreter."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_simulate_keeps_its_heap_mapped(tmp_path):
    # the CLI keeps freed heap pages mapped, so once one command has grown
    # the heap, the next one's 4096-row batches fault in almost no pages
    # (about 15k minor faults under glibc's default thresholds)
    argv = SIMULATE_200 + ["--trials", "200000", "--out", str(tmp_path / "out")]
    code = (
        "import resource, stoppred.cli\n"
        f"assert stoppred.cli.main({argv!r}) == 0\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        f"assert stoppred.cli.main({argv!r}) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000


def test_hardness_frontier_embedded(capsys):
    code, out, _ = run_cli(capsys, "hardness-frontier", "--n", "3", "--k-support", "8",
                           "--lambda-grid", "0:1:0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "lambda,lp_star,alpha_star,beta_star"
    assert len(lines) == 5


# hardness-frontier stdout at --lambda-grid 0:1:0.25, byte for byte: the embedded
# solver's last digits depend on the order of the HiGHS runs and on their options
# ((4, 16) also shows the primal simplex taking over from the second run on, with
# its bound perturbation off); each (4, 16) value is within 5.6e-16 of a cold solve
FRONTIER_BYTES = {
    (3, 8): """\
# command=hardness-frontier k_support=8 lambdas=0:1:0.25 n=3 solver=embedded
lambda,lp_star,alpha_star,beta_star
0,0.76072192140350947,0.76072192140350947,0.76072192140350925
0.25,0.76072192140350947,0.76072192140350947,0.76072192140350925
0.5,0.76072192140350947,0.76072192140350947,0.76072192140350925
0.75,0.76072192140350947,0.76072192140350947,0.76072192140350925
1,0.76952417831645503,0.76952417831645492,0.62962962962962965
""",
    (4, 16): """\
# command=hardness-frontier k_support=16 lambdas=0:1:0.25 n=4 solver=embedded
lambda,lp_star,alpha_star,beta_star
0,0.66360781344140396,0.66360781344140396,0.66360781344140374
0.25,0.66360781344140396,0.66360781344140396,0.66360781344140374
0.5,0.66360781344140385,0.66360781344140396,0.66360781344140374
0.75,0.66531652821981635,0.67546836870581062,0.63486100676183332
1,0.6938397266224493,0.69383972662244919,0.41971176832183582
""",
}


@pytest.mark.parametrize("n, k", FRONTIER_BYTES)
def test_hardness_frontier_stdout_bytes(capsys, n, k):
    code, out, err = run_cli(capsys, "hardness-frontier", "--n", str(n), "--k-support", str(k),
                             "--lambda-grid", "0:1:0.25")
    assert (code, out, err) == (0, FRONTIER_BYTES[n, k], "")


def test_hardness_frontier_export(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "hardness-frontier", "--n", "2", "--k-support", "3",
                           "--lambda-grid", "0,1", "--solver", "export",
                           "--out", str(tmp_path / "lps"))
    assert code == 0
    files = sorted((tmp_path / "lps").glob("*.lp"))
    assert len(files) == 2
    assert files[0].read_text().splitlines()[1] == "Maximize"
    # the shared body makes each file the one-model export at its lambda
    model = hardness.build_polytope(2, 3, hardness.harmonic_prior(3))
    body = b"".join(hardness.export_lp_body(model)).decode()
    for path, lam in zip(files, [0.0, 1.0]):
        head, text = path.read_bytes().split(b"\n", 1)
        assert head.startswith(b"\\ command=hardness-frontier") and f" lambda={lam:.17g} ".encode() in head
        assert text == (hardness.export_lp_objective(lam) + body).encode()


def test_export_of_many_lambdas_keeps_few_files_open(tmp_path):
    # the body is streamed into the first file and copied from it into each
    # further one, so 101 files are written with two open at a time; the
    # interpreter, numpy and scipy stay well inside a limit of 32 descriptors
    resource = pytest.importorskip("resource")
    out = tmp_path / "lps"
    argv = ["hardness-frontier", "--n", "2", "--k-support", "3", "--lambda-grid", "0:1:0.01",
            "--solver", "export", "--out", str(out)]
    _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_NOFILE, (32, {hard}))\n"
        "import stoppred.cli\n"
        f"sys.exit(stoppred.cli.main({argv!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"wrote 101 LP files to {out}\n"
    body = b"".join(hardness.export_lp_body(hardness.build_polytope(2, 3, hardness.harmonic_prior(3))))
    lambdas = cli.parse_grid("0:1:0.01")
    assert sorted(p.name for p in out.iterdir()) == [f"frontier_lambda_{lam:.4f}.lp" for lam in lambdas]
    for lam in lambdas:
        head, text = (out / f"frontier_lambda_{lam:.4f}.lp").read_bytes().split(b"\n", 1)
        assert f" lambda={lam:.17g} ".encode() in head
        assert text == hardness.export_lp_objective(lam).encode() + body


def test_export_needs_an_out_directory(capsys):
    code, out, err = run_cli(capsys, "hardness-frontier", "--n", "2", "--k-support", "3", "--solver", "export")
    assert (code, out, err) == (2, "", "error: export mode needs --out DIRECTORY\n")


def test_hardness_frontier_failed_points(capsys, monkeypatch):
    solve = hardness.Lp.solve

    def failing_at(bad):
        def failing(self, lam):
            if lam in bad:
                raise hardness.LpError("forced")
            return solve(self, lam)
        return failing

    argv = ["hardness-frontier", "--n", "3", "--k-support", "8", "--lambda-grid", "0:1:0.5"]
    # a failed lambda is a gap: its line on stderr, no row, and the others still solved
    monkeypatch.setattr(hardness.Lp, "solve", failing_at({0.5}))
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == "hardness-frontier: lambda=0.5 failed: forced\n"
    assert [row.split(",")[0] for row in out.splitlines()[2:]] == ["0", "1"]
    # with every lambda failed, the run is a numerical failure
    monkeypatch.setattr(hardness.Lp, "solve", failing_at({0.0, 0.5, 1.0}))
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert err.splitlines() == [f"hardness-frontier: lambda={lam} failed: forced" for lam in (0.0, 0.5, 1.0)]
    assert out.splitlines()[1:] == ["lambda,lp_star,alpha_star,beta_star"]


@pytest.mark.parametrize(
    "grid, message",
    [
        ("0,0.5,1.5", "error: lambda weight must lie in [0, 1]"),
        ("0,0.00001", "error: lambdas 0 and 1.0000000000000001e-05 both map to the file frontier_lambda_0.0000.lp"),
        # -0.0 is read as 0, so it names the same file as 0 does, not frontier_lambda_-0.0000.lp
        ("0,-0.0", "error: lambdas 0 and 0 both map to the file frontier_lambda_0.0000.lp"),
    ],
)
def test_export_checks_the_grid_before_writing(tmp_path, capsys, grid, message):
    out = tmp_path / "lps"
    code, stdout, err = run_cli(capsys, "hardness-frontier", "--n", "2", "--k-support", "3",
                                "--lambda-grid", grid, "--solver", "export", "--out", str(out))
    assert code == 2
    assert err == message + "\n"
    assert stdout == ""
    assert not out.exists()


def test_dump_thresholds_checks_the_names_before_the_work(tmp_path, capsys, monkeypatch):
    # two betas that agree to six decimals would write one file twice
    def never(*args, **kwargs):
        raise AssertionError("a point was solved although two betas share a file name")

    monkeypatch.setattr("stoppred.maxexp.tradeoff_curve_maxexp", never)
    dump = tmp_path / "thetas"
    code, out, err = run_cli(capsys, "maxexp-curve", "--beta-grid", "0.1,0.1000001", "--m", "10",
                             "--dump-thresholds", str(dump))
    assert code == 2
    assert err == "error: betas 0.10000000000000001 and 0.10000009999999999 both map to the file theta_beta_0.100000.csv\n"
    assert out == ""
    assert not dump.exists()


def test_dump_thresholds_writes_each_certified_threshold(tmp_path, capsys):
    dump = tmp_path / "thetas"
    code, _, err = run_cli(capsys, "maxexp-curve", "--beta-grid", "0.01,0.3", "--m", "10",
                           "--dump-thresholds", str(dump))
    assert (code, err) == (0, "")
    for beta in (0.01, 0.3):
        text = (dump / f"theta_beta_{beta:.6f}.csv").read_text()
        assert text.startswith("# command=maxexp-curve alpha=")
        assert threshold_from_csv(text) == maxexp.max_alpha_for_beta(beta, 10)[1].threshold()
    # the dumped levels are on the F(x)**n scale; simulate reads them at theta ** (1/n)
    path = dump / "theta_beta_0.300000.csv"
    argv = ["simulate", "--real", "uniform:0,1", "--predicted", "uniform:0,1",
            "--threshold", f"file:{path}", "--n", "10", "--trials", "1000", "--seed", "0"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    report = engine.simulate(UNIT, UNIT, powered(threshold_from_csv(path.read_text()), 1 / 10), 10, 1000, 0)
    assert out.splitlines()[1:] == [
        f"trials={report.trials}",
        f"maxprob={report.maxprob:.17g}",
        f"maxprob_se={report.maxprob_se:.17g}",
        f"maxexp_ratio={report.maxexp_ratio:.17g}",
        f"maxexp_se={report.maxexp_se:.17g}",
        f"acceptance_rate={report.acceptance_rate:.17g}",
    ]
    # without its first line the dump is read as it stands, and the manifest says which reading ran
    assert out.splitlines()[0].endswith(" threshold_scale=theta^(1/n) trials=1000")
    path.write_text(path.read_text().split("\n", 1)[1])
    code, stripped, _ = run_cli(capsys, *argv)
    assert code == 0
    assert stripped.splitlines()[0] != out.splitlines()[0]
    assert stripped.splitlines()[1:] != out.splitlines()[1:]
    # the thresholds command has no n to read the dump with
    path = dump / "theta_beta_0.010000.csv"
    code, out, err = run_cli(capsys, "thresholds", "--threshold", f"file:{path}")
    assert (code, out) == (2, "")
    assert err == f"error: {path} is a maxexp-curve dump on the F(x)^n scale; only simulate reads it\n"


def test_maxexp_curve_peak_point(capsys):
    code, out, _ = run_cli(capsys, "maxexp-curve", "--beta", str(E_INV), "--m", "40")
    assert code == 0
    beta, alpha = out.strip().splitlines()[-1].split(",")
    assert float(alpha) == pytest.approx(E_INV, abs=1e-9)


def test_maxexp_curve_just_below_the_peak(capsys):
    # lambda_pair gives a double root from 1/e - 1e-13 on, so the band is empty there too
    code, out, err = run_cli(capsys, "maxexp-curve", "--beta", "0.3678794411714", "--m", "10")
    assert (code, err) == (0, "")
    beta, alpha = out.strip().splitlines()[-1].split(",")
    assert float(beta) == 0.3678794411714
    assert float(alpha) == E_INV


def test_maxexp_curve_gap_and_failure(capsys):
    code, out, err = run_cli(capsys, "maxexp-curve", "--beta-grid", f"0.0,{E_INV}", "--m", "40")
    assert code == 0  # one point succeeded
    gap = "maxexp-curve: beta=0.0 failed: beta = 0 puts lambda2 at 1, where the m-step recursion has no start\n"
    assert err == gap
    assert len(out.strip().splitlines()) == 3
    code, _, err = run_cli(capsys, "maxexp-curve", "--beta", "0.0", "--m", "40")
    assert code == 3
    assert err == gap


def test_bad_arguments(capsys):
    code, _, err = run_cli(capsys, "simulate", "--real", "nope:1", "--predicted",
                           "uniform:0,1", "--threshold", "dynkin:0.5", "--n", "5")
    assert code == 2
    assert "error" in err


def test_grid_parsing():
    assert cli.parse_grid("0:1:0.5") == [0.0, 0.5, 1.0]
    assert cli.parse_grid("0.1,0.2") == [0.1, 0.2]
    with pytest.raises(cli.CliError):
        cli.parse_grid("0:1:-1")
    with pytest.raises(cli.CliError, match="grid is empty"):
        cli.parse_grid("1:0:0.1")
    assert cli.parse_grid("0.5:0.5:1") == [0.5]
    assert [math.copysign(1.0, x) for x in cli.parse_grid("-0.0,0.1")] == [1.0, 1.0]


def test_negative_zero_in_a_grid_reads_as_zero(capsys):
    # -0.0 printed as "-0" in a CSV row and in a manifest's list of betas
    assert run_cli(capsys, "maxprob-curve", "--beta-grid=-0.0,0.1") == run_cli(
        capsys, "maxprob-curve", "--beta-grid=0,0.1"
    )
    code, out, err = run_cli(capsys, "hardness-frontier", "--n", "2", "--k-support", "3", "--lambda-grid=-0.0,0.5")
    assert (code, err) == (0, "")
    assert [row.split(",")[0] for row in out.splitlines()[2:]] == ["0", "0.5"]


@pytest.mark.parametrize("solver", ["embedded", "export"])
def test_arrays_too_large_for_memory_are_usage_errors(capsys, monkeypatch, tmp_path, solver):
    # an n and K whose arrays do not fit (numpy raises a MemoryError subclass) give one error line
    def too_large(n, K, pmf):
        raise MemoryError("Unable to allocate 7.45 GiB for an array with shape (10001, 100000) and data type float64")

    monkeypatch.setattr(hardness, "build_polytope", too_large)
    code, out, err = run_cli(capsys, "hardness-frontier", "--n", "10000", "--k-support", "8", "--lambda-grid", "0,1",
                             "--solver", solver, "--out", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == (
        "error: the arguments need more memory than there is: Unable to allocate 7.45 GiB for an array"
        " with shape (10001, 100000) and data type float64\n"
    )
    assert not (tmp_path / "out").exists()


def test_grid_count_is_capped_before_the_grid_is_built(monkeypatch):
    def no_grid(count):
        raise AssertionError(f"a grid of {count} points was started")

    # parse_grid builds its grid from range(count), so this stops any build
    monkeypatch.setattr(cli, "range", no_grid, raising=False)
    for text in ("0:1e6:1", "0:1:1e-300", "-1e308:1e308:1"):
        with pytest.raises(cli.CliError, match="grid has more than 1000000 points"):
            cli.parse_grid(text)
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 5)
    assert cli.parse_grid("0:4:1") == [0.0, 1.0, 2.0, 3.0, 4.0]
    with pytest.raises(cli.CliError, match="grid has more than 5 points"):
        cli.parse_grid("0:5:1")


def test_m_is_capped_before_any_work(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("an --m grid was started")

    monkeypatch.setattr(thresholds, "gm_threshold", never)
    monkeypatch.setattr(maxexp, "solve_steps", never)
    m = str(cli.MAX_GRID_POINTS + 1)
    simulate = ("simulate", "--real", "uniform:0,1", "--predicted", "uniform:0,1", "--threshold", "gm:5", "--n", "5")
    for argv in (("maxexp-curve", "--beta", "0.01"), ("thresholds", "--threshold", "gm:5"), simulate):
        code, out, err = run_cli(capsys, *argv, "--m", m)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == f"error: --m {m} is more than 1000000 grid points\n"
    # --m at the cap gets through to the work
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 5)
    for argv in (("maxexp-curve", "--beta", "0.01"), ("thresholds", "--threshold", "gm:5"), simulate):
        with pytest.raises(AssertionError, match="an --m grid was started"):
            cli.main([*argv, "--m", "5"])


def test_prior_spec_parsing(tmp_path):
    assert cli.parse_prior("uniform:2,3").cdf(2.5) == 0.5
    assert cli.parse_prior("exp:2.0").quantile(0.0) == 0.0
    assert cli.parse_prior("harmonic:4").support_size == 4
    pmf_file = tmp_path / "pmf.txt"
    pmf_file.write_text("0.5\n0.25\n0.25\n")
    assert cli.parse_prior(f"pmf:{pmf_file}").support_size == 3
    with pytest.raises(cli.CliError):
        cli.parse_prior("uniform:1")


SIM = ["simulate", "--real", "uniform:0,1", "--predicted", "uniform:0,1", "--threshold", "dynkin:0.3"]


@pytest.mark.parametrize(
    "argv",
    [
        SIM + ["--n", "5", "--trials", "0"],
        SIM + ["--n", "0"],
        ["maxprob-curve", "--beta", "0.5"],
        ["maxexp-curve", "--beta", "0.5"],
        ["maxexp-curve", "--beta-grid", "0.1,0.5", "--m", "40"],
        ["maxexp-curve", "--beta", "0.1", "--m", "1"],
        ["thresholds", "--threshold", "gm:5", "--robustify", "0.9"],
        ["hardness-frontier", "--n", "3", "--k-support", "8", "--lambda-grid", "0:2:0.5"],
        # empty and runaway grids
        ["hardness-frontier", "--n", "2", "--k-support", "3", "--lambda-grid", "1:0:0.1"],
        ["maxprob-curve", "--beta-grid", "0.3:0:0.1"],
        ["maxexp-curve", "--beta-grid", "0:0.3:1e-300"],
        # non-finite numbers
        ["simulate", "--real", "uniform:0,inf"] + SIM[3:] + ["--n", "5", "--trials", "10"],
        ["simulate", "--real", "exp:inf"] + SIM[3:] + ["--n", "5", "--trials", "10"],
        ["maxprob-curve", "--beta", "nan"],
        ["maxexp-curve", "--beta", "nan"],
        ["thresholds", "--threshold", "dynkin:nan"],
        ["thresholds", "--threshold", "gm:5", "--robustify", "nan"],
        ["thresholds", "--threshold", "file:{tmp}/nan_level.csv"],
        ["thresholds", "--threshold", "file:{tmp}/nan_break.csv"],
        ["hardness-frontier", "--n", "3", "--k-support", "8", "--lambda-grid", "0:inf:1"],
        ["hardness-frontier", "--n", "3", "--k-support", "8", "--lambda-grid", "0,nan"],
        # output paths that cannot be written
        ["maxprob-curve", "--beta", "0.1", "--out", "{tmp}/missing/x.csv"],
        ["hardness-frontier", "--n", "2", "--k-support", "3", "--lambda-grid", "0,1", "--solver", "export",
         "--out", "{tmp}/nan_level.csv"],
        ["maxexp-curve", "--beta", "0.3", "--m", "8", "--dump-thresholds", "{tmp}/nan_level.csv"],
        # a NaN mass, which a plain `pmf < 0` test lets through
        ["simulate", "--real", "pmf:{tmp}/nan.pmf", "--predicted", "pmf:{tmp}/nan.pmf", "--threshold", "dynkin:0.3",
         "--n", "5"],
        # n beyond the record chains' int64 counts, for either chain
        SIM + ["--n", "10000000000000000000", "--trials", "10"],
        ["simulate", "--real", "harmonic:8", "--predicted", "harmonic:8", "--threshold", "dynkin:0.3",
         "--n", "10000000000000000000", "--trials", "10"],
        # prior parameters whose draws overflow: the largest draw 53 ln 2 / rate, and b - a
        ["simulate", "--real", "exp:1e-308", "--predicted", "exp:1", "--threshold", "dynkin:0.3",
         "--n", "30", "--trials", "1000"],
        ["simulate", "--real", "uniform:-1e308,1.7e308", "--predicted", "exp:1", "--threshold", "dynkin:0.3",
         "--n", "30", "--trials", "10"],
        # levels that rise by 1e-15
        ["thresholds", "--threshold", "file:{tmp}/rise.csv"],
    ],
)
def test_library_domain_errors_are_usage_errors(capsys, tmp_path, argv):
    (tmp_path / "nan_level.csv").write_text("t,theta\n0.5,nan\n1,0\n")
    (tmp_path / "rise.csv").write_text("t,theta\n0.5,0.5\n1,0.500000000000001\n")
    (tmp_path / "nan_break.csv").write_text("t,theta\nnan,1\n1,0\n")
    (tmp_path / "nan.pmf").write_text("nan\n0.5\n0.5\n")
    code, _, err = run_cli(capsys, *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
    assert code == 2
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


DYNKIN = thresholds.dynkin_threshold(0.4)
UNIT = priors.Uniform(0.0, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        # a NaN level or value, which a plain `x < 0` test lets through
        pytest.param(lambda: analytics.googol_win_formula([0.2, math.nan], DYNKIN), id="googol-formula-nan"),
        pytest.param(lambda: analytics.googol_win_formula([math.nan], DYNKIN), id="googol-formula-lone-nan"),
        pytest.param(lambda: engine.googol_win_mc([0.2, math.nan, 0.7], UNIT, DYNKIN, 1000, 1), id="googol-mc-nan"),
        pytest.param(lambda: engine.googol_win_mc(0.5, UNIT, DYNKIN, 1000, 1), id="googol-mc-scalar"),
        pytest.param(lambda: engine.googol_win_mc([[0.2, 0.7], [0.4, 0.9]], UNIT, DYNKIN, 1000, 1), id="googol-mc-2d"),
        pytest.param(lambda: priors.DiscretePrior([math.nan, 0.5, 0.5]), id="discrete-prior-nan"),
        pytest.param(lambda: UNIT.quantile(math.nan), id="uniform-quantile-nan"),
        pytest.param(lambda: priors.Exponential(1.0).quantile([0.5, math.nan]), id="exponential-quantile-nan"),
        pytest.param(lambda: priors.DiscretePrior([0.5, 0.5]).quantile(math.nan), id="discrete-quantile-nan"),
        pytest.param(lambda: priors.PowerRoot(UNIT, 3).quantile(math.nan), id="power-root-quantile-nan"),
        pytest.param(lambda: hardness.acc_to_rej([[math.nan, 0.5]], [0.5, 0.5]), id="acc-to-rej-nan"),
        pytest.param(lambda: quadrature.log_time_integral(math.nan, 0.1, 1.0), id="log-time-integral-nan"),
        pytest.param(lambda: quadrature.pow_integral(math.nan, 0.1, 1.0), id="pow-integral-nan"),
        # +-inf and NaN integer arguments, on which int(x) raises OverflowError
        pytest.param(lambda: analytics.win_probability(DYNKIN, math.inf), id="win-probability-inf"),
        pytest.param(lambda: thresholds.gm_threshold(math.inf, 300), id="gm-threshold-n-inf"),
        pytest.param(lambda: thresholds.gm_threshold(10, math.inf), id="gm-threshold-m-inf"),
        pytest.param(lambda: thresholds.gm_threshold(-math.inf, 300), id="gm-threshold-n-minus-inf"),
        pytest.param(lambda: thresholds.gm_threshold(10, math.nan), id="gm-threshold-m-nan"),
        pytest.param(lambda: thresholds.single_threshold(math.inf), id="single-threshold-inf"),
        pytest.param(lambda: maxexp.solve_steps(0.6, 0.01, math.inf), id="solve-steps-inf"),
        pytest.param(lambda: maxexp.tradeoff_curve_maxexp([0.1], math.inf), id="maxexp-curve-inf"),
        pytest.param(lambda: priors.PowerRoot(UNIT, math.inf), id="power-root-inf"),
        pytest.param(lambda: priors.power_root_cdf(UNIT, -math.inf), id="power-root-cdf-minus-inf"),
        pytest.param(lambda: priors.DiscretePrior([0.5, 0.5]).truncate(math.inf), id="truncate-inf"),
        pytest.param(lambda: priors.DiscretePrior([0.5, 0.5]).truncate(math.nan), id="truncate-nan"),
        pytest.param(lambda: hardness.harmonic_prior(math.inf), id="harmonic-prior-inf"),
        pytest.param(lambda: hardness.build_polytope(math.inf, 2, [0.5, 0.5]), id="build-polytope-n-inf"),
        pytest.param(lambda: hardness.build_polytope(2, math.nan, [0.5, 0.5]), id="build-polytope-k-nan"),
        pytest.param(lambda: engine.simulate_coupled_sharding(UNIT, UNIT, DYNKIN, 3, math.inf, 10, 0),
                     id="coupled-sharding-inf"),
    ],
)
def test_non_finite_library_arguments_are_value_errors(call):
    # cli.main reports a ValueError as a usage error (exit 2); an
    # OverflowError would be an ArithmeticError, a "numerical failure"
    with pytest.raises(ValueError):
        call()


# every seed argument of the library, checked like a count from 0 up
SEEDS = [
    pytest.param(lambda c: engine.simulate(UNIT, UNIT, DYNKIN, 10, 500, c(10)), id="simulate-seed"),
    pytest.param(lambda c: engine.accepted_value_samples(UNIT, UNIT, DYNKIN, 10, 50, c(3)), id="samples-seed"),
    pytest.param(lambda c: engine.googol_win_mc([0.3, 0.9, 0.5], UNIT, DYNKIN, 500, c(3)), id="googol-mc-seed"),
    pytest.param(lambda c: engine.simulate_coupled_sharding(UNIT, UNIT, DYNKIN, 4, 2, 50, c(3)), id="coupled-seed"),
]


# every count argument of the library, each taken as a function of a cast
# applied to the count
COUNTS = [
    pytest.param(lambda c: priors.PowerRoot(UNIT, c(3)), id="power-root"),
    pytest.param(lambda c: priors.power_root_cdf(UNIT, c(3)), id="power-root-cdf"),
    pytest.param(lambda c: priors.DiscretePrior([0.25, 0.25, 0.5]).truncate(c(2)), id="truncate"),
    pytest.param(lambda c: thresholds.single_threshold(c(10)), id="single-threshold"),
    pytest.param(lambda c: thresholds.gm_threshold(c(10), 300), id="gm-threshold-n"),
    pytest.param(lambda c: thresholds.gm_threshold(10, c(300)), id="gm-threshold-m"),
    pytest.param(lambda c: analytics.win_probability(DYNKIN, c(10)), id="win-probability"),
    pytest.param(lambda c: maxexp.solve_steps(0.6, 0.1, c(40)), id="solve-steps"),
    pytest.param(lambda c: maxexp.max_alpha_for_beta(0.1, c(40)), id="max-alpha-for-beta"),
    pytest.param(lambda c: maxexp.tradeoff_curve_maxexp([0.1], c(40)), id="maxexp-curve"),
    pytest.param(lambda c: engine.simulate(UNIT, UNIT, DYNKIN, c(10), 500, 3), id="simulate-n"),
    pytest.param(lambda c: engine.simulate(UNIT, UNIT, DYNKIN, c(40), 500, 3), id="simulate-record-rows-n"),
    pytest.param(lambda c: engine.simulate(UNIT, UNIT, DYNKIN, 10, c(500), 3), id="simulate-trials"),
    pytest.param(lambda c: engine.accepted_value_samples(UNIT, UNIT, DYNKIN, c(10), 50, 3), id="samples-n"),
    pytest.param(lambda c: engine.accepted_value_samples(UNIT, UNIT, DYNKIN, 10, c(50), 3), id="samples-trials"),
    pytest.param(lambda c: engine.googol_win_mc([0.3, 0.9, 0.5], UNIT, DYNKIN, c(500), 3), id="googol-mc-trials"),
    pytest.param(lambda c: engine.simulate_coupled_sharding(UNIT, UNIT, DYNKIN, c(4), 2, 50, 3), id="coupled-n"),
    pytest.param(lambda c: engine.simulate_coupled_sharding(UNIT, UNIT, DYNKIN, 4, c(2), 50, 3), id="coupled-k"),
    pytest.param(lambda c: engine.simulate_coupled_sharding(UNIT, UNIT, DYNKIN, 4, 2, c(50), 3), id="coupled-trials"),
    *SEEDS,
    pytest.param(lambda c: hardness.harmonic_prior(c(8)), id="harmonic-prior"),
    pytest.param(lambda c: hardness.build_polytope(c(3), 4, [0.1, 0.2, 0.3, 0.4]), id="build-polytope-n"),
    pytest.param(lambda c: hardness.build_polytope(3, c(4), [0.1, 0.2, 0.3, 0.4]), id="build-polytope-k"),
    pytest.param(lambda c: hardness.delta_table([0.1, 0.2, 0.3, 0.4], c(3)), id="delta-table"),
]


@pytest.mark.parametrize("call", COUNTS)
def test_integer_valued_float_counts_are_counts(call):
    # the pickles tell 10 from 10.0 and compare arrays bit for bit
    assert pickle.dumps(call(float)) == pickle.dumps(call(int))


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", COUNTS)
def test_non_integer_counts_are_value_errors(call, bad):
    with pytest.raises(ValueError):
        call(lambda _: bad)


@pytest.mark.parametrize("call", SEEDS)
def test_negative_seeds_are_value_errors(call):
    with pytest.raises(ValueError, match=r"^need integer seed >= 0$"):
        call(lambda _: -1)


def test_negative_seed_flag_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, *SIM, "--n", "10", "--trials", "100", "--seed", "-1")
    assert (code, out, err) == (cli.EXIT_USAGE, "", "error: need integer seed >= 0\n")


@pytest.mark.parametrize(
    "argv, stage",
    [
        (["hardness-frontier", "--n", "15", "--k-support", "128", "--out", "{tmp}/missing/x.csv"],
         "stoppred.hardness.frontier_sweep"),
        (["hardness-frontier", "--n", "2", "--k-support", "3", "--lambda-grid", "0,1", "--solver", "export",
          "--out", "{tmp}/file.txt/lps"], "stoppred.hardness.build_polytope"),
        (SIM + ["--n", "200", "--trials", "200000", "--out", "{tmp}/missing/sim.txt"], "stoppred.engine.simulate"),
        (["maxexp-curve", "--beta", "0.3", "--m", "8", "--out", "{tmp}/missing/c.csv"],
         "stoppred.maxexp.tradeoff_curve_maxexp"),
        (["maxexp-curve", "--beta", "0.3", "--m", "8", "--dump-thresholds", "{tmp}/file.txt"],
         "stoppred.maxexp.tradeoff_curve_maxexp"),
        (["maxprob-curve", "--beta", "0.1", "--out", "{tmp}"], "stoppred.analytics.maxprob_alpha"),
        (["thresholds", "--threshold", "gm:5", "--out", "{tmp}/missing/t.csv"], "stoppred.thresholds.gm_threshold"),
    ],
)
def test_unwritable_output_fails_before_the_work(capsys, monkeypatch, tmp_path, argv, stage):
    def never(*args, **kwargs):
        raise AssertionError(f"{stage} ran although the output cannot be written")

    monkeypatch.setattr(stage, never)
    (tmp_path / "file.txt").write_text("")
    code, out, err = run_cli(capsys, *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write ")
    assert len(err.strip().splitlines()) == 1
