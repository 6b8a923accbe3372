import pytest

from stoppred import cli, hardness
from stoppred.priors import E_INV
from stoppred.thresholds import threshold_from_csv


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_quick_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "quick")
    assert code == 0
    assert "FAIL" not in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(cli.cmd_verify.__globals__, "_verify_quick", lambda: [("forced", False)])
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


def test_hardness_frontier_embedded(capsys):
    code, out, _ = run_cli(capsys, "hardness-frontier", "--n", "3", "--k-support", "8",
                           "--lambda-grid", "0:1:0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "lambda,lp_star,alpha_star,beta_star"
    assert len(lines) == 5


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
    for path, lam in zip(files, [0.0, 1.0]):
        head, text = path.read_text().split("\n", 1)
        assert head.startswith("\\ command=hardness-frontier") and f" lambda={lam:.17g} " in head
        assert text == hardness.export_lp(model, lam)


@pytest.mark.parametrize(
    "grid, message",
    [
        ("0,0.5,1.5", "error: lambda weight must lie in [0, 1]"),
        ("0,0.00001", "error: lambdas 0 and 1.0000000000000001e-05 both map to the file frontier_lambda_0.0000.lp"),
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


def test_maxexp_curve_peak_point(capsys):
    code, out, _ = run_cli(capsys, "maxexp-curve", "--beta", str(E_INV), "--m", "40")
    assert code == 0
    beta, alpha = out.strip().splitlines()[-1].split(",")
    assert float(alpha) == pytest.approx(E_INV, abs=1e-9)


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
    ],
)
def test_library_domain_errors_are_usage_errors(capsys, tmp_path, argv):
    (tmp_path / "nan_level.csv").write_text("t,theta\n0.5,nan\n1,0\n")
    (tmp_path / "nan_break.csv").write_text("t,theta\nnan,1\n1,0\n")
    code, _, err = run_cli(capsys, *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
    assert code == 2
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
