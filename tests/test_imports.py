"""Start-up stays lean: numpy is the one third-party import outside the LP
commands, and only those load the LP stack: stoppred.hardness and scipy's
HiGHS extension, which hardness loads by its file path, so neither the
scipy.optimize package nor scipy.sparse loads with it."""

import json
import os
import subprocess
import sys

import pytest

from stoppred import cli

HIGHS = "scipy.optimize._highspy._core"
LP_STACK = ("stoppred.hardness", HIGHS)


def _run(code):
    """Run code in a fresh interpreter; returns its last stdout line parsed as JSON."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loaded_after(statements):
    """The scipy modules and the LP stack members loaded after the statements run."""
    return _run(
        f"import json, sys\n{statements}\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')"
        f" or m in {LP_STACK!r})))"
    )


@pytest.mark.parametrize("statement", ["import stoppred.cli", "import stoppred"])
def test_import_leaves_out_the_lp_stack(statement):
    assert _loaded_after(statement) == []


def test_non_lp_commands_leave_out_the_lp_stack(tmp_path):
    out = tmp_path / "out"
    commands = [
        ["maxprob-curve", "--beta-grid", "0,0.2", "--out", str(out)],
        ["maxexp-curve", "--beta", "0.2", "--m", "8", "--out", str(out)],
        ["simulate", "--real", "uniform:0,1", "--predicted", "exp:1", "--threshold", "gm:10",
         "--robustify", "0.3", "--n", "10", "--trials", "200", "--out", str(out)],
        ["thresholds", "--threshold", "gm:5", "--out", str(out)],
        ["verify", "quick"],
    ]
    run = "\n".join(f"assert stoppred.cli.main({argv!r}) == 0" for argv in commands)
    assert _loaded_after(f"import stoppred.cli\n{run}") == []


def test_hardness_frontier_loads_the_lp_stack(tmp_path):
    argv = ["hardness-frontier", "--n", "2", "--k-support", "3", "--lambda-grid", "0,1", "--out", str(tmp_path / "f")]
    loaded = _loaded_after(f"import stoppred.cli\nassert stoppred.cli.main({argv!r}) == 0")
    assert set(LP_STACK) <= set(loaded)
    # of scipy.optimize only the extension (and the submodules it registers) loads
    assert [m for m in loaded if m.startswith("scipy.optimize") and not m.startswith(HIGHS)] == []
    assert [m for m in loaded if m.startswith("scipy.sparse")] == []


@pytest.mark.parametrize("optimize_first", [True, False], ids=["optimize-first", "hardness-first"])
def test_hardness_shares_the_extension_with_scipy_optimize(optimize_first):
    # either import order leaves one extension module, which linprog and solve_lp both drive
    first, second = ("import scipy.optimize", "from stoppred import hardness")[:: 1 if optimize_first else -1]
    result = _run(
        f"import json, sys\n{first}\n{second}\n"
        "from scipy.optimize import linprog\n"
        "res = linprog([-1.0, -1.0], A_ub=[[1.0, 2.0], [3.0, 1.0]], b_ub=[4.0, 6.0], method='highs')\n"
        "sol = hardness.solve_lp(hardness.build_polytope(10, 64, hardness.harmonic_prior(64)), 0.5)\n"
        "driven = sys.modules['scipy.optimize._highspy._highs_wrapper']._h  # the module linprog calls\n"
        f"print(json.dumps([hardness._highs is sys.modules[{HIGHS!r}] is driven, res.status, res.fun, sol.objective]))"
    )
    shared, status, fun, objective = result
    assert shared
    assert status == 0 and fun == pytest.approx(-2.8, abs=1e-12)  # at (1.6, 1.2)
    assert objective == pytest.approx(0.519500825, abs=1e-6)  # test_hardness.LP_GOLDEN[0.5]


def test_missing_extension_names_the_scipy_floor(tmp_path, monkeypatch):
    from stoppred import hardness

    monkeypatch.delitem(sys.modules, HIGHS)
    with pytest.raises(ImportError, match=r"scipy>=1\.15"):
        hardness._load_highs(tmp_path)
    assert HIGHS not in sys.modules


def test_loaded_extension_is_reused(tmp_path, monkeypatch):
    # CPython hands back a loaded single-phase extension anyway; the loader must not depend on it
    from stoppred import hardness

    loaded = object()
    monkeypatch.setitem(sys.modules, HIGHS, loaded)
    assert hardness._load_highs(tmp_path) is loaded


def test_hardness_loads_on_first_use():
    loaded = _run(
        "import json, sys, stoppred\n"
        "before = 'stoppred.hardness' in sys.modules\n"
        "first = stoppred.hardness\n"
        "from stoppred import hardness\n"
        "import stoppred.cli\n"
        "prior = stoppred.cli.parse_prior('harmonic:4')\n"
        "print(json.dumps([before, first is hardness, isinstance(prior, stoppred.DiscretePrior),\n"
        "                  prior.pmf.tolist() == hardness.harmonic_prior(4).pmf.tolist()]))"
    )
    assert loaded == [False, True, True, True]


def test_unknown_attribute_still_raises():
    import stoppred

    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        stoppred.nonexistent  # noqa: B018


def test_lp_error_is_a_numerical_failure(capsys, monkeypatch):
    from stoppred import hardness

    def failing(*args, **kwargs):
        raise hardness.LpError("forced")

    monkeypatch.setattr(hardness, "frontier_sweep", failing)
    code = cli.main(["hardness-frontier", "--n", "2", "--k-support", "3", "--lambda-grid", "0,1"])
    assert code == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: forced\n"
