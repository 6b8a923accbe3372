"""Start-up stays lean: numpy is the one third-party import outside the LP
commands, and only those load the LP stack (scipy.sparse, scipy.optimize and
stoppred.hardness)."""

import json
import os
import subprocess
import sys

import pytest

from stoppred import cli

LP_STACK = ("scipy.optimize", "scipy.sparse", "stoppred.hardness")


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
