"""Record the reference values that the benchmark's output checks compare to.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes perfbench/reference.json.  The committed file was recorded from the
commit that introduced the benchmark; re-record only on purpose, since a
later change is judged against these values.
"""

import json
import os

from stoppred import analytics, cli, hardness, maxexp, thresholds
from stoppred.priors import lambda_pair


def main():
    robust = lambda_pair(0.3333)
    frontier_grid = cli.parse_grid("0:1:0.05")
    ref = {
        # maxexp-curve --beta-grid 0.01,0.3 --m 40 (tol 1e-4)
        "maxexp_alpha": {str(b): maxexp.max_alpha_for_beta(b, 40, 1e-4)[0] for b in (0.01, 0.3)},
        # maxprob-curve --beta-grid 0:0.3678:0.004
        "maxprob_alpha": [analytics.maxprob_alpha(b) for b in cli.parse_grid("0:0.3678:0.004")],
        # exact win probability of the threshold that simulate --threshold gm:200 --robustify 0.3333 uses
        "simulate_win_prob": analytics.win_probability(
            thresholds.robustify(thresholds.gm_threshold(200, 300), robust), 200
        ),
        # under a prediction above the real support only the wait-until-lambda2 rule acts
        "adversarial_win_prob": analytics.win_probability(thresholds.dynkin_threshold(robust.lambda2), 10),
        # hardness-frontier --n 15 --k-support 128 --lambda-grid 0:1:0.05
        "frontier_lp_star": [
            p.lp_star for p in hardness.frontier_sweep(15, 128, hardness.harmonic_prior(128), frontier_grid)
        ],
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
