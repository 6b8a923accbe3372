"""The random stream of every Monte Carlo estimator, pinned exactly.

The bounded stochastic tests elsewhere accept any estimate within a few
standard errors, so they cannot see the estimators draw or consume their
random numbers differently.  These values were recorded from the engine
as of the full-row scan and must match bit for bit; an intended change of
the stream updates them in the same commit.
"""

import hashlib

import numpy as np
import pytest

from stoppred import engine
from stoppred.priors import DiscretePrior, Exponential, Uniform, lambda_pair
from stoppred.thresholds import dynkin_threshold, gm_threshold, robustify, single_threshold

ROB = robustify(gm_threshold(12, 40), lambda_pair(1 / 3))
TIED = DiscretePrior([0.1, 0.2, 0.3, 0.4])

# (real, predicted, theta, n, trials, seed); trials span two batches
CASES = [
    (Uniform(0, 1), Uniform(0, 1), ROB, 12, 5000, 61),
    (Uniform(0, 1), Uniform(2, 3), ROB, 10, 5000, 62),  # mispredicted support
    (TIED, TIED, single_threshold(6), 6, 5000, 63),  # ties
    (Exponential(1.0), Uniform(0, 3), dynkin_threshold(0.3), 15, 5000, 64),
]

SIMULATE = [
    (5000, 0.4812, 0.007066067647567492, 0.6799925248839208, 0.0063306416606520085, 0.6916),
    (5000, 0.3326, 0.0066629909199998165, 0.4345611260834125, 0.006849033898848479, 0.4532),
    (5000, 0.9536, 0.0029747954551531774, 0.9650356727217528, 0.0022710834615135146, 0.9536),
    (5000, 0.3484, 0.00673821103854725, 0.5377497286463189, 0.006450094490427261, 0.6966),
]

SAMPLES = [
    (3132.5581243913125, 4606.753765309495, "e9da3ca17fec367b", "82cee85e28a9a773"),
    (1974.7507461650312, 4544.241598329218, "92739609d63aa923", "3283a523ca93876e"),
    (19072.0, 19763.0, "7a7c1fb3d9ce51b8", "5628d812ee1f60c0"),
    (8856.93704402029, 16470.370085199145, "4b1bac8312fd4bb3", "eb3a62c95e47bc16"),
]


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("case, expected", zip(CASES, SIMULATE))
def test_simulate_stream(case, expected):
    r = engine.simulate(*case)
    assert (r.trials, r.maxprob, r.maxprob_se, r.maxexp_ratio, r.maxexp_se, r.acceptance_rate) == expected


@pytest.mark.parametrize("case, expected", zip(CASES, SAMPLES))
def test_accepted_value_samples_stream(case, expected):
    accepted, maxima = engine.accepted_value_samples(*case)
    assert (float(accepted.sum()), float(maxima.sum()), _digest(accepted), _digest(maxima)) == expected


def test_googol_win_mc_stream():
    assert engine.googol_win_mc([0.3, 1.2, 0.7, 2.5, 0.1, 1.9], Uniform(0, 3), ROB, 5000, 65) == (
        0.3306,
        0.006652873664815829,
    )
    assert engine.googol_win_mc([3.0, 1.0, 4.0, 2.0], TIED, ROB, 5000, 66) == (0.6466, 0.006760302360101951)


@pytest.mark.parametrize("k", [1, 3])
def test_coupled_sharding_stream(k):
    assert engine.simulate_coupled_sharding(Uniform(0, 1), Uniform(0, 1), ROB, 8, k, 3000, 67) == 0


def test_run_sharding_stream():
    pos = []
    for seed in range(300):
        values = np.random.default_rng(seed).random(8)
        p = engine.run_sharding(values, 1 + seed % 3, Uniform(0, 1), ROB, np.random.default_rng(seed + 1000))
        pos.append(-1 if p is None else p)
    pos = np.array(pos, dtype=np.int64)
    assert (int(pos.sum()), _digest(pos)) == (719, "7b8400b23aa7d83e")
