"""The random stream of every Monte Carlo estimator, pinned exactly.

The bounded stochastic tests elsewhere accept any estimate within a few
standard errors, so they cannot see the estimators draw or consume their
random numbers differently.  These values must match bit for bit; an
intended change of the stream updates them in the same commit.  CASES run
below engine.RECORD_ROWS_MIN_N, on full rows, and were recorded from the
full-row scan; RECORD_CASES run on record rows, the continuous ones from
the rank-space chain and the tied one from the binomial chain.
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


# record rows: continuous, ties at large n, a mispredicted support and an
# unbounded real prior
WIDE_TIED = DiscretePrior(np.full(64, 1 / 64))
RECORD_CASES = [
    (Uniform(0, 1), Uniform(0, 1), ROB, 200, 5000, 71),
    (WIDE_TIED, WIDE_TIED, ROB, 200, 5000, 72),
    (Uniform(0, 1), Uniform(2, 3), ROB, 200, 5000, 73),
    (Exponential(1.0), Uniform(0, 3), dynkin_threshold(0.3), 10_000, 5000, 74),
]

RECORD_SIMULATE = [
    (5000, 0.327, 0.006634319859638967, 0.7653520994097711, 0.005884134845240711, 0.772),
    (5000, 0.6882, 0.00655104205451316, 0.9476818002714418, 0.0029358705257182902, 0.9544),
    (5000, 0.3266, 0.006632230997183376, 0.4632968961927464, 0.007037174158478756, 0.4644),
    (5000, 0.3554, 0.00676891187710403, 0.6438259320103901, 0.0061813228593544335, 0.6966),
]

RECORD_SAMPLES = [
    (3807.3235540247088, 4974.603920157617, "9153e9f32229259f", "b0135be33a417f60"),
    (303044.0, 319774.0, "f5ee5c274b68d0e4", "4cf8a08b9d4f6b52"),
    (2304.6894306591926, 4974.541054771858, "d001ee7af729c607", "935b975f9852f255"),
    (31569.264354116756, 49033.85027617571, "ed39f6624968bc8a", "f44d53418b8feb12"),
]

# k: sum and digest of the sharding pass's accepted values, then of the
# base scan's
COUPLED = {
    1: (1692.8078246363648, 1692.8078246363648, "1af2f68a2b6ce799", "1af2f68a2b6ce799"),
    3: (1939.983787268684, 1926.5288449543568, "20943e7ed5d5f444", "2be83d3a4e9dcd4b"),
}


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("case, expected", zip(CASES + RECORD_CASES, SIMULATE + RECORD_SIMULATE))
def test_simulate_stream(case, expected):
    r = engine.simulate(*case)
    assert (r.trials, r.maxprob, r.maxprob_se, r.maxexp_ratio, r.maxexp_se, r.acceptance_rate) == expected


@pytest.mark.parametrize("case, expected", zip(CASES + RECORD_CASES, SAMPLES + RECORD_SAMPLES))
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
def test_coupled_sharding_stream(k, monkeypatch):
    # the estimator returns only a count, so its stream is read from the
    # accepted values of each batch's two passes
    batches = []

    def passes(*args):
        batches.append(coupled_passes(*args))
        return batches[-1]

    coupled_passes = engine._coupled_passes
    monkeypatch.setattr(engine, "_coupled_passes", passes)
    assert engine.simulate_coupled_sharding(Uniform(0, 1), Uniform(0, 1), ROB, 8, k, 3000, 67) == 0
    sharding, base = map(np.concatenate, zip(*batches))
    assert (float(sharding.sum()), float(base.sum()), _digest(sharding), _digest(base)) == COUPLED[k]
