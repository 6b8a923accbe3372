import numpy as np
import pytest

from stoppred import maxexp
from stoppred.priors import lambda_pair
from stoppred.thresholds import ThresholdFn


@pytest.fixture(scope="session")
def maxexp_solution_001():
    """Shared expensive artifact: the alpha search at beta = 0.01, m = 300."""
    alpha, sol = maxexp.max_alpha_for_beta(0.01, 300)
    return alpha, sol


@pytest.fixture(scope="session")
def pair_third():
    return lambda_pair(1.0 / 3.0)


def random_step_threshold(rng, max_pieces=6):
    """Random left-continuous non-increasing step function on [0, 1]."""
    k = int(rng.integers(1, max_pieces + 1))
    breaks = np.sort(rng.random(k - 1)) if k > 1 else np.empty(0)
    breaks = np.unique(np.concatenate([breaks, [1.0]]))
    vals = np.sort(rng.random(len(breaks)))[::-1]
    return ThresholdFn(breaks, vals)
