"""Semantics of the engine's batched scan on hand-built rows."""

import numpy as np

from stoppred.engine import scan_first_accept


def test_python_kernel_semantics():
    values = np.array([[0.5, 0.4, 0.9], [0.5, 0.4, 0.3], [-0.5, 0.2, 0.1]])
    qvals = np.array([[0.1, 0.9, 0.9], [0.1, 0.9, 0.9], [0.9, 0.9, 0.9]])
    thresh = np.full((3, 3), 0.5)
    pos, acc = scan_first_accept(values, qvals, thresh)
    # row 0: first value fails the quantile test, second is not best-so-far,
    # third passes both; row 1: nothing passes; row 2: the scan starts from
    # a maximum of 0, so a negative value is never best-so-far
    assert pos.tolist() == [2, -1, 1]
    assert acc.tolist() == [0.9, 0.0, 0.2]


def test_tie_counts_as_best_so_far():
    values = np.array([[0.5, 0.5]])
    qvals = np.array([[0.0, 1.0]])
    thresh = np.array([[0.5, 0.5]])
    pos, acc = scan_first_accept(values, qvals, thresh)
    assert pos.tolist() == [1]

