"""Checks of the tie-tolerant oracle: ``python3 -m pytest perfbench``."""

import numpy as np
import pytest

import inputs
from oracle import Oracle, to_grid_units


def _table():
    rng = np.random.default_rng(0)
    return inputs.grid_with_duplicates(rng, 400, 3, 4, 1 / 8)


def _answer(X, rows, k):
    """Brute-force answer, ties broken by ascending id."""
    d = ((X[rows][:, None, :] - X[None, :, :]) ** 2).sum(-1)
    order = np.lexsort((np.broadcast_to(np.arange(len(X)), d.shape), d), axis=1)
    idx = order[:, :k]
    return np.take_along_axis(d, idx, 1), idx


def test_any_tie_order_is_right():
    X = _table()
    rows = np.arange(40)
    dist, idx = _answer(X, rows, 8)
    # the same distances with ties broken by descending id instead
    flipped = np.lexsort((-idx, dist), axis=1)
    idx2 = np.take_along_axis(idx, flipped, 1)
    assert (idx2 != idx).any()
    oracle = Oracle(X)
    truth = oracle.kth_sorted(X[rows], 8)
    for ids in (idx, idx2):
        right, recall = oracle.check(X[rows], dist, ids, truth, exact=True)
        assert right.all() and (recall == 1.0).all()


@pytest.mark.parametrize("defect", ["farther_id", "repeat_id", "distance", "bad_id"])
def test_wrong_answers_are_caught(defect):
    X = _table()
    rows = np.arange(40)
    dist, idx = _answer(X, rows, 8)
    if defect == "farther_id":  # the farthest point's id under the 8th distance
        far = ((X[rows][:, None, :] - X[None, :, :]) ** 2).sum(-1).argmax(axis=1)
        idx[:, -1] = far
    elif defect == "repeat_id":
        idx[:, -1] = idx[:, 0]
    elif defect == "distance":
        dist[:, 0] += 1.0
    else:
        idx[:, 0] = len(X)
    oracle = Oracle(X)
    right, _ = oracle.check(X[rows], dist, idx, oracle.kth_sorted(X[rows], 8), exact=True)
    assert not right.all()


def test_recall_counts_tied_neighbors_as_hits():
    X = _table()
    rows = np.arange(40)
    dist, idx = _answer(X, rows, 8)
    oracle = Oracle(X)
    _, recall = oracle.check(X[rows], dist, idx, oracle.kth_sorted(X[rows], 8), exact=False)
    assert (recall == 1.0).all()


def test_off_grid_input_is_refused():
    with pytest.raises(ValueError):
        to_grid_units(np.array([[0.1, 0.2]]))
