"""Deterministic 1-NN and accuracy scoring."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdadapt import classify
from mmdadapt.classify import accuracy, knn1_predict
from mmdadapt.errors import DataError
from oracles import knn1_scan

seeds = st.integers(0, 2**32 - 1)


def test_nearest_of_two():
    train = np.array([[0.0, 10.0]])
    pred = knn1_predict(train, np.array([1, 2]), np.array([[1.0]]))
    np.testing.assert_array_equal(pred, [1])


def test_tie_goes_to_smaller_index():
    # test point exactly between index 0 (class 2) and index 1 (class 1)
    train = np.array([[0.0, 2.0]])
    pred = knn1_predict(train, np.array([2, 1]), np.array([[1.0]]))
    np.testing.assert_array_equal(pred, [2])


def test_matches_exhaustive_scan(rng):
    train = rng.normal(size=(5, 30))
    y = rng.integers(1, 4, size=30)
    test = rng.normal(size=(5, 12))
    pred = knn1_predict(train, y, test)
    for j in range(12):
        dists = [float(np.sum((train[:, i] - test[:, j]) ** 2)) for i in range(30)]
        best = min(range(30), key=lambda i: (dists[i], i))
        assert pred[j] == y[best]


def test_orthogonal_invariance(rng):
    """Rotating train and test together never changes predictions."""
    train = rng.normal(size=(4, 25))
    y = rng.integers(1, 3, size=25)
    test = rng.normal(size=(4, 10))
    base = knn1_predict(train, y, test)
    for _ in range(5):
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        np.testing.assert_array_equal(knn1_predict(Q @ train, y, Q @ test), base)


def test_self_prediction_returns_own_labels(rng):
    train = rng.normal(size=(3, 20))  # distinct with probability 1
    y = rng.integers(1, 5, size=20)
    np.testing.assert_array_equal(knn1_predict(train, y, train), y)


def assert_matches_scan(train, y, test):
    np.testing.assert_array_equal(knn1_predict(train, y, test), knn1_scan(train, y, test))


def spy_on_exact_scan():
    return mock.patch.object(classify, "_scan_nearest", wraps=classify._scan_nearest)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, d=st.integers(1, 6), n_s=st.integers(2, 40), n_t=st.integers(1, 20))
def test_duplicated_training_columns_tie_to_smallest_index(seed, d, n_s, n_t):
    rng = np.random.default_rng(seed)
    distinct = rng.normal(size=(d, n_s))
    train = distinct[:, rng.integers(0, (n_s + 1) // 2, size=n_s)]  # repeats some
    y = np.arange(n_s)  # one label per column, so the chosen index shows
    test = np.hstack([train, rng.normal(size=(d, n_t))])
    with spy_on_exact_scan() as spy:
        assert_matches_scan(train, y, test)
    assert spy.called  # a repeated column is a zero-distance tie


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    d=st.integers(1, 6),
    n_t=st.integers(1, 10),
    step=st.sampled_from([-np.inf, 0.0, np.inf]),
)
def test_near_ties_one_ulp_apart(seed, d, n_t, step):
    """Each test column has two training columns whose distances differ by
    about one ulp (or tie); test columns lie 20 apart and decoys far off, so
    neither competes."""
    rng = np.random.default_rng(seed)
    test = rng.normal(size=(d, n_t))
    test[0] += 20.0 * np.arange(n_t)
    axis = rng.integers(0, d, size=n_t)
    delta = rng.uniform(0.1, 1.0, size=n_t)
    near, far = test.copy(), test.copy()
    cols = np.arange(n_t)
    near[axis, cols] += delta
    far[axis, cols] -= delta
    if step:
        far[axis, cols] = np.nextafter(far[axis, cols], step)
    decoys = rng.normal(size=(d, 3 * n_t)) - 50.0
    order = rng.permutation(5 * n_t)
    train = np.hstack([near, far, decoys])[:, order]
    y = np.arange(5 * n_t)
    with spy_on_exact_scan() as spy:
        assert_matches_scan(train, y, test)
    assert spy.call_count == n_t


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    d=st.integers(1, 8),
    n_s=st.integers(1, 60),
    n_t=st.integers(1, 30),
    offset=st.sampled_from([1e4, -1e4, 1e6]),
)
def test_large_common_offset(seed, d, n_s, n_t, offset):
    """||x||^2 + ||z||^2 - 2 x^T z cancels worst when every sample sits far
    from the origin."""
    rng = np.random.default_rng(seed)
    train = rng.normal(size=(d, n_s)) + offset
    test = rng.normal(size=(d, n_t)) + offset
    test[:, : min(n_s, n_t)] = train[:, : min(n_s, n_t)]
    assert_matches_scan(train, rng.integers(1, 4, size=n_s), test)


@settings(max_examples=15, deadline=None)
@given(
    seed=seeds,
    d=st.integers(1, 4),
    block=st.integers(2, 5),
    blocks=st.integers(2, 4),
    extra=st.integers(0, 4),
)
def test_target_count_spanning_several_blocks(seed, d, block, blocks, extra):
    rng = np.random.default_rng(seed)
    n_s = classify._BLOCK_ENTRIES // block
    n_t = blocks * block + extra
    train = rng.normal(size=(d, n_s))
    test = np.hstack([rng.normal(size=(d, n_t - 2)), train[:, :2]])
    assert_matches_scan(train, rng.integers(1, 11, size=n_s), test)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, d=st.integers(1, 6), n_t=st.integers(1, 20))
def test_single_training_column(seed, d, n_t):
    rng = np.random.default_rng(seed)
    train = rng.normal(size=(d, 1))
    test = np.hstack([train, rng.normal(size=(d, n_t))])
    assert_matches_scan(train, np.array([7]), test)


def test_memory_bounded_by_block_not_test_count(rng):
    """A full 4000 x 4000 distance matrix would take 122 MiB."""
    train = rng.normal(size=(8, 4000))
    y = rng.integers(1, 11, size=4000)
    test = rng.normal(size=(8, 4000))
    tracemalloc.start()
    try:
        knn1_predict(train, y, test)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_empty_training_set_rejected():
    with pytest.raises(DataError):
        knn1_predict(np.zeros((2, 0)), np.array([], dtype=int), np.zeros((2, 1)))


def test_dim_mismatch_rejected():
    with pytest.raises(DataError):
        knn1_predict(np.zeros((2, 3)), np.array([1, 1, 2]), np.zeros((3, 1)))


def test_labels_not_one_per_training_column_rejected():
    """Too few labels would index past their end, too many would label the
    test columns from the wrong entries: both are refused."""
    train = np.arange(10.0).reshape(2, 5)
    test = train[:, [4, 3, 0, 1]]
    for train_y in (np.array([1, 2, 3]), np.arange(1, 9)):
        with pytest.raises(DataError, match="one label per training column"):
            knn1_predict(train, train_y, test)


def test_accuracy_examples():
    assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 3])) == 1.0
    assert accuracy(np.array([1, 1]), np.array([2, 2])) == 0.0
    assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 4])) == pytest.approx(2 / 3)


def test_accuracy_rejects_mismatch_and_empty():
    with pytest.raises(DataError):
        accuracy(np.array([1, 2]), np.array([1]))
    with pytest.raises(DataError):
        accuracy(np.array([]), np.array([]))
