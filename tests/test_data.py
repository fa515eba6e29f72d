"""Core data types: datasets, one-hot codings, pairs, solver config."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmdadapt.data import (
    AdaptConfig,
    DomainPair,
    LabeledDataset,
    class_counts,
    one_hot_encode,
    validate_pair,
)
from mmdadapt.errors import ConfigError, DataError
from mmdadapt.kernels import KernelSpec


def test_one_hot_basic():
    got = one_hot_encode(np.array([1, 2, 1]), 2)
    np.testing.assert_array_equal(got, [[1, 0], [0, 1], [1, 0]])


def test_one_hot_single_sample():
    np.testing.assert_array_equal(one_hot_encode(np.array([3]), 3), [[0, 0, 1]])


def test_one_hot_out_of_range_names_index():
    with pytest.raises(DataError, match="sample 1"):
        one_hot_encode(np.array([1, 4]), 3)
    with pytest.raises(DataError):
        one_hot_encode(np.array([0]), 3)


def test_one_hot_refuses_labels_that_are_not_integers():
    """A fractional label is refused, as LabeledDataset refuses it; an
    integral float still encodes as its integer."""
    with pytest.raises(DataError, match="integers"):
        one_hot_encode(np.array([1.5, 2.0]), 2)
    np.testing.assert_array_equal(one_hot_encode(np.array([2.0, 1.0]), 2), [[0, 1], [1, 0]])


def test_one_hot_entries_are_exact():
    Y = one_hot_encode(np.array([2, 1, 2]), 2)
    assert set(np.unique(Y)) == {0.0, 1.0}
    np.testing.assert_array_equal(Y.sum(axis=1), 1.0)


def test_class_counts_basic():
    np.testing.assert_array_equal(class_counts(one_hot_encode(np.array([1, 2, 1]), 2)), [2, 1])


def test_class_counts_absent_class():
    np.testing.assert_array_equal(class_counts(one_hot_encode(np.array([2, 2]), 3)), [0, 2, 0])


def test_class_counts_balanced():
    np.testing.assert_array_equal(class_counts(one_hot_encode(np.array([1, 2, 3]), 3)), [1, 1, 1])


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=50),
    st.integers(min_value=6, max_value=9),
)
def test_counts_match_histogram(labels, C):
    labels = np.array(labels)
    counts = class_counts(one_hot_encode(labels, C))
    hist = np.bincount(labels, minlength=C + 1)[1:]
    np.testing.assert_array_equal(counts, hist)
    assert counts.sum() == len(labels)


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=40))
def test_decode_inverts_encode(labels):
    labels = np.array(labels)
    np.testing.assert_array_equal(np.argmax(one_hot_encode(labels, 5), axis=1) + 1, labels)


def test_dataset_rejects_bad_labels():
    X = np.zeros((2, 3))
    with pytest.raises(DataError):
        LabeledDataset(X=X, y=np.array([1, 2, 3]), class_count=2)
    with pytest.raises(DataError):
        LabeledDataset(X=X, y=np.array([0, 1, 2]), class_count=2)
    for y in (np.array([1, 2]), np.array([[1, 2, 1]])):
        with pytest.raises(DataError, match="one entry per sample"):
            LabeledDataset(X=X, y=y, class_count=2)
    with pytest.raises(DataError, match="integers"):
        LabeledDataset(X=X, y=np.array([1.0, 2.5, 1.0]), class_count=2)


def test_dataset_rejects_a_feature_vector():
    with pytest.raises(DataError, match="2-d"):
        LabeledDataset(X=np.zeros(3), y=None, class_count=2)


def test_integral_float_labels_become_integers():
    ds = LabeledDataset(X=np.zeros((2, 3)), y=np.array([1.0, 2.0, 1.0]), class_count=2)
    assert np.issubdtype(ds.y.dtype, np.integer)
    np.testing.assert_array_equal(ds.y, [1, 2, 1])


def test_pair_needs_a_labeled_source_and_one_class_count():
    X = np.zeros((2, 3))
    with pytest.raises(DataError, match="source domain must be labeled"):
        DomainPair(
            source=LabeledDataset(X=X, y=None, class_count=2),
            target=LabeledDataset(X=X, y=None, class_count=2),
        )
    with pytest.raises(DataError, match="class count mismatch: source 2, target 3"):
        DomainPair(
            source=LabeledDataset(X=X, y=np.array([1, 2, 1]), class_count=2),
            target=LabeledDataset(X=X, y=None, class_count=3),
        )


def test_one_hot_rejects_a_label_matrix():
    with pytest.raises(DataError, match="1-d"):
        one_hot_encode(np.array([[1, 2], [2, 1]]), 2)


def test_dataset_rejects_nonfinite():
    X = np.zeros((2, 2))
    X[1, 0] = np.nan
    with pytest.raises(DataError, match="finite"):
        LabeledDataset(X=X, y=np.array([1, 2]), class_count=2)


def test_dataset_rejects_single_class_space():
    with pytest.raises(DataError):
        LabeledDataset(X=np.zeros((2, 1)), y=np.array([1]), class_count=1)


def test_dataset_allows_unlabeled():
    ds = LabeledDataset(X=np.zeros((3, 4)), y=None, class_count=2)
    assert ds.n == 4 and ds.dim == 3


def test_validate_pair_matching_dims(rng):
    src = LabeledDataset(X=rng.normal(size=(4, 5)), y=np.array([1, 2, 1, 2, 1]), class_count=2)
    pair = validate_pair(src, rng.normal(size=(4, 3)))
    assert pair.target.n == 3 and pair.target.y is None


def test_validate_pair_dim_mismatch(rng):
    src = LabeledDataset(X=rng.normal(size=(4, 2)), y=np.array([1, 2]), class_count=2)
    with pytest.raises(DataError, match="dimension"):
        validate_pair(src, rng.normal(size=(5, 3)))


def test_validate_pair_nonfinite_target(rng):
    src = LabeledDataset(X=rng.normal(size=(4, 2)), y=np.array([1, 2]), class_count=2)
    bad = rng.normal(size=(4, 3))
    bad[0, 0] = np.inf
    with pytest.raises(DataError, match="finite"):
        validate_pair(src, bad)


def test_validate_pair_empty_domain(rng):
    src = LabeledDataset(X=rng.normal(size=(4, 2)), y=np.array([1, 2]), class_count=2)
    with pytest.raises(DataError):
        validate_pair(src, np.zeros((4, 0)))


def test_pair_stacked_is_source_first(rng):
    pair = validate_pair(
        LabeledDataset(X=np.ones((2, 2)), y=np.array([1, 2]), class_count=2),
        np.zeros((2, 3)),
    )
    stacked = pair.stacked()
    assert stacked.shape == (2, 5)
    np.testing.assert_array_equal(stacked[:, :2], 1.0)
    np.testing.assert_array_equal(stacked[:, 2:], 0.0)


def test_config_defaults_are_valid():
    cfg = AdaptConfig()
    assert cfg.algorithm == "jpda" and cfg.p == 100 and cfg.iters == 10
    assert cfg.mu == 0.1 and cfg.lam == 0.1
    assert cfg.kernel == KernelSpec("primal")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(algorithm="nope"),
        dict(p=0),
        dict(iters=0),
        dict(mu=-0.1),
        dict(lam=0.0),
        dict(lam=-1.0),
        dict(ridge=-1e-9),
        dict(bda_mu=1.5),
        dict(mu=math.nan),
        dict(mu=math.inf),
        dict(lam=math.nan),
        dict(lam=math.inf),
        dict(ridge=math.nan),
        dict(ridge=math.inf),
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        AdaptConfig(**kwargs)


_BLAS_AFTER_THE_LIMIT = """
import resource
import numpy as np
from scipy.linalg import blas
from mmdadapt.data import _memory_limit

def mapped():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[0]) * resource.getpagesize()

hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (2**40 if hard == resource.RLIM_INFINITY else hard, hard))
_memory_limit()
before = mapped()
a = np.ones((128, 128))
a @ a
blas.dgemm(1.0, a, a)
print(mapped() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs Linux statm")
def test_memory_limit_counts_both_blas_buffers():
    """numpy and scipy each bundle an OpenBLAS that maps a 32 MiB work buffer
    at its first large product. Under an address-space limit, the limit is
    read after both are mapped: a fresh process's products after it map at
    most the heap their results may take, well under one such buffer."""
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_AFTER_THE_LIMIT], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 4 * 2**20
