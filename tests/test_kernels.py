"""Gram construction and the median bandwidth heuristic."""

import tracemalloc

import numpy as np
import pytest

from mmdadapt import kernels
from mmdadapt.errors import ConfigError, NumericalError
from mmdadapt.kernels import KernelSpec, gram, resolve_bandwidth


def test_linear_identity_columns():
    X = np.eye(2)
    np.testing.assert_array_equal(gram(X, X, KernelSpec("linear")), np.eye(2))


def test_rbf_diagonal_is_one(rng):
    X = rng.normal(size=(3, 5))
    K = gram(X, X, KernelSpec("rbf", bandwidth=1.7))
    np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-15)


def test_rbf_closed_form():
    x = np.array([[0.0]])
    z = np.array([[2.0]])
    K = gram(x, z, KernelSpec("rbf", bandwidth=1.0))
    assert K[0, 0] == pytest.approx(np.exp(-2.0), abs=1e-12)


def test_rbf_gram_is_the_whole_formula_in_two_buffers(rng):
    """Bit-equal to exp(-max(xx + zz - 2 X^T Z, 0) / (2 sigma^2)) formed as
    one expression, which peaked at three n x m arrays; in place it takes
    at most the gram and one more n x m array."""
    X = rng.normal(size=(20, 600))
    Z = rng.normal(size=(20, 500))
    sigma = 3.1
    xx = np.sum(X * X, axis=0)[:, None]
    zz = np.sum(Z * Z, axis=0)[None, :]
    want = np.exp(-np.maximum(xx + zz - 2.0 * (X.T @ Z), 0.0) / (2.0 * sigma * sigma))
    tracemalloc.start()
    try:
        K = gram(X, Z, KernelSpec("rbf", bandwidth=sigma))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert K.tobytes() == want.tobytes()
    # X * X and Z * Z are freed before the n x m buffers are made.
    assert peak < 2 * K.nbytes + X.nbytes + Z.nbytes + 4096


@pytest.mark.parametrize("d, n", [(4000, 301), (7, 65), (300, 1001)])
def test_blocked_sums_equal_whole_matrix_sums(monkeypatch, rng, d, n):
    """The subsampled bandwidth and the rbf gram, whose squared norms and
    distances are formed a block at a time, equal bit for bit those formed
    over whole matrices (one block), whatever the blocks' widths."""
    X = rng.normal(size=(d, n))

    def run():
        sigma = resolve_bandwidth(X)
        return sigma, gram(X, X[:, ::2], KernelSpec("rbf", bandwidth=sigma))

    sigma, K = run()
    monkeypatch.setattr(kernels, "_BLOCK_FLOATS", 1 << 62)
    want_sigma, want_K = run()
    assert sigma == want_sigma
    assert K.tobytes() == want_K.tobytes()


def test_primal_has_no_gram():
    with pytest.raises(ConfigError, match="primal"):
        gram(np.eye(2), np.eye(2), KernelSpec("primal"))


def test_gram_dimension_mismatch(rng):
    with pytest.raises(ConfigError):
        gram(rng.normal(size=(2, 3)), rng.normal(size=(3, 3)), KernelSpec("linear"))


def test_spec_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        KernelSpec("poly")
    with pytest.raises(ConfigError):
        KernelSpec("rbf", bandwidth=0.0)


def test_bandwidth_two_points():
    X = np.array([[0.0, 2.0]])
    assert resolve_bandwidth(X) == pytest.approx(2.0)


def test_bandwidth_three_colinear_points():
    X = np.array([[0.0, 1.0, 2.0]])
    # pairwise distances {1, 1, 2}
    assert resolve_bandwidth(X) == pytest.approx(1.0)


def test_bandwidth_matches_exhaustive_median(rng):
    """Below the subsampling threshold the result is the exact median."""
    for n in (5, 17, 40):
        X = rng.normal(size=(4, n))
        dists = [
            float(np.linalg.norm(X[:, i] - X[:, j]))
            for i in range(n)
            for j in range(i + 1, n)
        ]
        assert resolve_bandwidth(X) == pytest.approx(np.median(dists), rel=1e-12)


def test_bandwidth_subsample_path_is_deterministic(rng):
    X = rng.normal(size=(2, 200))  # 19900 pairs, beyond the cap
    a = resolve_bandwidth(X)
    b = resolve_bandwidth(X.copy())
    assert a == b and a > 0
    # close to the exhaustive median even though subsampled
    dists = np.sqrt(
        np.maximum(
            np.sum(X * X, axis=0)[:, None]
            + np.sum(X * X, axis=0)[None, :]
            - 2.0 * X.T @ X,
            0.0,
        )
    )
    exact = float(np.median(dists[np.triu_indices(200, k=1)]))
    assert a == pytest.approx(exact, rel=0.15)


def test_bandwidth_identical_points_error():
    with pytest.raises(NumericalError, match="median"):
        resolve_bandwidth(np.zeros((2, 5)))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_bandwidth_whose_two_sigma_squared_overflows_errors():
    with pytest.raises(NumericalError, match="median pairwise distance inf"):
        resolve_bandwidth(np.array([[0.0, 1e200]]))


def test_bandwidth_needs_two_samples():
    with pytest.raises(NumericalError):
        resolve_bandwidth(np.zeros((2, 1)))


def test_grams_symmetric_psd(rng):
    for _ in range(10):
        n = int(rng.integers(2, 51))
        X = rng.normal(size=(3, n))
        for spec in (KernelSpec("linear"), KernelSpec("rbf", bandwidth=2.0)):
            K = gram(X, X, spec)
            assert np.max(np.abs(K - K.T)) <= 1e-12
            assert np.linalg.eigvalsh((K + K.T) / 2).min() >= -1e-8


def test_rbf_entries_in_unit_interval(rng):
    X = rng.normal(size=(4, 30))
    K = gram(X, X, KernelSpec("rbf", bandwidth=0.9))
    assert np.all(K > 0.0) and np.all(K <= 1.0)


def test_linear_unit_columns_bounded(rng):
    X = rng.normal(size=(4, 20))
    X /= np.linalg.norm(X, axis=0)
    K = gram(X, X, KernelSpec("linear"))
    assert np.all(K >= -1.0 - 1e-12) and np.all(K <= 1.0 + 1e-12)


def test_rbf_uses_median_when_unset(rng):
    X = rng.normal(size=(2, 12))
    K_auto = gram(X, X, KernelSpec("rbf"))
    K_explicit = gram(X, X, KernelSpec("rbf", bandwidth=resolve_bandwidth(X)))
    np.testing.assert_array_equal(K_auto, K_explicit)
