"""Solver loop: dispatch wiring, fixed points, constraint quality, reports."""

import contextlib

import numpy as np
import pytest

from mmdadapt.adapt import (
    Projection,
    centered_scatter,
    fit,
    jpda_fit,
    transform,
    weighted_fit,
)
from mmdadapt.classify import accuracy, knn1_predict
from mmdadapt.data import AdaptConfig, DomainPair, LabeledDataset
from mmdadapt.datagen import ShiftSpec, generate_pair
from mmdadapt.errors import ConfigError
from mmdadapt.kernels import KernelSpec, gram
from oracles import centering_matrix


def _small_pair(seed: int = 2) -> DomainPair:
    return generate_pair(
        ShiftSpec(magnitude=20.0, n_per_class=10, class_count=3, dim=6, seed=seed)
    ).pair


def _copy_pair(seed: int = 3) -> DomainPair:
    src = generate_pair(ShiftSpec(seed=seed)).pair.source
    return DomainPair(
        source=src,
        target=LabeledDataset(X=src.X.copy(), y=src.y.copy(), class_count=src.class_count),
    )


def _numeric_view(result):
    """Everything that should match between equivalent solvers."""
    report = result.report.to_dict(include_timing=False)
    report.pop("algorithm")
    for rec in report["iterations"]:
        rec.pop("bda_mu")
    return report


def _assert_same_fit(a, b):
    np.testing.assert_array_equal(a.projection.matrix, b.projection.matrix)
    np.testing.assert_array_equal(a.pseudo_labels, b.pseudo_labels)
    assert _numeric_view(a) == _numeric_view(b)


# ---------------------------------------------------------------- wiring


def test_mu_zero_joint_solver_equals_jp():
    pair = _small_pair()
    a = fit(pair, AdaptConfig(algorithm="jpda", p=3, iters=3, mu=0.0))
    b = fit(pair, AdaptConfig(algorithm="jp", p=3, iters=3, mu=0.7))
    _assert_same_fit(a, b)


def test_weighted_one_zero_single_iteration_equals_tca():
    pair = _small_pair()
    a = fit(pair, AdaptConfig(algorithm="tca", p=3, iters=10))
    b = weighted_fit(pair, AdaptConfig(algorithm="jda", p=3, iters=1), weights=(1.0, 0.0))
    _assert_same_fit(a, b)


def test_weighted_one_one_equals_jda():
    pair = _small_pair()
    a = fit(pair, AdaptConfig(algorithm="jda", p=3, iters=3))
    b = fit(pair, AdaptConfig(algorithm="bda", p=3, iters=3, weights=(1.0, 1.0)))
    _assert_same_fit(a, b)


def test_frozen_half_balance_equals_half_weights():
    pair = _small_pair()
    a = fit(pair, AdaptConfig(algorithm="bda", p=3, iters=3, bda_mu=0.5))
    b = fit(pair, AdaptConfig(algorithm="jda", p=3, iters=3, weights=(0.5, 0.5)))
    _assert_same_fit(a, b)
    assert all(rec.bda_mu == 0.5 for rec in a.report.iterations)


def test_weighted_fit_rejects_joint_algorithm_without_weights():
    with pytest.raises(ConfigError, match="weights"):
        weighted_fit(_small_pair(), AdaptConfig(algorithm="jpda", p=2, iters=1))


def test_freeze_balance_repeats_first_estimate():
    pair = _small_pair()
    res = fit(pair, AdaptConfig(algorithm="bda", p=3, iters=3, freeze_bda_mu=True))
    mus = [rec.bda_mu for rec in res.report.iterations]
    assert mus[0] is not None
    assert all(m == mus[0] for m in mus)


# ------------------------------------------------------------ fixed point


@pytest.mark.parametrize("algo", ["tca", "jda", "bda", "jp", "jpda"])
def test_identical_domains_are_a_fixed_point(algo):
    pair = _copy_pair()
    ctx = (
        # coinciding domains leave the balance estimator nothing to separate
        pytest.warns(UserWarning, match="falling back")
        if algo == "bda"
        else contextlib.nullcontext()
    )
    with ctx:
        res = fit(pair, AdaptConfig(algorithm=algo, p=4, iters=3))
    assert res.report.final_accuracy == 1.0
    assert res.report.iterations[-1].transfer <= 1e-8


# ------------------------------------------------------------- regression


def test_noisy_benchmark_instance_frozen_accuracies():
    """High-noise layout, seed 7: the joint solver recovers the class plane."""
    pair = generate_pair(
        ShiftSpec(magnitude=15.0, n_per_class=67, class_count=3, dim=40, seed=7)
    ).pair
    raw = accuracy(knn1_predict(pair.source.X, pair.source.y, pair.target.X), pair.target.y)
    res = fit(pair, AdaptConfig(algorithm="jpda", p=2, iters=10, mu=0.1, lam=0.1))
    assert raw == pytest.approx(0.9203980099502488, abs=1e-12)
    assert res.report.final_accuracy == pytest.approx(0.9751243781094527, abs=1e-12)
    assert res.report.final_accuracy > raw


# ----------------------------------------------------------- loop details


def test_iteration_records_and_tca_single_pass():
    pair = _small_pair()
    res = fit(pair, AdaptConfig(algorithm="jpda", p=3, iters=4))
    assert [rec.index for rec in res.report.iterations] == [1, 2, 3, 4]
    tca = fit(pair, AdaptConfig(algorithm="tca", p=3, iters=4))
    assert len(tca.report.iterations) == 1


@pytest.mark.parametrize("kernel", [None, KernelSpec("rbf")])
def test_constraint_gap_and_nonnegative_traces(kernel):
    pair = _small_pair()
    res = fit(pair, AdaptConfig(algorithm="jpda", p=3, iters=3, kernel=kernel))
    for rec in res.report.iterations:
        assert rec.constraint_gap <= 1e-4
        assert rec.transfer >= 0.0
        assert rec.discriminative >= 0.0
        assert rec.accuracy is not None


def test_fit_is_deterministic():
    pair = _small_pair()
    cfg = AdaptConfig(algorithm="bda", p=3, iters=3)
    a, b = fit(pair, cfg), fit(pair, cfg)
    assert a.report.to_dict(include_timing=False) == b.report.to_dict(include_timing=False)
    np.testing.assert_array_equal(a.projection.matrix, b.projection.matrix)


def test_primal_p_clamped_to_feature_count():
    pair = _small_pair()
    res = fit(pair, AdaptConfig(algorithm="jpda", p=100, iters=1))
    assert res.report.p_requested == 100
    assert res.report.p_used <= 6
    assert res.report.rank_reduced


def test_kernel_mode_reports_rank_reduction():
    pair = generate_pair(ShiftSpec(n_per_class=4, class_count=3, dim=2, seed=1)).pair
    res = fit(pair, AdaptConfig(algorithm="jpda", p=100, iters=1, kernel=KernelSpec("rbf")))
    # centering makes B = G H G^T rank-deficient, so at least one of the
    # 24 gram directions must be dropped
    assert res.report.rank_reduced
    assert res.report.p_used < 24
    assert res.projection.matrix.shape == (24, res.report.p_used)
    assert res.report.bandwidth is not None and res.report.bandwidth > 0


def test_collapse_warning():
    Xs = np.array([[0.0, 0.2, -0.1, 10.0, 10.2, 9.9], [0.0, 0.1, 0.2, 10.0, 9.8, 10.1]])
    ys = np.array([1, 1, 1, 2, 2, 2])
    Xt = np.array([[0.05, 0.15, -0.05, 0.1], [0.05, 0.0, 0.1, 0.15]])
    pair = DomainPair(
        source=LabeledDataset(X=Xs, y=ys, class_count=2),
        target=LabeledDataset(X=Xt, y=None, class_count=2),
    )
    with pytest.warns(UserWarning, match="collapsed"):
        fit(pair, AdaptConfig(algorithm="jpda", p=1, iters=1))


def test_unlabeled_target_reports_no_accuracy():
    pair = _small_pair()
    blind = DomainPair(
        source=pair.source,
        target=LabeledDataset(X=pair.target.X, y=None, class_count=3),
    )
    res = fit(blind, AdaptConfig(algorithm="jpda", p=3, iters=2))
    assert res.report.final_accuracy is None
    assert all(rec.accuracy is None for rec in res.report.iterations)
    assert res.pseudo_labels.shape == (pair.target.n,)


# -------------------------------------------------------------- transform


def test_transform_primal_is_matrix_product():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(4, 7))
    proj = Projection(matrix=np.eye(4)[:, :2], kind="primal")
    np.testing.assert_array_equal(transform(proj, X), X[:2])


def test_transform_kernel_matches_training_embedding():
    pair = _small_pair()
    res = fit(pair, AdaptConfig(algorithm="jpda", p=3, iters=2, kernel=KernelSpec("rbf")))
    proj = res.projection
    X = pair.stacked()
    G = gram(X, X, KernelSpec("rbf", bandwidth=proj.bandwidth))
    want = proj.matrix.T @ G[:, : pair.source.n]
    got = transform(proj, pair.source.X)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_projected_space_separates_source_classes():
    pair = _small_pair()
    res = fit(pair, AdaptConfig(algorithm="jpda", p=2, iters=3))
    Zs = transform(res.projection, pair.source.X)
    Zt = transform(res.projection, pair.target.X)
    assert accuracy(knn1_predict(Zs, pair.source.y, Zt), pair.target.y) >= 0.9


# -------------------------------------------------------------- centering


def test_centering_matrix_examples():
    np.testing.assert_array_equal(centering_matrix(1), [[0.0]])
    np.testing.assert_allclose(centering_matrix(2), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)
    H = centering_matrix(9)
    np.testing.assert_allclose(H @ H, H, atol=1e-14)
    np.testing.assert_allclose(H.sum(axis=1), 0.0, atol=1e-14)
    np.testing.assert_allclose(H, H.T, atol=0)


@pytest.mark.parametrize("kernel", [None, KernelSpec("rbf", bandwidth=2.0)])
def test_centered_scatter_equals_dense_centering(kernel):
    X = _small_pair().stacked()
    G = X if kernel is None else gram(X, X, kernel)
    want = G @ centering_matrix(G.shape[1]) @ G.T
    got = centered_scatter(G)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_jpda_fit_direct_entry_point():
    pair = _small_pair()
    a = jpda_fit(pair, AdaptConfig(algorithm="jpda", p=3, iters=2))
    b = fit(pair, AdaptConfig(algorithm="jpda", p=3, iters=2))
    _assert_same_fit(a, b)
