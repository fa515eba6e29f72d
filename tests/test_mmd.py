"""Discrepancy matrices: factors, builders, projected traces, balance weight."""

import numpy as np
import pytest

import oracles
from conftest import random_pair, random_onehots
from mmdadapt.data import DomainPair, LabeledDataset, one_hot_encode
from mmdadapt.errors import DataError
from mmdadapt.mmd import (
    JointProbFactors,
    _proxy_a_distance,
    bda_weight,
    build_joint_prob_factors,
    build_rmax,
    build_rmin,
    cross_class_core,
    indicator_factor,
    projected_discrepancy,
    same_class_core,
    weighted_core,
)
from oracles import conditional_mmd_matrices, marginal_mmd_matrix


def test_factors_two_class_same_factor_equals_indicator():
    Ys = one_hot_encode(np.array([1, 2]), 2)
    f = build_joint_prob_factors(Ys, Ys)
    # with two classes each column repeats once, so the scaled factor is Ys
    np.testing.assert_array_equal(2 * f.Fs, Ys)


def test_factors_two_class_cross_factor_swaps_columns():
    Yt = one_hot_encode(np.array([1, 2]), 2)
    f = build_joint_prob_factors(Yt, Yt)
    np.testing.assert_array_equal(2 * f.Ft, [[0, 1], [1, 0]])


def test_factors_three_class_single_sample():
    Ys = one_hot_encode(np.array([2]), 3)
    f = build_joint_prob_factors(Ys, one_hot_encode(np.array([1]), 3))
    np.testing.assert_array_equal(1 * f.Fs, [[0, 0, 1, 1, 0, 0]])


def test_factors_match_pairwise_constructor(rng):
    """Block layout equals a direct loop over ordered class pairs."""
    for _ in range(20):
        C = int(rng.integers(2, 6))
        ys = rng.integers(1, C + 1, size=int(rng.integers(1, 12)))
        yt = rng.integers(1, C + 1, size=int(rng.integers(1, 12)))
        Ys, Yt = one_hot_encode(ys, C), one_hot_encode(yt, C)
        f = build_joint_prob_factors(Ys, Yt)
        Fs_ref, Ft_ref = oracles.cross_factor_blocks(Ys, Yt)
        np.testing.assert_array_equal(f.Fs, Fs_ref)
        np.testing.assert_array_equal(f.Ft, Ft_ref)


def test_factor_row_sums(rng):
    pair = random_pair(rng)
    Ys, Yt = random_onehots(rng, pair)
    f = build_joint_prob_factors(Ys, Yt)
    n_s, n_t = Ys.shape[0], Yt.shape[0]
    C = f.class_count
    np.testing.assert_allclose((n_s * f.Ns).sum(axis=1), 1.0, atol=1e-14)
    np.testing.assert_allclose((n_t * f.Nt).sum(axis=1), 1.0, atol=1e-14)
    np.testing.assert_allclose((n_s * f.Fs).sum(axis=1), C - 1, atol=1e-14)
    np.testing.assert_allclose((n_t * f.Ft).sum(axis=1), C - 1, atol=1e-14)
    # column c of Ns carries the class share
    counts = Ys.sum(axis=0)
    np.testing.assert_allclose(f.Ns.sum(axis=0), counts / n_s, atol=1e-14)


def test_factors_reject_degenerate():
    Y = one_hot_encode(np.array([1]), 2)
    with pytest.raises(DataError):
        build_joint_prob_factors(np.zeros((0, 2)), Y)
    with pytest.raises(DataError):
        build_joint_prob_factors(Y, one_hot_encode(np.array([1]), 3))


def test_rmin_single_sample_each():
    f = JointProbFactors(
        Ns=np.array([[1.0]]),
        Nt=np.array([[1.0]]),
        Fs=np.zeros((1, 0)),
        Ft=np.zeros((1, 0)),
        class_count=1,
    )
    np.testing.assert_array_equal(build_rmin(f), [[1, -1], [-1, 1]])


def test_rmin_zero_target_factor_zeroes_target_blocks():
    f = JointProbFactors(
        Ns=np.array([[1.0, 0.0]]),
        Nt=np.zeros((2, 2)),
        Fs=np.zeros((1, 2)),
        Ft=np.zeros((2, 2)),
        class_count=2,
    )
    R = build_rmin(f)
    np.testing.assert_array_equal(R[1:, :], 0.0)
    np.testing.assert_array_equal(R[:, 1:], 0.0)
    assert R[0, 0] == 1.0


def test_rmax_one_sample_per_domain_same_class():
    Ys = one_hot_encode(np.array([1]), 2)
    f = build_joint_prob_factors(Ys, Ys)
    np.testing.assert_array_equal(build_rmax(f), [[1, 0], [0, 1]])


def test_rmax_zero_target_leaves_source_block():
    Ys = one_hot_encode(np.array([1, 2]), 2)
    f = build_joint_prob_factors(Ys, Ys)
    f_zero = JointProbFactors(
        Ns=f.Ns, Nt=f.Nt, Fs=f.Fs, Ft=np.zeros_like(f.Ft), class_count=2
    )
    R = build_rmax(f_zero)
    np.testing.assert_array_equal(R[:2, :2], f.Fs @ f.Fs.T)
    np.testing.assert_array_equal(R[2:, :2], 0.0)
    np.testing.assert_array_equal(R[2:, 2:], 0.0)


def _traces_on(pair, A=None):
    Xs, Xt = pair.source.X, pair.target.X
    C = pair.source.class_count
    if A is None:
        A = np.eye(Xs.shape[0])
    Ys = one_hot_encode(pair.source.y, C)
    Yt = one_hot_encode(pair.target.y, C)
    f = build_joint_prob_factors(Ys, Yt)
    X = pair.stacked()
    return (
        projected_discrepancy(A, X, build_rmin(f)),
        projected_discrepancy(A, X, build_rmax(f)),
        A,
    )


def test_rmin_six_sample_oracle(rng):
    pair = random_pair(rng, n_s=6, n_t=6, C=3, d=4)
    got, _, A = _traces_on(pair)
    want = oracles.same_class_sum(
        A, pair.source.X, pair.target.X, pair.source.y, pair.target.y, 3
    )
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_rmax_six_sample_oracle(rng):
    pair = random_pair(rng, n_s=6, n_t=6, C=3, d=4)
    _, got, A = _traces_on(pair)
    want = oracles.cross_class_sum(
        A, pair.source.X, pair.target.X, pair.source.y, pair.target.y, 3
    )
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_oracle_equivalence_batch(rng):
    """Factored traces equal the literal per-class sums on random instances.

    Classes may be missing from either domain; the empty-mean convention
    must line up between the two routes.
    """
    for _ in range(60):
        pair = random_pair(rng, ensure_all_classes=bool(rng.integers(0, 2)))
        C = pair.source.class_count
        p = int(rng.integers(1, 6))
        A = rng.normal(size=(pair.source.dim, p))
        rmin_got, rmax_got, _ = _traces_on(pair, A)
        rmin_want = oracles.same_class_sum(
            A, pair.source.X, pair.target.X, pair.source.y, pair.target.y, C
        )
        rmax_want = oracles.cross_class_sum(
            A, pair.source.X, pair.target.X, pair.source.y, pair.target.y, C
        )
        assert abs(rmin_got - rmin_want) <= 1e-10 * max(1.0, abs(rmin_want))
        assert abs(rmax_got - rmax_want) <= 1e-10 * max(1.0, abs(rmax_want))


def _assert_rel_close(got, want, rel=1e-12):
    assert np.max(np.abs(got - want)) <= rel * max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("C", [2, 3, 7, 20])
def test_cores_on_indicator_factor_equal_dense_references(C):
    """E W E^T reproduces every dense discrepancy, classes empty in either domain included."""
    rng = np.random.default_rng(C)
    for _ in range(5):
        # class 1 is empty in the source; class 2 is empty in the target when C > 2
        ys = rng.integers(2, C + 1, size=int(rng.integers(2 * C, 4 * C)))
        yt = rng.integers(1, C + 1, size=int(rng.integers(2 * C, 4 * C)))
        if C > 2:
            yt[yt == 2] = 3
        Ys, Yt = one_hot_encode(ys, C), one_hot_encode(yt, C)
        E = indicator_factor(Ys, Yt)
        f = build_joint_prob_factors(Ys, Yt)
        _assert_rel_close(E @ same_class_core(C) @ E.T, build_rmin(f))
        _assert_rel_close(E @ cross_class_core(C) @ E.T, build_rmax(f))
        M0 = marginal_mmd_matrix(len(ys), len(yt))
        Mc = sum(conditional_mmd_matrices(Ys, Yt)[0])
        _assert_rel_close(E @ weighted_core(Ys, Yt, 1.0, 0.0) @ E.T, M0)
        _assert_rel_close(E @ weighted_core(Ys, Yt, 0.0, 1.0) @ E.T, Mc)
        _assert_rel_close(E @ weighted_core(Ys, Yt, 0.3, 0.7) @ E.T, 0.3 * M0 + 0.7 * Mc)


def test_marginal_single_samples():
    np.testing.assert_array_equal(marginal_mmd_matrix(1, 1), [[1, -1], [-1, 1]])


def test_marginal_identical_samples_zero(rng):
    X = rng.normal(size=(3, 4))
    M = marginal_mmd_matrix(4, 4)
    both = np.hstack([X, X])
    assert projected_discrepancy(np.eye(3), both, M) <= 1e-15


def test_marginal_hand_value():
    X = np.array([[0.0, 2.0, 0.0]])
    M = marginal_mmd_matrix(2, 1)
    assert projected_discrepancy(np.eye(1), X, M) == pytest.approx(1.0, abs=1e-14)


def test_marginal_rejects_empty():
    with pytest.raises(DataError):
        marginal_mmd_matrix(0, 3)


def test_conditional_single_class():
    Ys = one_hot_encode(np.array([1]), 2)
    mats, skipped = conditional_mmd_matrices(Ys, Ys)
    np.testing.assert_array_equal(mats[0], [[1, -1], [-1, 1]])
    np.testing.assert_array_equal(mats[1], 0.0)
    assert skipped == [2]


def test_conditional_missing_class_flagged():
    Ys = one_hot_encode(np.array([1, 2]), 2)
    Yt = one_hot_encode(np.array([1, 1]), 2)
    mats, skipped = conditional_mmd_matrices(Ys, Yt)
    assert skipped == [2]
    np.testing.assert_array_equal(mats[1], 0.0)
    assert np.any(mats[0] != 0)


def test_conditional_oracle(rng):
    for _ in range(30):
        pair = random_pair(rng, ensure_all_classes=bool(rng.integers(0, 2)))
        C = pair.source.class_count
        Ys, Yt = random_onehots(rng, pair)
        mats, _ = conditional_mmd_matrices(Ys, Yt)
        X = pair.stacked()
        A = np.eye(pair.source.dim)
        got = sum(projected_discrepancy(A, X, M) for M in mats)
        want = oracles.conditional_sum(
            A, pair.source.X, pair.target.X, pair.source.y, pair.target.y, C
        )
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_projected_discrepancy_examples():
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert projected_discrepancy(np.eye(2), X, marginal_mmd_matrix(1, 1)) == 1.0
    assert projected_discrepancy(np.zeros((2, 2)), X, marginal_mmd_matrix(1, 1)) == 0.0


def test_all_builders_symmetric_psd(rng):
    """Symmetry to 1e-12 and eigenvalues above -1e-10 for every builder."""
    for _ in range(50):
        pair = random_pair(rng, ensure_all_classes=bool(rng.integers(0, 2)))
        Ys, Yt = random_onehots(rng, pair)
        f = build_joint_prob_factors(Ys, Yt)
        mats = [build_rmin(f), build_rmax(f), marginal_mmd_matrix(pair.source.n, pair.target.n)]
        conds, _ = conditional_mmd_matrices(Ys, Yt)
        mats.extend(conds)
        for M in mats:
            assert np.max(np.abs(M - M.T)) <= 1e-12
            assert np.linalg.eigvalsh((M + M.T) / 2).min() >= -1e-10


def test_factorization_identity(rng):
    pair = random_pair(rng)
    Ys, Yt = random_onehots(rng, pair)
    f = build_joint_prob_factors(Ys, Yt)
    Bn = np.vstack([f.Ns, -f.Nt])
    Bf = np.vstack([f.Fs, -f.Ft])
    np.testing.assert_allclose(build_rmin(f), Bn @ Bn.T, atol=1e-14)
    np.testing.assert_allclose(build_rmax(f), Bf @ Bf.T, atol=1e-14)


def test_scale_law(rng):
    pair = random_pair(rng, C=3)
    Ys, Yt = random_onehots(rng, pair)
    f = build_joint_prob_factors(Ys, Yt)
    R = build_rmin(f)
    A = rng.normal(size=(pair.source.dim, 2))
    X = pair.stacked()
    base = projected_discrepancy(A, X, R)
    for s in (0.5, 3.0, 10.0):
        scaled = projected_discrepancy(A, s * X, R)
        assert scaled == pytest.approx(s * s * base, rel=1e-10)


def test_joint_differs_from_conditional_when_imbalanced(rng):
    ys = np.array([1, 1, 1, 1, 2])
    yt = np.array([1, 2, 2, 2, 2])
    pair = DomainPair(
        source=LabeledDataset(X=rng.normal(size=(3, 5)), y=ys, class_count=2),
        target=LabeledDataset(X=rng.normal(size=(3, 5)), y=yt, class_count=2),
    )
    Ys, Yt = one_hot_encode(ys, 2), one_hot_encode(yt, 2)
    X = pair.stacked()
    A = np.eye(3)
    joint = projected_discrepancy(A, X, build_rmin(build_joint_prob_factors(Ys, Yt)))
    mats, _ = conditional_mmd_matrices(Ys, Yt)
    cond = sum(projected_discrepancy(A, X, M) for M in mats)
    assert abs(joint - cond) > 1e-3


def test_joint_equals_scaled_conditional_when_balanced(rng):
    """Equal class sizes and n_s = n_t collapse the two normalizations.

    Each class then carries weight (n^c/n)^2 = 1/C^2 in the joint form.
    """
    C, k = 3, 4
    ys = np.repeat(np.arange(1, C + 1), k)
    pair = DomainPair(
        source=LabeledDataset(X=rng.normal(size=(4, C * k)), y=ys, class_count=C),
        target=LabeledDataset(X=rng.normal(size=(4, C * k)), y=ys.copy(), class_count=C),
    )
    Ys = one_hot_encode(ys, C)
    X = pair.stacked()
    A = rng.normal(size=(4, 2))
    joint = projected_discrepancy(A, X, build_rmin(build_joint_prob_factors(Ys, Ys)))
    mats, _ = conditional_mmd_matrices(Ys, Ys)
    cond = sum(projected_discrepancy(A, X, M) for M in mats)
    assert joint == pytest.approx(cond / (C * C), rel=1e-10)


def _separated_pair():
    """Domains and classes all far apart, so every split is separable."""
    d = 2
    Xs = np.array([[0.0, 0.0, 50.0, 50.0], [0.0, 1.0, 0.0, 1.0]])
    Xt = Xs + np.array([[1000.0], [0.0]])
    y = np.array([1, 1, 2, 2])
    return DomainPair(
        source=LabeledDataset(X=Xs, y=y, class_count=2),
        target=LabeledDataset(X=Xt, y=y.copy(), class_count=2),
    )


def test_bda_weight_separable_closed_form():
    pair = _separated_pair()
    Yt = one_hot_encode(pair.target.y, 2)
    C = 2
    assert bda_weight(pair, Yt) == pytest.approx(1.0 - 2.0 / (2.0 + 2.0 * C), abs=1e-12)


def test_bda_weight_identical_domains_falls_back():
    X = np.array([[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 0.0]])
    y = np.array([1, 2, 1, 2])
    pair = DomainPair(
        source=LabeledDataset(X=X, y=y, class_count=2),
        target=LabeledDataset(X=X.copy(), y=y.copy(), class_count=2),
    )
    with pytest.warns(UserWarning, match="0.5"):
        mu = bda_weight(pair, one_hot_encode(y, 2))
    assert mu == 0.5


def test_bda_weight_matches_distance_formula(rng):
    pair = random_pair(rng, n_s=12, n_t=14, C=2, d=3)
    Yt = one_hot_encode(pair.target.y, 2)
    d_m = _proxy_a_distance(pair.source.X, pair.target.X, 1e-3)
    d_cs = 0.0
    for c in (1, 2):
        src = pair.source.X[:, pair.source.y == c]
        tgt = pair.target.X[:, pair.target.y == c]
        d_cs += _proxy_a_distance(src, tgt, 1e-3)
    want = 1.0 - d_m / (d_m + d_cs) if d_m + d_cs > 0 else 0.5
    assert bda_weight(pair, Yt) == pytest.approx(want, abs=1e-12)


def test_bda_weight_symmetric_under_domain_swap(rng):
    for seed in range(5):
        r = np.random.default_rng(seed)
        pair = random_pair(r, n_s=10, n_t=10, C=2, d=3)
        fwd = bda_weight(pair, one_hot_encode(pair.target.y, 2))
        swapped = DomainPair(source=pair.target, target=pair.source)
        rev = bda_weight(swapped, one_hot_encode(pair.source.y, 2))
        assert fwd == pytest.approx(rev, abs=1e-12)


def test_bda_weight_needs_two_samples_per_domain(rng):
    pair = DomainPair(
        source=LabeledDataset(X=rng.normal(size=(2, 1)), y=np.array([1]), class_count=2),
        target=LabeledDataset(X=rng.normal(size=(2, 3)), y=np.array([1, 2, 1]), class_count=2),
    )
    with pytest.raises(DataError):
        bda_weight(pair, one_hot_encode(pair.target.y, 2))
