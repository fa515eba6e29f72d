"""Generalized trailing eigensolver against an independent whitening route."""

import numpy as np
import pytest

import oracles
from mmdadapt.eigensolve import (
    EigenResult,
    SymmetricPencil,
    assemble_pencil,
    default_ridge,
    solve_trailing,
)
from mmdadapt.data import one_hot_encode
from mmdadapt.errors import NumericalError
from mmdadapt.mmd import (
    build_joint_prob_factors,
    build_rmax,
    build_rmin,
    cross_class_core,
    indicator_factor,
    projected_discrepancy,
    same_class_core,
)


def random_pencil(rng, m):
    Q = rng.normal(size=(m, m))
    S = (Q + Q.T) / 2.0
    W = rng.normal(size=(m, m + 2))
    B = W @ W.T  # SPD with probability 1
    return SymmetricPencil(S=S, B=B)


def test_diagonal_pencil():
    res = solve_trailing(SymmetricPencil(S=np.diag([1.0, 2.0]), B=np.eye(2)), 1, 0.0)
    assert res.values[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(res.vectors[:, 0], [1.0, 0.0], atol=1e-12)


def test_identity_pencil_degenerate_spectrum():
    res = solve_trailing(SymmetricPencil(S=np.eye(2), B=np.eye(2)), 2, 0.0)
    np.testing.assert_allclose(res.values, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(res.vectors.T @ res.vectors, np.eye(2), atol=1e-10)
    assert np.all(res.residual_norms <= 1e-12)


def test_values_match_whitening_oracle(rng):
    """50 random pencils: eigenvalues and subspaces agree with the
    Cholesky-whitening route to 1e-8."""
    for _ in range(50):
        m = int(rng.integers(2, 21))
        pencil = random_pencil(rng, m)
        p = int(rng.integers(1, m + 1))
        ridge = 1e-8 * float(np.trace(pencil.B)) / m
        res = solve_trailing(pencil, p, ridge)
        vals_ref, vecs_ref = oracles.whiten_solve(pencil.S, pencil.B, ridge)
        scale = max(1.0, float(np.max(np.abs(vals_ref))))
        np.testing.assert_allclose(res.values, vals_ref[:p], atol=1e-8 * scale)
        # vectors agree up to sign when the eigenvalue is simple
        gaps = np.diff(vals_ref)
        Br = pencil.B + ridge * np.eye(m)
        for k in range(p):
            lo = gaps[k - 1] if k > 0 else np.inf
            hi = gaps[k] if k < m - 1 else np.inf
            if min(lo, hi) < 1e-6 * scale:
                continue
            a, b = res.vectors[:, k], vecs_ref[:, k]
            cos = abs(a @ Br @ b) / np.sqrt((a @ Br @ a) * (b @ Br @ b))
            assert cos == pytest.approx(1.0, abs=1e-8)


def test_b_orthonormality(rng):
    for _ in range(20):
        m = int(rng.integers(2, 16))
        pencil = random_pencil(rng, m)
        ridge = default_ridge(pencil.B)
        res = solve_trailing(pencil, m, ridge)
        Br = pencil.B + ridge * np.eye(m)
        gram = res.vectors.T @ Br @ res.vectors
        assert np.max(np.abs(gram - np.eye(m))) <= 1e-6


def test_shift_property(rng):
    """Adding c*B to S shifts eigenvalues by c and keeps eigenvectors."""
    m, c = 10, 3.7
    pencil = random_pencil(rng, m)
    ridge = 1e-10 * float(np.trace(pencil.B)) / m
    base = solve_trailing(pencil, m, ridge)
    Br = pencil.B + ridge * np.eye(m)
    shifted = solve_trailing(SymmetricPencil(S=pencil.S + c * Br, B=pencil.B), m, ridge)
    scale = max(1.0, float(np.max(np.abs(base.values))))
    np.testing.assert_allclose(shifted.values, base.values + c, atol=1e-8 * scale)
    for k in range(m):
        dot = abs(base.vectors[:, k] @ Br @ shifted.vectors[:, k])
        assert dot == pytest.approx(1.0, abs=1e-7)


def test_ordering_and_stability_under_p(rng):
    m = 14
    pencil = random_pencil(rng, m)
    ridge = default_ridge(pencil.B)
    full = solve_trailing(pencil, m, ridge)
    assert np.all(np.diff(full.values) >= -1e-12)
    for p in (1, 3, 7):
        part = solve_trailing(pencil, p, ridge)
        np.testing.assert_array_equal(part.values, full.values[:p])
        np.testing.assert_array_equal(part.vectors, full.vectors[:, :p])


def test_residual_norms_small(rng):
    pencil = random_pencil(rng, 12)
    res = solve_trailing(pencil, 12, default_ridge(pencil.B))
    scale = np.linalg.norm(pencil.S) + np.max(np.abs(res.values)) * np.linalg.norm(pencil.B)
    assert np.all(res.residual_norms <= 1e-6 * max(1.0, scale))


def test_sign_convention(rng):
    pencil = random_pencil(rng, 9)
    res = solve_trailing(pencil, 9, default_ridge(pencil.B))
    for k in range(9):
        v = res.vectors[:, k]
        assert v[int(np.argmax(np.abs(v)))] > 0


def test_indefinite_b_fails_with_advice():
    with pytest.raises(NumericalError, match="ridge"):
        solve_trailing(SymmetricPencil(S=np.eye(3), B=-np.eye(3)), 1, 0.0)


def test_rejects_bad_p():
    pencil = SymmetricPencil(S=np.eye(3), B=np.eye(3))
    with pytest.raises(NumericalError):
        solve_trailing(pencil, 0, 0.0)
    with pytest.raises(NumericalError):
        solve_trailing(pencil, 4, 0.0)


def test_rejects_asymmetric_input():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NumericalError, match="symmetric"):
        SymmetricPencil(S=M, B=np.eye(2))


def test_assemble_mu_zero_ignores_rmax(rng):
    GE = rng.normal(size=(4, 6))
    B = np.eye(4)
    a = assemble_pencil(GE, same_class_core(3) - 0.0 * cross_class_core(3), 0.5, B)
    b = assemble_pencil(GE, same_class_core(3), 0.5, B)
    np.testing.assert_array_equal(a.S, b.S)
    np.testing.assert_array_equal(a.B, b.B)


def test_assemble_zero_data():
    pencil = assemble_pencil(np.zeros((3, 4)), np.eye(4), 2.0, np.zeros((3, 3)))
    np.testing.assert_array_equal(pencil.S, 2.0 * np.eye(3))
    np.testing.assert_array_equal(pencil.B, 0.0)
    with pytest.raises(NumericalError):
        solve_trailing(pencil, 1, 0.0)


def test_assemble_trace_identity(rng):
    """tr(A^T S A) - lam*||A||_F^2 recovers the dense weighted discrepancy difference."""
    d, C, p, mu, lam = 4, 3, 3, 0.7, 1.3
    ys = rng.integers(1, C + 1, size=5)
    yt = rng.integers(1, C + 1, size=4)
    Ys, Yt = one_hot_encode(ys, C), one_hot_encode(yt, C)
    G = rng.normal(size=(d, ys.size + yt.size))
    W = same_class_core(C) - mu * cross_class_core(C)
    pencil = assemble_pencil(G @ indicator_factor(Ys, Yt), W, lam, np.eye(d))
    A = rng.normal(size=(d, p))
    lhs = float(np.trace(A.T @ pencil.S @ A)) - lam * float(np.sum(A * A))
    f = build_joint_prob_factors(Ys, Yt)
    rhs = projected_discrepancy(A, G, build_rmin(f)) - mu * projected_discrepancy(
        A, G, build_rmax(f)
    )
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_default_ridge_scales_with_trace():
    B = np.diag([1.0, 2.0, 3.0])
    assert default_ridge(B) == pytest.approx(1e-6 * 6.0 / 3.0)
    assert default_ridge(100.0 * B) == pytest.approx(100.0 * default_ridge(B))


def test_result_carries_ridge(rng):
    pencil = random_pencil(rng, 5)
    ridge = default_ridge(pencil.B)
    res = solve_trailing(pencil, 2, ridge)
    assert isinstance(res, EigenResult) and res.ridge == ridge
