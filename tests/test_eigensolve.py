"""Trailing eigensolver against LAPACK's generalized driver and a whitening route."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import oracles
from conftest import random_onehots, random_pair
from mmdadapt.adapt import centered_scatter
from mmdadapt import eigensolve
from mmdadapt.eigensolve import (
    EigenResult,
    FactoredPencil,
    ScatterFactor,
    SymmetricPencil,
    computed_pairs,
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
    projected_discrepancy,
    same_class_core,
)


def random_pencil(rng, m):
    Q = rng.normal(size=(m, m))
    S = (Q + Q.T) / 2.0
    W = rng.normal(size=(m, m + 2))
    B = W @ W.T  # SPD with probability 1
    return SymmetricPencil(S=S, B=B)


def residual_norms(pencil, res):
    """Column norms of S V - (B + ridge*I) V diag(values)."""
    Br = pencil.B + res.ridge * np.eye(pencil.size)
    R = pencil.S @ res.vectors - Br @ res.vectors * res.values[None, :]
    return np.linalg.norm(R, axis=0)


def test_diagonal_pencil():
    res = solve_trailing(SymmetricPencil(S=np.diag([1.0, 2.0]), B=np.eye(2)), 1, 0.0)
    assert res.values[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(res.vectors[:, 0], [1.0, 0.0], atol=1e-12)


def test_identity_pencil_degenerate_spectrum():
    pencil = SymmetricPencil(S=np.eye(2), B=np.eye(2))
    res = solve_trailing(pencil, 2, 0.0)
    np.testing.assert_allclose(res.values, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(res.vectors.T @ res.vectors, np.eye(2), atol=1e-10)
    assert np.all(residual_norms(pencil, res) <= 1e-12)


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


def assert_same_pairs(res, vals_ref, vecs_ref, Br):
    """Eigenvalues within 1e-8 of the spectrum's scale, and equal subspaces.

    Pairs are grouped where neighbouring reference eigenvalues lie within
    1e-6 of the scale; both vector sets are Br-orthonormal, so a group's
    subspaces agree when the singular values of their Br-inner products
    are all one. A group cut by the p boundary is not compared.
    """
    p = res.values.size
    scale = max(1.0, float(np.max(np.abs(vals_ref))))
    np.testing.assert_allclose(res.values, vals_ref[:p], rtol=0.0, atol=1e-8 * scale)
    cuts = np.flatnonzero(np.diff(vals_ref) > 1e-6 * scale) + 1
    for group in np.split(np.arange(vals_ref.size), cuts):
        if group[-1] >= p:
            break
        cross = res.vectors[:, group].T @ Br @ vecs_ref[:, group]
        np.testing.assert_allclose(np.linalg.svd(cross, compute_uv=False), 1.0, atol=1e-8)


def linear_gram_pencil(seed):
    """A linear-kernel jpda pencil: GE, W, lam, B and the relative 1e-6 ridge.

    G = X^T X has rank d < m, so B = G H G^T is singular and the ridge alone
    holds the null directions.
    """
    rng = np.random.default_rng(seed)
    pair = random_pair(rng, n_s=14, n_t=12, C=3, d=5)
    X = pair.stacked()
    G = X.T @ X
    GE = G @ oracles.indicator_factor(*random_onehots(rng, pair))
    W = same_class_core(3) - 0.5 * cross_class_core(3)
    B = centered_scatter(G)
    return GE, W, 1.0, B, 1e-6 * float(np.trace(B)) / B.shape[0]


def test_matches_generalized_driver_on_random_pencils(rng):
    for _ in range(50):
        m = int(rng.integers(2, 21))
        pencil = random_pencil(rng, m)
        p = int(rng.integers(1, m + 1))
        ridge = 1e-8 * float(np.trace(pencil.B)) / m
        res = solve_trailing(pencil, p, ridge)
        vals_ref, vecs_ref = oracles.generalized_solve(pencil.S, pencil.B, ridge)
        assert_same_pairs(res, vals_ref, vecs_ref, pencil.B + ridge * np.eye(m))


@pytest.mark.parametrize("seed", range(4))
def test_matches_generalized_driver_on_gram_pencil(seed):
    """Dense and fit-factored forms of one singular-B pencil give the
    generalized driver's pairs; S is built densely only for the reference."""
    GE, W, lam, B, ridge = linear_gram_pencil(seed)
    m = B.shape[0]
    dense = oracles.assemble_pencil(GE, W, lam, B)
    vals_ref, vecs_ref = oracles.generalized_solve(dense.S, B, ridge)
    Br = B + ridge * np.eye(m)
    factored = FactoredPencil(GE, W, ScatterFactor(B.copy(), ridge), lam)
    assert factored.size == dense.size == m
    # m = 26: p = 1 and 3 take the factored pencil's partial route.
    for p in (1, 3, m):
        assert_same_pairs(solve_trailing(dense, p, ridge), vals_ref, vecs_ref, Br)
        assert_same_pairs(solve_trailing(factored, p, ridge), vals_ref, vecs_ref, Br)


@pytest.mark.parametrize("m", [5, 64, 130, 300])
def test_whitened_adds_lam_over_sigma_on_the_diagonal(rng, m):
    """M is bit-equal to F W F^T, F = T^T GE, with lam / sigma added on its
    diagonal; forming it allocates M, F, F W and the m-vector lam / sigma,
    and it returns the factor's T for the back-transform."""
    GE = rng.normal(size=(m, 6))
    W = rng.normal(size=(6, 6))
    W += W.T
    B = centered_scatter(rng.normal(size=(m, m + 4)))
    factor = ScatterFactor(B, default_ridge(B))
    pencil = FactoredPencil(GE, W, factor, 0.7)
    F = factor.T.T @ GE
    want = np.empty((m, m), order="F")
    np.matmul(F @ W, F.T, out=want)
    want[np.diag_indices(m)] += 0.7 * factor.inv_sigma
    tracemalloc.start()
    try:
        M, T = pencil.whitened(factor.ridge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(M, want)
    assert M.flags.f_contiguous and T is factor.T
    # Python's own small objects take under 4 KB.
    assert peak < M.nbytes + 2 * F.nbytes + factor.inv_sigma.nbytes + 4096


def test_scatter_factor_whitens_b(rng):
    """T^T (B + ridge*I) T = I, with 1/sigma the reciprocal eigenvalues of
    B + ridge*I, ascending sigma; the factor keeps no B."""
    m = 40
    B = centered_scatter(rng.normal(size=(m, m + 4)))
    ridge = default_ridge(B)
    factor = ScatterFactor(B.copy(), ridge)
    Br = B + ridge * np.eye(m)
    np.testing.assert_allclose(factor.T.T @ Br @ factor.T, np.eye(m), atol=1e-9)
    np.testing.assert_allclose(1.0 / factor.inv_sigma, np.linalg.eigvalsh(Br), rtol=1e-9)
    assert set(vars(factor)) == {"ridge", "T", "inv_sigma"}


def test_factored_pencil_refuses_another_ridge(rng):
    GE, W, lam, B, ridge = linear_gram_pencil(0)
    pencil = FactoredPencil(GE, W, ScatterFactor(B, ridge), lam)
    with pytest.raises(NumericalError, match="factored with ridge"):
        solve_trailing(pencil, 2, 2.0 * ridge)


def test_scatter_factor_of_indefinite_b_fails_with_advice():
    with pytest.raises(NumericalError, match="increase ridge"):
        ScatterFactor(-np.eye(3), 0.0)


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
    assert np.all(residual_norms(pencil, res) <= 1e-6 * max(1.0, scale))


def test_sign_convention(rng):
    pencil = random_pencil(rng, 9)
    res = solve_trailing(pencil, 9, default_ridge(pencil.B))
    for k in range(9):
        v = res.vectors[:, k]
        assert v[int(np.argmax(np.abs(v)))] > 0


def test_sign_convention_gives_a_tie_to_the_first_entry():
    """Two eigenvectors of this S hold their largest magnitude twice, once
    positive and once negative; the first of the two is made positive."""
    S = np.array([[0.0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]])
    res = solve_trailing(SymmetricPencil(S=S, B=np.eye(4)), 4, 0.0)
    tied = [res.vectors[:2, 0], res.vectors[2:, 3]]
    assert all(abs(v[0]) == abs(v[1]) for v in tied)
    assert all(v[0] > 0 > v[1] for v in tied)


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
    a = oracles.assemble_pencil(GE, same_class_core(3) - 0.0 * cross_class_core(3), 0.5, B)
    b = oracles.assemble_pencil(GE, same_class_core(3), 0.5, B)
    np.testing.assert_array_equal(a.S, b.S)
    np.testing.assert_array_equal(a.B, b.B)


def test_assemble_zero_data():
    pencil = oracles.assemble_pencil(np.zeros((3, 4)), np.eye(4), 2.0, np.zeros((3, 3)))
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
    pencil = oracles.assemble_pencil(G @ oracles.indicator_factor(Ys, Yt), W, lam, np.eye(d))
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


def rank_one_pencil(rng, case, m=40, lam=1.0, w=1.0):
    """A FactoredPencil whose core is w s s^T, s = (1, -1), on GE = [g, 0],
    with B diagonal so that its whitened form diag(lam / sigma) + f f^T,
    f = sqrt(w) T^T g, has the poles and the components of f that case
    asks for; and B. T is a permutation scaled by sigma^-1/2, so a zero
    entry of g is an exact zero of f."""
    b = rng.uniform(1.0, 10.0, size=m)
    g = rng.normal(size=m)
    if case == "zero_z":
        g[::3] = 0.0
    elif case == "tiny_z":
        g[::3] *= 1e-13
    elif case == "coincident":
        b[5:12] = b[5]
        b[20:23] = b[20]
    elif case == "close":
        b[5:12] = b[5] * (1.0 + 1e-14 * np.arange(7))
    elif case == "cluster":
        b[5:15] = b[5] * (1.0 + 1e-10 * np.arange(10))
        g[5:15] *= 1e-4
    elif case in ("f_zero", "w_zero"):
        g[:] = 0.0 if case == "f_zero" else g
        w = 0.0 if case == "w_zero" else w
    B = np.diag(b)
    ridge = default_ridge(B)
    GE = np.column_stack([g, np.zeros(m)])
    W = w * np.outer([1.0, -1.0], [1.0, -1.0])
    return FactoredPencil(GE, W, ScatterFactor(B.copy(), ridge), lam), B


RANK_ONE_CASES = ["random", "zero_z", "tiny_z", "coincident", "close", "cluster", "f_zero", "w_zero"]


def _forbid_eigh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the rank-one route called scipy.linalg.eigh")

    monkeypatch.setattr(scipy.linalg, "eigh", refuse)


@pytest.mark.parametrize("case", RANK_ONE_CASES)
def test_rank_one_pencil_matches_the_generalized_driver(monkeypatch, rng, case):
    """A rank-one core is solved by the secular equation, without eigh, for
    any number of pairs: the values of LAPACK's generalized driver to 1e-12
    relative, its eigenspaces, and V^T B_r V = I to 1e-14; exact-zero and
    1e-13 components of f, coincident poles and poles 1e-14 apart deflate.
    Ten poles 1e-10 apart with components of f at 1e-4 do not deflate: their
    roots sit close to the poles, and each eigenvector, formed from the
    pole differences dlasd4 returns, stays orthogonal to the others."""
    pencil, B = rank_one_pencil(rng, case)
    m, ridge = pencil.size, pencil.factor.ridge
    dense = oracles.assemble_pencil(pencil.GE, pencil.W, pencil.lam, B)
    vals_ref, vecs_ref = oracles.generalized_solve(dense.S, B, ridge)
    Br = B + ridge * np.eye(m)
    _forbid_eigh(monkeypatch)
    for k in (1, 7, m):
        assert computed_pairs(pencil, k) == k
        res = solve_trailing(pencil, k, ridge)
        assert res.route == "rank_one"
        np.testing.assert_allclose(res.values, vals_ref[:k], rtol=1e-12, atol=0.0)
        gram = res.vectors.T @ Br @ res.vectors
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-14
        assert_same_pairs(res, vals_ref, vecs_ref, Br)
        assert all(v[np.argmax(np.abs(v))] > 0 for v in res.vectors.T)


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
def test_rank_one_route_keeps_the_dense_overflow_error(monkeypatch, rng):
    """A non-finite f raises the dense route's NumericalError."""
    pencil, _ = rank_one_pencil(rng, "random")
    pencil.GE[3, 0] = np.inf
    with pytest.raises(NumericalError, match="whitened eigenproblem overflowed"):
        solve_trailing(pencil, 2, pencil.factor.ridge)
    monkeypatch.setattr(FactoredPencil, "rank_one", None)
    with pytest.raises(NumericalError, match="whitened eigenproblem overflowed"):
        solve_trailing(pencil, 2, pencil.factor.ridge)


def test_rank_one_route_falls_back_to_the_full_solve_when_dlasd4_fails(monkeypatch, rng):
    """A root dlasd4 does not converge on (info != 0) sends the pencil to the
    full-spectrum route, which gives the same pairs."""
    pencil, B = rank_one_pencil(rng, "random")
    ridge = pencil.factor.ridge
    want = solve_trailing(pencil, 5, ridge)
    monkeypatch.setattr(
        eigensolve, "dlasd4", lambda i, d, z, rho: (np.ones_like(d), 1.0, np.ones_like(d), 1)
    )
    got = solve_trailing(pencil, 5, ridge)
    assert (want.route, got.route) == ("rank_one", "full")
    np.testing.assert_allclose(got.values, want.values, rtol=1e-12)
    S = oracles.assemble_pencil(pencil.GE, pencil.W, pencil.lam, B).S
    vals_ref, vecs_ref = oracles.generalized_solve(S, B, ridge)
    assert_same_pairs(got, vals_ref, vecs_ref, B + ridge * np.eye(pencil.size))


def test_only_an_exactly_rank_one_core_takes_the_secular_route(rng):
    """W = w v v^T with w >= 0 and lam >= 0 is rank one; a core off it by one
    bit, a negative w and a negative lam are not."""
    pencil, _ = rank_one_pencil(rng, "random", w=0.5)
    assert pencil.rank_one is not None
    W = pencil.W.copy()
    W[1, 1] = np.nextafter(W[1, 1], 1.0)
    for core, lam in ((W, 1.0), (-pencil.W, 1.0), (pencil.W, -1.0)):
        other = FactoredPencil(pencil.GE, core, pencil.factor, lam)
        assert other.rank_one is None
        assert solve_trailing(other, 2, pencil.factor.ridge).route == "partial"
