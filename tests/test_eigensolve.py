"""Trailing eigensolver against LAPACK's generalized driver and a whitening route."""

import tracemalloc
from dataclasses import fields

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
    projected_trace,
    same_class_core,
)


def random_pencil(rng, m):
    """A dense (S, B): S symmetric, B SPD with probability 1."""
    Q = rng.normal(size=(m, m))
    S = (Q + Q.T) / 2.0
    W = rng.normal(size=(m, m + 2))
    return S, W @ W.T


def solve_dense(S, B, ridge, p):
    """The solve of the dense pencil (S, B + ridge*I) for p pairs, and its
    vectors T U."""
    pencil = oracles.dense_pencil(S, B, ridge)
    res = solve_trailing(pencil, p)
    return res, oracles.vectors(pencil, res)


def residual_norms(S, B, ridge, res, V):
    """Column norms of S V - (B + ridge*I) V diag(values)."""
    Br = B + ridge * np.eye(S.shape[0])
    return np.linalg.norm(S @ V - Br @ V * res.values[None, :], axis=0)


def test_diagonal_pencil():
    res, V = solve_dense(np.diag([1.0, 2.0]), np.eye(2), 0.0, 1)
    assert res.values[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(V[:, 0], [1.0, 0.0], atol=1e-12)


def test_identity_pencil_degenerate_spectrum():
    res, V = solve_dense(np.eye(2), np.eye(2), 0.0, 2)
    np.testing.assert_allclose(res.values, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(V.T @ V, np.eye(2), atol=1e-10)
    assert np.all(residual_norms(np.eye(2), np.eye(2), 0.0, res, V) <= 1e-12)


def test_values_match_whitening_oracle(rng):
    """50 random pencils: eigenvalues and subspaces agree with the
    Cholesky-whitening route to 1e-8."""
    for _ in range(50):
        m = int(rng.integers(2, 21))
        S, B = random_pencil(rng, m)
        p = int(rng.integers(1, m + 1))
        ridge = 1e-8 * float(np.trace(B)) / m
        res, V = solve_dense(S, B, ridge, p)
        vals_ref, vecs_ref = oracles.whiten_solve(S, B, ridge)
        scale = max(1.0, float(np.max(np.abs(vals_ref))))
        # Every route returns the p pairs asked for.
        assert res.values.size == p
        np.testing.assert_allclose(res.values[:p], vals_ref[:p], atol=1e-8 * scale)
        # vectors agree up to sign when the eigenvalue is simple
        gaps = np.diff(vals_ref)
        Br = B + ridge * np.eye(m)
        for k in range(p):
            lo = gaps[k - 1] if k > 0 else np.inf
            hi = gaps[k] if k < m - 1 else np.inf
            if min(lo, hi) < 1e-6 * scale:
                continue
            a, b = V[:, k], vecs_ref[:, k]
            cos = abs(a @ Br @ b) / np.sqrt((a @ Br @ a) * (b @ Br @ b))
            assert cos == pytest.approx(1.0, abs=1e-8)


def assert_same_pairs(pencil, res, vals_ref, vecs_ref, Br, p=None):
    """The leading p pairs of pencil's solve res (all that res holds by
    default): eigenvalues within 1e-8 of the spectrum's scale, and equal
    subspaces.

    Pairs are grouped where neighbouring reference eigenvalues lie within
    1e-6 of the scale; both vector sets are Br-orthonormal, so a group's
    subspaces agree when the singular values of their Br-inner products
    are all one. A group cut by the p boundary is not compared.
    """
    p = res.values.size if p is None else p
    values, vectors = res.values[:p], oracles.vectors(pencil, res)[:, :p]
    scale = max(1.0, float(np.max(np.abs(vals_ref))))
    np.testing.assert_allclose(values, vals_ref[:p], rtol=0.0, atol=1e-8 * scale)
    cuts = np.flatnonzero(np.diff(vals_ref) > 1e-6 * scale) + 1
    for group in np.split(np.arange(vals_ref.size), cuts):
        if group[-1] >= p:
            break
        cross = vectors[:, group].T @ Br @ vecs_ref[:, group]
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
        S, B = random_pencil(rng, m)
        p = int(rng.integers(1, m + 1))
        ridge = 1e-8 * float(np.trace(B)) / m
        pencil = oracles.dense_pencil(S, B, ridge)
        res = solve_trailing(pencil, p)
        vals_ref, vecs_ref = oracles.generalized_solve(S, B, ridge)
        assert_same_pairs(pencil, res, vals_ref, vecs_ref, B + ridge * np.eye(m), p)


@pytest.mark.parametrize("route, m, p", [("partial", 24, 3), ("full", 12, 12), ("rank_one", 12, 12)])
def test_dense_pencil_matches_the_generalized_driver_on_every_route(rng, route, m, p):
    """The tests' dense pencil (GE = I, W = S, lam = 0) gives the pairs of
    LAPACK's generalized driver on each route: a random S asked for few
    pairs (8p <= m) or for all, and an exactly rank-one S = w v v^T, whose
    M = f f^T has all its poles at lam / sigma = 0."""
    S, B = random_pencil(rng, m)
    if route == "rank_one":
        v = rng.integers(-3, 4, size=m).astype(float)
        v[0] = 1.0
        S = 2.0 * np.outer(v, v)
    ridge = default_ridge(B)
    pencil = oracles.dense_pencil(S, B, ridge)
    res = solve_trailing(pencil, p)
    assert res.route == route and res.values.size == p
    vals_ref, vecs_ref = oracles.generalized_solve(S, B, ridge)
    assert_same_pairs(pencil, res, vals_ref, vecs_ref, B + ridge * np.eye(m))


@pytest.mark.parametrize("seed", range(4))
def test_matches_generalized_driver_on_gram_pencil(seed):
    """Dense and fit-factored forms of one singular-B pencil give the
    generalized driver's pairs; S is built densely only for the reference."""
    GE, W, lam, B, ridge = linear_gram_pencil(seed)
    m = B.shape[0]
    dense = oracles.assemble_pencil(GE, W, lam, B, ridge)
    vals_ref, vecs_ref = oracles.generalized_solve(dense.W, B, ridge)
    Br = B + ridge * np.eye(m)
    factored = FactoredPencil(GE, W, ScatterFactor(B.copy(), ridge), lam)
    assert factored.size == dense.size == m
    # m = 26: p = 1 and 3 take the partial route.
    for p in (1, 3, m):
        for pencil in (dense, factored):
            assert_same_pairs(pencil, solve_trailing(pencil, p), vals_ref, vecs_ref, Br, p)


def test_a_solve_returns_every_pair_its_route_computed(rng):
    """On a FactoredPencil every route returns exactly the p pairs asked
    for: partial when 8p <= m, else full, and rank-one."""
    GE, W, lam, B, ridge = linear_gram_pencil(0)
    m = B.shape[0]
    pencil = FactoredPencil(GE, W, ScatterFactor(B, ridge), lam)
    for p in (1, 2, 3, 4, 13, m):
        res = solve_trailing(pencil, p)
        want = "partial" if 8 * p <= m else "full"
        assert (res.route, res.values.size, res.U.shape) == (want, p, (m, p))
    pencil, _ = rank_one_pencil(rng, "random")
    for p in (1, 7, pencil.size):
        res = solve_trailing(pencil, p)
        assert (res.route, res.values.size, res.U.shape) == ("rank_one", p, (pencil.size, p))


@pytest.mark.parametrize("m", [5, 64, 130, 300])
def test_whitened_adds_lam_over_sigma_on_the_diagonal(rng, m):
    """M is bit-equal to F W F^T, F = T^T GE, with lam / sigma added on its
    diagonal; forming it allocates M, F, F W and the m-vector lam / sigma."""
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
        M = pencil.whitened()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(M, want)
    assert M.flags.f_contiguous
    # Python's own small objects take under 4 KB.
    assert peak < M.nbytes + 2 * F.nbytes + factor.inv_sigma.nbytes + 4096


def test_scatter_factor_whitens_b(rng):
    """T^T (B + ridge*I) T = I, with 1/sigma the reciprocal eigenvalues of
    B + ridge*I, ascending sigma, and ridge_mass_bound the largest ridge
    mass ridge ||T u||^2 of a unit whitened u; the factor keeps no B."""
    m = 40
    B = centered_scatter(rng.normal(size=(m, m + 4)))
    ridge = default_ridge(B)
    factor = ScatterFactor(B.copy(), ridge)
    Br = B + ridge * np.eye(m)
    np.testing.assert_allclose(factor.T.T @ Br @ factor.T, np.eye(m), atol=1e-9)
    np.testing.assert_allclose(1.0 / factor.inv_sigma, np.linalg.eigvalsh(Br), rtol=1e-9)
    U = np.linalg.qr(rng.normal(size=(m, m)))[0]
    mass = ridge * np.sum((factor.T @ U) ** 2, axis=0)
    assert np.max(mass) <= factor.ridge_mass_bound * (1 + 1e-12)
    assert factor.ridge_mass_bound == pytest.approx(ridge * np.sum(factor.T[:, 0] ** 2))
    assert set(vars(factor)) == {"ridge", "T", "inv_sigma", "ridge_mass_bound"}


def test_scatter_factor_of_indefinite_b_fails_with_advice():
    with pytest.raises(NumericalError, match="increase ridge"):
        ScatterFactor(-np.eye(3), 0.0)


def test_b_orthonormality(rng):
    for _ in range(20):
        m = int(rng.integers(2, 16))
        S, B = random_pencil(rng, m)
        ridge = default_ridge(B)
        _, V = solve_dense(S, B, ridge, m)
        Br = B + ridge * np.eye(m)
        gram = V.T @ Br @ V
        assert np.max(np.abs(gram - np.eye(m))) <= 1e-6


def test_shift_property(rng):
    """Adding c*B to S shifts eigenvalues by c and keeps eigenvectors."""
    m, c = 10, 3.7
    S, B = random_pencil(rng, m)
    ridge = 1e-10 * float(np.trace(B)) / m
    base, V = solve_dense(S, B, ridge, m)
    Br = B + ridge * np.eye(m)
    shifted, V_shifted = solve_dense(S + c * Br, B, ridge, m)
    scale = max(1.0, float(np.max(np.abs(base.values))))
    np.testing.assert_allclose(shifted.values, base.values + c, atol=1e-8 * scale)
    for k in range(m):
        dot = abs(V[:, k] @ Br @ V_shifted[:, k])
        assert dot == pytest.approx(1.0, abs=1e-7)


def test_ordering_and_stability_under_p(rng):
    """At m = 14, p = 3 and 7 take the full route and return the all-pairs
    solve's leading pairs bit for bit; p = 1 takes the partial route and
    returns its pair."""
    m = 14
    S, B = random_pencil(rng, m)
    ridge = default_ridge(B)
    pencil = oracles.dense_pencil(S, B, ridge)
    full = solve_trailing(pencil, m)
    full_vectors = oracles.vectors(pencil, full)
    assert np.all(np.diff(full.values) >= -1e-12)
    for p in (1, 3, 7):
        part = solve_trailing(pencil, p)
        if 8 * p > m:
            assert part.route == "full"
            np.testing.assert_array_equal(part.values[:p], full.values[:p])
            np.testing.assert_array_equal(
                oracles.vectors(pencil, part)[:, :p], full_vectors[:, :p]
            )
        else:
            assert part.route == "partial"
            assert_same_pairs(pencil, part, full.values, full_vectors, B + ridge * np.eye(m))


def test_residual_norms_small(rng):
    S, B = random_pencil(rng, 12)
    ridge = default_ridge(B)
    res, V = solve_dense(S, B, ridge, 12)
    scale = np.linalg.norm(S) + np.max(np.abs(res.values)) * np.linalg.norm(B)
    assert np.all(residual_norms(S, B, ridge, res, V) <= 1e-6 * max(1.0, scale))


def test_sign_convention(rng):
    S, B = random_pencil(rng, 9)
    _, V = solve_dense(S, B, default_ridge(B), 9)
    for k in range(9):
        v = V[:, k]
        assert v[int(np.argmax(np.abs(v)))] > 0


def test_sign_convention_gives_a_tie_to_the_first_entry():
    """Two eigenvectors of this S hold their largest magnitude twice, once
    positive and once negative; the first of the two is made positive."""
    S = np.array([[0.0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]])
    _, V = solve_dense(S, np.eye(4), 0.0, 4)
    tied = [V[:2, 0], V[2:, 3]]
    assert all(abs(v[0]) == abs(v[1]) for v in tied)
    assert all(v[0] > 0 > v[1] for v in tied)


def _fix_signs_by_extremes(vectors):
    """The sign rule read from each column's max and min: the largest
    magnitude is the max or minus the min, and when both are equal the
    first of their first entries is made positive."""
    high, low = vectors.max(axis=0), -vectors.min(axis=0)
    flip = low > high
    tied = np.flatnonzero(low == high)
    flip[tied] = [np.argmin(vectors[:, j]) < np.argmax(vectors[:, j]) for j in tied]
    vectors *= np.where(flip, -1.0, 1.0)


def test_sign_rule_agrees_with_the_rule_read_from_extremes(rng):
    """The argmax-of-magnitude rule flips exactly the columns that the rule
    read from each column's max and min flips: on ties of +a and -a in
    either order, on zero columns of either sign and on random matrices,
    integer-valued ones included, whose columns often tie."""
    cases = [
        np.array(
            [
                [1.0, -1.0, 0.0, -0.0, 0.5, -2.0],
                [-1.0, 1.0, 0.0, -0.0, -2.0, 2.0],
                [0.0, 0.0, 0.0, 0.0, 2.0, -2.0],
            ]
        ),
        rng.normal(size=(7, 40)),
        rng.integers(-2, 3, size=(5, 200)).astype(float),
        rng.integers(-1, 2, size=(2, 50)).astype(float),
    ]
    for V in cases:
        got, want = V.copy(), V.copy()
        eigensolve._fix_signs(got)
        _fix_signs_by_extremes(want)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_indefinite_b_fails_with_advice():
    with pytest.raises(NumericalError, match="ridge"):
        oracles.dense_pencil(np.eye(3), -np.eye(3), 0.0)


def test_rejects_bad_p():
    pencil = oracles.dense_pencil(np.eye(3), np.eye(3), 0.0)
    with pytest.raises(NumericalError):
        solve_trailing(pencil, 0)
    with pytest.raises(NumericalError):
        solve_trailing(pencil, 4)


def test_assemble_mu_zero_ignores_rmax(rng):
    GE = rng.normal(size=(4, 6))
    B = np.eye(4)
    a = oracles.assemble_pencil(GE, same_class_core(3) - 0.0 * cross_class_core(3), 0.5, B, 0.0)
    b = oracles.assemble_pencil(GE, same_class_core(3), 0.5, B, 0.0)
    np.testing.assert_array_equal(a.W, b.W)
    np.testing.assert_array_equal(a.factor.T, b.factor.T)


def test_assemble_zero_data():
    """Zero data give S = lam*I and B = 0, which only a ridge makes solvable."""
    GE, B = np.zeros((3, 4)), np.zeros((3, 3))
    pencil = oracles.assemble_pencil(GE, np.eye(4), 2.0, B, 1.0)
    np.testing.assert_array_equal(pencil.W, 2.0 * np.eye(3))
    np.testing.assert_array_equal(pencil.factor.inv_sigma, 1.0)
    with pytest.raises(NumericalError):
        oracles.assemble_pencil(GE, np.eye(4), 2.0, B, 0.0)


def test_assemble_trace_identity(rng):
    """tr(A^T S A) - lam*||A||_F^2 recovers the dense weighted discrepancy difference."""
    d, C, p, mu, lam = 4, 3, 3, 0.7, 1.3
    ys = rng.integers(1, C + 1, size=5)
    yt = rng.integers(1, C + 1, size=4)
    Ys, Yt = one_hot_encode(ys, C), one_hot_encode(yt, C)
    G = rng.normal(size=(d, ys.size + yt.size))
    W = same_class_core(C) - mu * cross_class_core(C)
    pencil = oracles.assemble_pencil(G @ oracles.indicator_factor(Ys, Yt), W, lam, np.eye(d), 0.0)
    A = rng.normal(size=(d, p))
    lhs = float(np.trace(A.T @ pencil.W @ A)) - lam * float(np.sum(A * A))
    f = build_joint_prob_factors(Ys, Yt)
    rhs = projected_trace(A.T @ G, build_rmin(f)) - mu * projected_trace(A.T @ G, build_rmax(f))
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_default_ridge_scales_with_trace():
    B = np.diag([1.0, 2.0, 3.0])
    assert default_ridge(B) == pytest.approx(1e-6 * 6.0 / 3.0)
    assert default_ridge(100.0 * B) == pytest.approx(100.0 * default_ridge(B))


def test_result_holds_the_pairs_and_their_route(rng):
    """A result is the values, the whitened vectors U, one column per
    value, and the route; at m = 5 a solve for 2 pairs takes the full
    route and returns those 2 pairs. The oracle's vectors are the factor's T times U,
    sign-fixed as the fit fixes the directions it keeps."""
    S, B = random_pencil(rng, 5)
    pencil = oracles.dense_pencil(S, B, default_ridge(B))
    res = solve_trailing(pencil, 2)
    assert isinstance(res, EigenResult)
    assert [f.name for f in fields(EigenResult)] == ["values", "U", "route"]
    assert res.values.shape == (2,) and res.U.shape == (5, 2)
    assert res.route == "full"
    want = pencil.factor.T @ res.U
    eigensolve._fix_signs(want)
    np.testing.assert_array_equal(oracles.vectors(pencil, res), want)


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
    S = oracles.assemble_pencil(pencil.GE, pencil.W, pencil.lam, B, ridge).W
    vals_ref, vecs_ref = oracles.generalized_solve(S, B, ridge)
    Br = B + ridge * np.eye(m)
    _forbid_eigh(monkeypatch)
    for k in (1, 7, m):
        res = solve_trailing(pencil, k)
        assert res.route == "rank_one" and res.values.size == k
        np.testing.assert_allclose(res.values, vals_ref[:k], rtol=1e-12, atol=0.0)
        V = oracles.vectors(pencil, res)
        gram = V.T @ Br @ V
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-14
        assert_same_pairs(pencil, res, vals_ref, vecs_ref, Br)
        assert all(v[np.argmax(np.abs(v))] > 0 for v in V.T)


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
def test_rank_one_route_keeps_the_dense_overflow_error(monkeypatch, rng):
    """A non-finite f raises the dense route's NumericalError."""
    pencil, _ = rank_one_pencil(rng, "random")
    pencil.GE[3, 0] = np.inf
    with pytest.raises(NumericalError, match="whitened eigenproblem overflowed"):
        solve_trailing(pencil, 2)
    monkeypatch.setattr(FactoredPencil, "rank_one", None)
    with pytest.raises(NumericalError, match="whitened eigenproblem overflowed"):
        solve_trailing(pencil, 2)


def test_rank_one_route_falls_back_to_the_full_solve_when_dlasd4_fails(monkeypatch, rng):
    """A root dlasd4 does not converge on (info != 0) sends the pencil to the
    full-spectrum route, which returns the pairs asked for, those of the
    secular solve."""
    pencil, B = rank_one_pencil(rng, "random")
    ridge = pencil.factor.ridge
    want = solve_trailing(pencil, 5)
    monkeypatch.setattr(
        eigensolve, "dlasd4", lambda i, d, z, rho: (np.ones_like(d), 1.0, np.ones_like(d), 1)
    )
    got = solve_trailing(pencil, 5)
    assert (want.route, got.route) == ("rank_one", "full")
    assert got.values.size == 5
    np.testing.assert_allclose(got.values[:5], want.values, rtol=1e-12)
    S = oracles.assemble_pencil(pencil.GE, pencil.W, pencil.lam, B, ridge).W
    vals_ref, vecs_ref = oracles.generalized_solve(S, B, ridge)
    assert_same_pairs(pencil, got, vals_ref, vecs_ref, B + ridge * np.eye(pencil.size))


def test_full_route_columns_are_those_of_the_all_pairs_solve(monkeypatch, rng):
    """On the full route a solve for k pairs returns the first k pairs of
    the solve for all m, bit for bit: at m = 1, at m below the panel width,
    at m a multiple of it and at m not one, with k inside the first panel,
    at and across a panel boundary, and k = m. The values are those of
    LAPACK's full driver dsyevd bit for bit, and each vector is its vector
    up to sign. Every pencil is sent to the full route, a 1 x 1 one
    included."""
    monkeypatch.setattr(eigensolve, "_PARTIAL_RATIO", float("inf"))
    monkeypatch.setattr(FactoredPencil, "rank_one", None)
    width = eigensolve._PANEL
    for m in (1, width - 7, 2 * width, 2 * width + 6):
        S, B = random_pencil(rng, m)
        pencil = oracles.dense_pencil(S, B, default_ridge(B))
        want_values, want_U = scipy.linalg.eigh(pencil.whitened(), driver="evd")
        full = solve_trailing(pencil, m)
        assert (full.route, full.U.shape) == ("full", (m, m))
        np.testing.assert_array_equal(full.values, want_values)
        np.testing.assert_allclose(np.abs(np.sum(full.U * want_U, axis=0)), 1.0, atol=1e-12)
        for k in {1, 2, width - 1, width, width + 1, 2 * width + 1} & set(range(1, m)):
            res = solve_trailing(pencil, k)
            assert (res.route, res.values.shape, res.U.shape) == ("full", (k,), (m, k))
            np.testing.assert_array_equal(res.values, full.values[:k])
            np.testing.assert_array_equal(res.U, full.U[:, :k])


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
def test_full_route_refuses_a_non_finite_matrix(monkeypatch, rng):
    """A non-finite M raises the overflow error before LAPACK reads it, on
    the full route, which calls no scipy.linalg.eigh."""
    S, B = random_pencil(rng, 6)
    S[2, 3] = S[3, 2] = np.inf
    pencil = oracles.dense_pencil(S, B, default_ridge(B))
    _forbid_eigh(monkeypatch)
    with pytest.raises(NumericalError, match="whitened eigenproblem overflowed"):
        solve_trailing(pencil, 6)


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
        assert solve_trailing(other, 2).route == "partial"
