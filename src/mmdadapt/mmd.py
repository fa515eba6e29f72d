"""Weighted and joint-probability MMD discrepancies as cores on one factor.

Every discrepancy matrix over the stacked sample order [source columns |
target columns] is E W E^T. E (n x 2C) holds the source class indicators
scaled by 1/n_s over the source rows and the target indicators scaled by
1/n_t over the target rows; W is a small 2C x 2C core:

    R_min (same-class joint terms)    W_min = [[I, -I], [-I, I]]
    R_max (cross-class joint terms)   W_max = [[(C-1)I, -(J-I)], [-(J-I), (C-1)I]]
    M_0 (marginal)                    s s^T, s = [1..1, -1..-1]
    sum_c M_c (conditional)           D W_min D, D rescaling class c by
                                      n_s/count_s and n_t/count_t

J is the all-ones C x C matrix. D zeroes a class that is empty in either
domain, so that class contributes nothing.

Class-mean normalizers in E are the full domain sizes n_s and n_t, not the
per-class counts. That is what makes R_min and R_max joint-probability
terms: each class is implicitly weighted by its empirical prior. The solvers
never form E or an n x n matrix: they form G E one domain half at a time
(indicator_product), the source half once per prepared pair since it reads
no pseudo-label, and act on it with the core. build_rmin and build_rmax are
the dense n x n reference forms of the joint terms, built in cache-sized
tiles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from .data import DomainPair, class_counts
from .errors import DataError


@dataclass
class JointProbFactors:
    """Thin factors of the joint-probability discrepancy matrices.

    Ns, Nt: class indicators scaled by 1/n_s, 1/n_t (shape n_s x C, n_t x C).
    Fs: each indicator column repeated C-1 times, scaled by 1/n_s
        (shape n_s x C(C-1)).
    Ft: C blocks, block c being the target indicator matrix with column c
        deleted (remaining columns in ascending order), scaled by 1/n_t.
    """

    Ns: np.ndarray
    Nt: np.ndarray
    Fs: np.ndarray
    Ft: np.ndarray
    class_count: int


def build_joint_prob_factors(Ys: np.ndarray, Yt_pseudo: np.ndarray) -> JointProbFactors:
    """Build the class-indicator factors for R_min and R_max."""
    Ys = np.asarray(Ys, dtype=float)
    Yt = np.asarray(Yt_pseudo, dtype=float)
    if Ys.ndim != 2 or Yt.ndim != 2 or Ys.shape[1] != Yt.shape[1]:
        raise DataError("one-hot matrices must be 2-d with a shared class count")
    C = Ys.shape[1]
    if C < 2:
        raise DataError("need at least two classes")
    n_s, n_t = Ys.shape[0], Yt.shape[0]
    if n_s == 0 or n_t == 0:
        raise DataError("both domains need at least one sample")
    Ns = Ys / n_s
    Nt = Yt / n_t
    # Same-class factor: column c against column c, repeated to match the
    # C-1 cross pairings so R_min and R_max share a column layout.
    Fs = np.repeat(Ys, C - 1, axis=1) / n_s
    Ft = np.hstack([np.delete(Yt, c, axis=1) for c in range(C)]) / n_t
    return JointProbFactors(Ns=Ns, Nt=Nt, Fs=Fs, Ft=Ft, class_count=C)


def build_rmin(factors: JointProbFactors) -> np.ndarray:
    """Same-class joint-probability matrix R_min = B B^T, B = [Ns; -Nt]."""
    return _symmetric_gram(np.vstack([factors.Ns, -factors.Nt]))


def build_rmax(factors: JointProbFactors) -> np.ndarray:
    """Cross-class joint-probability matrix R_max = B B^T, B = [Fs; -Ft]."""
    return _symmetric_gram(np.vstack([factors.Fs, -factors.Ft]))


# Side of the square tiles the dense builders mirror; a 256 x 256 tile pair
# (1 MB) stays in cache while it is copied. _ABOVE masks a diagonal tile's
# strict upper triangle. It is built once: built per call it cost about
# 160 us, a fixed cost that weighed most on the smallest builds.
_TILE = 256
_ABOVE = np.triu(np.ones((_TILE, _TILE), dtype=bool), 1)
_ABOVE.flags.writeable = False


def _symmetric_gram(B: np.ndarray) -> np.ndarray:
    """B B^T, exactly symmetric, written about once per entry.

    BLAS syrk fills one triangle (the same entries numpy's B @ B.T computes)
    and each tile pair is then symmetrized in place by mirroring, tile by
    tile, so no n x n temporary is formed.
    """
    n = B.shape[0]
    R = np.empty((n, n), order="F")
    blas.dsyrk(1.0, B.T, c=R, trans=1, lower=1, overwrite_c=1)
    for i in range(0, n, _TILE):
        I = slice(i, i + _TILE)
        D = R[I, I]
        np.copyto(D, D.T, where=_ABOVE[: D.shape[0], : D.shape[0]])
        for j in range(i + _TILE, n, _TILE):
            J = slice(j, j + _TILE)
            R[I, J] = R[J, I].T
    return R.T


def indicator_product(G: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """G @ (Y / n), one domain's half of G E: G holds the columns of that
    domain's n samples and Y (n x C) their one-hot labels, so column c is
    the sum of class c's columns over n."""
    return G @ (Y / Y.shape[0])


def same_class_core(C: int) -> np.ndarray:
    """Core of R_min: [[I, -I], [-I, I]]."""
    I = np.eye(C)
    return np.block([[I, -I], [-I, I]])


def cross_class_core(C: int) -> np.ndarray:
    """Core of R_max: [[(C-1)I, -(J-I)], [-(J-I), (C-1)I]]."""
    diag = (C - 1) * np.eye(C)
    off = np.eye(C) - np.ones((C, C))
    return np.block([[diag, off], [off, diag]])


def weighted_core(Ys: np.ndarray, Yt_pseudo: np.ndarray, w1: float, w2: float) -> np.ndarray:
    """Core of w1 * M_0 + w2 * sum_c M_c: w1 s s^T + w2 D W_min D.

    D rescales class c by n_s / count_s(c) on the source side and by
    n_t / count_t(c) on the target side, and is zero for a class empty in
    either domain.
    """
    C = Ys.shape[1]
    cs, ct = class_counts(Ys), class_counts(Yt_pseudo)
    present = (cs > 0) & (ct > 0)
    d = np.zeros(2 * C)
    d[:C][present] = Ys.shape[0] / cs[present]
    d[C:][present] = Yt_pseudo.shape[0] / ct[present]
    s = np.concatenate([np.ones(C), -np.ones(C)])
    return w1 * np.outer(s, s) + w2 * (d[:, None] * same_class_core(C) * d[None, :])


def projected_trace(P: np.ndarray, M: np.ndarray) -> float:
    """tr(P M P^T), clamped at zero against roundoff. With P = A^T X it is
    the discrepancy tr(A^T X M X^T A), P formed once for several cores."""
    return max(float(np.sum((P @ M) * P)), 0.0)


def bda_weight(
    pair: DomainPair,
    Yt_pseudo: np.ndarray,
    ridge: float = 1e-3,
    d_m: float | None = None,
) -> float:
    """Balance factor between marginal and conditional terms.

    Each distribution distance is estimated as d = 2(1 - 2*err), clamped to
    [0, 2], where err is the training error of a ridge least-squares domain
    classifier (-1 source, +1 target). mu = 1 - d_m / (d_m + sum_c d_c);
    classes empty in either domain contribute zero. Falls back to 0.5 when
    every distance vanishes. Each classifier is solved in whichever of its
    primal (d+1) or dual (sample-count) forms is smaller; both give the same
    predictions, so mu does not depend on which form ran. The marginal
    distance d_m reads no label: a caller holding marginal_distance(pair,
    ridge) passes it, and it is not computed again.
    """
    Xs, Xt = pair.source.X, pair.target.X
    if Xs.shape[1] < 2 or Xt.shape[1] < 2:
        raise DataError("bda weight needs at least 2 samples per domain")
    Yt = np.asarray(Yt_pseudo, dtype=float)
    if d_m is None:
        d_m = marginal_distance(pair, ridge)
    d_cs = 0.0
    for c in range(pair.source.class_count):
        src = Xs[:, pair.source.y == c + 1]
        tgt = Xt[:, Yt[:, c] > 0]
        if src.shape[1] == 0 or tgt.shape[1] == 0:
            continue
        d_cs += _proxy_a_distance(src, tgt, ridge)
    den = d_m + d_cs
    if den == 0.0:
        warnings.warn("all domain distances vanished; falling back to mu = 0.5")
        return 0.5
    return float(min(max(1.0 - d_m / den, 0.0), 1.0))


def marginal_distance(pair: DomainPair, ridge: float = 1e-3) -> float:
    """bda's whole-domain distance d_m: every source sample against every target one."""
    return _proxy_a_distance(pair.source.X, pair.target.X, ridge)


def _proxy_a_distance(Xs: np.ndarray, Xt: np.ndarray, ridge: float) -> float:
    """Distance proxy from the training error of a linear domain classifier.

    The classifier is ridge least squares on the design G = [X^T, 1] of the
    n samples X = [Xs | Xt] plus a ones column (n x (d+1)), with targets -1
    (source) and +1 (target), solved in the smaller of its two forms. G is
    never formed: each form's normal equations are built from Xs and Xt.
    The primal form (n >= d+1) solves (G^T G + ridge I) w = G^T y, where

        G^T G = [[Xs Xs^T + Xt Xt^T, s], [s^T, n]],  s = Xs 1 + Xt 1,
        G^T y = [Xt 1 - Xs 1; n_t - n_s],

    and scores X^T w[:d] + w[d]. The dual form solves (G G^T + ridge I) a = y,
    where G G^T = X^T X + 1 from the gram blocks Xs^T Xs, Xs^T Xt and
    Xt^T Xt, and scores G G^T a, which equals G w by the push-through
    identity.
    """
    n_s, n_t = Xs.shape[1], Xt.shape[1]
    scores = _dual_scores if n_s + n_t < Xs.shape[0] + 1 else _primal_scores
    score_s, score_t = scores(Xs, Xt, ridge)
    # A source sample is misclassified when its score is positive, a target
    # one when it is not.
    err = (np.count_nonzero(score_s > 0) + n_t - np.count_nonzero(score_t > 0)) / (n_s + n_t)
    return float(min(max(2.0 * (1.0 - 2.0 * err), 0.0), 2.0))


def _primal_scores(Xs: np.ndarray, Xt: np.ndarray, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """Scores of _proxy_a_distance's primal classifier: a (d+1) x (d+1)
    system and one d x d temporary."""
    d = Xs.shape[0]
    sum_s, sum_t = Xs.sum(axis=1), Xt.sum(axis=1)
    system = np.empty((d + 1, d + 1))
    np.matmul(Xs, Xs.T, out=system[:d, :d])
    system[:d, :d] += Xt @ Xt.T
    system[:d, d] = system[d, :d] = sum_s + sum_t
    system[d, d] = Xs.shape[1] + Xt.shape[1]
    np.fill_diagonal(system, system.diagonal() + ridge)
    w = np.linalg.solve(system, np.append(sum_t - sum_s, Xt.shape[1] - Xs.shape[1]))
    return Xs.T @ w[:d] + w[d], Xt.T @ w[:d] + w[d]


def _dual_scores(Xs: np.ndarray, Xt: np.ndarray, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """Scores of _proxy_a_distance's dual classifier: the n x n gram and its
    ridged copy."""
    n_s = Xs.shape[1]
    n = n_s + Xt.shape[1]
    K = np.empty((n, n))
    np.matmul(Xs.T, Xs, out=K[:n_s, :n_s])
    np.matmul(Xt.T, Xs, out=K[n_s:, :n_s])
    np.matmul(Xt.T, Xt, out=K[n_s:, n_s:])
    K[:n_s, n_s:] = K[n_s:, :n_s].T
    K += 1.0
    system = K.copy()
    np.fill_diagonal(system, system.diagonal() + ridge)
    y = np.ones(n)
    y[:n_s] = -1.0
    score = K @ np.linalg.solve(system, y)
    return score[:n_s], score[n_s:]
