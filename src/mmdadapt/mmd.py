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
only ever form G E and the core; build_rmin and build_rmax are the dense
n x n reference forms of the joint terms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

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
    B = np.vstack([factors.Ns, -factors.Nt])
    R = B @ B.T
    return (R + R.T) / 2.0


def build_rmax(factors: JointProbFactors) -> np.ndarray:
    """Cross-class joint-probability matrix R_max = B B^T, B = [Fs; -Ft]."""
    B = np.vstack([factors.Fs, -factors.Ft])
    R = B @ B.T
    return (R + R.T) / 2.0


def indicator_factor(Ys: np.ndarray, Yt_pseudo: np.ndarray) -> np.ndarray:
    """E = blockdiag(Ys / n_s, Yt / n_t), the n x 2C factor every core acts on."""
    (n_s, C), n_t = Ys.shape, Yt_pseudo.shape[0]
    E = np.zeros((n_s + n_t, 2 * C))
    E[:n_s, :C] = Ys / n_s
    E[n_s:, C:] = Yt_pseudo / n_t
    return E


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


def projected_discrepancy(A: np.ndarray, X: np.ndarray, M: np.ndarray) -> float:
    """tr(A^T X M X^T A), clamped at zero against roundoff."""
    P = np.asarray(A).T @ np.asarray(X)
    val = float(np.sum((P @ M) * P))
    return max(val, 0.0)


def bda_weight(pair: DomainPair, Yt_pseudo: np.ndarray, ridge: float = 1e-3) -> float:
    """Balance factor between marginal and conditional terms.

    Each distribution distance is estimated as d = 2(1 - 2*err), clamped to
    [0, 2], where err is the training error of a ridge least-squares domain
    classifier (-1 source, +1 target). mu = 1 - d_m / (d_m + sum_c d_c);
    classes empty in either domain contribute zero. Falls back to 0.5 when
    every distance vanishes.
    """
    Xs, Xt = pair.source.X, pair.target.X
    if Xs.shape[1] < 2 or Xt.shape[1] < 2:
        raise DataError("bda weight needs at least 2 samples per domain")
    Yt = np.asarray(Yt_pseudo, dtype=float)
    d_m = _proxy_a_distance(Xs, Xt, ridge)
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


def _proxy_a_distance(Xs: np.ndarray, Xt: np.ndarray, ridge: float) -> float:
    """Distance proxy from the training error of a linear domain classifier."""
    G = np.hstack([Xs, Xt]).T
    G = np.hstack([G, np.ones((G.shape[0], 1))])
    y = np.concatenate([-np.ones(Xs.shape[1]), np.ones(Xt.shape[1])])
    w = np.linalg.solve(G.T @ G + ridge * np.eye(G.shape[1]), G.T @ y)
    pred = np.where(G @ w > 0, 1.0, -1.0)
    err = float(np.mean(pred != y))
    return float(min(max(2.0 * (1.0 - 2.0 * err), 0.0), 2.0))
