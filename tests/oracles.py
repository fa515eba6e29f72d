"""Brute-force reference implementations the library must agree with.

Everything here is written as literal loops over classes and samples, or
as the dense n x n matrices the package no longer forms, with no shared code
from the package beyond its error type, so agreement is meaningful evidence
rather than self-confirmation.
"""

import numpy as np

from mmdadapt.errors import DataError


def class_mean(P, y, c, n_norm):
    """Sum of projected class-c columns divided by a caller-chosen size.

    An empty class contributes the zero vector, mirroring the builders'
    empty-class convention.
    """
    cols = P[:, y == c]
    if cols.shape[1] == 0:
        return np.zeros(P.shape[0])
    return cols.sum(axis=1) / n_norm


def same_class_sum(A, Xs, Xt, ys, yt, C):
    """Sum over classes of squared distance between domain-normalized means."""
    Ps, Pt = A.T @ Xs, A.T @ Xt
    total = 0.0
    for c in range(1, C + 1):
        diff = class_mean(Ps, ys, c, Xs.shape[1]) - class_mean(Pt, yt, c, Xt.shape[1])
        total += float(diff @ diff)
    return total


def cross_class_sum(A, Xs, Xt, ys, yt, C):
    """Double sum over ordered class pairs (c, c') with c' != c."""
    Ps, Pt = A.T @ Xs, A.T @ Xt
    total = 0.0
    for c in range(1, C + 1):
        for c2 in range(1, C + 1):
            if c2 == c:
                continue
            diff = class_mean(Ps, ys, c, Xs.shape[1]) - class_mean(Pt, yt, c2, Xt.shape[1])
            total += float(diff @ diff)
    return total


def marginal_sum(A, Xs, Xt):
    diff = (A.T @ Xs).mean(axis=1) - (A.T @ Xt).mean(axis=1)
    return float(diff @ diff)


def conditional_sum(A, Xs, Xt, ys, yt, C):
    """Per-class mean differences with per-class normalizers; empty skipped."""
    Ps, Pt = A.T @ Xs, A.T @ Xt
    total = 0.0
    for c in range(1, C + 1):
        ns_c = int(np.sum(ys == c))
        nt_c = int(np.sum(yt == c))
        if ns_c == 0 or nt_c == 0:
            continue
        diff = class_mean(Ps, ys, c, ns_c) - class_mean(Pt, yt, c, nt_c)
        total += float(diff @ diff)
    return total


def cross_factor_blocks(Ys, Yt):
    """Independent constructor for the cross-class factor pair.

    Iterates ordered pairs (c, c2 != c) directly: for each c (block) and each
    c2 != c in ascending order, emit source column c and target column c2.
    """
    n_s, C = Ys.shape
    n_t = Yt.shape[0]
    fs_cols, ft_cols = [], []
    for c in range(C):
        for c2 in range(C):
            if c2 == c:
                continue
            fs_cols.append(Ys[:, c])
            ft_cols.append(Yt[:, c2])
    Fs = np.column_stack(fs_cols) / n_s
    Ft = np.column_stack(ft_cols) / n_t
    return Fs, Ft


def marginal_mmd_matrix(n_s, n_t):
    """Dense whole-domain mean-difference matrix M_0.

    Entries: 1/n_s^2 on the source block, 1/n_t^2 on the target block,
    -1/(n_s n_t) on the cross blocks.
    """
    if n_s < 1 or n_t < 1:
        raise DataError("both domains need at least one sample")
    e = np.concatenate([np.full(n_s, 1.0 / n_s), np.full(n_t, -1.0 / n_t)])
    return np.outer(e, e)


def conditional_mmd_matrices(Ys, Yt):
    """Dense per-class mean-difference matrices M_c with per-class normalizers.

    Returns C matrices and the (1-based) classes skipped because one domain
    had no samples of that class; skipped classes contribute a zero matrix.
    """
    C = Ys.shape[1]
    n = Ys.shape[0] + Yt.shape[0]
    mats, skipped = [], []
    for c in range(C):
        ns_c, nt_c = Ys[:, c].sum(), Yt[:, c].sum()
        if ns_c == 0 or nt_c == 0:
            mats.append(np.zeros((n, n)))
            skipped.append(c + 1)
            continue
        e = np.concatenate([Ys[:, c] / ns_c, -Yt[:, c] / nt_c])
        mats.append(np.outer(e, e))
    return mats, skipped


def centering_matrix(n):
    """Dense H = I - (1/n) ones(n, n)."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def whiten_solve(S, B, ridge):
    """Generalized eigensolve via explicit whitening, smallest first.

    Uses a Cholesky factor of the stabilized B and a plain symmetric
    eigen-decomposition, a different route than the library's driver.
    """
    m = S.shape[0]
    L = np.linalg.cholesky(B + ridge * np.eye(m))
    Linv = np.linalg.inv(L)
    W = Linv @ S @ Linv.T
    W = (W + W.T) / 2.0
    vals, U = np.linalg.eigh(W)
    vecs = Linv.T @ U
    return vals, vecs
