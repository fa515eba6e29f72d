"""Nearest-neighbor scoring used for pseudo-labels and final accuracy."""

from __future__ import annotations

import numpy as np

from .errors import DataError

# Entries of the block x n_s shortlist array one block of test columns fills
# (2**15 doubles, 256 KiB): memory stays O(block * n_s) whatever n_t is.
_BLOCK_ENTRIES = 2**15

_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_SUBNORMAL = np.finfo(float).smallest_subnormal


def knn1_predict(train_X: np.ndarray, train_y: np.ndarray, test_X: np.ndarray) -> np.ndarray:
    """1-NN labels under squared Euclidean distance.

    Matrices are column-per-sample. The contract:

    - labels are exactly those of scanning every test column z with
      ``np.sum((train_X - z) ** 2, axis=0)`` and taking the first argmin, so
      ties go to the smallest training index, which anchors determinism;
    - memory is O(block * n_s): test columns are processed in blocks of
      2**15 // n_s (at least one) and no n_s x n_t array is formed.

    Each block is shortlisted by one GEMM, ``||x||^2 - 2 x^T z`` (the column
    constant ``||z||^2`` does not move an argmin). A column whose runner-up is
    within the rounding band of its minimum is re-scored with the exact scan.
    """
    train_X = np.asarray(train_X, dtype=float)
    test_X = np.asarray(test_X, dtype=float)
    train_y = np.asarray(train_y)
    if train_X.shape[1] == 0:
        raise DataError("empty training set")
    if train_X.shape[0] != test_X.shape[0]:
        raise DataError("train and test feature dimensions differ")
    if train_y.shape != train_X.shape[1:]:
        raise DataError("train_y must hold one label per training column")
    d, n_s = train_X.shape
    n_t = test_X.shape[1]

    # Rounding band. Write D_i = ||x_i - z||^2 exactly, g_i for the computed
    # shortlist entry and s_i for the scan's value; gamma_k = k u / (1 - k u).
    # - Shortlist: the norm a_i and the BLAS product c_i each err by at most
    #   gamma_d (||x_i||^2, resp. ||x_i|| ||z||, by Cauchy-Schwarz), scaling
    #   by -2 is exact and the final add rounds once, so
    #   |g_i + ||z||^2 - D_i| <= gamma_{d+1} (||x_i|| + ||z||)^2.
    # - Scan: d nonnegative terms, each rounded twice (difference, square),
    #   summed in any order, so |s_i - D_i| <= gamma_{d+1} D_i, and
    #   D_i <= (||x_i|| + ||z||)^2.
    # With R^2 = max_i a_i and r^2 = ||z||^2 computed (each within gamma_d),
    # (||x_i|| + ||z||)^2 <= (1 + gamma_{2d}) (R + r)^2, so every entry obeys
    # |s_i - g_i - ||z||^2| <= t = 2 gamma_{3d+1} (R + r)^2. If the runner-up
    # of column z exceeds its minimum g_j by more than 2t, then s_i > s_j for
    # every i != j and the scan's first argmin is j. Forming gamma and the
    # band in floating point and the difference it is compared with add at
    # most ten more relative roundings, each raising the index by one
    # (gamma_n (1 + u) <= gamma_{n+1}, gamma_n / (1 - u) <= gamma_{n+1}), so
    # k = 3d + 12 keeps one spare. Under gradual underflow a product,
    # quotient or square root may also err by half a subnormal (sums are then
    # exact): at most 6d of them in the two entries and ten in the band, which
    # the 4k subnormals added to the band cover.
    k = 3 * d + 12
    gamma = k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)
    sq_train = np.einsum("ij,ij->j", train_X, train_X)
    R = np.sqrt(np.max(sq_train))
    block = max(1, _BLOCK_ENTRIES // n_s)

    nearest = np.empty(n_t, dtype=np.intp)
    for start in range(0, n_t, block):
        Z = test_X[:, start : start + block]
        rows = np.arange(Z.shape[1])
        r = np.sqrt(np.einsum("ij,ij->j", Z, Z))
        band = 4 * gamma * (R + r) ** 2 + 4 * k * _SUBNORMAL
        G = (-2.0 * Z).T @ train_X
        G += sq_train
        j = np.argmin(G, axis=1)
        best = G[rows, j]
        G[rows, j] = np.inf
        runner_up = np.min(G, axis=1)
        nearest[start : start + rows.size] = j
        # Negated so that NaN or overflow (band or entries not finite) also
        # falls back to the exact scan.
        for c in np.flatnonzero(~(runner_up - best > band)):
            nearest[start + c] = _scan_nearest(train_X, Z[:, c : c + 1])
    return train_y[nearest]


def _scan_nearest(train_X: np.ndarray, z: np.ndarray) -> int:
    """Index of the first minimum of the exact squared distances to column z."""
    diff = train_X - z
    return int(np.argmin(np.sum(diff * diff, axis=0)))


def accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of matching labels."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise DataError("prediction and truth lengths differ")
    if pred.size == 0:
        raise DataError("cannot score an empty prediction")
    return float(np.mean(pred == truth))
