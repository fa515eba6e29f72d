"""Self-gram matrices and the rbf bandwidth for the kernelized solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError

KERNEL_KINDS = ("primal", "linear", "rbf")

# Fixed seed for the bandwidth subsample so resolve_bandwidth is a pure
# function of the data matrix.
_BANDWIDTH_SEED = 0x5EED
_MAX_PAIRS = 1000
# Floats in one block of columns (or rows) that the squared distances form
# at a time (at least two columns), so that no temporary grows with the
# sample count.
_BLOCK_FLOATS = 1 << 16


@dataclass
class KernelSpec:
    """Kernel choice. Only rbf reads a bandwidth; None requests the median
    heuristic."""

    kind: str = "primal"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ConfigError(f"unknown kernel {self.kind!r}; choose from {KERNEL_KINDS}")
        if self.bandwidth is not None and self.kind != "rbf":
            raise ConfigError(f"the {self.kind} kernel takes no bandwidth; it is an rbf setting")
        if self.bandwidth is not None and not _usable_bandwidth(self.bandwidth):
            raise ConfigError(
                "bandwidth must be positive and finite, with 2 * bandwidth**2 a "
                "positive finite float"
            )


def _usable_bandwidth(sigma: float) -> bool:
    """Whether sigma > 0 and the rbf exponent's divisor 2 sigma^2 neither
    underflows to 0 nor overflows."""
    return sigma > 0 and 0 < 2.0 * sigma * sigma < math.inf


def gram(X: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Gram matrix of the column-sample matrix X (d x n) with itself, n x n.

    linear: X^T X. rbf: exp(-|x_i - x_j|^2 / (2 sigma^2)), sigma by the
    median heuristic when unset. The primal kind has no gram matrix.
    """
    X = np.asarray(X, dtype=float)
    if spec.kind == "primal":
        raise ConfigError("primal solvers use features directly; no gram matrix")
    if spec.kind == "linear":
        return X.T @ X
    sigma = spec.bandwidth if spec.bandwidth is not None else resolve_bandwidth(X)
    sq = _sq_dists(X)
    np.negative(sq, out=sq)
    sq /= 2.0 * sigma * sigma
    return np.exp(sq, out=sq)


def resolve_bandwidth(X: np.ndarray) -> float:
    """Median pairwise distance over a deterministic subsample of pairs.

    All n(n-1)/2 pairs are used when there are at most 1000; otherwise 1000
    index pairs are drawn from a fixed-seed generator (duplicates allowed,
    i == j skipped). Errors when 2 sigma^2 of the median is not a positive
    finite float: a zero median, or one so large that it overflows.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    if n < 2:
        raise NumericalError("bandwidth needs at least two samples")
    total = n * (n - 1) // 2
    if total <= _MAX_PAIRS:
        sq = _sq_dists(X)
        d = np.sqrt(np.maximum(sq[np.triu_indices(n, k=1)], 0.0))
    else:
        from .datagen import mix64  # shared portable bit mixer

        idx = np.arange(2 * _MAX_PAIRS, dtype=np.uint64)
        bits = mix64(np.uint64(_BANDWIDTH_SEED), idx)
        ij = (bits % np.uint64(n)).astype(np.intp).reshape(_MAX_PAIRS, 2)
        i, j = ij[ij[:, 0] != ij[:, 1]].T
        d = np.sqrt(
            _column_sq_norms(lambda cols: X[:, i[cols]] - X[:, j[cols]], i.size, X.shape[0])
        )
    med = float(np.median(d))
    if not _usable_bandwidth(med):
        raise NumericalError(
            f"bandwidth undefined: median pairwise distance {med:.3g} gives no "
            "positive finite 2 * sigma**2"
        )
    return med


def _sq_dists(X: np.ndarray) -> np.ndarray:
    """|x_i - x_j|^2 for every column pair of X, clipped at 0: xx_i + xx_j -
    2 X^T X, formed in X^T X's n x n buffer, the only array of its size."""
    xx = _column_sq_norms(lambda cols: X[:, cols], X.shape[1], X.shape[0])
    sq = X.T @ X
    # -2 P + (xx_i + xx_j) is (xx_i + xx_j) - 2 P bit for bit.
    sq *= -2.0
    for rows in _blocks(xx.size, xx.size):
        sq[rows] += xx[rows, None] + xx
    return np.maximum(sq, 0.0, out=sq)


def _column_sq_norms(columns, count: int, rows: int) -> np.ndarray:
    """np.sum(Y * Y, axis=0) for the rows x count matrix Y whose columns
    columns(s) returns for a slice s, a block of columns at a time. Each
    column's sum is the same bit for bit as over the whole of Y."""
    out = np.empty(count)
    for cols in _blocks(count, rows):
        Y = columns(cols)
        out[cols] = np.sum(Y * Y, axis=0)
    return out


def _blocks(count: int, size: int) -> list[slice]:
    """Consecutive slices of range(count), each of about _BLOCK_FLOATS / size
    entries and, unless count is 1, at least two: numpy sums a single
    C-order column pairwise, and a wider block's column row by row as it
    sums the whole matrix's."""
    parts = max(1, min(count // 2, -(-count * size // _BLOCK_FLOATS)))
    bounds = [count * k // parts for k in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
