"""Gram matrix construction for the kernelized solvers."""

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


@dataclass
class KernelSpec:
    """Kernel choice. bandwidth=None requests the median heuristic (rbf)."""

    kind: str = "primal"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ConfigError(f"unknown kernel {self.kind!r}; choose from {KERNEL_KINDS}")
        if self.bandwidth is not None and not _usable_bandwidth(self.bandwidth):
            raise ConfigError(
                "bandwidth must be positive and finite, with 2 * bandwidth**2 a "
                "positive finite float"
            )


def _usable_bandwidth(sigma: float) -> bool:
    """Whether sigma > 0 and the rbf exponent's divisor 2 sigma^2 neither
    underflows to 0 nor overflows."""
    return sigma > 0 and 0 < 2.0 * sigma * sigma < math.inf


def gram(X: np.ndarray, Z: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Gram matrix between column-sample matrices X (d x n) and Z (d x m).

    linear: X^T Z. rbf: exp(-|x - z|^2 / (2 sigma^2)) with sigma resolved by
    the median heuristic when unset. The primal kind has no gram matrix.
    """
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.shape[0] != Z.shape[0]:
        raise ConfigError("gram inputs must share the feature dimension")
    if spec.kind == "primal":
        raise ConfigError("primal solvers use features directly; no gram matrix")
    if spec.kind == "linear":
        return X.T @ Z
    sigma = spec.bandwidth if spec.bandwidth is not None else resolve_bandwidth(X)
    sq = _sq_dists(X, Z)
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
        sq = _sq_dists(X, X)
        d = np.sqrt(np.maximum(sq[np.triu_indices(n, k=1)], 0.0))
    else:
        from .datagen import mix64  # shared portable bit mixer

        idx = np.arange(2 * _MAX_PAIRS, dtype=np.uint64)
        bits = mix64(np.uint64(_BANDWIDTH_SEED), idx)
        ij = (bits % np.uint64(n)).astype(np.intp).reshape(_MAX_PAIRS, 2)
        keep = ij[:, 0] != ij[:, 1]
        diff = X[:, ij[keep, 0]] - X[:, ij[keep, 1]]
        d = np.sqrt(np.sum(diff * diff, axis=0))
    med = float(np.median(d))
    if not _usable_bandwidth(med):
        raise NumericalError(
            f"bandwidth undefined: median pairwise distance {med:.3g} gives no "
            "positive finite 2 * sigma**2"
        )
    return med


def _sq_dists(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """|x - z|^2 for every column pair, clipped at 0: xx + zz - 2 X^T Z, with
    X^T Z the one n x m buffer beside the result."""
    sq = np.sum(X * X, axis=0)[:, None] + np.sum(Z * Z, axis=0)[None, :]
    P = X.T @ Z
    P *= 2.0
    sq -= P
    return np.maximum(sq, 0.0, out=sq)
