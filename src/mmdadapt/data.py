"""Core containers for labeled samples, domain pairs and solver settings.

Feature matrices are d x n with one column per sample. Labels are integers
1..C. One-hot matrices are n x C with exact 0/1 entries, one 1 per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas

try:
    import resource
except ImportError:  # Windows has no resource limits to read
    resource = None

from .errors import ConfigError, DataError
from .kernels import KernelSpec

ALGORITHMS = ("tca", "jda", "bda", "jp", "jpda")


@dataclass
class LabeledDataset:
    """A feature matrix (d x n, column per sample) with labels in 1..C.

    y may be None for a target domain whose labels are unknown; such labels
    are only ever used for scoring.
    """

    X: np.ndarray
    y: np.ndarray | None
    class_count: int

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2:
            raise DataError("feature matrix must be 2-d (features x samples)")
        if self.X.shape[1] == 0:
            raise DataError("dataset has no samples")
        # min and max propagate NaN and reach any infinity, with no n x d
        # temporary; initial covers a matrix of no features.
        if not (np.isfinite(self.X.min(initial=0.0)) and np.isfinite(self.X.max(initial=0.0))):
            bad = int(np.flatnonzero(~np.isfinite(self.X).all(axis=0))[0])
            raise DataError(f"non-finite feature value in sample {bad}")
        if self.class_count < 2:
            raise DataError("need at least two classes")
        if self.y is None:
            return
        self.y = np.asarray(self.y)
        if self.y.shape != (self.X.shape[1],):
            raise DataError("labels must be a vector with one entry per sample")
        if not np.issubdtype(self.y.dtype, np.integer):
            yi = self.y.astype(int)
            if not np.array_equal(yi, self.y):
                raise DataError("labels must be integers")
            self.y = yi
        _check_label_range(self.y, self.class_count)

    @property
    def dim(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]


@dataclass
class DomainPair:
    """Source and target datasets sharing feature space and label set."""

    source: LabeledDataset
    target: LabeledDataset

    def __post_init__(self):
        if self.source.y is None:
            raise DataError("source domain must be labeled")
        if self.source.dim != self.target.dim:
            raise DataError(
                f"feature dimension mismatch: source {self.source.dim}, "
                f"target {self.target.dim}"
            )
        if self.source.class_count != self.target.class_count:
            raise DataError(
                f"class count mismatch: source {self.source.class_count}, "
                f"target {self.target.class_count}"
            )

    @property
    def n(self) -> int:
        return self.source.n + self.target.n

    def stacked(self) -> np.ndarray:
        """All samples as one d x (n_s + n_t) matrix, source columns first."""
        return np.hstack([self.source.X, self.target.X])


def validate_pair(source: LabeledDataset, target) -> DomainPair:
    """Build a DomainPair from a source dataset and target features.

    target may be a bare feature matrix (loaded as unlabeled) or a full
    LabeledDataset; either way the pair invariants are enforced.
    """
    if not isinstance(target, LabeledDataset):
        target = LabeledDataset(
            X=np.asarray(target, dtype=float), y=None, class_count=source.class_count
        )
    return DomainPair(source=source, target=target)


def one_hot_encode(y: np.ndarray, class_count: int) -> np.ndarray:
    """Encode integer labels 1..C as an n x C exact 0/1 matrix."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise DataError("label vector must be 1-d")
    labels = y.astype(int)
    _check_label_range(labels, class_count)
    out = np.zeros((y.shape[0], class_count))
    out[np.arange(y.shape[0]), labels - 1] = 1.0
    return out


def _check_label_range(y: np.ndarray, class_count: int) -> None:
    """Raise a DataError naming the first label outside 1..class_count."""
    bad = np.flatnonzero((y < 1) | (y > class_count))
    if bad.size:
        i = int(bad[0])
        raise DataError(f"label {int(y[i])} out of range 1..{class_count} at sample {i}")


def class_counts(Y: np.ndarray) -> np.ndarray:
    """Column sums of a one-hot matrix: samples per class, length C."""
    return np.asarray(Y).sum(axis=0)


@dataclass
class AdaptConfig:
    """Solver settings shared by all algorithms.

    p is the subspace dimension requested; the solver clamps it to the
    pencil size and records the reduction. iters is the pseudo-label
    refinement count T (forced to 1 for tca); the kernel is primal unless
    set. ridge is relative: B gets the stabilizer ridge * trace(B) / m.
    """

    algorithm: str = "jpda"
    p: int = 100
    iters: int = 10
    mu: float = 0.1
    lam: float = 0.1
    kernel: KernelSpec = field(default_factory=KernelSpec)
    ridge: float = 1e-6
    freeze_bda_mu: bool = False
    bda_mu: float | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
            )
        if self.p < 1:
            raise ConfigError("p must be at least 1")
        if self.iters < 1:
            raise ConfigError("iters must be at least 1")
        if not 0 <= self.mu < math.inf:
            raise ConfigError("mu must be non-negative and finite")
        if not 0 < self.lam < math.inf:
            raise ConfigError("lambda must be positive and finite")
        if not 0 <= self.ridge < math.inf:
            raise ConfigError("ridge must be non-negative and finite")
        if self.bda_mu is not None and not 0.0 <= self.bda_mu <= 1.0:
            raise ConfigError("bda_mu must lie in [0, 1]")


def _memory_limit() -> float:
    """Bytes the process may take: the smaller of what its address-space
    limit leaves beside what it already maps, BLAS's buffer included, and
    the system's MemAvailable, each when known."""
    limit = math.inf
    if resource is not None:
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            limit = float(soft)
            # numpy and scipy each bundle an OpenBLAS, which maps its 32 MiB
            # work buffer at its first product of 128 x 128 or more: one such
            # product through each lets statm count both.
            a = np.ones((128, 128))
            a @ a
            blas.dgemm(1.0, a, a)
            try:
                with open("/proc/self/statm", encoding="ascii") as fh:
                    limit -= int(fh.read().split()[0]) * resource.getpagesize()
            except OSError:
                pass
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return min(limit, int(line.split()[1]) * 1024.0)
    except OSError:
        pass
    return limit
