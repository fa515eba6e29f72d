"""Trailing eigenpairs of a symmetric pencil (S, B + ridge*I).

The solvers need the p algebraically smallest generalized eigenvalues of
S v = eta B v with B positive semi-definite. A relative ridge keeps the
stabilized B positive definite at any data scale. The full spectrum is
computed and sliced so the leading p pairs do not depend on p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError

# Relative symmetry tolerance accepted by the pencil container.
_SYM_TOL = 1e-10


@dataclass
class SymmetricPencil:
    """Matrices (S, B) with S symmetric and B symmetric PSD (pre-ridge)."""

    S: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.S = np.asarray(self.S, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        m = self.S.shape[0]
        if self.S.shape != (m, m) or self.B.shape != (m, m):
            raise NumericalError("pencil matrices must be square and equal-sized")
        for name, M in (("S", self.S), ("B", self.B)):
            scale = np.max(np.abs(M)) or 1.0
            if np.max(np.abs(M - M.T)) > _SYM_TOL * scale:
                raise NumericalError(f"pencil matrix {name} is not symmetric")

    @property
    def size(self) -> int:
        return self.S.shape[0]


@dataclass
class EigenResult:
    """Ascending eigenvalues and B-orthonormal sign-fixed eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray
    ridge: float


def default_ridge(B: np.ndarray) -> float:
    """Relative stabilizer: 1e-6 * trace(B) / m."""
    B = np.asarray(B)
    return 1e-6 * float(np.trace(B)) / B.shape[0]


def assemble_pencil(
    GE: np.ndarray, W: np.ndarray, lam: float, B: np.ndarray
) -> SymmetricPencil:
    """Pair S = (GE) W (GE)^T + lam*I, symmetrized, with the scatter B.

    GE is G times the n x 2C class-indicator factor, G being the d x n
    feature matrix for primal solvers or the n x n gram matrix for
    kernelized ones; W is the algorithm's 2C x 2C discrepancy core. The
    regularizer identity takes GE's row count either way.
    """
    GE = np.asarray(GE, dtype=float)
    S = GE @ W @ GE.T + lam * np.eye(GE.shape[0])
    return SymmetricPencil(S=(S + S.T) / 2.0, B=B)


def solve_trailing(pencil: SymmetricPencil, p: int, ridge: float) -> EigenResult:
    """p algebraically smallest eigenpairs of (S, B + ridge*I).

    Eigenvectors satisfy V^T (B + ridge*I) V = I_p and each is sign-fixed so
    its largest-magnitude entry is positive. p must not exceed the pencil
    size (callers clamp and record).
    """
    if p < 1 or p > pencil.size:
        raise NumericalError(f"p={p} outside 1..{pencil.size}")
    if ridge < 0:
        raise NumericalError("ridge must be non-negative")
    Br = pencil.B + ridge * np.eye(pencil.size)
    try:
        values, vectors = scipy.linalg.eigh(pencil.S, Br)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericalError(
            "stabilized B is not positive definite; increase ridge"
        ) from exc
    values = values[:p]
    vectors = vectors[:, :p]
    # Deterministic sign: largest-magnitude entry of each vector positive,
    # first such entry winning ties.
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(p)]
    vectors *= np.where(lead < 0, -1.0, 1.0)
    return EigenResult(values=values, vectors=vectors, ridge=ridge)
