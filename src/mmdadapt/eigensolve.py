"""Trailing eigenpairs of a symmetric pencil (S, B + ridge*I).

The solvers need the p algebraically smallest generalized eigenvalues of
S v = eta B v with B positive semi-definite. A relative ridge keeps the
stabilized B positive definite at any data scale. Every pencil is solved in
B's eigenbasis: with B + ridge*I = U Sigma U^T and T = U Sigma^-1/2, so that
T^T (B + ridge*I) T = I, the pairs are those of the standard symmetric
matrix M = T^T S T, back-transformed by T. A dense SymmetricPencil is
whitened by its own factor on each solve; a fit's FactoredPencil reuses a
ScatterFactor formed once per prepared pair, because B depends neither on
the labels nor on lam. In that basis lam*I whitens to the diagonal
lam Sigma^-1, so M is built from the thin factor of S plus a diagonal,
without forming S or any other m x m temporary.

A dense pencil is always solved for its full spectrum, back-transformed and
then sliced, so its leading p pairs do not depend on p. A FactoredPencil
asked for few pairs (8p <= m) is solved for those p alone by LAPACK's MRRR
driver (dsyevr), which reduces M to tridiagonal form as the full driver
does but computes and back-transforms only p eigenvectors; otherwise it
takes the full-spectrum route too. The pairs agree with the full solve's to
rounding. The fit loop asks for twice the directions it keeps, or for all
m where the solve computes them anyway (computed_pairs), and then for all m
only if a partial solve held too few usable ones (see adapt).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError

# Relative symmetry tolerance accepted by the pencil container.
_SYM_TOL = 1e-10

# A FactoredPencil solve asked for p pairs of m uses the partial driver when
# _PARTIAL_RATIO * p <= m. Timed with 1 BLAS thread on whitened jpda
# matrices, the partial solve beats the full one up to about p = m/8 at
# m = 256, p = m/6 at m = 400 and beyond p = m/7.5 at m = 1000; the ratio
# takes the smallest of these.
_PARTIAL_RATIO = 8


def _whitening(B: np.ndarray, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """(T, 1/sigma) for B + ridge*I = U diag(sigma) U^T, with T = U diag(sigma)^-1/2."""
    # B, exactly symmetric, takes the ridge on its diagonal, and the MRRR
    # driver overwrites B^T, a C-order B's Fortran-order view, without a copy.
    np.fill_diagonal(B, B.diagonal() + ridge)
    try:
        sigma, T = scipy.linalg.eigh(B.T, driver="evr", overwrite_a=True)
    except ValueError as exc:  # scipy's finiteness check
        raise NumericalError("B overflowed: the features are too large in magnitude") from exc
    if sigma[0] <= 0:
        raise NumericalError("stabilized B is not positive definite; increase ridge")
    inv_sigma = 1.0 / sigma
    T *= np.sqrt(inv_sigma)
    return T, inv_sigma


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

    def whitened(self, ridge: float) -> tuple[np.ndarray, np.ndarray]:
        """(M, T) with M = T^T S T in Fortran order, T from its own B."""
        T, _ = _whitening(self.B.copy(), ridge)
        return np.asfortranarray(T.T @ self.S @ T), T


class ScatterFactor:
    """B + ridge*I = U Sigma U^T, factored once per prepared pair.

    Keeps T = U Sigma^-1/2 and 1/sigma, the whitened identity's diagonal:
    an iteration's S = (GE) W (GE)^T + lam*I whitens to F W F^T plus
    lam Sigma^-1, so one factor serves every lam (FactoredPencil.whitened).
    It overwrites the B it factors and keeps no B; a fit forms B A from G.
    """

    def __init__(self, B: np.ndarray, ridge: float):
        self.ridge = ridge
        self.T, self.inv_sigma = _whitening(B, ridge)


@dataclass
class FactoredPencil:
    """The pencil ((GE) W (GE)^T + lam*I, B) on a shared ScatterFactor.

    GE (m x 2C) is G times the n x 2C class-indicator factor, G being the
    d x n feature matrix for primal solvers or the n x n gram matrix for
    kernelized ones; a fit forms it one domain half at a time, without E
    (see mmd.indicator_product). W is the algorithm's 2C x 2C core; B's
    eigenbasis comes from the factor. S is never formed.
    """

    GE: np.ndarray
    W: np.ndarray
    factor: ScatterFactor
    lam: float

    @property
    def size(self) -> int:
        return self.GE.shape[0]

    def whitened(self, ridge: float) -> tuple[np.ndarray, np.ndarray]:
        """(M, T) with M = F W F^T + lam Sigma^-1, F = T^T GE.

        M is a new Fortran-order array, which the solve overwrites; the lam
        term goes onto its diagonal in place.
        """
        if ridge != self.factor.ridge:
            raise NumericalError(
                f"pencil was factored with ridge {self.factor.ridge}, not {ridge}"
            )
        F = self.factor.T.T @ self.GE
        M = np.empty((self.size, self.size), order="F")
        np.matmul(F @ self.W, F.T, out=M)
        M.reshape(-1, order="F")[:: self.size + 1] += self.lam * self.factor.inv_sigma
        return M, self.factor.T


@dataclass
class EigenResult:
    """Ascending eigenvalues and B-orthonormal sign-fixed eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray
    ridge: float


def default_ridge(B: np.ndarray, relative: float = 1e-6) -> float:
    """Absolute stabilizer of B at a relative scale: relative * trace(B) / m."""
    return relative * float(np.trace(B)) / B.shape[0]


def computed_pairs(pencil: SymmetricPencil | FactoredPencil, p: int) -> int:
    """The pairs solve_trailing(pencil, p, ...) computes: p on the partial
    route, all m on the full one, which it then slices to p."""
    if isinstance(pencil, FactoredPencil) and _PARTIAL_RATIO * p <= pencil.size:
        return p
    return pencil.size


def solve_trailing(
    pencil: SymmetricPencil | FactoredPencil, p: int, ridge: float
) -> EigenResult:
    """p algebraically smallest eigenpairs of (S, B + ridge*I).

    Eigenvectors satisfy V^T (B + ridge*I) V = I_p and each is sign-fixed so
    its largest-magnitude entry is positive. p must not exceed the pencil
    size (callers clamp and record).
    """
    if p < 1 or p > pencil.size:
        raise NumericalError(f"p={p} outside 1..{pencil.size}")
    if ridge < 0:
        raise NumericalError("ridge must be non-negative")
    M, T = pencil.whitened(ridge)
    # Only M's lower triangle is read, and the full solve's U takes M's
    # buffer. All m columns of U are back-transformed, because a product's
    # column can depend on how many columns it is given, and the full route
    # must not depend on p.
    partial = computed_pairs(pencil, p) < pencil.size
    try:
        if partial:
            values, U = scipy.linalg.eigh(
                M, subset_by_index=[0, p - 1], driver="evr", overwrite_a=True
            )
        else:
            values, U = scipy.linalg.eigh(M, driver="evd", overwrite_a=True)
    except ValueError as exc:  # scipy's finiteness check
        raise NumericalError("the whitened eigenproblem overflowed; reduce mu or lambda") from exc
    vectors = (T @ U)[:, :p]
    values = values[:p]
    # Deterministic sign: largest-magnitude entry of each vector positive,
    # first such entry winning ties. Read from each column's max and min, so
    # that no temporary is the size of the vectors (all m on the full route).
    high, low = vectors.max(axis=0), -vectors.min(axis=0)
    flip = low > high
    tied = np.flatnonzero(low == high)
    flip[tied] = [np.argmin(vectors[:, j]) < np.argmax(vectors[:, j]) for j in tied]
    vectors *= np.where(flip, -1.0, 1.0)
    return EigenResult(values=values, vectors=vectors, ridge=ridge)
