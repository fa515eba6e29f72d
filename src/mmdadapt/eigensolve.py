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

A FactoredPencil takes one of three routes. When its core is exactly rank
one, W = w v v^T with w >= 0 (tca; bda with balance 0), M is the diagonal
lam Sigma^-1 plus f f^T with f = sqrt(w) T^T (GE v), and its p smallest
pairs are the p smallest roots of the secular equation (Golub, 1973; Bunch,
Nielsen and Sorensen, 1978): LAPACK's dlasd4 gives each root and its
differences to the poles, one Newton step refines them, and the root's
eigenvector follows in O(m). Zero components of f and near-equal poles are
deflated first, as LAPACK's divide-and-conquer driver does, so no m x m
matrix is formed or reduced.
Otherwise M is formed: asked for few pairs (8p <= m), it is solved for
those p alone by LAPACK's MRRR driver (dsyevr), which reduces M to
tridiagonal form as the full driver does but computes and back-transforms
only p eigenvectors; asked for more, it takes the full-spectrum route,
back-transformed and then sliced, so that its leading p pairs do not depend
on p. A dense pencil always takes the full route. The pairs of every route
agree with the full solve's to rounding. The fit loop asks for twice the
directions it keeps, or for all m where the solve computes them anyway
(computed_pairs), and then for all m only if that solve held too few usable
ones (see adapt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dlasd4

from .errors import NumericalError

# Relative symmetry tolerance accepted by the pencil container.
_SYM_TOL = 1e-10

# A FactoredPencil solve asked for p pairs of m uses the partial driver when
# _PARTIAL_RATIO * p <= m. Timed with 1 BLAS thread on whitened jpda
# matrices, the partial solve beats the full one up to about p = m/8 at
# m = 256, p = m/6 at m = 400 and beyond p = m/7.5 at m = 1000; the ratio
# takes the smallest of these.
_PARTIAL_RATIO = 8

_OVERFLOW = "the whitened eigenproblem overflowed; reduce mu or lambda"


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


def rank_one_root(W: np.ndarray) -> np.ndarray | None:
    """u with W = u u^T, when W = w v v^T exactly with w >= 0:
    u = sqrt(w) v, v = W[0] / W[0, 0] (u = 0 for W = 0). None otherwise."""
    w = W[0, 0]
    if w > 0:
        v = W[0] / w
        if np.array_equal(W, w * np.outer(v, v)):
            return math.sqrt(w) * v
    elif not W.any():
        return np.zeros(W.shape[0])
    return None


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

    @cached_property
    def rank_one(self) -> np.ndarray | None:
        """g with (GE) W (GE)^T = g g^T, when lam >= 0 and W is rank one
        (rank_one_root): g = GE u. None for any other pencil."""
        u = rank_one_root(self.W)
        return None if u is None or self.lam < 0 else self.GE @ u

    def _basis(self, ridge: float) -> np.ndarray:
        if ridge != self.factor.ridge:
            raise NumericalError(
                f"pencil was factored with ridge {self.factor.ridge}, not {ridge}"
            )
        return self.factor.T

    def secular(self, ridge: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lam Sigma^-1, f, T) with M = diag(lam Sigma^-1) + f f^T,
        f = T^T g, for a rank-one core (rank_one is g)."""
        T = self._basis(ridge)
        return self.lam * self.factor.inv_sigma, T.T @ self.rank_one, T

    def whitened(self, ridge: float) -> tuple[np.ndarray, np.ndarray]:
        """(M, T) with M = F W F^T + lam Sigma^-1, F = T^T GE.

        M is a new Fortran-order array, which the solve overwrites; the lam
        term goes onto its diagonal in place.
        """
        F = self._basis(ridge).T @ self.GE
        M = np.empty((self.size, self.size), order="F")
        np.matmul(F @ self.W, F.T, out=M)
        M.reshape(-1, order="F")[:: self.size + 1] += self.lam * self.factor.inv_sigma
        return M, self.factor.T


@dataclass
class EigenResult:
    """Ascending eigenvalues and B-orthonormal sign-fixed eigenvectors, and
    the route that solved them: "rank_one", "partial" or "full"."""

    values: np.ndarray
    vectors: np.ndarray
    ridge: float
    route: str


def default_ridge(B: np.ndarray, relative: float = 1e-6) -> float:
    """Absolute stabilizer of B at a relative scale: relative * trace(B) / m."""
    return relative * float(np.trace(B)) / B.shape[0]


def _route(pencil: SymmetricPencil | FactoredPencil, p: int) -> str:
    if isinstance(pencil, FactoredPencil):
        if pencil.rank_one is not None:
            return "rank_one"
        if _PARTIAL_RATIO * p <= pencil.size:
            return "partial"
    return "full"


def computed_pairs(pencil: SymmetricPencil | FactoredPencil, p: int) -> int:
    """The pairs solve_trailing(pencil, p, ...) computes: p on the rank-one
    and partial routes, all m on the full one, which it then slices to p."""
    return pencil.size if _route(pencil, p) == "full" else p


def solve_trailing(
    pencil: SymmetricPencil | FactoredPencil, p: int, ridge: float
) -> EigenResult:
    """p algebraically smallest eigenpairs of (S, B + ridge*I).

    Eigenvectors satisfy V^T (B + ridge*I) V = I_p and each is sign-fixed so
    its largest-magnitude entry is positive. p must not exceed the pencil
    size (callers clamp and record). A rank-one pencil is solved by the
    secular equation, or by the full route if dlasd4 fails on a root.
    """
    if p < 1 or p > pencil.size:
        raise NumericalError(f"p={p} outside 1..{pencil.size}")
    if ridge < 0:
        raise NumericalError("ridge must be non-negative")
    route = _route(pencil, p)
    if route == "rank_one":
        poles, f, T = pencil.secular(ridge)
        solved = _secular_pairs(poles, f, p)
        if solved is None:
            route = "full"
        else:
            values, U = solved
    if route != "rank_one":
        M, T = pencil.whitened(ridge)
        # Only M's lower triangle is read, and the full solve's U takes M's
        # buffer. All m columns of U are back-transformed, because a
        # product's column can depend on how many columns it is given, and
        # the full route must not depend on p.
        try:
            if route == "partial":
                values, U = scipy.linalg.eigh(
                    M, subset_by_index=[0, p - 1], driver="evr", overwrite_a=True
                )
            else:
                values, U = scipy.linalg.eigh(M, driver="evd", overwrite_a=True)
        except ValueError as exc:  # scipy's finiteness check
            raise NumericalError(_OVERFLOW) from exc
    vectors = (T @ U)[:, :p]
    _fix_signs(vectors)
    return EigenResult(values=values[:p], vectors=vectors, ridge=ridge, route=route)


def _fix_signs(vectors: np.ndarray) -> None:
    """Make each column's largest-magnitude entry positive, in place, the
    first such entry winning ties. Read from each column's max and min, so
    that no temporary is the size of the vectors (all m on the full route)."""
    high, low = vectors.max(axis=0), -vectors.min(axis=0)
    flip = low > high
    tied = np.flatnonzero(low == high)
    flip[tied] = [np.argmin(vectors[:, j]) < np.argmax(vectors[:, j]) for j in tied]
    vectors *= np.where(flip, -1.0, 1.0)


def _secular_pairs(
    poles: np.ndarray, f: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The p smallest eigenpairs (values, U) of diag(poles) + f f^T, poles
    >= 0, with U's m x p columns orthonormal; None if dlasd4 fails.

    With rho = ||f||^2 and z = f / ||f||, the problem deflates as LAPACK's
    dlaed2 deflates it, at its tolerance 8 eps max(poles, rho): a pole whose
    rho |z_j| is below it is an eigenpair (pole, e_j) as it stands, and of
    two neighbouring poles whose coupling after a Givens rotation is below
    it, the rotation zeroes one z component, making that pole an eigenpair.
    Each root of the rest lies above its pole; dlasd4 solves the secular
    equation for the square roots of the poles and returns each root's
    differences to them, so each eigenvector (poles - eta)^-1 z is formed
    without cancellation. Only the p smallest roots are solved: O(p m).
    """
    m = poles.size
    order = np.argsort(poles, kind="stable")
    d = poles[order]
    z = f[order]
    rho = float(z @ z)
    if not math.isfinite(rho + d[-1]):
        raise NumericalError(_OVERFLOW)
    tol = 8.0 * np.finfo(float).eps * max(float(d[-1]), rho)
    if rho > 0:
        z /= math.sqrt(rho)
    # Each merge changes the next pair's z and pole, so the poles go one by
    # one, as Python floats.
    zs, ds = z.tolist(), d.tolist()
    kept, rotations, prev = [], [], None
    for j in np.flatnonzero(rho * np.abs(z) > tol).tolist():
        if prev is not None:
            tau = math.hypot(zs[j], zs[prev])
            c, s = zs[j] / tau, -zs[prev] / tau
            if abs((ds[j] - ds[prev]) * c * s) <= tol:
                zs[prev], zs[j] = 0.0, tau
                ds[prev], ds[j] = ds[prev] * c * c + ds[j] * s * s, ds[prev] * s * s + ds[j] * c * c
                rotations.append((order[prev], order[j], c, s))
                prev = j
                continue
            kept.append(prev)
        prev = j
    if prev is not None:
        kept.append(prev)
    z[:], d[:] = zs, ds
    kept = np.array(kept, dtype=np.intp)
    zk = z[kept]
    norm = float(np.linalg.norm(zk))
    zk /= norm or 1.0
    rho_k = rho * norm * norm
    roots = min(p, kept.size)
    values = np.empty(roots)
    V = np.empty((kept.size, roots))
    sqrt_poles = np.sqrt(d[kept])
    for i in range(roots):
        gap, sigma, total, info = dlasd4(i, sqrt_poles, zk, rho_k)
        if info:
            return None
        values[i] = sigma * sigma
        # poles - eta; for a single pole dlasd4 returns ones instead
        V[:, i] = gap * total if kept.size > 1 else d[kept] - values[i]
    # dlasd4 stops once the secular function 1 + rho_k sum z^2 / (poles - eta)
    # is below a bound scaled by its terms' magnitudes. One more Newton step
    # on it, unless that would reach a pole, takes the whitened residual
    # from a few eps ||M|| to a tenth of the dense solve's.
    terms = zk[:, None] ** 2 / V
    secular = 1.0 + rho_k * terms.sum(axis=0)
    terms /= V
    step = secular / (rho_k * terms.sum(axis=0))
    del terms
    step[np.abs(step) >= np.abs(V).min(axis=0, initial=np.inf)] = 0.0
    values -= step
    V += step
    np.divide(zk[:, None], V, out=V)
    V /= np.linalg.norm(V, axis=0)
    deflated = np.ones(m, dtype=bool)
    deflated[kept] = False
    deflated = np.flatnonzero(deflated)
    values = np.concatenate([values, d[deflated]])
    take = np.argsort(values, kind="stable")[:p]
    U = np.zeros((m, p))
    root = np.flatnonzero(take < roots)
    U[np.ix_(order[kept], root)] = V[:, take[root]]
    rest = np.flatnonzero(take >= roots)
    U[order[deflated[take[rest] - roots]], rest] = 1.0
    # The deflating rotations map these coordinates back to the poles' own.
    for i, j, c, s in reversed(rotations):
        U[i], U[j] = c * U[i] - s * U[j], s * U[i] + c * U[j]
    return values[take], U
