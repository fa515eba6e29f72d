"""Trailing eigenpairs of a fit's pencil ((GE) W (GE)^T + lam*I, B + ridge*I).

The solvers need the p algebraically smallest generalized eigenvalues of
S v = eta B v with B positive semi-definite. A relative ridge keeps the
stabilized B positive definite at any data scale. Every pencil is solved in
B's eigenbasis: with B + ridge*I = U Sigma U^T and T = U Sigma^-1/2, so that
T^T (B + ridge*I) T = I, the pairs are those of the standard symmetric
matrix M = T^T S T. A solve returns them whitened, as the eigenvectors U of
M, and does not back-transform them: a caller maps only the columns it
keeps, by the factor's T. A FactoredPencil reuses a ScatterFactor formed
once per prepared pair, because B depends neither on the labels nor on
lam, and the ridge is the factor's. In that basis lam*I whitens to the
diagonal lam Sigma^-1, so M is built from the thin factor of S plus a
diagonal, without forming S or any other m x m temporary. A fit's pencils
form M in one buffer, made by the fit's first pass that forms M.

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
those p alone by LAPACK's dsyevr, which reduces M to tridiagonal form as
the full driver does, then finds just those p eigenvalues by bisection
(dstebz) and their eigenvectors by inverse iteration (dstein); it uses the
MRRR algorithm only for a whole spectrum. Asked for more, M takes the
full-spectrum route (dsyevd), which solves all m pairs whatever p is, its
U overwriting M. A solve returns every pair its route computed: p on the
rank-one and partial routes, all m on the full one, the rank-one route's
fallback included. The pairs of every route agree with the full solve's
to rounding. The fit loop asks for the directions it keeps when the factor
proves every pair usable, else for twice as many, and for all m only when
fewer came back and too few of them were usable (see adapt).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dlasd4

from .errors import NumericalError

# A FactoredPencil solve asked for p pairs of m uses the partial driver when
# _PARTIAL_RATIO * p <= m. Timed with 1 BLAS thread on whitened jpda
# matrices, the partial solve beats the full one up to about p = m/8 at
# m = 256, p = m/6 at m = 400 and beyond p = m/7.5 at m = 1000; the ratio
# takes the smallest of these.
_PARTIAL_RATIO = 8

_OVERFLOW = "the whitened eigenproblem overflowed; reduce mu or lambda"


class ScatterFactor:
    """B + ridge*I = U Sigma U^T, factored once per prepared pair.

    Keeps the ridge, T = U Sigma^-1/2, the basis that maps every solve's
    whitened pairs back, and 1/sigma, the whitened identity's diagonal: an
    iteration's S = (GE) W (GE)^T + lam*I whitens to F W F^T plus
    lam Sigma^-1, so one factor serves every lam (FactoredPencil.whitened).
    It overwrites the B it factors and keeps no B; a fit forms B A from G.
    ridge_mass_bound, ridge max(1/sigma), bounds the ridge's share
    ridge sum_i u_i^2 / sigma_i of the constraint mass of any unit whitened
    vector u.
    """

    def __init__(self, B: np.ndarray, ridge: float):
        # B, exactly symmetric, takes the ridge on its diagonal, and the MRRR
        # driver overwrites B^T, a C-order B's Fortran-order view, without a copy.
        np.fill_diagonal(B, B.diagonal() + ridge)
        try:
            sigma, T = scipy.linalg.eigh(B.T, driver="evr", overwrite_a=True)
        except ValueError as exc:  # scipy's finiteness check
            raise NumericalError("B overflowed: the features are too large in magnitude") from exc
        if sigma[0] <= 0:
            raise NumericalError("stabilized B is not positive definite; increase ridge")
        self.ridge = ridge
        self.inv_sigma = 1.0 / sigma
        T *= np.sqrt(self.inv_sigma)
        self.T = T
        self.ridge_mass_bound = ridge * float(self.inv_sigma.max())


@dataclass
class FactoredPencil:
    """The pencil ((GE) W (GE)^T + lam*I, B) on a shared ScatterFactor.

    GE (m x 2C) is G times the n x 2C class-indicator factor, G being the
    d x n feature matrix for primal solvers or the n x n gram matrix for
    kernelized ones; a fit forms it one domain half at a time, without E
    (see mmd.indicator_product). W is the algorithm's 2C x 2C core; B's
    eigenbasis and the ridge come from the factor. S is never formed.
    buffer, when given, returns the m x m Fortran-order array that whitened
    fills: a fit gives all its pencils one that makes the array on its
    first call.
    """

    GE: np.ndarray
    W: np.ndarray
    factor: ScatterFactor
    lam: float
    buffer: Callable[[], np.ndarray] | None = None

    @property
    def size(self) -> int:
        return self.GE.shape[0]

    @cached_property
    def rank_one(self) -> np.ndarray | None:
        """g with (GE) W (GE)^T = g g^T, when lam >= 0 and W = w v v^T
        exactly with w >= 0: g = GE u, u = sqrt(w) v, v = W[0] / W[0, 0]
        (u = 0 for W = 0). None for any other pencil."""
        W, w, u = self.W, self.W[0, 0], None
        if w > 0:
            v = W[0] / w
            if np.array_equal(W, w * np.outer(v, v)):
                u = math.sqrt(w) * v
        elif not W.any():
            u = np.zeros(W.shape[0])
        return None if u is None or self.lam < 0 else self.GE @ u

    def secular(self) -> tuple[np.ndarray, np.ndarray]:
        """(lam Sigma^-1, f) with M = diag(lam Sigma^-1) + f f^T,
        f = T^T g, for a rank-one core (rank_one is g)."""
        return self.lam * self.factor.inv_sigma, self.factor.T.T @ self.rank_one

    def whitened(self) -> np.ndarray:
        """M = F W F^T + lam Sigma^-1, F = T^T GE.

        M is Fortran-order, and the solve overwrites it: the array that
        buffer returns, else a new one. The lam term goes onto its diagonal
        in place.
        """
        F = self.factor.T.T @ self.GE
        m = self.size
        M = np.empty((m, m), order="F") if self.buffer is None else self.buffer()
        np.matmul(F @ self.W, F.T, out=M)
        M.reshape(-1, order="F")[:: m + 1] += self.lam * self.factor.inv_sigma
        return M


@dataclass
class EigenResult:
    """All the pairs the route computed, whitened: ascending eigenvalues,
    the orthonormal eigenvectors U of M = T^T S T in B's eigenbasis, and
    the route: "rank_one" or "partial" (the p pairs asked for) or "full"
    (all m). The pencil's eigenvectors are T U, T being the solved
    pencil's factor.T.

    On the full route U is M's array. When that is a fit's buffer (see
    FactoredPencil), U holds only until the fit's next solve fills it.
    """

    values: np.ndarray
    U: np.ndarray
    route: str


def default_ridge(B: np.ndarray, relative: float = 1e-6) -> float:
    """Absolute stabilizer of B at a relative scale: relative * trace(B) / m."""
    return relative * float(np.trace(B)) / B.shape[0]


def solve_trailing(pencil: FactoredPencil, p: int) -> EigenResult:
    """The algebraically smallest eigenpairs of (S, B + ridge*I), at least p,
    the ridge being the pencil factor's.

    Every pair the route computed is returned: the p smallest on the
    rank-one and partial routes, all m on the full route. They are returned
    whitened, as U (see EigenResult), and none is back-transformed:
    V = T U, with T the pencil's factor.T, satisfies
    V^T (B + ridge*I) V = I. On the full route U is the array whitened
    filled, so a fit's pencil leaves it in the fit's buffer. p must not
    exceed the pencil size (callers clamp and record). A rank-one pencil
    is solved by the secular equation, or by the full route if dlasd4
    fails on a root.
    """
    if p < 1 or p > pencil.size:
        raise NumericalError(f"p={p} outside 1..{pencil.size}")
    route = "full"
    if pencil.rank_one is not None:
        solved = _secular_pairs(*pencil.secular(), p)
        if solved is not None:
            route = "rank_one"
            values, U = solved
    elif _PARTIAL_RATIO * p <= pencil.size:
        route = "partial"
    if route != "rank_one":
        M = pencil.whitened()
        # Only M's lower triangle is read, and the full solve's U takes M's
        # array. All m columns of U are returned, so that no pair of the
        # full route depends on p.
        try:
            if route == "partial":
                values, U = scipy.linalg.eigh(
                    M, subset_by_index=[0, p - 1], driver="evr", overwrite_a=True
                )
            else:
                values, U = scipy.linalg.eigh(M, driver="evd", overwrite_a=True)
        except ValueError as exc:  # scipy's finiteness check
            raise NumericalError(_OVERFLOW) from exc
    return EigenResult(values=values, U=U, route=route)


def _fix_signs(vectors: np.ndarray) -> None:
    """Make each column's largest-magnitude entry positive, in place, the
    first such entry winning ties."""
    peak = vectors[np.abs(vectors).argmax(axis=0), np.arange(vectors.shape[1])]
    vectors *= np.where(peak < 0, -1.0, 1.0)


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
