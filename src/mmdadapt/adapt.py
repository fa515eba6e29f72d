"""Projection solvers: joint-probability (jpda/jp) and weighted (tca/jda/bda).

Every algorithm is the same alternating loop: from the current pseudo-labels
form G E, G times the class-indicator factor E (see mmd), and the
algorithm's 2C x 2C core W, solve the trailing eigenpairs of
(G E W E^T G^T + lam*I, G H G^T + ridge*I) for the projection A, re-label
the target by 1-NN in the projected space, for T passes. G is the raw
feature matrix (primal) or a gram matrix (kernelized). G, the source half
of G E, the eigenbasis factor of G H G^T + ridge*I, and the raw-space 1-NN
labels that start the loop depend on neither the labels nor lam: a
PreparedPair holds them, built once per pair, kernel and ridge and shared
by every fit on it, as is bda's label-free whole-domain distance once a
bda fit first needs it. A pass's core W reads only its input labels (a
given or frozen bda balance is fixed before the first pass), so under one
fit's settings a pass is a function of the pair, its input labels and the
number p of directions it starts with. The pair keeps the passes solved
under its latest fit's settings, by input labels and p, so a pass it
holds takes that pass's projection, labels and record instead of solving
again: a fixed point or a cycle within a fit, or a sweep's repeated seed
on one file pair across fits. The report is the same either way. Each
computed pass forms only the target half of G E and solves one standard
symmetric eigenproblem whitened by that factor, built from the m x 2C
factor G E without forming the m x m S (see eigensolve). Only W differs
between algorithms:

    jpda / jp   W = W_min - mu * W_max                 (mu = 0 for jp)
    tca         W = s s^T                              (T forced to 1)
    jda         W = s s^T + D W_min D
    bda         W = (1-mu_b) s s^T + mu_b D W_min D,   mu_b from bda_weight

fit runs all five; weighted_fit runs W = w1 s s^T + w2 D W_min D at any
fixed weights, and serves tca at (1, 0) and jda at (1, 1).

Per-iteration transfer and discriminative terms are always the projected
R_min / R_max traces (cores W_min / W_max), whatever W the algorithm
minimized, so convergence traces are comparable across algorithms.
"""

from __future__ import annotations

import copy
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache, cached_property

import numpy as np

from .classify import accuracy, knn1_predict
from .data import AdaptConfig, DomainPair, _memory_limit, one_hot_encode
from .errors import DataError, NumericalError
from .kernels import KernelSpec, gram, resolve_bandwidth
from .mmd import (
    bda_weight,
    cross_class_core,
    indicator_product,
    marginal_distance,
    projected_trace,
    same_class_core,
    weighted_core,
)
from .eigensolve import FactoredPencil, ScatterFactor, _fix_signs, default_ridge, solve_trailing

# A direction is usable when the ridge carries at most this share of its
# constraint mass; keeping only such directions bounds ||A^T B A - I|| by
# the same number.
_RIDGE_MASS_TOL = 1e-4


def centered_scatter(G: np.ndarray) -> np.ndarray:
    """G H G^T with H = I - (1/n) ones(n, n): the scatter of G's row-centred
    columns. G is centred in place; a caller that needs G afterwards passes
    a copy."""
    G -= G.mean(axis=1, keepdims=True)
    return G @ G.T


@dataclass
class PreparedPair(DomainPair):
    """A domain pair with the label-free work of its fits done once.

    Holds what every fit on the pair needs under one kernel and relative
    ridge, whatever the algorithm, mu or lam: the feature or gram matrix G
    of the stacked samples, the source half GE_source = G_s Ys / n_s of
    G E (m x C), the resolved bandwidth, the factor of B + ridge_abs*I,
    and the raw-space 1-NN labels of the target; bda_marginal is computed
    the first time a bda fit reads it. When m < n (a primal pair with fewer
    features than samples) it also keeps scatter, B = G H G^T itself,
    read-only, from which a pass forms B A in m^2 p flops instead of
    G (Z H)^T in m n p; other pairs keep None.
    kernel and ridge are the requested settings it was built for. A primal
    pair's G is its samples, held once: source.X and target.X are its
    halves. Fits share these arrays, so G and its halves are read-only.

    passes holds the solved passes of the fits with settings pass_scope
    (see _fit_loop), by input labels and p, so that a pass that repeats one
    of them, in one fit or the next with those settings, is taken instead of
    solved. A fit with other settings empties it first, so the table never
    outgrows the passes of one fit.
    """

    kernel: KernelSpec
    ridge: float
    G: np.ndarray
    GE_source: np.ndarray
    bandwidth: float | None
    factor: ScatterFactor
    raw_labels: np.ndarray
    scatter: np.ndarray | None
    passes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    pass_scope: str | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, pair: DomainPair, config: AdaptConfig) -> PreparedPair:
        """pair itself if it was prepared for config's kernel and ridge, else a new record."""
        kspec = config.kernel
        if isinstance(pair, cls) and pair.kernel == kspec and pair.ridge == config.ridge:
            return pair
        C = pair.source.class_count
        m = pair.source.dim if kspec.kind == "primal" else pair.n
        _check_class_arrays(pair.n, m, C)
        stacked = 0 if kspec.kind == "primal" else pair.source.dim * pair.n
        _check_pencil_arrays(m, pair.n, config.p, stacked)
        source, target = pair.source, pair.target
        G = pair.stacked()
        if kspec.kind == "primal":
            bandwidth = None
            # B centres the one stack of the samples in place; refilled
            # from the halves, bit for bit, it becomes G.
            B = centered_scatter(G)
            np.concatenate([source.X, target.X], axis=1, out=G)
        else:
            bandwidth = kspec.bandwidth
            if kspec.kind == "rbf" and bandwidth is None:
                bandwidth = resolve_bandwidth(G)
            # Rebinding G frees the stack once the gram exists.
            G = gram(G, KernelSpec(kind=kspec.kind, bandwidth=bandwidth))
            B = centered_scatter(G.copy(order="K"))
        if np.trace(B) == 0.0:
            what = "samples" if kspec.kind == "primal" else "gram columns of the samples"
            raise DataError(f"the {what} do not vary: no direction tells them apart")
        scatter = None
        if m < pair.n:
            # Copied before the factor overwrites B.
            scatter = B.copy()
            scatter.flags.writeable = False
        # Set before slicing: views taken earlier would stay writeable.
        G.flags.writeable = False
        if kspec.kind == "primal":
            # The halves view G, so a caller that drops its unprepared pair
            # holds the samples once.
            source = replace(source, X=G[:, : source.n])
            target = replace(target, X=G[:, source.n :])
        Ys = one_hot_encode(source.y, C)
        return cls(
            source=source,
            target=target,
            kernel=kspec,
            ridge=config.ridge,
            G=G,
            GE_source=indicator_product(G[:, : source.n], Ys),
            bandwidth=bandwidth,
            factor=ScatterFactor(B, default_ridge(B, config.ridge)),
            raw_labels=knn1_predict(source.X, source.y, target.X),
            scatter=scatter,
        )

    def __getstate__(self) -> dict:
        """A primal pair pickles its samples once, as G: its halves go
        without their X, which unpickling makes views of G again."""
        state = dict(self.__dict__)
        if self.kernel.kind == "primal":
            for name in ("source", "target"):
                state[name] = copy.copy(state[name])
                state[name].X = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Unpickled arrays are writeable: set the guard before the views.
        self.G.flags.writeable = False
        if self.scatter is not None:
            self.scatter.flags.writeable = False
        if self.kernel.kind == "primal":
            ns = self.source.y.size
            self.source.X, self.target.X = self.G[:, :ns], self.G[:, ns:]

    @cached_property
    def bda_marginal(self) -> float:
        """bda's whole-domain distance (mmd.marginal_distance), computed when first read."""
        return marginal_distance(self)


def _check_pencil_arrays(m: int, n: int, p: int, samples: int) -> int:
    """The bytes of the pair's m x m arrays alive at one time; a DataError
    when they cannot fit in the memory the process may take. G (m x n: the
    stacked features, or a kernel fit's n x n gram) lives as long as the
    pair, and so does the held scatter B when m < n (see PreparedPair). A
    kernel preparation holds the stacked samples (samples floats; 0 for a
    primal fit, whose G they are) only beside the gram: it frees them once
    the gram exists, and no fit copies them. Beside G, the later stages
    hold at most the following. Preparing holds B and one more m x n array:
    the caller's samples beside a primal fit's G, or the centred copy of a
    kernel fit's gram; then B is factored in place into the T that the
    pair keeps. A pass holds T and the fit's buffer M. Its solve adds at
    most 2 m^2: the full route's tridiagonal eigenvectors and their
    workspace, whose back-transform takes one panel of columns in place of
    the workspace; the eigenvectors stay until the pass has mapped its kept
    directions back. After the solve M stays, and the largest stage for
    q <= p kept directions is B A beside A and the q x n projected samples
    with a centred copy (more than the 1-NN takes), or the diagnostics'
    five m x q arrays. A rank-one (tca) pass counts M too: when dlasd4
    fails on a root, solve_trailing sends it to the full route, which forms
    M and the workspace."""
    g, q = m * n, min(p, m)
    held = m * m if m < n else 0
    after_solve = m * m + max(5 * m * q, 2 * m * q + 2 * q * n)
    stages = max(g + m * m, m * m + max(3 * m * m, after_solve))
    need = 8 * (g + held + max(samples, stages))
    limit = _memory_limit()
    if need > limit:
        raise DataError(
            f"a pencil of size m = {m} needs about {need / 2**30:.3g} GiB for its "
            f"m x m arrays, more than the {limit / 2**30:.3g} GiB this process can take"
        )
    return need


def _check_class_arrays(n: int, m: int, C: int) -> int:
    """The bytes of the arrays that grow with the class count C, or a
    DataError when they exceed the memory the process may take: the n x C
    one-hot labels, the m x 2C G E and its whitened products, and the 2C x 2C
    cores, W and their temporaries. A label of 10**6 makes C that large."""
    need = 8 * (2 * n * C + 4 * m * 2 * C + 6 * (2 * C) ** 2)
    limit = _memory_limit()
    if need > limit:
        raise DataError(
            f"{C} classes need about {need / 2**30:.3g} GiB for their class arrays, "
            f"more than the {limit / 2**30:.3g} GiB this process can take"
        )
    return need


@dataclass
class Projection:
    """A fitted map to the shared subspace: matrix is d x p for primal fits
    and n x p for kernelized ones, whose rows are the pair's samples."""

    matrix: np.ndarray


def _record_dict(value, include_timing: bool = True):
    """value as JSON-ready data: a report record becomes a dict of its fields
    in declaration order, an array a list, and lists and dicts are converted
    item by item. Fields marked timing hold wall-clock seconds, which no
    replay reproduces; they are left out unless include_timing.
    """
    if is_dataclass(value):
        return {
            f.name: _record_dict(getattr(value, f.name), include_timing)
            for f in fields(value)
            if include_timing or not f.metadata.get("timing")
        }
    if isinstance(value, dict):
        return {key: _record_dict(item, include_timing) for key, item in value.items()}
    if isinstance(value, list):
        return [_record_dict(item, include_timing) for item in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


_TIMING = {"timing": True}


@dataclass
class IterationRecord:
    """One pass of the loop.

    null_dropped counts the eigen-directions the ridge-mass filter skipped
    (as numerically null in B) before the last kept one. eigen_residual is
    the largest, over the kept pairs (eta, v), of
    ||S v - eta B_r v|| / (||S v|| + |eta| ||B_r v||), B_r = B + ridge*I,
    a relative backward error between 0 and 1. route names the eigensolve
    route whose pairs the pass kept (see eigensolve): "rank_one", "partial"
    or "full". repeat_of is the index at which the fit first met this
    pass's input labels and p, whose results this pass reuses, or None for
    that first pass, solved or taken from the fit before.
    """

    index: int
    pseudo_labels: np.ndarray
    accuracy: float | None
    transfer: float
    discriminative: float
    objective: float
    bda_mu: float | None
    constraint_gap: float
    label_flips: int
    null_dropped: int
    eigen_residual: float
    route: str
    repeat_of: int | None = None
    wall_time: float = field(default=0.0, metadata=_TIMING)

    to_dict = _record_dict


@dataclass
class FitReport:
    algorithm: str
    p_requested: int
    p_used: int
    rank_reduced: bool
    kernel: str
    bandwidth: float | None
    iterations: list[IterationRecord] = field(default_factory=list)
    final_accuracy: float | None = None
    total_wall: float = field(default=0.0, metadata=_TIMING)

    to_dict = _record_dict


@dataclass
class FitResult:
    projection: Projection
    pseudo_labels: np.ndarray
    report: FitReport


def fit(pair: DomainPair, config: AdaptConfig) -> FitResult:
    """Fit config.algorithm. jp and jpda minimize W_min - mu * W_max (mu = 0
    for jp); tca and jda are weighted_fit at weights (1, 0) and (1, 1); bda
    is balanced by config.bda_mu, else when frozen by the estimate from the
    raw 1-NN labels (the first pass's), else by each pass's own estimate."""
    if config.algorithm == "tca":
        return weighted_fit(pair, config, (1.0, 0.0))
    if config.algorithm == "jda":
        return weighted_fit(pair, config, (1.0, 1.0))
    # Prepared first, so that its class-count check runs before a core is built.
    pair = PreparedPair.of(pair, config)
    C = pair.source.class_count
    if config.algorithm != "bda":
        mu = 0.0 if config.algorithm == "jp" else config.mu
        W = same_class_core(C) - mu * cross_class_core(C)
        return _fit_loop(pair, config, repr(config), lambda Yt: (W, None))

    Ys = one_hot_encode(pair.source.y, C)
    fixed = config.bda_mu
    if fixed is None and config.freeze_bda_mu:
        fixed = bda_weight(pair, one_hot_encode(pair.raw_labels, C), d_m=pair.bda_marginal)

    def balanced(Yt):
        mu_b = bda_weight(pair, Yt, d_m=pair.bda_marginal) if fixed is None else fixed
        return weighted_core(Ys, Yt, 1.0 - mu_b, mu_b), mu_b

    return _fit_loop(pair, config, repr(config), balanced)


def weighted_fit(
    pair: DomainPair, config: AdaptConfig, weights: tuple[float, float]
) -> FitResult:
    """Marginal+conditional solver with fixed weights (w1, w2): W = w1 s s^T
    + w2 D W_min D. config.algorithm sets only the pass count (one for tca)."""
    pair = PreparedPair.of(pair, config)
    Ys = one_hot_encode(pair.source.y, pair.source.class_count)
    # The weights are not in the config, so they scope the passes too.
    scope = repr((config, weights))
    return _fit_loop(pair, config, scope, lambda Yt: (weighted_core(Ys, Yt, *weights), None))


def _fit_loop(pair: PreparedPair, config: AdaptConfig, scope: str, core) -> FitResult:
    """The alternating loop on a prepared pair; core(Yt) gives the W and
    bda balance (or None) of a pass with one-hot input labels Yt. scope
    names the settings that, with its input labels and p, determine a
    pass: fits with equal scopes share passes through the pair's table.
    """
    t_start = time.perf_counter()
    p_used = min(config.p, pair.G.shape[0])
    C = pair.source.class_count
    cores = same_class_core(C), cross_class_core(C)
    iters = 1 if config.algorithm == "tca" else config.iters
    pseudo = pair.raw_labels

    report = FitReport(
        algorithm=config.algorithm,
        p_requested=config.p,
        p_used=p_used,
        rank_reduced=p_used < config.p,
        kernel=pair.kernel.kind,
        bandwidth=pair.bandwidth,
    )

    if pair.pass_scope != scope:
        pair.pass_scope, pair.passes = scope, {}
    met = {}  # the index at which this fit first met each pass
    # The array in which every solved pass forms its whitened M, made by the
    # first that forms one: a fit whose passes are all rank-one makes none.
    m = pair.G.shape[0]
    buffer = cache(lambda: np.empty((m, m), order="F"))
    for it in range(iters):
        t_iter = time.perf_counter()
        Yt = one_hot_encode(pseudo, C)
        W, bda_mu = core(Yt)
        key = pseudo.tobytes(), p_used
        if key not in pair.passes:
            pair.passes[key] = _solve_pass(
                pair, config, Yt, W, bda_mu, cores, pseudo, p_used, it + 1, buffer
            )
        A, pseudo, stored = pair.passes[key]
        record = replace(stored, index=it + 1, pseudo_labels=pseudo.copy(), repeat_of=met.get(key))
        met.setdefault(key, it + 1)
        if A.shape[1] < p_used:
            p_used = A.shape[1]
            report.p_used = p_used
            report.rank_reduced = True
        if np.unique(pseudo).size == 1:
            warnings.warn(
                f"pseudo-labels collapsed to class {int(pseudo[0])} "
                f"at iteration {it + 1}"
            )
        record.wall_time = time.perf_counter() - t_iter
        report.iterations.append(record)

    report.final_accuracy = report.iterations[-1].accuracy
    report.total_wall = time.perf_counter() - t_start
    # The table keeps A and the labels for the next fit: the result gets
    # copies of its own.
    return FitResult(Projection(A.copy()), pseudo.copy(), report)


def _ridge_mass(U: np.ndarray, factor: ScatterFactor) -> np.ndarray:
    """Each whitened pair's constraint mass from the ridge, ridge ||T u||^2,
    as ridge sum_i u_i^2 / sigma_i: B's eigenvectors are orthonormal, so no
    pair is mapped back and no m x k temporary is formed."""
    return factor.ridge * np.einsum("ij,ij,i->j", U, U, factor.inv_sigma)


def _solve_pass(
    pair: PreparedPair,
    config: AdaptConfig,
    Yt: np.ndarray,
    W: np.ndarray,
    bda_mu: float | None,
    cores: tuple[np.ndarray, np.ndarray],
    pseudo: np.ndarray,
    p_used: int,
    index: int,
    buffer: Callable[[], np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray, IterationRecord]:
    """One solved pass from input labels pseudo (one-hot Yt) and its core W
    and bda balance: its projection, its 1-NN labels and its record, whose
    wall_time the loop sets. cores are same_class_core(C) and
    cross_class_core(C), which give the record's two traces. buffer is the
    fit's FactoredPencil.buffer (None: each solve forms a new M)."""
    G, factor, ridge_abs = pair.G, pair.factor, pair.factor.ridge
    ns = pair.source.n
    GE = np.hstack([pair.GE_source, indicator_product(G[:, ns:], Yt)])
    pencil = FactoredPencil(GE, W, factor, config.lam, buffer)
    m = pencil.size
    # Directions whose constraint mass is mostly ridge belong to the
    # numerical null space of B; keep the first p_used usable ones. No
    # unit pair's ridge mass exceeds the factor's bound, so when the bound
    # passes the filter every pair is usable and p_used pairs are asked
    # for; otherwise the trailing 2 * p_used pairs usually hold them, and
    # when that ask would take the full route, all m are asked for at once,
    # so that no pass reduces M twice. A solve that returned fewer than m,
    # too few of them usable, is followed by a solve of all m (on the
    # rank-one route, the first k roots again). The kept pairs are those of
    # a full solve, to rounding; on the full route, bit for bit.
    proven = factor.ridge_mass_bound <= _RIDGE_MASS_TOL
    first = p_used if proven else min(m, 2 * p_used)
    if not proven and pencil.route(first) == "full":
        first = m
    for k in (first, m):
        eig = solve_trailing(pencil, k)
        usable = np.flatnonzero(_ridge_mass(eig.U, factor) <= _RIDGE_MASS_TOL)
        if usable.size >= p_used or eig.values.size == m:
            break
    if usable.size == 0:
        raise NumericalError("no usable eigen-directions: the scatter matrix is degenerate")
    take = usable[:p_used]
    # Only the kept directions are mapped back from the whitened basis.
    A = factor.T @ eig.U[:, take]
    _fix_signs(A)
    values = eig.values[take]
    route = eig.route
    del eig  # frees a partial solve's eigenvectors before the 1-NN and the residuals

    Z = A.T @ G
    labels = knn1_predict(Z[:, :ns], pair.source.y, Z[:, ns:])
    if pair.scatter is not None:
        BA = pair.scatter @ A
    else:
        # B A = G H G^T A = G (Z H)^T, with Z = A^T G the projected samples.
        Z -= Z.mean(axis=1, keepdims=True)
        BA = G @ Z.T
    del Z  # frees the projected samples before the diagnostics
    gap = float(np.max(np.abs(A.T @ BA - np.eye(take.size))))
    P = A.T @ GE
    # A rank-one core's S A is g (g^T A) + lam A, with the pencil's g = GE u:
    # g takes the difference of the domain halves in the data, where W P^T
    # would take it after projecting, with about 20 times the rounding on
    # digits-shaped tca passes.
    g = pencil.rank_one
    if g is None:
        SA = GE @ (W @ P.T) + config.lam * A
    else:
        SA = np.outer(g, g @ A) + config.lam * A
    BA += ridge_abs * A
    scale = np.linalg.norm(SA, axis=0) + np.abs(values) * np.linalg.norm(BA, axis=0)
    resid = np.linalg.norm(SA - BA * values, axis=0)
    resid = np.divide(resid, scale, out=np.zeros_like(resid), where=scale > 0)
    truth = pair.target.y
    record = IterationRecord(
        index=index,
        pseudo_labels=labels,
        accuracy=accuracy(labels, truth) if truth is not None else None,
        transfer=projected_trace(P, cores[0]),
        discriminative=projected_trace(P, cores[1]),
        objective=float(np.sum(values)),
        bda_mu=bda_mu,
        constraint_gap=gap,
        label_flips=int(np.sum(labels != pseudo)),
        null_dropped=int(take[-1] + 1 - take.size),
        eigen_residual=float(np.max(resid)),
        route=route,
    )
    return A, labels, record
