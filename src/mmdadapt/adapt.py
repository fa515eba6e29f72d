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
bda fit first needs it. A pass is a function of the pair, W, bda's
balance, lam, the number p of directions it starts with and its input
labels, its pass key. The pair keeps the passes of its latest fit by that
key, so a pass whose key it holds takes that pass's projection, labels and
record instead of solving again: a fixed point or a cycle within a fit, or
a sweep's repeated seed on one file pair across fits. The report is the
same either way. Each computed pass forms
only the target half of G E and solves one standard symmetric
eigenproblem whitened by that factor, built from the m x 2C factor G E
without forming the m x m S (see eigensolve). Only W differs between
algorithms:

    jpda / jp   W = W_min - mu * W_max                 (mu = 0 for jp)
    tca         W = s s^T                              (T forced to 1)
    jda         W = s s^T + D W_min D
    bda         W = (1-mu_b) s s^T + mu_b D W_min D,   mu_b from bda_weight

Per-iteration transfer and discriminative terms are always the projected
R_min / R_max traces (cores W_min / W_max), whatever W the algorithm
minimized, so convergence traces are comparable across algorithms.
"""

from __future__ import annotations

import hashlib
import time
import warnings
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property

import numpy as np

from .classify import accuracy, knn1_predict
from .data import AdaptConfig, DomainPair, _memory_limit, one_hot_encode
from .errors import ConfigError, DataError, NumericalError
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
from .eigensolve import (
    FactoredPencil,
    ScatterFactor,
    computed_pairs,
    default_ridge,
    rank_one_root,
    solve_trailing,
)

# A direction is usable when the ridge carries at most this share of its
# constraint mass; keeping only such directions bounds ||A^T B A - I|| by
# the same number.
_RIDGE_MASS_TOL = 1e-4


def centered_scatter(G: np.ndarray) -> np.ndarray:
    """G H G^T with H = I - (1/n) ones(n, n): the scatter of G's row-centred columns."""
    Gc = G - G.mean(axis=1, keepdims=True)
    return Gc @ Gc.T


@dataclass
class PreparedPair(DomainPair):
    """A domain pair with the label-free work of its fits done once.

    Holds what every fit on the pair needs under one kernel and relative
    ridge, whatever the algorithm, mu or lam: the feature or gram matrix G
    of the stacked samples, the source half GE_source = G_s Ys / n_s of
    G E (m x C), the resolved bandwidth, the factor of B + ridge_abs*I, the
    one form it keeps of B = G H G^T, and the raw-space 1-NN labels of the
    target; bda_marginal is computed the first time a bda fit reads it.
    kernel and ridge are the requested settings it was built for. Fits
    share these arrays, so they must not be mutated.

    passes holds the passes of the latest fit on the pair, by pass key (see
    _pass_key), so that a pass that repeats one of them, in that fit or the
    next, is taken instead of solved. A fit takes the table over when it
    starts and files its own passes in it as it runs, so the table never
    outgrows one fit.
    """

    kernel: KernelSpec
    ridge: float
    G: np.ndarray
    GE_source: np.ndarray
    bandwidth: float | None
    factor: ScatterFactor
    raw_labels: np.ndarray
    passes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, pair: DomainPair, config: AdaptConfig) -> PreparedPair:
        """pair itself if it was prepared for config's kernel and ridge, else a new record."""
        kspec = config.kernel or KernelSpec("primal")
        if isinstance(pair, cls) and pair.kernel == kspec and pair.ridge == config.ridge:
            return pair
        C = pair.source.class_count
        m = pair.source.dim if kspec.kind == "primal" else pair.n
        _check_class_arrays(pair.n, m, C)
        stacked = 0 if kspec.kind == "primal" else pair.source.dim * pair.n
        _check_pencil_arrays(m, pair.n, config.p, stacked)
        X = pair.stacked()
        if kspec.kind == "primal":
            G = X
            bandwidth = None
        else:
            bandwidth = kspec.bandwidth
            if kspec.kind == "rbf" and bandwidth is None:
                bandwidth = resolve_bandwidth(X)
            G = gram(X, X, KernelSpec(kind=kspec.kind, bandwidth=bandwidth))
        B = centered_scatter(G)
        if np.trace(B) == 0.0:
            what = "samples" if kspec.kind == "primal" else "gram columns of the samples"
            raise DataError(f"the {what} do not vary: no direction tells them apart")
        Ys = one_hot_encode(pair.source.y, C)
        return cls(
            source=pair.source,
            target=pair.target,
            kernel=kspec,
            ridge=config.ridge,
            G=G,
            GE_source=indicator_product(G[:, : pair.source.n], Ys),
            bandwidth=bandwidth,
            factor=ScatterFactor(B, default_ridge(B, config.ridge)),
            raw_labels=knn1_predict(pair.source.X, pair.source.y, pair.target.X),
        )

    @cached_property
    def bda_marginal(self) -> float:
        """bda's whole-domain distance (mmd.marginal_distance), computed when first read."""
        return marginal_distance(self)


def _check_pencil_arrays(m: int, n: int, p: int, samples: int) -> int:
    """The bytes of the pair's m x m arrays alive at one time; a DataError
    when they cannot fit in the memory the process may take. G (m x n: the
    stacked features, or a kernel fit's n x n gram) lives as long as the
    pair. A kernel fit also holds its samples (samples floats; 0 for a
    primal fit, whose G they are) while preparing, then as anchors. Beside
    these, preparing holds the centering temporary and B, then B factored
    in place into the T that the pair keeps. A pass holds T and its largest
    stage for q <= p kept directions: the solve's M and 2 m^2 evd workspace,
    B A beside A and the q x n projected samples with a centred copy (more
    than the 1-NN takes), or the diagnostics' five m x q arrays."""
    g, q = m * n, min(p, m)
    stages = max(g + m * m, m * m + max(3 * m * m, 5 * m * q, 2 * m * q + 2 * q * n))
    need = 8 * (g + samples + stages)
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
    """A fitted map to the shared subspace.

    matrix is d x p for primal fits and n x p for kernelized ones, in which
    case anchors holds the training columns the gram rows refer to.
    """

    matrix: np.ndarray
    kind: str
    bandwidth: float | None = None
    anchors: np.ndarray | None = None


def transform(proj: Projection, X: np.ndarray) -> np.ndarray:
    """Project new column-sample data into the fitted subspace."""
    X = np.asarray(X, dtype=float)
    if proj.kind == "primal":
        return proj.matrix.T @ X
    spec = KernelSpec(kind=proj.kind, bandwidth=proj.bandwidth)
    return proj.matrix.T @ gram(proj.anchors, X, spec)


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
    or "full". repeat_of is the index of the earlier pass of the fit with
    the same pass key, whose results this pass reuses, or None for a pass
    that was solved or taken from the fit before.
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
    """Dispatch on config.algorithm."""
    if config.algorithm in ("jp", "jpda"):
        return jpda_fit(pair, config)
    return weighted_fit(pair, config)


def jpda_fit(pair: DomainPair, config: AdaptConfig) -> FitResult:
    """Joint-probability solver; jp is the mu = 0 special case."""
    mu = 0.0 if config.algorithm == "jp" else config.mu
    # Prepared first, so that its class-count check runs before W is built.
    pair = PreparedPair.of(pair, config)
    C = pair.source.class_count
    W = same_class_core(C) - mu * cross_class_core(C)
    return _fit_loop(pair, config, lambda pair, Ys, Yt: (W, None))


def weighted_fit(
    pair: DomainPair,
    config: AdaptConfig,
    weights: tuple[float, float] | None = None,
) -> FitResult:
    """Marginal+conditional solver: tca (1,0), jda (1,1), bda balanced."""
    if weights is None:
        if config.algorithm == "tca":
            weights = (1.0, 0.0)
        elif config.algorithm == "jda":
            weights = (1.0, 1.0)
        elif config.algorithm != "bda":
            raise ConfigError(
                f"weighted_fit needs explicit weights for algorithm {config.algorithm!r}"
            )
    if weights is not None:
        w1, w2 = weights
        return _fit_loop(
            pair, config, lambda pair, Ys, Yt: (weighted_core(Ys, Yt, w1, w2), None)
        )

    frozen_mu = config.bda_mu

    def balanced(pair, Ys, Yt):
        nonlocal frozen_mu
        if frozen_mu is None:
            mu_b = bda_weight(pair, Yt, d_m=pair.bda_marginal)
        else:
            mu_b = frozen_mu
        if config.freeze_bda_mu:
            frozen_mu = mu_b
        return weighted_core(Ys, Yt, 1.0 - mu_b, mu_b), mu_b

    return _fit_loop(pair, config, balanced)


def _fit_loop(pair: DomainPair, config: AdaptConfig, core) -> FitResult:
    """The alternating loop; core(pair, Ys, Yt) gives a pass's W and bda balance (or None)."""
    t_start = time.perf_counter()
    pair = PreparedPair.of(pair, config)
    p_used = min(config.p, pair.G.shape[0])
    C = pair.source.class_count
    Ys = one_hot_encode(pair.source.y, C)
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

    # Passes by pass key (see _pass_key), of the pair's previous fit and of
    # this one, which replaces them on the pair. A key met earlier in this
    # fit is that pass again, and its record names it.
    earlier, pair.passes = pair.passes, {}
    for it in range(iters):
        t_iter = time.perf_counter()
        Yt = one_hot_encode(pseudo, C)
        W, bda_mu = core(pair, Ys, Yt)
        key = _pass_key(W, bda_mu, config.lam, p_used, pseudo)
        repeat_of = None
        if key in pair.passes:
            A, pseudo, stored = pair.passes[key]
            repeat_of = stored.index
        elif key in earlier:
            A, pseudo, stored = earlier[key]
        else:
            A, pseudo, stored = _solve_pass(
                pair, config, Yt, W, bda_mu, cores, pseudo, p_used, it + 1
            )
        # The table's copy carries this fit's index, for a repeat to name.
        pair.passes.setdefault(key, (A, pseudo, replace(stored, index=it + 1)))
        record = replace(stored, index=it + 1, pseudo_labels=pseudo.copy(), repeat_of=repeat_of)
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
    kind = pair.kernel.kind
    # The table keeps A and the labels for the next fit: the result gets
    # copies of its own.
    proj = Projection(
        matrix=A.copy(),
        kind=kind,
        bandwidth=pair.bandwidth,
        anchors=pair.stacked() if kind != "primal" else None,
    )
    return FitResult(projection=proj, pseudo_labels=pseudo.copy(), report=report)


def _pass_key(
    W: np.ndarray, bda_mu: float | None, lam: float, p_used: int, pseudo: np.ndarray
) -> tuple:
    """What a pass on a prepared pair is a function of. W and the labels
    enter as one SHA-256 digest, since a 2C x 2C W can take 150 KB; hex()
    tells a bda balance of -0.0 from 0.0, which the record would print apart.
    """
    digest = hashlib.sha256(np.ascontiguousarray(W))
    digest.update(np.ascontiguousarray(pseudo))
    return digest.digest(), None if bda_mu is None else float(bda_mu).hex(), lam, p_used


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
) -> tuple[np.ndarray, np.ndarray, IterationRecord]:
    """One solved pass from input labels pseudo (one-hot Yt) and its core W
    and bda balance: its projection, its 1-NN labels and its record, whose
    wall_time the loop sets. cores are same_class_core(C) and
    cross_class_core(C), which give the record's two traces."""
    G, factor, ridge_abs = pair.G, pair.factor, pair.factor.ridge
    ns = pair.source.n
    GE = np.hstack([pair.GE_source, indicator_product(G[:, ns:], Yt)])
    pencil = FactoredPencil(GE, W, factor, config.lam)
    m = pencil.size
    # Directions whose constraint mass is mostly ridge belong to the
    # numerical null space of B; keep the first p_used usable ones. The
    # trailing 2 * p_used pairs usually hold them: a full-route solve for
    # them is asked for all m, and a partial one holding too few is followed
    # by the full solve, a rank-one one by a rank-one solve of all m roots
    # (the first k again). The kept pairs are those of a full solve, to
    # rounding.
    for k in (computed_pairs(pencil, min(m, 2 * p_used)), m):
        eig = solve_trailing(pencil, k, ridge_abs)
        mass = ridge_abs * np.sum(eig.vectors * eig.vectors, axis=0)
        usable = np.flatnonzero(mass <= _RIDGE_MASS_TOL)
        if usable.size >= p_used or eig.values.size == m:
            break
    if usable.size == 0:
        raise NumericalError("no usable eigen-directions: the scatter matrix is degenerate")
    take = usable[:p_used]
    A = eig.vectors[:, take]
    values = eig.values[take]
    route = eig.route
    del eig  # frees the solve's eigenvector buffer before the 1-NN and the residuals

    Zs, Zt = A.T @ G[:, :ns], A.T @ G[:, ns:]
    labels = knn1_predict(Zs, pair.source.y, Zt)
    # B A = G H G^T A = G (Z H)^T, with Z = A^T G the projected samples.
    Z = np.hstack([Zs, Zt])
    Z -= Z.mean(axis=1, keepdims=True)
    BA = G @ Z.T
    del Zs, Zt, Z  # frees the projected samples before the diagnostics
    gap = float(np.max(np.abs(A.T @ BA - np.eye(take.size))))
    P = A.T @ GE
    # A rank-one core's S A is g (g^T A) + lam A, g = GE u: g takes the
    # difference of the domain halves in the data, where W P^T would take it
    # after projecting, with about 20 times the rounding on digits-shaped
    # tca passes.
    u = rank_one_root(W)
    if u is None:
        SA = GE @ (W @ P.T) + config.lam * A
    else:
        g = GE @ u
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
