"""Projection solvers: joint-probability (jpda/jp) and weighted (tca/jda/bda).

Every algorithm is the same alternating loop: from the current pseudo-labels
form the class-indicator factor E (see mmd) and the algorithm's 2C x 2C core
W, solve the trailing eigenpairs of (G E W E^T G^T + lam*I, G H G^T +
ridge*I) for the projection A, re-label the target by 1-NN in the projected
space, repeat T times. G is the raw feature matrix (primal) or a gram matrix
(kernelized); G H G^T does not depend on the labels and is formed once per
fit. Only W differs between algorithms:

    jpda / jp   W = W_min - mu * W_max                 (mu = 0 for jp)
    tca         W = s s^T                              (T forced to 1)
    jda         W = s s^T + D W_min D
    bda         W = (1-mu_b) s s^T + mu_b D W_min D,   mu_b from bda_weight

Per-iteration transfer and discriminative terms are always the projected
R_min / R_max traces (cores W_min / W_max), whatever W the algorithm
minimized, so convergence traces are comparable across algorithms.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .classify import accuracy, knn1_predict
from .data import AdaptConfig, DomainPair, one_hot_encode
from .errors import ConfigError, NumericalError
from .kernels import KernelSpec, gram, resolve_bandwidth
from .mmd import (
    bda_weight,
    cross_class_core,
    indicator_factor,
    projected_discrepancy,
    same_class_core,
    weighted_core,
)
from .eigensolve import assemble_pencil, solve_trailing

# A direction is usable when the ridge carries at most this share of its
# constraint mass; keeping only such directions bounds ||A^T B A - I|| by
# the same number.
_RIDGE_MASS_TOL = 1e-4


def centered_scatter(G: np.ndarray) -> np.ndarray:
    """G H G^T with H = I - (1/n) ones(n, n): the scatter of G's row-centred columns."""
    Gc = G - G.mean(axis=1, keepdims=True)
    return Gc @ Gc.T


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


@dataclass
class IterationRecord:
    index: int
    pseudo_labels: np.ndarray
    accuracy: float | None
    transfer: float
    discriminative: float
    objective: float
    bda_mu: float | None
    constraint_gap: float
    wall_time: float

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "index": self.index,
            "pseudo_labels": [int(v) for v in self.pseudo_labels],
            "accuracy": self.accuracy,
            "transfer": self.transfer,
            "discriminative": self.discriminative,
            "objective": self.objective,
            "bda_mu": self.bda_mu,
            "constraint_gap": self.constraint_gap,
        }
        if include_timing:
            out["wall_time"] = self.wall_time
        return out


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
    total_wall: float = 0.0

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "algorithm": self.algorithm,
            "p_requested": self.p_requested,
            "p_used": self.p_used,
            "rank_reduced": self.rank_reduced,
            "kernel": self.kernel,
            "bandwidth": self.bandwidth,
            "iterations": [r.to_dict(include_timing) for r in self.iterations],
            "final_accuracy": self.final_accuracy,
        }
        if include_timing:
            out["total_wall"] = self.total_wall
        return out


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
    C = pair.source.class_count
    W = same_class_core(C) - mu * cross_class_core(C)
    return _fit_loop(pair, config, lambda Ys, Yt: (W, None))


def weighted_fit(
    pair: DomainPair,
    config: AdaptConfig,
    weights: tuple[float, float] | None = None,
) -> FitResult:
    """Marginal+conditional solver: tca (1,0), jda (1,1), bda balanced."""
    if weights is None:
        weights = config.weights
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
        return _fit_loop(pair, config, lambda Ys, Yt: (weighted_core(Ys, Yt, w1, w2), None))

    frozen_mu = config.bda_mu

    def balanced(Ys, Yt):
        nonlocal frozen_mu
        mu_b = bda_weight(pair, Yt) if frozen_mu is None else frozen_mu
        if config.freeze_bda_mu:
            frozen_mu = mu_b
        return weighted_core(Ys, Yt, 1.0 - mu_b, mu_b), mu_b

    return _fit_loop(pair, config, balanced)


def _fit_loop(pair: DomainPair, config: AdaptConfig, core) -> FitResult:
    """The alternating loop; core(Ys, Yt) gives the iteration's W and bda balance (or None)."""
    t_start = time.perf_counter()
    Xs, Xt = pair.source.X, pair.target.X
    ns = Xs.shape[1]
    C = pair.source.class_count
    X = pair.stacked()

    kspec = config.kernel or KernelSpec("primal")
    if kspec.kind == "primal":
        G = X
        bandwidth = None
    else:
        bandwidth = kspec.bandwidth
        if kspec.kind == "rbf" and bandwidth is None:
            bandwidth = resolve_bandwidth(X)
        G = gram(X, X, KernelSpec(kind=kspec.kind, bandwidth=bandwidth))
    m = G.shape[0]

    p_used = min(config.p, m)
    B = centered_scatter(G)
    ridge_abs = config.ridge * float(np.trace(B)) / m
    W_min, W_max = same_class_core(C), cross_class_core(C)
    Ys = one_hot_encode(pair.source.y, C)
    truth = pair.target.y

    iters = 1 if config.algorithm == "tca" else config.iters
    pseudo = knn1_predict(Xs, pair.source.y, Xt)

    report = FitReport(
        algorithm=config.algorithm,
        p_requested=config.p,
        p_used=p_used,
        rank_reduced=p_used < config.p,
        kernel=kspec.kind,
        bandwidth=bandwidth,
    )

    A = None
    for it in range(iters):
        t_iter = time.perf_counter()
        Yt = one_hot_encode(pseudo, C)
        W, bda_mu_used = core(Ys, Yt)
        GE = G @ indicator_factor(Ys, Yt)
        pencil = assemble_pencil(GE, W, config.lam, B)
        eig = solve_trailing(pencil, m, ridge_abs)
        # Directions whose constraint mass is mostly ridge belong to the
        # numerical null space of B; keep the trailing usable ones only.
        mass = ridge_abs * np.sum(eig.vectors * eig.vectors, axis=0)
        usable = np.flatnonzero(mass <= _RIDGE_MASS_TOL)
        if usable.size == 0:
            raise NumericalError(
                "no usable eigen-directions: the scatter matrix is degenerate"
            )
        take = usable[: min(p_used, usable.size)]
        if take.size < p_used:
            p_used = int(take.size)
            report.p_used = p_used
            report.rank_reduced = True
        A = eig.vectors[:, take]
        values = eig.values[take]

        Zs = A.T @ G[:, :ns]
        Zt = A.T @ G[:, ns:]
        pseudo = knn1_predict(Zs, pair.source.y, Zt)
        if np.unique(pseudo).size == 1:
            warnings.warn(
                f"pseudo-labels collapsed to class {int(pseudo[0])} "
                f"at iteration {it + 1}"
            )

        gap = float(np.max(np.abs(A.T @ B @ A - np.eye(p_used))))
        report.iterations.append(
            IterationRecord(
                index=it + 1,
                pseudo_labels=pseudo.copy(),
                accuracy=accuracy(pseudo, truth) if truth is not None else None,
                transfer=projected_discrepancy(A, GE, W_min),
                discriminative=projected_discrepancy(A, GE, W_max),
                objective=float(np.sum(values)),
                bda_mu=bda_mu_used,
                constraint_gap=gap,
                wall_time=time.perf_counter() - t_iter,
            )
        )

    report.final_accuracy = report.iterations[-1].accuracy
    report.total_wall = time.perf_counter() - t_start
    proj = Projection(
        matrix=A,
        kind=kspec.kind,
        bandwidth=bandwidth,
        anchors=X.copy() if kspec.kind != "primal" else None,
    )
    return FitResult(projection=proj, pseudo_labels=pseudo, report=report)
