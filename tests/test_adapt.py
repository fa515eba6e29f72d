"""Solver loop: dispatch wiring, fixed points, constraint quality, reports."""

import contextlib
import json
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg

import oracles
from conftest import random_pair, solved_passes
from mmdadapt import adapt, eigensolve
from mmdadapt.adapt import (
    FitReport,
    IterationRecord,
    PreparedPair,
    Projection,
    centered_scatter,
    fit,
    jpda_fit,
    transform,
    weighted_fit,
)
from mmdadapt.classify import accuracy, knn1_predict
from mmdadapt.data import ALGORITHMS, AdaptConfig, DomainPair, LabeledDataset, one_hot_encode
from mmdadapt.datagen import ShiftSpec, generate_pair
from mmdadapt.eigensolve import EigenResult, solve_trailing
from mmdadapt.errors import ConfigError, DataError
from mmdadapt.kernels import KernelSpec, gram
from mmdadapt.mmd import (
    bda_weight,
    cross_class_core,
    marginal_distance,
    projected_discrepancy,
    same_class_core,
)
from oracles import centering_matrix


def _small_pair(seed: int = 2) -> DomainPair:
    return generate_pair(
        ShiftSpec(magnitude=20.0, n_per_class=10, class_count=3, dim=6, seed=seed)
    ).pair


def _copy_pair(seed: int = 3) -> DomainPair:
    src = generate_pair(ShiftSpec(seed=seed)).pair.source
    return DomainPair(
        source=src,
        target=LabeledDataset(X=src.X.copy(), y=src.y.copy(), class_count=src.class_count),
    )


def _numeric_view(result):
    """Everything that should match between equivalent solvers."""
    report = result.report.to_dict(include_timing=False)
    report.pop("algorithm")
    for rec in report["iterations"]:
        rec.pop("bda_mu")
    return report


def _assert_same_fit(a, b):
    np.testing.assert_array_equal(a.projection.matrix, b.projection.matrix)
    np.testing.assert_array_equal(a.pseudo_labels, b.pseudo_labels)
    assert _numeric_view(a) == _numeric_view(b)


# ---------------------------------------------------------------- wiring


def _counting_scatter(monkeypatch):
    """Count the B builds, one per PreparedPair built."""
    builds = []

    def counted(G):
        builds.append(G.shape)
        return centered_scatter(G)

    monkeypatch.setattr(adapt, "centered_scatter", counted)
    return builds


def _fit_bytes(result) -> tuple:
    proj = result.projection
    anchors = None if proj.anchors is None else proj.anchors.tobytes()
    report = json.dumps(result.report.to_dict(include_timing=False))
    return proj.matrix.tobytes(), proj.bandwidth, anchors, result.pseudo_labels.tobytes(), report


@pytest.mark.parametrize("kernel", [None, KernelSpec("linear"), KernelSpec("rbf")])
def test_prepared_fit_is_byte_identical_to_fresh_fit(monkeypatch, kernel):
    """One record serves every algorithm and lam: no fit on it rebuilds B,
    and each gives exactly what a fit on the plain pair gives."""
    pair = _small_pair()
    base = AdaptConfig(p=3, iters=2, mu=0.5, kernel=kernel)
    prepared = PreparedPair.of(pair, base)
    builds = _counting_scatter(monkeypatch)
    for algo in ALGORITHMS:
        for lam in (0.1, 3.0):
            config = replace(base, algorithm=algo, lam=lam)
            got = fit(prepared, config)
            assert len(builds) == 0
            want = fit(pair, config)
            assert len(builds) == 1
            builds.clear()
            assert _fit_bytes(got) == _fit_bytes(want)


def test_prepared_pair_is_rebuilt_for_another_kernel_or_ridge(monkeypatch):
    pair = _small_pair()
    base = AdaptConfig(p=3, iters=2, kernel=KernelSpec("primal"))
    prepared = PreparedPair.of(pair, base)
    assert PreparedPair.of(prepared, replace(base, algorithm="bda", lam=2.0, mu=1.0)) is prepared
    assert PreparedPair.of(prepared, replace(base, kernel=None)) is prepared
    auto = PreparedPair.of(pair, replace(base, kernel=KernelSpec("rbf")))
    others = [
        replace(base, kernel=KernelSpec("linear")),
        replace(base, kernel=KernelSpec("rbf")),
        # the resolved bandwidth, asked for explicitly, is another setting
        replace(base, kernel=KernelSpec("rbf", bandwidth=auto.bandwidth)),
        replace(base, ridge=1e-5),
    ]
    builds = _counting_scatter(monkeypatch)
    for config in others:
        for stale in (prepared, auto):
            if stale.kernel == config.kernel and stale.ridge == config.ridge:
                continue
            rebuilt = PreparedPair.of(stale, config)
            assert rebuilt is not stale and len(builds) == 1
            assert rebuilt.kernel == config.kernel and rebuilt.ridge == config.ridge
            B = centered_scatter(rebuilt.G)
            assert rebuilt.factor.ridge == config.ridge * float(np.trace(B)) / B.shape[0]
            builds.clear()
            assert _fit_bytes(fit(stale, config)) == _fit_bytes(fit(pair, config))
            builds.clear()


def test_mu_zero_joint_solver_equals_jp():
    pair = _small_pair()
    a = fit(pair, AdaptConfig(algorithm="jpda", p=3, iters=3, mu=0.0))
    b = fit(pair, AdaptConfig(algorithm="jp", p=3, iters=3, mu=0.7))
    _assert_same_fit(a, b)


def test_weighted_one_zero_single_iteration_equals_tca():
    pair = _small_pair()
    a = fit(pair, AdaptConfig(algorithm="tca", p=3, iters=10))
    b = weighted_fit(pair, AdaptConfig(algorithm="jda", p=3, iters=1), weights=(1.0, 0.0))
    _assert_same_fit(a, b)


def test_weighted_one_one_equals_jda():
    pair = _small_pair()
    a = fit(pair, AdaptConfig(algorithm="jda", p=3, iters=3))
    b = weighted_fit(pair, AdaptConfig(algorithm="bda", p=3, iters=3), weights=(1.0, 1.0))
    _assert_same_fit(a, b)


def test_frozen_half_balance_equals_half_weights():
    pair = _small_pair()
    a = fit(pair, AdaptConfig(algorithm="bda", p=3, iters=3, bda_mu=0.5))
    b = weighted_fit(pair, AdaptConfig(algorithm="jda", p=3, iters=3), weights=(0.5, 0.5))
    _assert_same_fit(a, b)
    assert all(rec.bda_mu == 0.5 for rec in a.report.iterations)


def test_weighted_fit_rejects_joint_algorithm_without_weights():
    with pytest.raises(ConfigError, match="weights"):
        weighted_fit(_small_pair(), AdaptConfig(algorithm="jpda", p=2, iters=1))


def test_freeze_balance_repeats_first_estimate():
    pair = _small_pair()
    res = fit(pair, AdaptConfig(algorithm="bda", p=3, iters=3, freeze_bda_mu=True))
    mus = [rec.bda_mu for rec in res.report.iterations]
    assert mus[0] is not None
    assert all(m == mus[0] for m in mus)


def test_class_array_check_passes_the_paper_scale(monkeypatch):
    """PIE under a kernel (68 classes, n = m = 6600) needs about 37 MB of
    arrays that grow with the class count; the check refuses it only when
    the process may take less."""
    adapt._check_class_arrays(6600, 6600, 68)
    monkeypatch.setattr(adapt, "_memory_limit", lambda: 30e6)
    with pytest.raises(DataError, match=r"^68 classes need about 0\.0343 GiB .* 0\.0279 GiB"):
        adapt._check_class_arrays(6600, 6600, 68)


def test_pencil_check_passes_pie_under_a_kernel(monkeypatch):
    """PIE under a kernel (m = n = 6600, d = 1024) with the paper's p = 100
    keeps about 5 m^2 floats alive at once beside its stacked d x n samples,
    1.67 GiB: the gram, B's eigenbasis T, a pass's M and its eigensolve
    workspace. A primal pencil keeps its m x n features instead of the gram,
    and those are its samples."""
    monkeypatch.setattr(adapt, "_memory_limit", lambda: 1.7 * 2**30)
    adapt._check_pencil_arrays(6600, 6600, 100, 1024 * 6600)
    adapt._check_pencil_arrays(1024, 6600, 100, 0)
    monkeypatch.setattr(adapt, "_memory_limit", lambda: 1.6 * 2**30)
    with pytest.raises(DataError, match=r"^a pencil of size m = 6600 needs about 1\.67 GiB .* 1\.6 GiB"):
        adapt._check_pencil_arrays(6600, 6600, 100, 1024 * 6600)


def _pair_peaks(p, iters, kernel="rbf", dim=20, algorithm="jpda"):
    """tracemalloc peaks, in bytes, of preparing a kernel pair of n = 1000
    samples (C = 10, d = dim) and then of a fit on it, with what the
    prepared pair holds, and the pair's n."""
    pair = generate_pair(ShiftSpec(n_per_class=50, class_count=10, dim=dim, seed=3)).pair
    config = AdaptConfig(algorithm=algorithm, p=p, iters=iters, kernel=KernelSpec(kernel))
    tracemalloc.start()
    try:
        prepared = PreparedPair.of(pair, config)
        held, prepare_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fit(prepared, config)
        fit_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return prepare_peak, held, fit_peak, pair.n


@pytest.mark.parametrize(
    "p, iters",
    [(10, 3), (100, 1), (200, 1), (500, 1), (1000, 1)],
    ids=["partial-solve", "full-solve", "full-solve-p200", "full-solve-p500", "p-is-m"],
)
def test_preflight_estimates_cover_an_rbf_fit(p, iters):
    """The pencil and class-array estimates together are at least the peak of
    preparing and fitting the pair, on either eigensolve route: the full one
    (8 * 2p > m) holds its 2 m^2 workspace beside G, T and M. That
    stays the peak for every p up to m, since a pass solves its spectrum
    once and its sign fix takes no m x m temporary."""
    prepare_peak, _, fit_peak, n = _pair_peaks(p, iters)
    need = adapt._check_pencil_arrays(n, n, p, 20 * n) + adapt._check_class_arrays(n, n, 10)
    assert need >= max(prepare_peak, fit_peak)


def test_preflight_estimates_count_the_stacked_samples_of_a_kernel_fit(monkeypatch):
    """A linear kernel on n = 1000 samples of d = 4000 features: preparing
    holds the stacked d x n samples beside the gram and B's factorization
    (8.06 n^2), and the fit's projection copies them again as its anchors
    (7.05 n^2). The estimates that the preparation checks cover both."""
    estimates = []
    for name in ("_check_pencil_arrays", "_check_class_arrays"):
        check = getattr(adapt, name)
        monkeypatch.setattr(
            adapt, name, lambda *a, check=check: estimates.append(check(*a)) or estimates[-1]
        )
    prepare_peak, _, fit_peak, _ = _pair_peaks(10, 1, kernel="linear", dim=4000)
    assert len(estimates) == 2
    assert sum(estimates) >= max(prepare_peak, fit_peak)


def test_rbf_fit_holds_two_and_peaks_under_four_n_by_n_buffers():
    """The prepared pair holds the gram and T, B living only inside its
    factor; preparing peaks at the gram, its centred copy and B, and a fit
    adds one pass's M, and no lam term of its own. A full-route solve adds
    its 2 m^2 workspace."""
    prepare_peak, held, fit_peak, n = _pair_peaks(10, 3)
    unit = 8 * n * n
    assert held <= 2.05 * unit
    assert prepare_peak <= 3.15 * unit
    assert fit_peak <= 3.6 * unit
    assert _pair_peaks(100, 1)[2] <= 5.1 * unit


def test_rbf_tca_fit_forms_no_n_by_n_array():
    """A tca pass solves its rank-one pencil by the secular equation: above
    the held pair (the gram and T) it holds only m x k arrays for k = 2p
    pairs, the projection, the 1-NN's blocks and the anchors, about
    12 m p floats at n = 1000, p = 10, well under one n x n array."""
    _, held, fit_peak, n = _pair_peaks(10, 1, algorithm="tca")
    assert held <= 2.05 * 8 * n * n
    assert fit_peak - held <= 20 * 8 * n * 10


# ------------------------------------------------------------ fixed point


@pytest.mark.parametrize("algo", ["tca", "jda", "bda", "jp", "jpda"])
def test_identical_domains_are_a_fixed_point(algo):
    pair = _copy_pair()
    ctx = (
        # coinciding domains leave the balance estimator nothing to separate
        pytest.warns(UserWarning, match="falling back")
        if algo == "bda"
        else contextlib.nullcontext()
    )
    with ctx:
        res = fit(pair, AdaptConfig(algorithm=algo, p=4, iters=3))
    assert res.report.final_accuracy == 1.0
    assert res.report.iterations[-1].transfer <= 1e-8


def test_bda_fallback_warning_on_every_pass():
    """Every pass whose balance falls back warns, a reused one too, as a
    collapsed pass does."""
    with pytest.warns(UserWarning, match="falling back") as caught:
        res = fit(_copy_pair(), AdaptConfig(algorithm="bda", p=4, iters=3))
    assert [rec.repeat_of for rec in res.report.iterations] == [None, 1, 1]
    assert [str(w.message) for w in caught] == [
        "all domain distances vanished; falling back to mu = 0.5"
    ] * 3


def test_samples_that_do_not_vary_are_a_data_error():
    X = np.ones((2, 4))
    y = np.array([1, 1, 2, 2])
    same = LabeledDataset(X=X, y=y, class_count=2)
    pair = DomainPair(source=same, target=same)
    with pytest.raises(DataError, match="^the samples do not vary"):
        fit(pair, AdaptConfig(algorithm="jda", p=1, iters=1, ridge=10.0))


# ------------------------------------------------------------- regression


def test_noisy_benchmark_instance_frozen_accuracies():
    """High-noise layout, seed 7: the joint solver recovers the class plane."""
    pair = generate_pair(
        ShiftSpec(magnitude=15.0, n_per_class=67, class_count=3, dim=40, seed=7)
    ).pair
    raw = accuracy(knn1_predict(pair.source.X, pair.source.y, pair.target.X), pair.target.y)
    res = fit(pair, AdaptConfig(algorithm="jpda", p=2, iters=10, mu=0.1, lam=0.1))
    assert raw == pytest.approx(0.9203980099502488, abs=1e-12)
    assert res.report.final_accuracy == pytest.approx(0.9751243781094527, abs=1e-12)
    assert res.report.final_accuracy > raw


# ----------------------------------------------------------- loop details


def test_iteration_records_and_tca_single_pass():
    pair = _small_pair()
    res = fit(pair, AdaptConfig(algorithm="jpda", p=3, iters=4))
    assert [rec.index for rec in res.report.iterations] == [1, 2, 3, 4]
    tca = fit(pair, AdaptConfig(algorithm="tca", p=3, iters=4))
    assert len(tca.report.iterations) == 1


@pytest.mark.parametrize("algorithm", ["jpda", "bda", "tca"])
def test_label_flips_count_changes_from_previous_labels(algorithm):
    pair = generate_pair(
        ShiftSpec(magnitude=45.0, n_per_class=10, class_count=3, dim=6, seed=1)
    ).pair
    res = fit(pair, AdaptConfig(algorithm=algorithm, p=3, iters=4))
    prev = knn1_predict(pair.source.X, pair.source.y, pair.target.X)
    for rec in res.report.iterations:
        assert rec.label_flips == int(np.sum(prev != rec.pseudo_labels))
        assert rec.to_dict(include_timing=False)["label_flips"] == rec.label_flips
        prev = rec.pseudo_labels
    assert res.report.iterations[0].label_flips > 0


def test_report_dicts_hold_the_fields_in_declaration_order():
    res = fit(_small_pair(), AdaptConfig(algorithm="bda", p=3, iters=2))
    report_keys = [f.name for f in fields(FitReport)]
    record_keys = [f.name for f in fields(IterationRecord)]
    full = res.report.to_dict()
    assert list(full) == report_keys
    assert [list(r) for r in full["iterations"]] == [record_keys] * 2
    bare = res.report.to_dict(include_timing=False)
    assert list(bare) == [k for k in report_keys if k != "total_wall"]
    untimed = [k for k in record_keys if k != "wall_time"]
    assert [list(r) for r in bare["iterations"]] == [untimed] * 2
    assert bare["iterations"][-1]["pseudo_labels"] == res.pseudo_labels.tolist()
    assert json.loads(json.dumps(full)) == full


@pytest.mark.parametrize("kernel", [None, KernelSpec("rbf")])
def test_constraint_gap_and_nonnegative_traces(kernel):
    pair = _small_pair()
    res = fit(pair, AdaptConfig(algorithm="jpda", p=3, iters=3, kernel=kernel))
    for rec in res.report.iterations:
        assert rec.constraint_gap <= 1e-4
        assert rec.transfer >= 0.0
        assert rec.discriminative >= 0.0
        assert rec.accuracy is not None


def test_fit_is_deterministic():
    pair = _small_pair()
    cfg = AdaptConfig(algorithm="bda", p=3, iters=3)
    a, b = fit(pair, cfg), fit(pair, cfg)
    assert a.report.to_dict(include_timing=False) == b.report.to_dict(include_timing=False)
    np.testing.assert_array_equal(a.projection.matrix, b.projection.matrix)


def test_primal_p_clamped_to_feature_count():
    pair = _small_pair()
    res = fit(pair, AdaptConfig(algorithm="jpda", p=100, iters=1))
    assert res.report.p_requested == 100
    assert res.report.p_used <= 6
    assert res.report.rank_reduced


def test_kernel_mode_reports_rank_reduction():
    pair = generate_pair(ShiftSpec(n_per_class=4, class_count=3, dim=2, seed=1)).pair
    res = fit(pair, AdaptConfig(algorithm="jpda", p=100, iters=1, kernel=KernelSpec("rbf")))
    # centering makes B = G H G^T rank-deficient, so at least one of the
    # 24 gram directions must be dropped
    assert res.report.rank_reduced
    assert res.report.p_used < 24
    assert res.projection.matrix.shape == (24, res.report.p_used)
    assert res.report.bandwidth is not None and res.report.bandwidth > 0


def _null_direction_case():
    """An rbf jpda fit (n=24, p=100) whose ridge-mass filter skips a
    ridge-dominated direction ahead of usable ones in every iteration."""
    pair = generate_pair(ShiftSpec(n_per_class=4, class_count=3, dim=2, seed=1)).pair
    cfg = AdaptConfig(
        algorithm="jpda", mu=10.0, lam=1e-3, p=100, iters=3, kernel=KernelSpec("rbf")
    )
    return pair, cfg


def _spy_solves(monkeypatch):
    """Record (pencil, result) of every solve the fit loop makes."""
    seen = []

    def spy(pencil, p, ridge):
        res = solve_trailing(pencil, p, ridge)
        seen.append((pencil, res))
        return res

    monkeypatch.setattr(adapt, "solve_trailing", spy)
    return seen


def test_ridge_mass_filter_matches_generalized_reference(monkeypatch):
    """The whitened solve keeps and drops the same directions as the dense
    pencil through LAPACK's generalized driver, and ends on the same labels."""
    pair, cfg = _null_direction_case()
    got = fit(pair, cfg)
    B = centered_scatter(PreparedPair.of(pair, cfg).G)

    def generalized(pencil, p, ridge):
        dense = oracles.assemble_pencil(pencil.GE, pencil.W, pencil.lam, B)
        values, vectors = oracles.generalized_solve(dense.S, dense.B, ridge)
        return EigenResult(values=values[:p], vectors=vectors[:, :p], ridge=ridge, route="full")

    monkeypatch.setattr(adapt, "solve_trailing", generalized)
    want = fit(pair, cfg)
    assert all(rec.null_dropped > 0 for rec in got.report.iterations)
    assert got.report.p_used == want.report.p_used < 24
    assert got.report.rank_reduced and want.report.rank_reduced
    assert got.projection.matrix.shape == want.projection.matrix.shape
    for a, b in zip(got.report.iterations, want.report.iterations):
        assert a.null_dropped == b.null_dropped
        np.testing.assert_array_equal(a.pseudo_labels, b.pseudo_labels)
    np.testing.assert_array_equal(got.pseudo_labels, want.pseudo_labels)


def test_null_dropped_counts_directions_skipped_before_last_kept(monkeypatch):
    pair, cfg = _null_direction_case()
    seen = _spy_solves(monkeypatch)
    res = fit(pair, cfg)
    p = min(cfg.p, pair.stacked().shape[1])
    # One solve per solved pass; a reused pass repeats its source's record.
    for rec, (_, eig) in zip(solved_passes(res.report), seen, strict=True):
        null = eig.ridge * np.sum(eig.vectors**2, axis=0) > 1e-4
        kept = np.flatnonzero(~null)[:p]
        p = kept.size
        assert rec.null_dropped == int(np.sum(null[: kept[-1]])) > 0
    assert res.projection.matrix.shape[1] == p
    full_rank = fit(_small_pair(), AdaptConfig(algorithm="jpda", p=3, iters=2))
    assert [rec.null_dropped for rec in full_rank.report.iterations] == [0, 0]


@pytest.mark.parametrize("kernel", [None, KernelSpec("rbf")])
def test_eigen_residual_is_the_dense_relative_residual(monkeypatch, kernel):
    """eigen_residual equals max ||S v - eta Br v|| / (||S v|| + |eta| ||Br v||)
    over the kept pairs, with S formed densely here and never in the fit."""
    pair, cfg = _null_direction_case()
    cfg = replace(cfg, kernel=kernel)
    seen = _spy_solves(monkeypatch)
    res = fit(pair, cfg)
    B = centered_scatter(PreparedPair.of(pair, cfg).G)
    p = min(cfg.p, pair.stacked().shape[0 if kernel is None else 1])
    for rec, (pencil, eig) in zip(solved_passes(res.report), seen, strict=True):
        kept = np.flatnonzero(eig.ridge * np.sum(eig.vectors**2, axis=0) <= 1e-4)[:p]
        p = kept.size
        V, eta = eig.vectors[:, kept], eig.values[kept]
        S = oracles.assemble_pencil(pencil.GE, pencil.W, pencil.lam, B).S
        Br = B + pencil.factor.ridge * np.eye(pencil.size)
        num = np.linalg.norm(S @ V - Br @ V * eta, axis=0)
        den = np.linalg.norm(S @ V, axis=0) + np.abs(eta) * np.linalg.norm(Br @ V, axis=0)
        want = float(np.max(num / den))
        assert 0.0 <= rec.eigen_residual < 1e-6
        # Both sides carry rounding of order 1e-14 in a relative residual.
        assert rec.eigen_residual == pytest.approx(want, rel=1e-3, abs=1e-12)


def _one_pass(monkeypatch, kernel, C, empty):
    """One solved jpda pass at class count C from random input labels, with
    class C missing from the domain named by empty (or from neither):
    returns the prepared pair, the input one-hot labels, the pass's G E, its
    projection and its record."""
    rng = np.random.default_rng(C)
    pair = random_pair(rng, n_s=2 * C + 7, n_t=2 * C + 3, C=C, d=12)
    pseudo = rng.integers(1, C + 1, size=pair.target.n)
    pseudo[:C] = np.arange(1, C + 1)
    if empty == "source":
        ys = np.where(pair.source.y == C, 1, pair.source.y)
        pair = replace(pair, source=replace(pair.source, y=ys))
    elif empty == "target":
        pseudo[pseudo == C] = 1
    config = AdaptConfig(algorithm="jpda", mu=0.1, p=3, kernel=kernel)
    pair = PreparedPair.of(pair, config)
    Yt = one_hot_encode(pseudo, C)
    cores = same_class_core(C), cross_class_core(C)
    seen = _spy_solves(monkeypatch)
    A, _, record = adapt._solve_pass(
        pair, config, Yt, cores[0] - 0.1 * cores[1], None, cores, pseudo, 3, 1
    )
    return pair, Yt, seen[0][0].GE, A, record


@pytest.mark.parametrize(
    "kernel", [None, KernelSpec("linear"), KernelSpec("rbf")], ids=["primal", "linear", "rbf"]
)
@pytest.mark.parametrize("C", [2, 68])
@pytest.mark.parametrize("empty", [None, "source", "target"])
def test_pass_forms_G_times_the_indicator_factor(monkeypatch, kernel, C, empty):
    """G E from the pair's source half and the pass's target half equals G
    times the whole indicator factor to rounding, and a class empty in one
    domain leaves its column of that half exactly zero."""
    pair, Yt, GE, _, _ = _one_pass(monkeypatch, kernel, C, empty)
    want = pair.G @ oracles.indicator_factor(one_hot_encode(pair.source.y, C), Yt)
    assert np.max(np.abs(GE - want)) <= 1e-13 * np.max(np.abs(want))
    if empty is not None:
        column = C - 1 if empty == "source" else 2 * C - 1
        assert not GE[:, column].any() and not want[:, column].any()


@pytest.mark.parametrize("kernel", [None, KernelSpec("rbf")], ids=["primal", "rbf"])
@pytest.mark.parametrize("C", [2, 68])
def test_pass_traces_are_the_projected_discrepancies(monkeypatch, kernel, C):
    """Both traces come from one A^T (G E) and equal the two-product form bit
    for bit."""
    _, _, GE, A, record = _one_pass(monkeypatch, kernel, C, None)
    assert record.transfer == projected_discrepancy(A, GE, same_class_core(C))
    assert record.discriminative == projected_discrepancy(A, GE, cross_class_core(C))


def test_collapse_warning():
    """Every collapsed pass warns, a reused one too."""
    Xs = np.array([[0.0, 0.2, -0.1, 10.0, 10.2, 9.9], [0.0, 0.1, 0.2, 10.0, 9.8, 10.1]])
    ys = np.array([1, 1, 1, 2, 2, 2])
    Xt = np.array([[0.05, 0.15, -0.05, 0.1], [0.05, 0.0, 0.1, 0.15]])
    pair = DomainPair(
        source=LabeledDataset(X=Xs, y=ys, class_count=2),
        target=LabeledDataset(X=Xt, y=None, class_count=2),
    )
    with pytest.warns(UserWarning, match="collapsed") as caught:
        res = fit(pair, AdaptConfig(algorithm="jpda", p=1, iters=3))
    assert [rec.repeat_of for rec in res.report.iterations] == [None, 1, 1]
    assert [str(w.message) for w in caught] == [
        f"pseudo-labels collapsed to class 1 at iteration {i}" for i in (1, 2, 3)
    ]


def test_unlabeled_target_reports_no_accuracy():
    pair = _small_pair()
    blind = DomainPair(
        source=pair.source,
        target=LabeledDataset(X=pair.target.X, y=None, class_count=3),
    )
    res = fit(blind, AdaptConfig(algorithm="jpda", p=3, iters=2))
    assert res.report.final_accuracy is None
    assert all(rec.accuracy is None for rec in res.report.iterations)
    assert res.pseudo_labels.shape == (pair.target.n,)


# ---------------------------------------------------------- reused passes


def _spy_knn(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return knn1_predict(*args)

    monkeypatch.setattr(adapt, "knn1_predict", spy)
    return calls


@pytest.mark.parametrize(
    "algorithm,repeat_of",
    [
        # the raw labels are a fixed point
        ("jpda", [None] + [1] * 9),
        # passes 2 and 3 swap each other's labels: a 2-cycle
        ("jp", [None, None, None, 2, 3, 2, 3, 2, 3, 2]),
    ],
)
def test_pass_with_repeated_input_labels_is_not_solved_again(monkeypatch, algorithm, repeat_of):
    config = AdaptConfig(algorithm=algorithm, p=3, iters=10)
    pair = PreparedPair.of(_small_pair(), config)
    solves, knn = _spy_solves(monkeypatch), _spy_knn(monkeypatch)
    res = fit(pair, config)
    assert [rec.repeat_of for rec in res.report.iterations] == repeat_of
    solved = solved_passes(res.report)
    assert len(solves) == len(knn) == len(solved) == repeat_of.count(None)


def test_pass_is_reused_only_at_the_same_direction_count(monkeypatch):
    """jp's 2-cycle above, with pass 3 made to keep one direction fewer:
    pass 4 starts from pass 2's labels but with p = 2, so it is solved."""
    solve = adapt._solve_pass

    def narrowing(*args):
        A, labels, record = solve(*args)
        return (A[:, :-1] if record.index == 3 else A), labels, record

    monkeypatch.setattr(adapt, "_solve_pass", narrowing)
    res = fit(_small_pair(), AdaptConfig(algorithm="jp", p=3, iters=4))
    first, _, third, fourth = res.report.iterations
    np.testing.assert_array_equal(third.pseudo_labels, first.pseudo_labels)
    assert fourth.repeat_of is None
    assert res.report.p_used == 2


def _record_bytes(rec) -> str:
    out = rec.to_dict(include_timing=False)
    del out["repeat_of"]
    return json.dumps(out)


@pytest.mark.parametrize("algorithm", [*ALGORITHMS, "bda-frozen"])
def test_reused_passes_equal_a_loop_that_solves_every_pass(monkeypatch, algorithm):
    """Small synthetic seeds at T=10, primal and rbf: records and projection
    are byte-equal to the reference loop's, and each reused record equals
    its source."""
    config = AdaptConfig(
        algorithm=algorithm.split("-")[0],
        p=3,
        iters=10,
        mu=0.5,
        freeze_bda_mu=algorithm == "bda-frozen",
    )
    reused = 0
    for seed in range(6):
        pair = generate_pair(ShiftSpec(n_per_class=8, class_count=3, dim=4, seed=seed)).pair
        cfg = replace(config, kernel=KernelSpec("rbf") if seed % 2 else None)
        got = fit(pair, cfg)
        reused += len(got.report.iterations) - len(solved_passes(got.report))
        with monkeypatch.context() as patch:
            patch.setattr(adapt, "_fit_loop", oracles.reference_passes)
            want = fit(pair, cfg)
        assert [_record_bytes(rec) for rec in got.report.iterations] == [
            _record_bytes(rec) for _, rec in want
        ]
        assert got.projection.matrix.tobytes() == want[-1][0].tobytes()
    assert reused > 0 or algorithm == "tca"


# -------------------------------------------- passes reused across fits


def _table_config(algorithm: str, kernel=None) -> AdaptConfig:
    return AdaptConfig(
        algorithm=algorithm.split("-")[0],
        p=3,
        iters=4,
        mu=0.5,
        kernel=kernel,
        freeze_bda_mu=algorithm == "bda-frozen",
    )


@pytest.mark.parametrize("kernel", [None, KernelSpec("rbf")], ids=["primal", "rbf"])
@pytest.mark.parametrize("algorithm", [*ALGORITHMS, "bda-frozen"])
def test_repeated_fit_takes_every_pass_from_the_table(monkeypatch, algorithm, kernel):
    """A second fit with equal settings on one prepared pair solves nothing
    and runs no 1-NN, and is byte for byte a fit on a fresh pair."""
    config = _table_config(algorithm, kernel)
    pair = _small_pair()
    prepared = PreparedPair.of(pair, config)
    fit(prepared, config)
    with monkeypatch.context() as mp:
        solves, knn = _spy_solves(mp), _spy_knn(mp)
        again = fit(prepared, config)
    assert solves == [] and knn == []
    fresh = fit(PreparedPair.of(pair, config), config)
    assert again.report.to_dict(include_timing=False) == fresh.report.to_dict(
        include_timing=False
    )
    assert again.projection.matrix.tobytes() == fresh.projection.matrix.tobytes()
    np.testing.assert_array_equal(again.pseudo_labels, fresh.pseudo_labels)


def test_jp_then_mu_zero_jpda_share_every_pass(monkeypatch):
    config = AdaptConfig(algorithm="jp", p=3, iters=4)
    prepared = PreparedPair.of(_small_pair(), config)
    jp = fit(prepared, config)
    solves, knn = _spy_solves(monkeypatch), _spy_knn(monkeypatch)
    jpda = fit(prepared, replace(config, algorithm="jpda", mu=0.0))
    assert solves == [] and knn == []
    assert _numeric_view(jp) == _numeric_view(jpda)


def test_a_fit_from_the_table_shares_no_array_with_another_result(monkeypatch):
    config = _table_config("jpda")
    pair = _small_pair()
    prepared = PreparedPair.of(pair, config)
    first = fit(prepared, config)
    want = _fit_bytes(fit(PreparedPair.of(pair, config), config))
    first.projection.matrix[:] = 0.0
    first.pseudo_labels[:] = 1
    for rec in first.report.iterations:
        rec.pseudo_labels[:] = 1
        rec.accuracy = -1.0
    solves = _spy_solves(monkeypatch)
    second = fit(prepared, config)
    assert solves == []
    assert _fit_bytes(second) == want
    second.projection.matrix[:] = 0.0
    second.pseudo_labels[:] = 1
    assert _fit_bytes(fit(prepared, config)) == want


def test_table_holds_only_the_latest_fits_passes():
    pair = _small_pair()
    base = AdaptConfig(p=3, iters=4, mu=0.5)
    prepared = PreparedPair.of(pair, base)
    assert prepared.passes == {}
    for config in (
        replace(base, algorithm="jpda"),
        replace(base, algorithm="jda"),
        replace(base, algorithm="bda", lam=2.0),
    ):
        last = fit(prepared, config)
        kept = [rec.to_dict(include_timing=False) for _, _, rec in prepared.passes.values()]
        assert kept == [
            rec.to_dict(include_timing=False) for rec in solved_passes(last.report)
        ]


def test_bda_marginal_distance_is_computed_once_per_prepared_pair(monkeypatch):
    """Only a bda fit that estimates its balance needs the whole-domain
    distance; the prepared pair computes it once for all of them."""
    calls = []

    def counted(pair, *args):
        calls.append(pair)
        return marginal_distance(pair, *args)

    monkeypatch.setattr(adapt, "marginal_distance", counted)
    plain = _small_pair()
    base = AdaptConfig(p=3, iters=3)
    prepared = PreparedPair.of(plain, base)
    for algo in ("tca", "jda", "jp", "jpda"):
        fit(prepared, replace(base, algorithm=algo))
    fit(prepared, replace(base, algorithm="bda", bda_mu=0.3))
    assert calls == []
    for lam in (0.1, 1.0):
        res = fit(prepared, replace(base, algorithm="bda", lam=lam))
    assert len(calls) == 1 and calls[0] is prepared
    start = one_hot_encode(prepared.raw_labels, 3)
    assert res.report.iterations[0].bda_mu == bda_weight(plain, start)


# --------------------------------------------------------- partial solves


def _spy_drivers(monkeypatch):
    """Record the LAPACK driver of every eigh the solver runs."""
    drivers = []
    eigh = scipy.linalg.eigh

    def spy(M, **kwargs):
        drivers.append(kwargs["driver"])
        return eigh(M, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    return drivers


def _assert_close_fit(part, full):
    """Same labels, dropped directions and reuse; projections equal to 1e-8."""
    np.testing.assert_array_equal(part.pseudo_labels, full.pseudo_labels)
    assert part.report.p_used == full.report.p_used
    for a, b in zip(part.report.iterations, full.report.iterations, strict=True):
        np.testing.assert_array_equal(a.pseudo_labels, b.pseudo_labels)
        assert (a.null_dropped, a.repeat_of) == (b.null_dropped, b.repeat_of)
        assert a.eigen_residual <= 1e-8
    A, B = part.projection.matrix, full.projection.matrix
    rel = np.linalg.norm(A - B, axis=0) / np.linalg.norm(B, axis=0)
    assert np.max(rel) <= 1e-8


@pytest.mark.parametrize(
    "kernel,dim,n_per_class,lam",
    [(None, 256, 60, 0.1), (KernelSpec("linear"), 800, 20, 1.0)],
    ids=["digits-primal", "office-linear"],
)
def test_partial_solve_matches_the_full_spectrum(monkeypatch, kernel, dim, n_per_class, lam):
    """The digits (primal, m = 256) and office (linear kernel, m = 400)
    benchmark shapes ask for k = 20 pairs, 8k <= m, so every solve but
    tca's rank-one ones is partial; the fits keep the full-spectrum fits'
    labels and dropped directions."""
    pair = generate_pair(
        ShiftSpec(n_per_class=n_per_class, class_count=10, dim=dim, seed=5)
    ).pair
    for algorithm in ALGORITHMS:
        config = AdaptConfig(algorithm=algorithm, p=10, iters=3, lam=lam, kernel=kernel)
        prepared = PreparedPair.of(pair, config)
        with monkeypatch.context() as mp:
            drivers = _spy_drivers(mp)
            part = fit(prepared, config)
        # tca's rank-one core is solved by the secular equation, with no eigh.
        assert set(drivers) == {"evr"} if algorithm != "tca" else not drivers
        # The pair's table would hand the second fit the first one's passes.
        prepared.passes.clear()
        with monkeypatch.context() as mp:
            mp.setattr(eigensolve, "_PARTIAL_RATIO", float("inf"))
            full = fit(prepared, config)
        _assert_close_fit(part, full)


RANK_ONE_SHAPES = {
    "digits": (dict(n_per_class=60, class_count=10, dim=256), dict(p=10, lam=0.1)),
    "office-linear": (
        dict(n_per_class=20, class_count=10, dim=800),
        dict(p=10, lam=1.0, kernel=KernelSpec("linear")),
    ),
    "pie": (dict(n_per_class=6, class_count=68, dim=256), dict(p=67)),
    "primal-d-over-n": (dict(n_per_class=20, class_count=10, dim=800), dict(p=10)),
    "rbf": (dict(n_per_class=20, class_count=10, dim=20), dict(p=10, kernel=KernelSpec("rbf"))),
}


@pytest.mark.parametrize("shape", RANK_ONE_SHAPES)
def test_rank_one_cores_take_the_secular_route(monkeypatch, shape):
    """tca, bda with balance 0 and weights (0.5, 0) have rank-one cores: every
    pass is solved without eigh, records route "rank_one", and keeps the
    dense route's labels, dropped directions and p_used, with projections
    within 1e-7 and an eigen_residual no larger than the dense pass's. The
    primal d > n shape carries 401 ridge-level poles whose f components
    deflate."""
    spec, settings = RANK_ONE_SHAPES[shape]
    pair = generate_pair(ShiftSpec(seed=5, **spec)).pair
    prepared = PreparedPair.of(pair, AdaptConfig(**settings))
    fits = {
        "tca": lambda: fit(prepared, AdaptConfig(algorithm="tca", **settings)),
        "bda": lambda: fit(prepared, AdaptConfig(algorithm="bda", bda_mu=0.0, iters=3, **settings)),
        "weighted": lambda: weighted_fit(
            prepared, AdaptConfig(algorithm="jda", iters=3, **settings), weights=(0.5, 0.0)
        ),
    }
    for name, run in fits.items():
        prepared.passes.clear()
        with monkeypatch.context() as mp:
            drivers = _spy_drivers(mp)
            got = run()
        assert not drivers, name
        assert all(rec.route == "rank_one" for rec in got.report.iterations), name
        prepared.passes.clear()
        with monkeypatch.context() as mp:
            mp.setattr(eigensolve.FactoredPencil, "rank_one", None)
            want = run()
        assert all(rec.route != "rank_one" for rec in want.report.iterations)
        np.testing.assert_array_equal(got.pseudo_labels, want.pseudo_labels)
        assert got.report.p_used == want.report.p_used
        for a, b in zip(got.report.iterations, want.report.iterations, strict=True):
            np.testing.assert_array_equal(a.pseudo_labels, b.pseudo_labels)
            assert (a.null_dropped, a.repeat_of) == (b.null_dropped, b.repeat_of)
            assert a.eigen_residual <= b.eigen_residual, name
        A, B = got.projection.matrix, want.projection.matrix
        rel = np.linalg.norm(A - B, axis=0) / np.linalg.norm(B, axis=0)
        assert np.max(rel) <= 1e-7, name


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="needs extended precision"
)
def test_rank_one_core_residual_tracks_extended_precision(monkeypatch):
    """A rank-one core's residual forms S A as g (g^T A) + lam A. On the
    digits shape (weights (0.5, 0)) its record is within 10% of the same
    pairs' residual evaluated in extended precision, 1.65e-15; through
    W (A^T G E)^T it recorded 3.41e-15."""
    spec, settings = RANK_ONE_SHAPES["digits"]
    pair = generate_pair(ShiftSpec(seed=5, **spec)).pair
    prepared = PreparedPair.of(pair, AdaptConfig(**settings))
    seen = _spy_solves(monkeypatch)
    config = AdaptConfig(algorithm="jda", iters=1, **settings)
    rec = weighted_fit(prepared, config, weights=(0.5, 0.0)).report.iterations[0]
    ((pencil, eig),) = seen
    ridge = pencil.factor.ridge
    kept = np.flatnonzero(ridge * np.sum(eig.vectors**2, axis=0) <= 1e-4)[: settings["p"]]
    L = np.longdouble
    A, eta = eig.vectors[:, kept].astype(L), eig.values[kept].astype(L)
    G = prepared.G.astype(L)
    G -= G.mean(axis=1, keepdims=True)
    GE = pencil.GE.astype(L)
    SA = GE @ (pencil.W.astype(L) @ (GE.T @ A)) + L(pencil.lam) * A
    BA = G @ (G.T @ A) + L(ridge) * A
    norm = lambda X: np.sqrt(np.sum(X * X, axis=0))
    want = float(np.max(norm(SA - BA * eta) / (norm(SA) + np.abs(eta) * norm(BA))))
    assert rec.eigen_residual == pytest.approx(want, rel=0.1)


def test_too_few_usable_pairs_solve_the_full_spectrum(monkeypatch):
    """A linear kernel on d = 4 features leaves B of rank 4 at m = 180. The
    first pass finds fewer than p = 8 usable directions among its 16 pairs,
    so it solves all 180 and keeps what a full-spectrum fit keeps."""
    pair = generate_pair(ShiftSpec(n_per_class=30, class_count=3, dim=4, seed=1)).pair
    config = AdaptConfig(
        algorithm="jpda", mu=10.0, lam=1e-3, p=8, iters=3, kernel=KernelSpec("linear")
    )
    prepared = PreparedPair.of(pair, config)
    seen = _spy_solves(monkeypatch)
    part = fit(prepared, config)
    assert [res.values.size for _, res in seen] == [16, 180, 8]
    prepared.passes.clear()
    monkeypatch.setattr(eigensolve, "_PARTIAL_RATIO", float("inf"))
    full = fit(prepared, config)
    # On the full route each pass asks for all 180 pairs, once.
    assert [res.values.size for _, res in seen[3:]] == [180, 180]
    assert part.report.rank_reduced and part.report.p_used == 4
    # The re-solved pass is the full solve itself.
    first = [res.report.iterations[0].to_dict(include_timing=False) for res in (part, full)]
    assert first[0] == first[1]
    _assert_close_fit(part, full)


def test_a_pass_solves_its_spectrum_once(monkeypatch):
    """A linear kernel on d = 4 features at m = 180 with p = 20: the 40 pairs
    a pass first wants take the full route (8 * 40 > 180) and hold fewer
    than 20 usable ones. The pass keeps what it needs from that one solve
    of all 180 instead of solving them again: its record is the all-pairs
    solve's, byte for byte."""
    pair = generate_pair(ShiftSpec(n_per_class=30, class_count=3, dim=4, seed=1)).pair
    config = AdaptConfig(
        algorithm="jpda", mu=10.0, lam=1e-3, p=20, iters=3, kernel=KernelSpec("linear")
    )
    prepared = PreparedPair.of(pair, config)
    with monkeypatch.context() as mp:
        drivers = _spy_drivers(mp)
        got = fit(prepared, config)
    solved = [rec for rec in got.report.iterations if rec.repeat_of is None]
    assert got.report.rank_reduced and len(solved) >= 2
    # One eigensolve per solved pass, the first one on the full route.
    assert len(drivers) == len(solved) and drivers[0] == "evd"
    prepared.passes.clear()
    monkeypatch.setattr(
        adapt, "solve_trailing", lambda pencil, p, ridge: solve_trailing(pencil, pencil.size, ridge)
    )
    want = fit(prepared, config)
    first = [res.report.iterations[0].to_dict(include_timing=False) for res in (got, want)]
    assert first[0] == first[1]
    _assert_close_fit(got, want)


@pytest.mark.parametrize(
    "classes,dim,p", [(10, 100, 10), (20, 128, 19)], ids=["m100", "m128"]
)
def test_full_route_pass_is_the_all_pairs_solve(monkeypatch, classes, dim, p):
    """With 8k > m a pass takes the full-spectrum route, and its fit is byte
    for byte the fit that solves for all m pairs and filters them. At
    m = 100 some BLAS builds round a back-transformed column differently
    when given fewer columns, so this also pins that all m are transformed."""
    pair = generate_pair(
        ShiftSpec(n_per_class=4, class_count=classes, dim=dim, seed=5)
    ).pair
    for algorithm in ALGORITHMS:
        config = AdaptConfig(algorithm=algorithm, p=p, iters=3)
        prepared = PreparedPair.of(pair, config)
        got = fit(prepared, config)
        prepared.passes.clear()
        with monkeypatch.context() as mp:
            mp.setattr(
                adapt,
                "solve_trailing",
                lambda pencil, p, ridge: solve_trailing(pencil, pencil.size, ridge),
            )
            want = fit(prepared, config)
        _assert_same_fit(got, want)


# -------------------------------------------------------------- transform


def test_transform_primal_is_matrix_product():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(4, 7))
    proj = Projection(matrix=np.eye(4)[:, :2], kind="primal")
    np.testing.assert_array_equal(transform(proj, X), X[:2])


def test_transform_kernel_matches_training_embedding():
    pair = _small_pair()
    res = fit(pair, AdaptConfig(algorithm="jpda", p=3, iters=2, kernel=KernelSpec("rbf")))
    proj = res.projection
    X = pair.stacked()
    G = gram(X, X, KernelSpec("rbf", bandwidth=proj.bandwidth))
    want = proj.matrix.T @ G[:, : pair.source.n]
    got = transform(proj, pair.source.X)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_projected_space_separates_source_classes():
    pair = _small_pair()
    res = fit(pair, AdaptConfig(algorithm="jpda", p=2, iters=3))
    Zs = transform(res.projection, pair.source.X)
    Zt = transform(res.projection, pair.target.X)
    assert accuracy(knn1_predict(Zs, pair.source.y, Zt), pair.target.y) >= 0.9


# -------------------------------------------------------------- centering


def test_centering_matrix_examples():
    np.testing.assert_array_equal(centering_matrix(1), [[0.0]])
    np.testing.assert_allclose(centering_matrix(2), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)
    H = centering_matrix(9)
    np.testing.assert_allclose(H @ H, H, atol=1e-14)
    np.testing.assert_allclose(H.sum(axis=1), 0.0, atol=1e-14)
    np.testing.assert_allclose(H, H.T, atol=0)


@pytest.mark.parametrize("kernel", [None, KernelSpec("rbf", bandwidth=2.0)])
def test_centered_scatter_equals_dense_centering(kernel):
    X = _small_pair().stacked()
    G = X if kernel is None else gram(X, X, kernel)
    want = G @ centering_matrix(G.shape[1]) @ G.T
    got = centered_scatter(G)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_jpda_fit_direct_entry_point():
    pair = _small_pair()
    a = jpda_fit(pair, AdaptConfig(algorithm="jpda", p=3, iters=2))
    b = fit(pair, AdaptConfig(algorithm="jpda", p=3, iters=2))
    _assert_same_fit(a, b)
