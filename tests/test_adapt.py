"""Solver loop: dispatch wiring, fixed points, constraint quality, reports."""

import contextlib
import json
import pickle
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

import oracles
from conftest import random_pair, solved_passes
from mmdadapt import adapt, eigensolve
from mmdadapt.adapt import (
    FitReport,
    IterationRecord,
    PreparedPair,
    centered_scatter,
    fit,
    weighted_fit,
)
from mmdadapt.classify import accuracy, knn1_predict
from mmdadapt.data import ALGORITHMS, AdaptConfig, DomainPair, LabeledDataset, one_hot_encode
from mmdadapt.datagen import ShiftSpec, generate_pair
from mmdadapt.eigensolve import EigenResult, FactoredPencil, solve_trailing
from mmdadapt.errors import DataError
from mmdadapt.kernels import KernelSpec, gram
from mmdadapt.mmd import (
    bda_weight,
    cross_class_core,
    indicator_product,
    marginal_distance,
    projected_trace,
    same_class_core,
    weighted_core,
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
    report = json.dumps(result.report.to_dict(include_timing=False))
    return result.projection.matrix.tobytes(), result.pseudo_labels.tobytes(), report


@pytest.mark.parametrize("kernel", [KernelSpec(), KernelSpec("linear"), KernelSpec("rbf")])
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
            B = centered_scatter(rebuilt.G.copy())
            assert rebuilt.factor.ridge == config.ridge * float(np.trace(B)) / B.shape[0]
            builds.clear()
            assert _fit_bytes(fit(stale, config)) == _fit_bytes(fit(pair, config))
            builds.clear()


def test_primal_prepared_pair_holds_its_samples_once():
    """A primal prepared pair's G is the samples, bit for bit, and its
    source and target halves are views of G, not the caller's arrays."""
    pair = _small_pair()
    prepared = PreparedPair.of(pair, AdaptConfig(p=3))
    np.testing.assert_array_equal(prepared.G, pair.stacked())
    for mine, theirs in ((prepared.source, pair.source), (prepared.target, pair.target)):
        assert np.shares_memory(mine.X, prepared.G)
        assert not np.shares_memory(mine.X, theirs.X)
        np.testing.assert_array_equal(mine.X, theirs.X)
        np.testing.assert_array_equal(mine.y, theirs.y)


def test_prepared_pair_arrays_are_read_only():
    """Fits share a prepared pair's arrays: writing into G, into a primal
    pair's halves (views of G) or its held scatter, or centring them in
    place, raises instead of changing every later fit. So it does in a
    pickled copy, such as a process pool's worker receives."""
    pair = _small_pair()
    primal = PreparedPair.of(pair, AdaptConfig(p=3))
    rbf = PreparedPair.of(pair, AdaptConfig(p=3, kernel=KernelSpec("rbf")))
    primal2, rbf2 = (pickle.loads(pickle.dumps(pp)) for pp in (primal, rbf))
    for X in (
        *(pp.G for pp in (primal, rbf, primal2, rbf2)),
        *(half.X for pp in (primal, primal2) for half in (pp.source, pp.target)),
        *(pp.scatter for pp in (primal, primal2)),
    ):
        with pytest.raises(ValueError, match="read-only"):
            X[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            centered_scatter(X)


def test_pickled_primal_prepared_pair_holds_its_samples_once():
    """A primal prepared pair pickled for a process pool's worker (d = 100,
    1000 samples per domain) sends G once and small arrays beside it, T
    and the held d x d scatter. Unpickled, its halves view G again, and a fit on it is the fit on
    the original."""
    pair = generate_pair(ShiftSpec(n_per_class=100, class_count=10, dim=100, seed=3)).pair
    config = AdaptConfig(p=5, iters=2)
    prepared = PreparedPair.of(pair, config)
    data = pickle.dumps(prepared)
    assert len(data) <= 1.1 * prepared.G.nbytes + prepared.factor.T.nbytes
    loaded = pickle.loads(data)
    np.testing.assert_array_equal(loaded.G, prepared.G)
    assert np.shares_memory(loaded.source.X, loaded.G)
    assert np.shares_memory(loaded.target.X, loaded.G)
    np.testing.assert_array_equal(loaded.target.X, prepared.target.X)
    assert _fit_bytes(fit(loaded, config)) == _fit_bytes(fit(prepared, config))


def test_pickled_kernel_prepared_pair_keeps_its_samples():
    """A kernel pair's samples are not G: they are pickled as they are, and
    a bda fit, which reads them, is the fit on the original."""
    pair = _small_pair()
    config = AdaptConfig(algorithm="bda", p=3, iters=2, kernel=KernelSpec("rbf"))
    prepared = PreparedPair.of(pair, config)
    loaded = pickle.loads(pickle.dumps(prepared))
    np.testing.assert_array_equal(loaded.source.X, pair.source.X)
    np.testing.assert_array_equal(loaded.target.X, pair.target.X)
    assert _fit_bytes(fit(loaded, config)) == _fit_bytes(fit(prepared, config))


def test_primal_preparation_holds_one_copy_of_the_samples():
    """Above the caller's pair, preparing a primal pair (d = 200, n = 4000)
    peaks at one d x n copy of the samples, G, which B is formed from in
    place, plus the d x d arrays B and T, the source's n x C one-hot labels
    and the raw 1-NN's blocks of about 2**15 floats; no centred copy."""
    pair = generate_pair(ShiftSpec(n_per_class=200, class_count=10, dim=200, seed=3)).pair
    d, n, C = pair.source.dim, pair.n, pair.source.class_count
    tracemalloc.start()
    try:
        PreparedPair.of(pair, AdaptConfig(p=10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (d * n + 2 * d * d + n * C + 4 * 2**15)


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
    keeps about 5 m^2 floats alive at once, 1.62 GiB: the gram, B's
    eigenbasis T, a pass's M and its eigensolve workspace. Its stacked
    d x n samples are freed once the gram exists, so they count only beside
    the gram. A primal pencil keeps its m x n features instead of the gram,
    and those are its samples."""
    monkeypatch.setattr(adapt, "_memory_limit", lambda: 1.7 * 2**30)
    adapt._check_pencil_arrays(6600, 6600, 100, 1024 * 6600)
    adapt._check_pencil_arrays(1024, 6600, 100, 0)
    monkeypatch.setattr(adapt, "_memory_limit", lambda: 1.6 * 2**30)
    with pytest.raises(DataError, match=r"^a pencil of size m = 6600 needs about 1\.62 GiB .* 1\.6 GiB"):
        adapt._check_pencil_arrays(6600, 6600, 100, 1024 * 6600)


def _pair_peaks(p, iters, kernel="rbf", dim=20, algorithm="jpda", n_per_class=50):
    """tracemalloc peaks, in bytes, above the caller's pair, of preparing a
    pair of n = 20 * n_per_class samples (C = 10, d = dim; n = 1000 by
    default) under kernel and then of a fit on it, with what the prepared
    pair holds, and the pair's n."""
    pair = generate_pair(
        ShiftSpec(n_per_class=n_per_class, class_count=10, dim=dim, seed=3)
    ).pair
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


@pytest.mark.parametrize("dim", [600, 200], ids=["d-over-n", "d-under-n"])
@pytest.mark.parametrize("p, iters", [(10, 3), (100, 1)], ids=["partial-solve", "full-solve"])
def test_preflight_estimates_cover_a_primal_fit(dim, p, iters):
    """The primal counterpart, n = 400: G is the samples, m = d on either
    side of n, and the full route (8 * 2p > m) holds its workspace beside
    G, T and M."""
    prepare_peak, _, fit_peak, n = _pair_peaks(p, iters, "primal", dim, n_per_class=20)
    need = adapt._check_pencil_arrays(dim, n, p, 0) + adapt._check_class_arrays(n, dim, 10)
    assert need >= max(prepare_peak, fit_peak)


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
def test_preflight_estimates_count_the_stacked_samples_of_a_kernel_fit(monkeypatch, kernel):
    """A kernel on n = 1000 samples of d = 4000 features: preparing holds
    the stacked d x n samples until the gram exists (5.00 n^2 with the
    gram; rbf 5.08 n^2, as its bandwidth and squared norms take a block of
    columns at a time and its distances form in the gram's buffer, where
    whole-stack temporaries peaked at 16.01 n^2), and the fit holds one
    pass beside the gram and T (3.16 n^2). The estimates that the
    preparation checks cover both."""
    estimates = []
    for name in ("_check_pencil_arrays", "_check_class_arrays"):
        check = getattr(adapt, name)
        monkeypatch.setattr(
            adapt, name, lambda *a, check=check: estimates.append(check(*a)) or estimates[-1]
        )
    prepare_peak, _, fit_peak, _ = _pair_peaks(10, 1, kernel=kernel, dim=4000)
    assert len(estimates) == 2
    assert sum(estimates) >= max(prepare_peak, fit_peak)


def test_kernel_fit_runs_under_a_limit_that_counts_its_samples_beside_the_gram(monkeypatch):
    """A linear kernel on n = 1000 samples of d = 4000 features: counting
    the stacked samples beside every stage asked for 9.10 n^2 floats in
    all, and counting them only beside the gram asks for 5.10 n^2, against
    a 5.00 n^2 preparation peak. Under a limit of 7 n^2 floats the fit runs."""
    n = 1000
    limit = 8 * 7 * n * n
    monkeypatch.setattr(adapt, "_memory_limit", lambda: limit)
    pair = generate_pair(ShiftSpec(n_per_class=50, class_count=10, dim=4000, seed=3)).pair
    config = AdaptConfig(algorithm="jpda", p=10, iters=1, kernel=KernelSpec("linear"))
    res = fit(pair, config)
    assert res.projection.matrix.shape == (n, 10)
    need = adapt._check_pencil_arrays(n, n, 10, 4000 * n) + adapt._check_class_arrays(n, n, 10)
    assert need < limit


def test_kernel_fit_holds_no_copy_of_the_samples(monkeypatch):
    """The samples are stacked once, when the pair is prepared: a fit on
    the prepared pair never stacks them, so a linear kernel on n = 1000
    samples of d = 4000 features (4 n^2 floats of samples) peaks at one
    pass beside the gram and T, 3.16 n^2."""
    stacks = []

    def counted(pair):
        stacks.append(pair.n)
        return np.hstack([pair.source.X, pair.target.X])

    monkeypatch.setattr(DomainPair, "stacked", counted)
    _, _, fit_peak, n = _pair_peaks(10, 1, kernel="linear", dim=4000)
    assert stacks == [n]
    assert fit_peak <= 3.3 * 8 * n * n


def test_rbf_fit_holds_two_and_peaks_under_four_n_by_n_buffers():
    """The prepared pair holds the gram and T, B living only inside its
    factor (2.01 n^2 at n = 1000); preparing peaks at the gram, its centred
    copy and B (3.08 n^2), and a fit adds one pass's M, and no lam term of
    its own (3.18 n^2). A full-route solve adds its 2 m^2 workspace
    (5.05 n^2)."""
    prepare_peak, held, fit_peak, n = _pair_peaks(10, 3)
    unit = 8 * n * n
    assert held <= 2.05 * unit
    assert prepare_peak <= 3.15 * unit
    assert fit_peak <= 3.6 * unit
    assert _pair_peaks(100, 1)[2] <= 5.1 * unit


def test_rbf_tca_fit_forms_no_n_by_n_array():
    """A tca pass solves its rank-one pencil by the secular equation: above
    the held pair (the gram and T) it holds only m x k arrays for k = 2p
    pairs, the projection and the 1-NN's blocks, about 13 m p floats at
    n = 1000, p = 10, well under one n x n array."""
    _, held, fit_peak, n = _pair_peaks(10, 1, algorithm="tca")
    assert held <= 2.05 * 8 * n * n
    assert fit_peak - held <= 20 * 8 * n * 10


@pytest.mark.parametrize(
    "kernel, dim, held",
    [("primal", 399, True), ("primal", 400, False), ("linear", 64, False)],
    ids=["primal-d-under-n", "primal-d-is-n", "linear"],
)
def test_only_a_primal_pair_with_fewer_features_than_samples_holds_its_scatter(
    kernel, dim, held
):
    """At n = 400 a primal pair with d < n keeps B = G H G^T, equal to
    centered_scatter of its G and read-only; one with d >= n, and a kernel
    pair (m = n), keep none."""
    pair = generate_pair(ShiftSpec(n_per_class=20, class_count=10, dim=dim, seed=5)).pair
    prepared = PreparedPair.of(pair, AdaptConfig(kernel=KernelSpec(kernel)))
    assert pair.n == 400
    if not held:
        assert prepared.scatter is None
        return
    np.testing.assert_array_equal(prepared.scatter, centered_scatter(prepared.G.copy(order="K")))
    assert not prepared.scatter.flags.writeable


def test_a_pass_on_a_held_scatter_forms_b_a_from_it():
    """On a held pair (d = 64, n = 400) a pass forms B A as the scatter
    times A, equal to G (Z H)^T, Z = A^T G, to 1e-12 relative; its
    constraint gap is read from that product, bit for bit."""
    pair = generate_pair(ShiftSpec(n_per_class=20, class_count=10, dim=64, seed=5)).pair
    config = AdaptConfig(algorithm="jpda", p=10, iters=1)
    prepared = PreparedPair.of(pair, config)
    res = fit(prepared, config)
    A = res.projection.matrix
    BA = prepared.scatter @ A
    Z = A.T @ prepared.G
    want = prepared.G @ (Z - Z.mean(axis=1, keepdims=True)).T
    assert np.linalg.norm(BA - want) <= 1e-12 * np.linalg.norm(want)
    gap = float(np.max(np.abs(A.T @ BA - np.eye(A.shape[1]))))
    assert res.report.iterations[0].constraint_gap == gap


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


@pytest.mark.parametrize("kernel", [KernelSpec(), KernelSpec("rbf")])
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
    """Record (pencil, result, vectors) of every solve the fit loop makes,
    each result's vectors T U formed as it returns."""
    seen = []

    def spy(pencil, p):
        res = solve_trailing(pencil, p)
        seen.append((pencil, res, oracles.vectors(pencil, res)))
        return res

    monkeypatch.setattr(eigensolve, "solve_trailing", spy)
    return seen


def test_ridge_mass_filter_matches_generalized_reference(monkeypatch):
    """The whitened solve keeps and drops the same directions as the dense
    pencil through LAPACK's generalized driver, and ends on the same labels."""
    pair, cfg = _null_direction_case()
    got = fit(pair, cfg)
    B = centered_scatter(PreparedPair.of(pair, cfg).G.copy())

    def generalized(pencil, p):
        # All m pairs, as the full route returns them, in the factor's
        # whitened basis: V = T U, so U = T^-1 V = Sigma T^T V.
        ridge = pencil.factor.ridge
        S = oracles.assemble_pencil(pencil.GE, pencil.W, pencil.lam, B, ridge).W
        values, vectors = oracles.generalized_solve(S, B, ridge)
        U = (pencil.factor.T.T @ vectors) / pencil.factor.inv_sigma[:, None]
        return EigenResult(values=values, U=U, route="full")

    monkeypatch.setattr(eigensolve, "solve_trailing", generalized)
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
    for rec, (pencil, _, V) in zip(solved_passes(res.report), seen, strict=True):
        null = pencil.factor.ridge * np.sum(V**2, axis=0) > 1e-4
        kept = np.flatnonzero(~null)[:p]
        p = kept.size
        assert rec.null_dropped == int(np.sum(null[: kept[-1]])) > 0
    assert res.projection.matrix.shape[1] == p
    full_rank = fit(_small_pair(), AdaptConfig(algorithm="jpda", p=3, iters=2))
    assert [rec.null_dropped for rec in full_rank.report.iterations] == [0, 0]


@pytest.mark.parametrize("kernel", [KernelSpec(), KernelSpec("rbf")])
def test_eigen_residual_is_the_dense_relative_residual(monkeypatch, kernel):
    """eigen_residual equals max ||S v - eta Br v|| / (||S v|| + |eta| ||Br v||)
    over the kept pairs, with S formed densely here and never in the fit."""
    pair, cfg = _null_direction_case()
    cfg = replace(cfg, kernel=kernel)
    seen = _spy_solves(monkeypatch)
    res = fit(pair, cfg)
    B = centered_scatter(PreparedPair.of(pair, cfg).G.copy())
    p = min(cfg.p, pair.stacked().shape[0 if kernel.kind == "primal" else 1])
    for rec, (pencil, eig, vectors) in zip(solved_passes(res.report), seen, strict=True):
        ridge = pencil.factor.ridge
        kept = np.flatnonzero(ridge * np.sum(vectors**2, axis=0) <= 1e-4)[:p]
        p = kept.size
        V, eta = vectors[:, kept], eig.values[kept]
        S = oracles.assemble_pencil(pencil.GE, pencil.W, pencil.lam, B, ridge).W
        Br = B + ridge * np.eye(pencil.size)
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
        pair, config, Yt, cores[0] - 0.1 * cores[1], None, cores, pseudo, 3, 1, None
    )
    return pair, Yt, seen[0][0].GE, A, record


@pytest.mark.parametrize(
    "kernel",
    [KernelSpec(), KernelSpec("linear"), KernelSpec("rbf")],
    ids=["primal", "linear", "rbf"],
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


@pytest.mark.parametrize("kernel", [KernelSpec(), KernelSpec("rbf")], ids=["primal", "rbf"])
@pytest.mark.parametrize("C", [2, 68])
def test_pass_traces_are_the_projected_discrepancies(monkeypatch, kernel, C):
    """Both traces come from one A^T (G E) and equal the two-product form bit
    for bit."""
    _, _, GE, A, record = _one_pass(monkeypatch, kernel, C, None)
    assert record.transfer == projected_trace(A.T @ GE, same_class_core(C))
    assert record.discriminative == projected_trace(A.T @ GE, cross_class_core(C))


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
        cfg = replace(config, kernel=KernelSpec("rbf") if seed % 2 else KernelSpec())
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


def _table_config(algorithm: str, kernel: KernelSpec = KernelSpec()) -> AdaptConfig:
    return AdaptConfig(
        algorithm=algorithm.split("-")[0],
        p=3,
        # jp's 2-cycle of test_pass_with_repeated_input_labels_is_not_solved_again
        iters=10 if algorithm == "jp-cycle" else 4,
        mu=0.5,
        kernel=kernel,
        freeze_bda_mu=algorithm == "bda-frozen",
    )


@pytest.mark.parametrize("kernel", [KernelSpec(), KernelSpec("rbf")], ids=["primal", "rbf"])
@pytest.mark.parametrize("algorithm", [*ALGORITHMS, "bda-frozen", "jp-cycle"])
def test_repeated_fit_takes_every_pass_from_the_table(monkeypatch, algorithm, kernel):
    """A second fit with equal settings on one prepared pair solves nothing
    and runs no 1-NN, and is byte for byte a fit on a fresh pair, repeat_of
    included: a pass the fit before repeated within itself names its source
    again."""
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
    if algorithm == "jp-cycle" and kernel.kind == "primal":
        cycle = [None, None, None, 2, 3, 2, 3, 2, 3, 2]
        assert [rec.repeat_of for rec in again.report.iterations] == cycle


def test_jp_then_mu_zero_jpda_agree_on_one_prepared_pair():
    """jp and jpda at mu = 0 solve the same passes. They are other settings,
    so the second fit solves its own, and its numbers equal jp's."""
    config = AdaptConfig(algorithm="jp", p=3, iters=4)
    prepared = PreparedPair.of(_small_pair(), config)
    jp = fit(prepared, config)
    jpda = fit(prepared, replace(config, algorithm="jpda", mu=0.0))
    assert _numeric_view(jp) == _numeric_view(jpda)


def test_explicit_weights_scope_the_table(monkeypatch):
    """Explicit weights are not in the config: a jda fit after a (0.5, 0)
    fit with the same config solves its passes, and is byte for byte a jda
    fit on a fresh pair."""
    config = _table_config("jda")
    pair = _small_pair()
    prepared = PreparedPair.of(pair, config)
    weighted_fit(prepared, config, weights=(0.5, 0.0))
    with monkeypatch.context() as mp:
        solves = _spy_solves(mp)
        got = fit(prepared, config)
    assert len(solves) == len(solved_passes(got.report)) > 0
    assert _fit_bytes(got) == _fit_bytes(fit(PreparedPair.of(pair, config), config))


@pytest.mark.parametrize(
    "algorithm,weights", [("tca", (1.0, 0.0)), ("jda", (1.0, 1.0))], ids=["tca", "jda"]
)
def test_fit_takes_the_passes_of_weighted_fit_at_its_own_weights(monkeypatch, algorithm, weights):
    """fit solves tca and jda as weighted_fit at (1, 0) and (1, 1): after
    weighted_fit at those weights with the same config, the fit solves no
    pass, and is byte for byte a fit on a fresh pair."""
    config = _table_config(algorithm)
    pair = _small_pair()
    prepared = PreparedPair.of(pair, config)
    weighted_fit(prepared, config, weights)
    with monkeypatch.context() as mp:
        solves = _spy_solves(mp)
        got = fit(prepared, config)
    assert solves == []
    assert _fit_bytes(got) == _fit_bytes(fit(PreparedPair.of(pair, config), config))


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


@pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "per-pass"])
def test_bda_balance_estimates_per_fit(monkeypatch, frozen):
    """A frozen balance is estimated once per fit, on the raw 1-NN labels,
    also by a second fit that takes every pass from the table, and every
    record carries it. Unfrozen, each pass estimates its own from its input
    labels, a pass taken from the table too."""
    calls = []

    def counted(pair, Yt, *args, **kwargs):
        calls.append(Yt)
        return bda_weight(pair, Yt, *args, **kwargs)

    monkeypatch.setattr(adapt, "bda_weight", counted)
    config = _table_config("bda-frozen" if frozen else "bda")
    prepared = PreparedPair.of(_small_pair(), config)
    start = one_hot_encode(prepared.raw_labels, 3)
    estimate = bda_weight(prepared, start)
    for table in (False, True):
        calls.clear()
        with monkeypatch.context() as mp:
            solves = _spy_solves(mp)
            res = fit(prepared, config)
        assert (solves == []) == table
        records = res.report.iterations
        if frozen:
            assert len(calls) == 1
            np.testing.assert_array_equal(calls[0], start)
            assert [rec.bda_mu for rec in records] == [estimate] * config.iters
        else:
            inputs = [prepared.raw_labels] + [rec.pseudo_labels for rec in records[:-1]]
            assert len(calls) == len(records) == config.iters
            for Yt, labels in zip(calls, inputs):
                np.testing.assert_array_equal(Yt, one_hot_encode(labels, 3))


# --------------------------------------------------------- partial solves


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
    [(KernelSpec(), 256, 60, 0.1), (KernelSpec("linear"), 800, 20, 1.0)],
    ids=["digits-primal", "office-linear"],
)
def test_partial_solve_matches_the_full_spectrum(monkeypatch, kernel, dim, n_per_class, lam):
    """The digits (primal, m = 256) and office (linear kernel, m = 400)
    benchmark shapes ask for k = 10 pairs (digits, whose factor proves
    every pair usable) and k = 20 (office), 8k <= m, so every solve but
    tca's rank-one ones is partial; the fits keep the full-spectrum fits'
    labels and dropped directions."""
    pair = generate_pair(
        ShiftSpec(n_per_class=n_per_class, class_count=10, dim=dim, seed=5)
    ).pair
    for algorithm in ALGORITHMS:
        config = AdaptConfig(algorithm=algorithm, p=10, iters=3, lam=lam, kernel=kernel)
        prepared = PreparedPair.of(pair, config)
        with monkeypatch.context() as mp:
            solves = _spy_solves(mp)
            part = fit(prepared, config)
        # tca's rank-one core is solved by the secular equation, with no
        # fallback to the full route.
        routes = {res.route for _, res, _ in solves}
        assert routes == ({"partial"} if algorithm != "tca" else {"rank_one"}), algorithm
        # The pair's table would hand the second fit the first one's passes.
        prepared.passes.clear()
        with monkeypatch.context() as mp:
            mp.setattr(eigensolve, "_PARTIAL_RATIO", float("inf"))
            full = fit(prepared, config)
        _assert_close_fit(part, full)


def _spy_asks(monkeypatch):
    """Record the pair count k that the fit loop asks each solve for."""
    asks = []

    def spy(pencil, k):
        asks.append(k)
        return solve_trailing(pencil, k)

    monkeypatch.setattr(eigensolve, "solve_trailing", spy)
    return asks


def test_proven_factor_asks_each_pass_for_the_kept_pairs_alone(monkeypatch):
    """On the digits shape (primal, m = 256 < n) no unit whitened pair's
    ridge mass can reach the filter's cutoff, so each solved pass asks for
    its p pairs once. The fits keep the labels, dropped directions and
    routes of the same fits asking for 2p, with projections within 1e-8."""
    pair = generate_pair(ShiftSpec(n_per_class=60, class_count=10, dim=256, seed=5)).pair
    for algorithm in ALGORITHMS:
        config = AdaptConfig(algorithm=algorithm, p=10, iters=3, lam=0.1)
        prepared = PreparedPair.of(pair, config)
        assert prepared.factor.ridge_mass_bound <= eigensolve._RIDGE_MASS_TOL
        prepared.passes.clear()
        with monkeypatch.context() as mp:
            asks = _spy_asks(mp)
            got = fit(prepared, config)
        assert asks == [10] * len(solved_passes(got.report)), algorithm
        prepared.passes.clear()
        with monkeypatch.context() as mp:
            mp.setattr(prepared.factor, "ridge_mass_bound", 1.0)
            asks = _spy_asks(mp)
            want = fit(prepared, config)
        assert asks == [20] * len(solved_passes(want.report)), algorithm
        _assert_close_fit(got, want)
        assert [r.route for r in got.report.iterations] == [
            r.route for r in want.report.iterations
        ]


def test_unproven_factor_asks_each_pass_for_twice_the_kept_pairs(monkeypatch):
    """A linear kernel with n < d, as office: the centred gram has a null
    direction, the ridge-mass bound fails, and each solved pass first asks
    for min(m, 2p) pairs, keeping the full spectrum's dropped directions."""
    pair = generate_pair(ShiftSpec(n_per_class=20, class_count=10, dim=800, seed=5)).pair
    config = AdaptConfig(algorithm="jpda", p=10, iters=3, lam=1.0, kernel=KernelSpec("linear"))
    prepared = PreparedPair.of(pair, config)
    assert prepared.factor.ridge_mass_bound > eigensolve._RIDGE_MASS_TOL
    with monkeypatch.context() as mp:
        asks = _spy_asks(mp)
        got = fit(prepared, config)
    assert asks == [20] * len(solved_passes(got.report))
    prepared.passes.clear()
    with monkeypatch.context() as mp:
        mp.setattr(eigensolve, "_PARTIAL_RATIO", float("inf"))
        want = fit(prepared, config)
    _assert_close_fit(got, want)


def test_proven_factor_solves_p_roots_on_the_rank_one_route(monkeypatch):
    """A tca pass on the digits shape, whose bound holds, solves the
    secular equation for its p roots alone."""
    pair = generate_pair(ShiftSpec(n_per_class=60, class_count=10, dim=256, seed=5)).pair
    roots = []

    def counted(*args):
        roots.append(args[0])
        return dlasd4(*args)

    dlasd4 = eigensolve.dlasd4
    monkeypatch.setattr(eigensolve, "dlasd4", counted)
    got = fit(pair, AdaptConfig(algorithm="tca", p=10, lam=0.1))
    assert got.report.iterations[0].route == "rank_one"
    assert roots == list(range(10))


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
    solve takes the secular route, none falling back to the full one, every
    pass records route "rank_one", and each fit keeps the dense route's
    labels, dropped directions and p_used, with projections within 1e-7 and
    an eigen_residual no larger than the dense pass's. The primal d > n
    shape carries 401 ridge-level poles whose f components deflate."""
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
            solves = _spy_solves(mp)
            got = run()
        assert solves and all(res.route == "rank_one" for _, res, _ in solves), name
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
    ((pencil, eig, V),) = seen
    ridge = pencil.factor.ridge
    kept = np.flatnonzero(ridge * np.sum(V**2, axis=0) <= 1e-4)[: settings["p"]]
    L = np.longdouble
    A, eta = V[:, kept].astype(L), eig.values[kept].astype(L)
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
    assert [res.values.size for _, res, _ in seen] == [16, 180, 8]
    prepared.passes.clear()
    monkeypatch.setattr(eigensolve, "_PARTIAL_RATIO", float("inf"))
    full = fit(prepared, config)
    # On the full route each pass gets all 180 pairs from its one solve.
    assert [res.values.size for _, res, _ in seen[3:]] == [180, 180]
    assert part.report.rank_reduced and part.report.p_used == 4
    # The re-solved pass is the full solve itself.
    first = [res.report.iterations[0].to_dict(include_timing=False) for res in (part, full)]
    assert first[0] == first[1]
    _assert_close_fit(part, full)


@pytest.mark.parametrize("route, k", [("rank_one", 24), ("partial", 3), ("full", 10)])
def test_ridge_mass_read_in_the_whitened_basis_is_that_of_the_vectors(route, k):
    """Each pair's ridge mass, ridge * sum_i u_i^2 / sigma_i, equals
    ridge * ||T u||^2 to 1e-12 relative on every route, on an rbf pencil
    (m = 24) whose ridge-dominated directions make the masses span the
    filter's threshold."""
    pair, config = _null_direction_case()
    pair = PreparedPair.of(pair, config)
    C = pair.source.class_count
    Yt = one_hot_encode(pair.raw_labels, C)
    if route == "rank_one":
        W = weighted_core(one_hot_encode(pair.source.y, C), Yt, 1.0, 0.0)
    else:
        W = same_class_core(C) - config.mu * cross_class_core(C)
    GE = np.hstack([pair.GE_source, indicator_product(pair.G[:, pair.source.n :], Yt)])
    eig = solve_trailing(FactoredPencil(GE, W, pair.factor, config.lam), k)
    assert eig.route == route
    got = eigensolve._ridge_mass(eig.U, pair.factor)
    want = pair.factor.ridge * np.sum((pair.factor.T @ eig.U) ** 2, axis=0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert got.min() <= eigensolve._RIDGE_MASS_TOL < got.max()


def test_a_fit_forms_every_whitened_matrix_in_one_buffer(monkeypatch):
    """Every solved pass of an iterative full-route fit fills the same m x m
    array, no array is held once the fit returns, and a tca fit, whose one
    pass takes the rank-one route, forms none."""
    seen = []
    whitened = FactoredPencil.whitened

    def spy(pencil):
        M = whitened(pencil)
        seen.append((weakref.ref(M), not seen or seen[0][0]() is M))
        return M

    monkeypatch.setattr(FactoredPencil, "whitened", spy)
    pair, config = _null_direction_case()
    res = fit(pair, config)
    solved = solved_passes(res.report)
    assert {rec.route for rec in solved} == {"full"}
    assert len(seen) == len(solved) >= 2
    assert all(same for _, same in seen)
    assert all(ref() is None for ref, _ in seen)
    seen.clear()
    tca = fit(pair, replace(config, algorithm="tca"))
    assert tca.report.iterations[0].route == "rank_one" and seen == []


@pytest.mark.parametrize("algorithm", ["jda", "jpda"])
def test_every_solve_of_a_fit_reads_the_pairs_own_factor(monkeypatch, algorithm):
    """Each pencil a fit solves holds the prepared pair's one ScatterFactor,
    whose T maps the pass's kept directions back."""
    pair, config = _null_direction_case()
    config = replace(config, algorithm=algorithm)
    prepared = PreparedPair.of(pair, config)
    seen = _spy_solves(monkeypatch)
    res = fit(prepared, config)
    assert len(seen) == len(solved_passes(res.report)) >= 2
    assert all(pencil.factor is prepared.factor for pencil, _, _ in seen)


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
        seen = _spy_solves(mp)
        got = fit(prepared, config)
    solved = [rec for rec in got.report.iterations if rec.repeat_of is None]
    assert got.report.rank_reduced and len(solved) >= 2
    # One eigensolve per solved pass, the first one on the full route.
    assert len(seen) == len(solved) and seen[0][1].route == "full"
    prepared.passes.clear()
    monkeypatch.setattr(
        eigensolve, "solve_trailing", lambda pencil, p: solve_trailing(pencil, pencil.size)
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
    when given fewer columns, so this also pins that the columns are
    transformed in panels whose width does not depend on k."""
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
                eigensolve,
                "solve_trailing",
                lambda pencil, p: solve_trailing(pencil, pencil.size),
            )
            want = fit(prepared, config)
        _assert_same_fit(got, want)


# ------------------------------------------------------------- projection


def test_projected_space_separates_source_classes():
    pair = _small_pair()
    res = fit(pair, AdaptConfig(algorithm="jpda", p=2, iters=3))
    Zs = res.projection.matrix.T @ pair.source.X
    Zt = res.projection.matrix.T @ pair.target.X
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
    G = X if kernel is None else gram(X, kernel)
    want = G @ centering_matrix(G.shape[1]) @ G.T
    got = centered_scatter(G)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
