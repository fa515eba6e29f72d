"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run `pytest tests/test_acceptance.py -s` to see the verdict lines as they
print. Criterion 8 needs user-supplied feature CSVs under data/paper/ (see
the README for the layout) and skips cleanly when they are absent.
"""

import json
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import random_onehots, random_pair
from mmdadapt.adapt import fit, weighted_fit
from mmdadapt.classify import accuracy, knn1_predict
from mmdadapt.data import AdaptConfig, DomainPair, LabeledDataset, one_hot_encode
from mmdadapt.datagen import ShiftSpec, generate_pair
from mmdadapt.eigensolve import default_ridge, solve_trailing
from mmdadapt.harness import PRESETS, ExperimentConfig, run
from mmdadapt.mmd import build_joint_prob_factors, build_rmax, build_rmin
from oracles import centering_matrix, conditional_mmd_matrices, marginal_mmd_matrix


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _projected(A: np.ndarray, X: np.ndarray, R: np.ndarray) -> float:
    P = X.T @ A
    return float(np.sum(P * (R @ P)))


# ------------------------------------------------------------- criterion 1


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        pair = random_pair(rng)
        Xs, Xt = pair.source.X, pair.target.X
        ys = pair.source.y
        C = pair.source.class_count
        yt = rng.integers(1, C + 1, size=pair.target.n)
        p = int(rng.integers(1, 6))
        A = rng.standard_normal((pair.source.dim, p))

        factors = build_joint_prob_factors(one_hot_encode(ys, C), one_hot_encode(yt, C))
        X = pair.stacked()
        for builder, oracle in (
            (build_rmin, oracles.same_class_sum),
            (build_rmax, oracles.cross_class_sum),
        ):
            got = _projected(A, X, builder(factors))
            want = oracle(A, Xs, Xt, ys, yt, C)
            rel = abs(got - want) / max(abs(got), abs(want), 1e-12)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        worst <= 1e-10 and elapsed < 10.0,
        f"200 instances, worst rel err {worst:.3e}, {elapsed:.2f}s",
    )


# ------------------------------------------------------------- criterion 2


def test_criterion_2_psd_and_symmetry():
    rng = np.random.default_rng(1002)
    worst_sym, worst_eig = 0.0, 0.0
    for _ in range(50):
        pair = random_pair(rng)
        C = pair.source.class_count
        Ys = one_hot_encode(pair.source.y, C)
        Yt = one_hot_encode(rng.integers(1, C + 1, size=pair.target.n), C)
        factors = build_joint_prob_factors(Ys, Yt)
        mats = [
            build_rmin(factors),
            build_rmax(factors),
            marginal_mmd_matrix(pair.source.n, pair.target.n),
            *conditional_mmd_matrices(Ys, Yt)[0],
        ]
        for M in mats:
            worst_sym = max(worst_sym, float(np.max(np.abs(M - M.T))))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(M)[0]))
    worst_h = 0.0
    for n in (1, 2, 7, 31, 60):
        H = centering_matrix(n)
        worst_h = max(worst_h, float(np.max(np.abs(H @ H - H))))
    _verdict(
        2,
        worst_sym <= 1e-12 and worst_eig >= -1e-10 and worst_h <= 1e-14,
        f"50 instances, max asymmetry {worst_sym:.1e}, "
        f"min eigenvalue {worst_eig:.1e}, H idempotency {worst_h:.1e}",
    )


# ------------------------------------------------------------- criterion 3


def test_criterion_3_eigensolver_suite():
    rng = np.random.default_rng(1003)
    worst_val, worst_orth, worst_shift = 0.0, 0.0, 0.0
    for _ in range(50):
        m = int(rng.integers(2, 21))
        W = rng.standard_normal((m, m))
        S = (W + W.T) / 2.0
        F = rng.standard_normal((m, m))
        B = F @ F.T
        ridge = default_ridge(B)
        pencil = oracles.dense_pencil(S, B, ridge)
        res = solve_trailing(pencil, m)
        V = oracles.vectors(pencil, res)

        ref_vals, _ref_vecs = oracles.whiten_solve(S, B, ridge)
        scale = max(1.0, float(np.max(np.abs(ref_vals))))
        worst_val = max(worst_val, float(np.max(np.abs(res.values - ref_vals))) / scale)

        Br = B + ridge * np.eye(m)
        gram_gap = np.max(np.abs(V.T @ Br @ V - np.eye(m)))
        worst_orth = max(worst_orth, float(gram_gap))

        c = 1.75 * scale
        res2 = solve_trailing(oracles.dense_pencil(S + c * Br, B, ridge), m)
        gap = np.max(np.abs(res2.values - (res.values + c))) / scale
        worst_shift = max(worst_shift, float(gap))
    _verdict(
        3,
        worst_val <= 1e-8 and worst_orth <= 1e-6 and worst_shift <= 1e-8,
        f"50 pencils, whitening gap {worst_val:.1e}, "
        f"orthonormality {worst_orth:.1e}, shift gap {worst_shift:.1e}",
    )


# ------------------------------------------------------------- criterion 4


def test_criterion_4_zero_shift_fixed_point():
    src = generate_pair(ShiftSpec(n_per_class=20, seed=3)).pair.source
    pair = DomainPair(
        source=src,
        target=LabeledDataset(X=src.X.copy(), y=src.y.copy(), class_count=src.class_count),
    )
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # bda balance degenerates here
        for algo in ("tca", "jda", "bda", "jp", "jpda"):
            res = fit(pair, AdaptConfig(algorithm=algo, p=2, iters=3))
            last = res.report.iterations[-1]
            if res.report.final_accuracy != 1.0 or last.transfer > 1e-8:
                failures.append(f"{algo}: acc={res.report.final_accuracy} mmd={last.transfer:.2e}")
    _verdict(4, not failures, "; ".join(failures) or "5 algorithms at accuracy 1.0, mmd <= 1e-8")


# ----------------------------------------------------- criteria 5 and 9


_SUITE_SEEDS = tuple(range(20))


def _suite_spec(seed: int) -> ShiftSpec:
    return ShiftSpec(
        kind="rotation", magnitude=15.0, n_per_class=67, class_count=3, dim=40, seed=seed
    )


def _suite_config(algorithm: str, mu: float = 0.1, lam: float = 0.1) -> AdaptConfig:
    return AdaptConfig(algorithm=algorithm, p=2, iters=10, mu=mu, lam=lam)


@pytest.fixture(scope="module")
def suite_pairs():
    return {s: generate_pair(_suite_spec(s)).pair for s in _SUITE_SEEDS}


@pytest.fixture(scope="module")
def suite_core(suite_pairs):
    t0 = time.perf_counter()
    accs = {"raw": [], "jpda": [], "jp": [], "jda": []}
    for pair in suite_pairs.values():
        pred = knn1_predict(pair.source.X, pair.source.y, pair.target.X)
        accs["raw"].append(accuracy(pred, pair.target.y))
        for algo in ("jpda", "jp", "jda"):
            accs[algo].append(fit(pair, _suite_config(algo)).report.final_accuracy)
    elapsed = time.perf_counter() - t0
    return {name: float(np.mean(vals)) for name, vals in accs.items()} | {"elapsed": elapsed}


def test_criterion_5_synthetic_adaptation_gain(suite_core):
    m = suite_core
    ok = (
        m["jpda"] > m["raw"]
        and m["jpda"] >= m["jp"]
        and m["jp"] >= m["jda"]
        and m["elapsed"] < 120.0
    )
    _verdict(
        5,
        ok,
        f"20 seeds: raw={m['raw']:.10f} jda={m['jda']:.10f} "
        f"jp={m['jp']:.10f} jpda={m['jpda']:.10f}, {m['elapsed']:.1f}s",
    )


# ------------------------------------------------------------- criterion 6


def _numeric_view(result) -> dict:
    report = result.report.to_dict(include_timing=False)
    report.pop("algorithm")
    for rec in report["iterations"]:
        rec.pop("bda_mu")
    return report


def test_criterion_6_specialization_wiring():
    pair = generate_pair(ShiftSpec(magnitude=20.0, n_per_class=10, dim=6, seed=2)).pair
    cases = {
        "jpda(mu=0) == jp": (
            fit(pair, AdaptConfig(algorithm="jpda", p=3, iters=3, mu=0.0)),
            fit(pair, AdaptConfig(algorithm="jp", p=3, iters=3)),
        ),
        "weighted(1,0) T=1 == tca": (
            weighted_fit(pair, AdaptConfig(algorithm="jda", p=3, iters=1), weights=(1.0, 0.0)),
            fit(pair, AdaptConfig(algorithm="tca", p=3, iters=5)),
        ),
        "weighted(1,1) == jda": (
            weighted_fit(pair, AdaptConfig(algorithm="bda", p=3, iters=3), weights=(1.0, 1.0)),
            fit(pair, AdaptConfig(algorithm="jda", p=3, iters=3)),
        ),
        "bda(mu=0.5) == weighted(.5,.5)": (
            fit(pair, AdaptConfig(algorithm="bda", p=3, iters=3, bda_mu=0.5)),
            weighted_fit(pair, AdaptConfig(algorithm="jda", p=3, iters=3), weights=(0.5, 0.5)),
        ),
    }
    failures = [
        name
        for name, (a, b) in cases.items()
        if not (
            np.array_equal(a.projection.matrix, b.projection.matrix)
            and np.array_equal(a.pseudo_labels, b.pseudo_labels)
            and _numeric_view(a) == _numeric_view(b)
        )
    ]
    _verdict(6, not failures, "; ".join(failures) or "4/4 identities bit-identical")


# ------------------------------------------------------------- criterion 7

# Each timing round runs in its own interpreter: heap and BLAS threadpool
# state left by earlier work shifts microbenchmark slopes by several
# tenths, and even one round's large problems skew the next round's small
# ones. Sizes count samples per domain, as in the benchmark suite, so all
# three points sit in the same memory regime.
_SCALING_SCRIPT = """
import json, math, time
import numpy as np
from mmdadapt.adapt import fit
from mmdadapt.data import AdaptConfig, one_hot_encode
from mmdadapt.datagen import ShiftSpec, generate_pair
from mmdadapt.mmd import build_joint_prob_factors, build_rmax, build_rmin

SIZES = (200, 400, 800)


def best_of(fn, repeats):
    fn()  # warmup
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def slope(times):
    return float(np.polyfit(np.log(SIZES), np.log(times), 1)[0])


mmd_times, fit_times = [], []
for n in SIZES:
    pair = generate_pair(ShiftSpec(n_per_class=n // 2, class_count=2, dim=4, seed=0)).pair
    Ys = one_hot_encode(pair.source.y, 2)
    Yt = one_hot_encode(pair.target.y, 2)

    def stage():
        factors = build_joint_prob_factors(Ys, Yt)
        build_rmin(factors)
        build_rmax(factors)

    mmd_times.append(best_of(stage, repeats=7))
    cfg = AdaptConfig(algorithm="jpda", p=2, iters=2)
    fit_times.append(best_of(lambda: fit(pair, cfg), repeats=3))

print(json.dumps({"mmd_slope": slope(mmd_times), "fit_slope": slope(fit_times)}))
"""


def _scaling_round() -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _SCALING_SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_criterion_7_complexity_scaling():
    rounds = [_scaling_round() for _ in range(3)]
    mmd_slope = sorted(r["mmd_slope"] for r in rounds)[1]
    fit_slope = sorted(r["fit_slope"] for r in rounds)[1]
    _verdict(
        7,
        1.6 <= mmd_slope <= 2.4 and fit_slope <= 3.0,
        f"mmd-construction slope {mmd_slope:.2f} (want [1.6, 2.4]), "
        f"full-fit slope {fit_slope:.2f} (want <= 3)",
    )


# ------------------------------------------------------------- criterion 8

# Reference accuracies (percent) per task, columns tca/jda/bda/jpda. Task
# keys are "<source>_<target>" directory names under data/paper/. With
# every task present the per-column means are 47.22/57.37/57.18/60.68.
_REFERENCE = {
    "c05_c07": (40.76, 58.81, 58.20, 59.36),
    "c05_c09": (41.79, 54.23, 52.82, 66.67),
    "c05_c27": (59.63, 84.50, 83.03, 83.99),
    "c05_c29": (29.35, 49.75, 49.14, 49.51),
    "c07_c05": (41.81, 57.62, 57.35, 63.00),
    "c07_c09": (51.47, 62.93, 62.75, 60.85),
    "c07_c27": (64.73, 75.82, 75.76, 77.05),
    "c07_c29": (33.70, 39.89, 39.71, 47.67),
    "c09_c05": (34.69, 50.96, 51.35, 59.78),
    "c09_c07": (47.70, 57.95, 56.41, 63.35),
    "c09_c27": (56.23, 68.46, 67.86, 74.47),
    "c09_c29": (33.15, 39.95, 42.40, 52.70),
    "c27_c05": (55.64, 80.58, 80.52, 84.87),
    "c27_c07": (67.83, 82.63, 83.06, 83.24),
    "c27_c09": (75.86, 87.25, 87.25, 87.44),
    "c27_c29": (40.26, 54.66, 54.53, 65.38),
    "c29_c05": (26.98, 46.46, 47.99, 53.63),
    "c29_c07": (29.90, 42.05, 43.22, 51.32),
    "c29_c09": (29.90, 53.31, 47.92, 55.76),
    "c29_c27": (33.64, 57.01, 57.10, 58.49),
    "c_a": (38.20, 44.78, 44.57, 47.60),
    "c_w": (38.64, 41.69, 40.34, 45.76),
    "c_d": (41.40, 45.22, 45.22, 46.50),
    "a_c": (37.76, 39.36, 39.27, 40.78),
    "a_w": (37.63, 37.97, 37.97, 40.68),
    "a_d": (33.12, 39.49, 40.76, 36.94),
    "w_c": (29.30, 31.17, 31.43, 34.55),
    "w_a": (30.06, 32.78, 32.46, 33.82),
    "w_d": (87.26, 89.17, 89.17, 88.54),
    "d_c": (31.70, 31.52, 31.17, 34.73),
    "d_a": (32.15, 33.09, 33.19, 34.66),
    "d_w": (86.10, 89.49, 89.49, 91.19),
    "coil1_coil2": (88.47, 89.31, 89.44, 92.08),
    "coil2_coil1": (85.83, 88.47, 88.33, 89.86),
    "usps_mnist": (51.05, 59.65, 59.90, 59.20),
    "mnist_usps": (56.28, 67.28, 67.39, 68.94),
}
_COLUMNS = ("tca", "jda", "bda", "jpda")
_DIGIT_JPDA = {"mnist_usps": 68.94, "usps_mnist": 59.20}
_OFFICE_TASKS = {k for k in _REFERENCE if set(k.split("_")) <= {"c", "a", "w", "d"}}


def test_criterion_8_reference_task_accuracies():
    root = Path(__file__).resolve().parent.parent / "data" / "paper"
    tasks = (
        sorted(
            d.name
            for d in root.iterdir()
            if d.is_dir() and (d / "source.csv").exists() and (d / "target.csv").exists()
        )
        if root.is_dir()
        else []
    )
    if not tasks:
        print("\ncriterion 8: SKIP (no task directories under data/paper/; see README)")
        pytest.skip("conditional criterion: user-supplied feature files absent")

    results = {}
    for name in tasks:
        extra = dict(PRESETS["office-caltech"]) if name in _OFFICE_TASKS else {}
        cfg = ExperimentConfig(
            source=str(root / name / "source.csv"),
            target=str(root / name / "target.csv"),
            **extra,
        )
        report = run(cfg, write=False)
        results[name] = {
            algo: 100.0 * rep.final_accuracy for algo, rep in report.algorithms.items()
        }

    failures = []
    for name, want in _DIGIT_JPDA.items():
        if name in results and abs(results[name]["jpda"] - want) > 2.0:
            failures.append(f"{name} jpda {results[name]['jpda']:.2f} vs {want} +-2.0")

    known = [t for t in tasks if t in _REFERENCE]
    if known:
        for col, algo in enumerate(_COLUMNS):
            ours = float(np.mean([results[t][algo] for t in known]))
            ref = float(np.mean([_REFERENCE[t][col] for t in known]))
            if abs(ours - ref) > 2.5:
                failures.append(f"{algo} average {ours:.2f} vs {ref:.2f} +-2.5")

    wins = sum(results[t]["jpda"] > results[t]["jda"] for t in tasks)
    if not wins > len(tasks) / 2:
        failures.append(f"jpda beats jda on {wins}/{len(tasks)} tasks only")

    _verdict(
        8,
        not failures,
        "; ".join(failures) or f"{len(tasks)} tasks, digit targets and averages in band",
    )


# ------------------------------------------------------------- criterion 9


@pytest.fixture(scope="module")
def suite_grids(suite_pairs, suite_core):
    mu_means = {0.1: suite_core["jpda"]}
    for mu in (0.001, 0.01, 0.2):
        accs = [
            fit(pair, _suite_config("jpda", mu=mu)).report.final_accuracy
            for pair in suite_pairs.values()
        ]
        mu_means[mu] = float(np.mean(accs))
    lam_means = {0.1: suite_core["jpda"]}
    for lam in (0.01, 1.0, 10.0):
        accs = [
            fit(pair, _suite_config("jpda", lam=lam)).report.final_accuracy
            for pair in suite_pairs.values()
        ]
        lam_means[lam] = float(np.mean(accs))
    return mu_means, lam_means


def test_criterion_9_parameter_robustness(suite_grids):
    mu_means, lam_means = suite_grids
    mu_band = max(mu_means.values()) - min(mu_means.values())
    lam_band = max(lam_means.values()) - min(lam_means.values())
    mu_txt = " ".join(f"{k:g}:{v:.4f}" for k, v in sorted(mu_means.items()))
    lam_txt = " ".join(f"{k:g}:{v:.4f}" for k, v in sorted(lam_means.items()))
    _verdict(
        9,
        mu_band <= 0.05 and lam_band <= 0.05,
        f"mu band {100 * mu_band:.2f} pts ({mu_txt}); "
        f"lambda band {100 * lam_band:.2f} pts ({lam_txt})",
    )
