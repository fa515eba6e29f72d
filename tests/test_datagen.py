"""Synthetic pair generator: portability, geometry, shift semantics.

The cross-check reimplements the documented sampling contract (SplitMix64
in counter mode, Box-Muller cosine branch, class-major draw order, Helmert
simplex layout) in plain Python with the math module, then compares against
the vectorized generator.
"""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import needs_vmhwm, peak_rss_ratio
from mmdadapt import datagen
from mmdadapt.classify import accuracy, knn1_predict
from mmdadapt.datagen import (
    SHIFT_KINDS,
    SIMPLEX_SIDE,
    GeneratedPair,
    ShiftSpec,
    generate_pair,
    simplex_means,
)
from mmdadapt.errors import ConfigError
from mmdadapt.kernels import KernelSpec, gram, resolve_bandwidth

_MASK = (1 << 64) - 1


def _mix64_py(seed: int, k: int) -> int:
    z = (seed + (k + 1) * 0x9E3779B97F4A7C15) & _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def _uniform_py(seed: int, k: int) -> float:
    return ((_mix64_py(seed, k) >> 11) + 1) * 2.0**-53


def _normal_py(seed: int, t: int) -> float:
    u1 = _uniform_py(seed, 2 * t)
    u2 = _uniform_py(seed, 2 * t + 1)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _simplex_py(C: int, d: int) -> list[list[float]]:
    means = [[0.0] * d for _ in range(C)]
    scale = SIMPLEX_SIDE / math.sqrt(2.0)
    for k in range(1, C):
        root = math.sqrt(k * (k + 1))
        for c in range(C):
            if c + 1 <= k:
                means[c][k - 1] = scale / root
            elif c + 1 == k + 1:
                means[c][k - 1] = -scale * k / root
    return means


def _generate_py(seed: int, C: int, npc: int, d: int, theta_deg: float):
    """Plain-Python rotation-shift sampler following the documented contract."""
    means = _simplex_py(C, d)
    n = C * npc
    Xs = [[0.0] * n for _ in range(d)]
    Xt = [[0.0] * n for _ in range(d)]
    for c in range(C):
        for i in range(npc):
            col = c * npc + i
            for j in range(d):
                t = col * d + j
                Xs[j][col] = means[c][j] + _normal_py(seed, t)
                Xt[j][col] = means[c][j] + _normal_py(seed, n * d + t)
    th = math.radians(theta_deg)
    for col in range(n):
        x, y = Xt[0][col], Xt[1][col]
        Xt[0][col] = math.cos(th) * x - math.sin(th) * y
        Xt[1][col] = math.sin(th) * x + math.cos(th) * y
    labels = [c + 1 for c in range(C) for _ in range(npc)]
    return np.array(Xs), np.array(Xt), np.array(labels)


def test_same_seed_is_byte_identical():
    a = generate_pair(ShiftSpec(seed=11))
    b = generate_pair(ShiftSpec(seed=11))
    np.testing.assert_array_equal(a.pair.source.X, b.pair.source.X)
    np.testing.assert_array_equal(a.pair.target.X, b.pair.target.X)
    np.testing.assert_array_equal(a.pair.source.y, b.pair.source.y)


def test_different_seeds_differ():
    a = generate_pair(ShiftSpec(seed=0)).pair.source.X
    b = generate_pair(ShiftSpec(seed=1)).pair.source.X
    assert np.max(np.abs(a - b)) > 0.1


def test_priors_exactly_uniform():
    for kind, mag in (("rotation", 15.0), ("class_swap_noise", 0.7), ("mean_offset", 2.0)):
        gen = generate_pair(ShiftSpec(kind=kind, magnitude=mag, n_per_class=9, seed=2))
        for y in (gen.pair.source.y, gen.pair.target.y):
            np.testing.assert_array_equal(np.bincount(y, minlength=4)[1:], 9)


def test_simplex_side_and_centroid():
    for C, d in ((2, 2), (3, 2), (3, 6), (5, 8)):
        M = simplex_means(C, d)
        np.testing.assert_allclose(M.mean(axis=0), 0.0, atol=1e-12)
        for a in range(C):
            for b in range(a + 1, C):
                assert np.linalg.norm(M[a] - M[b]) == pytest.approx(SIMPLEX_SIDE, rel=1e-12)
        # unit cluster covariance: the layout keeps classes 6 sigma apart
        assert SIMPLEX_SIDE >= 6.0


def test_three_class_vertex_coordinates():
    M = simplex_means(3, 2)
    rt3 = math.sqrt(3.0)
    np.testing.assert_allclose(M, [[3.0, rt3], [-3.0, rt3], [0.0, -2.0 * rt3]], atol=1e-12)


def test_metadata_matches_analytic_rotation():
    spec = ShiftSpec(magnitude=30.0, seed=4)
    gen = generate_pair(spec)
    assert isinstance(gen, GeneratedPair)
    np.testing.assert_allclose(gen.source_means, simplex_means(3, 2), atol=1e-15)
    th = math.radians(30.0)
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    np.testing.assert_allclose(gen.target_means, simplex_means(3, 2) @ R.T, atol=1e-12)


def test_zero_shift_cross_domain_accuracy_matches_within_domain():
    pair = generate_pair(ShiftSpec(magnitude=0.0, n_per_class=100, seed=6)).pair
    cross = accuracy(
        knn1_predict(pair.source.X, pair.source.y, pair.target.X), pair.target.y
    )
    within = accuracy(
        knn1_predict(pair.source.X[:, ::2], pair.source.y[::2], pair.source.X[:, 1::2]),
        pair.source.y[1::2],
    )
    assert abs(cross - within) <= 0.03


def test_half_turn_two_class_label_permutation():
    """A 180 degree turn maps each two-class cluster onto the other."""
    pair = generate_pair(ShiftSpec(magnitude=180.0, class_count=2, dim=2, seed=5)).pair
    pred = knn1_predict(pair.source.X, pair.source.y, pair.target.X)
    assert accuracy(pred, pair.target.y) == 0.0
    assert accuracy(3 - pred, pair.target.y) == 1.0


def test_seed7_matches_plain_python_reimplementation():
    spec = ShiftSpec(magnitude=15.0, n_per_class=67, class_count=3, dim=2, seed=7)
    gen = generate_pair(spec)
    Xs_ref, Xt_ref, y_ref = _generate_py(7, 3, 67, 2, 15.0)
    np.testing.assert_allclose(gen.pair.source.X, Xs_ref, rtol=0, atol=1e-9)
    np.testing.assert_allclose(gen.pair.target.X, Xt_ref, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(gen.pair.source.y, y_ref)
    np.testing.assert_array_equal(gen.pair.target.y, y_ref)
    # raw 1-NN accuracy agrees between the two routes
    acc_lib = accuracy(
        knn1_predict(gen.pair.source.X, gen.pair.source.y, gen.pair.target.X),
        gen.pair.target.y,
    )
    acc_ref = accuracy(knn1_predict(Xs_ref, y_ref, Xt_ref), y_ref)
    assert acc_lib == acc_ref
    # per-class sample means agree with the stored cluster metadata to the
    # sampling-noise scale (about sigma / sqrt(67))
    for c in (1, 2, 3):
        emp = gen.pair.target.X[:, gen.pair.target.y == c].mean(axis=1)
        assert np.linalg.norm(emp - gen.target_means[c - 1]) < 0.5


def test_first_normals_frozen():
    """First Box-Muller draws for seed 0, straight from the bit recipe."""
    spec = ShiftSpec(kind="mean_offset", magnitude=0.0, n_per_class=1, class_count=2, dim=1, seed=0)
    got = generate_pair(spec)
    want0 = _normal_py(0, 0)
    assert got.pair.source.X[0, 0] - simplex_means(2, 1)[0, 0] == pytest.approx(want0, abs=1e-12)


def test_marginal_mmd_monotone_in_rotation():
    """Kernel mean discrepancy grows with the rotation angle on a fixed seed."""
    base = generate_pair(ShiftSpec(magnitude=0.0, seed=3)).pair
    bw = resolve_bandwidth(base.stacked())

    def mmd2(pair):
        X = pair.stacked()
        ns = pair.source.n
        K = gram(X, KernelSpec("rbf", bandwidth=bw))
        e = np.concatenate(
            [np.full(ns, 1.0 / ns), np.full(X.shape[1] - ns, -1.0 / (X.shape[1] - ns))]
        )
        return float(e @ K @ e)

    vals = [
        mmd2(generate_pair(ShiftSpec(magnitude=m, seed=3)).pair)
        for m in (0.0, 5.0, 15.0, 45.0)
    ]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[0] < 1e-3  # near zero at zero shift


def test_mean_offset_moves_last_axis():
    spec = ShiftSpec(kind="mean_offset", magnitude=4.0, dim=3, seed=8)
    gen = generate_pair(spec)
    np.testing.assert_allclose(
        gen.target_means, gen.source_means + np.array([0.0, 0.0, 4.0]), atol=1e-12
    )
    shift = gen.pair.target.X.mean(axis=1) - gen.pair.source.X.mean(axis=1)
    assert shift[2] == pytest.approx(4.0, abs=0.3)
    assert abs(shift[0]) < 0.3 and abs(shift[1]) < 0.3


def test_class_swap_zero_probability_matches_zero_rotation():
    a = generate_pair(ShiftSpec(kind="class_swap_noise", magnitude=0.0, seed=9)).pair
    b = generate_pair(ShiftSpec(kind="rotation", magnitude=0.0, seed=9)).pair
    np.testing.assert_array_equal(a.target.X, b.target.X)


def test_class_swap_degrades_accuracy_keeping_truth():
    clean = generate_pair(ShiftSpec(kind="class_swap_noise", magnitude=0.0, seed=10)).pair
    noisy = generate_pair(ShiftSpec(kind="class_swap_noise", magnitude=0.8, seed=10)).pair
    np.testing.assert_array_equal(clean.target.y, noisy.target.y)
    acc_clean = accuracy(
        knn1_predict(clean.source.X, clean.source.y, clean.target.X), clean.target.y
    )
    acc_noisy = accuracy(
        knn1_predict(noisy.source.X, noisy.source.y, noisy.target.X), noisy.target.y
    )
    assert acc_noisy < acc_clean - 0.3


@pytest.mark.parametrize("seed", [0, 3, 31])
@pytest.mark.parametrize("magnitude", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("C, npc", [(2, 1), (3, 7), (10, 50), (68, 7), (68, 50)])
def test_swapped_clusters_match_the_per_sample_loop(C, npc, magnitude, seed):
    """The whole-array flip and pick draw each target sample from the class
    the reference's per-sample loop over the other classes gives it."""
    spec = ShiftSpec(
        kind="class_swap_noise", magnitude=magnitude, n_per_class=npc, class_count=C,
        dim=C - 1, seed=seed,
    )
    got = generate_pair(spec).pair.target.X
    want = oracles.generate_pair_whole(spec)[1]
    assert got.tobytes() == want.tobytes()


def test_spec_validation():
    assert set(SHIFT_KINDS) == {"rotation", "mean_offset", "class_swap_noise"}
    ShiftSpec(magnitude=180.0)  # closed upper bound is allowed
    with pytest.raises(ConfigError):
        ShiftSpec(magnitude=-1.0)
    with pytest.raises(ConfigError):
        ShiftSpec(magnitude=180.0001)
    with pytest.raises(ConfigError):
        ShiftSpec(kind="class_swap_noise", magnitude=1.5)
    with pytest.raises(ConfigError):
        ShiftSpec(kind="mean_offset", magnitude=-0.1)
    for magnitude in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            ShiftSpec(kind="mean_offset", magnitude=magnitude)
    ShiftSpec(seed=2**64 - 1)
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="seed"):
            ShiftSpec(seed=seed)
    with pytest.raises(ConfigError):
        ShiftSpec(kind="warp")
    with pytest.raises(ConfigError):
        ShiftSpec(n_per_class=0)
    with pytest.raises(ConfigError):
        ShiftSpec(class_count=1)
    with pytest.raises(ConfigError):
        ShiftSpec(class_count=5, dim=3)
    with pytest.raises(ConfigError, match="rotation needs dim >= 2"):
        ShiftSpec(kind="rotation", class_count=2, dim=1)


# (class_count, n_per_class, dim): n * d normals per domain below one
# sampler chunk of 2**15, exactly one, one plus one, several, and a row
# longer than a chunk.
_CHUNK_SHAPES = [
    (3, 10, 40),
    (2, 64, 256),
    (3, 331, 33),
    (10, 60, 256),
    (2, 1, 2**15 + 3),
]


def _arrays_agree(got, want):
    assert got.shape == want.shape
    assert got.strides == want.strides
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", _CHUNK_SHAPES)
@pytest.mark.parametrize("kind, magnitude", [("rotation", 15.0), ("mean_offset", 2.5), ("class_swap_noise", 0.3)])
def test_chunked_generator_equals_the_whole_array_reference(kind, magnitude, shape):
    """Chunked normals and blockwise class means give every array the bytes,
    shape and strides of one whole-array step."""
    assert datagen._CHUNK == 2**15
    C, npc, d = shape
    spec = ShiftSpec(kind=kind, magnitude=magnitude, n_per_class=npc, class_count=C, dim=d, seed=3)
    gen = generate_pair(spec)
    Xs, Xt, labels, source_means, target_means = oracles.generate_pair_whole(spec)
    _arrays_agree(gen.pair.source.X, Xs)
    _arrays_agree(gen.pair.target.X, Xt)
    _arrays_agree(gen.pair.source.y, labels)
    _arrays_agree(gen.pair.target.y, labels)
    _arrays_agree(gen.source_means, source_means)
    _arrays_agree(gen.target_means, target_means)


def _generated_bytes(gen):
    return sum(
        a.nbytes
        for a in (gen.pair.source.X, gen.pair.target.X, gen.pair.source.y, gen.pair.target.y,
                  gen.source_means, gen.target_means)
    )


@pytest.mark.parametrize("kind", SHIFT_KINDS)
def test_generator_peak_is_its_output_plus_a_fixed_allowance(kind):
    """The pair's arrays plus at most 2.5 MB, at 2.5 MB and at 20 MB of
    output: the sampler's buffers do not grow with n * d. Drawing each
    domain whole took about 4x the output more."""
    magnitude = 0.3 if kind == "class_swap_noise" else 15.0
    for npc in (60, 480):
        spec = ShiftSpec(kind=kind, magnitude=magnitude, n_per_class=npc, class_count=10, dim=256)
        tracemalloc.start()
        try:
            gen = generate_pair(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = peak - _generated_bytes(gen)
        assert extra <= 2.5 * 2**20, f"n_per_class={npc}: {extra / 2**20:.1f} MB beyond the output"


@needs_vmhwm
def test_generator_raises_peak_rss_by_at_most_twice_the_pair():
    """Digits shape (C=10, d=256, 60 per class: 2.46 MB of features)."""
    ratio = peak_rss_ratio(
        "from mmdadapt.datagen import ShiftSpec, generate_pair\n"
        "spec = ShiftSpec(n_per_class=60, class_count=10, dim=256)",
        "gen = generate_pair(spec)",
        "gen.pair.source.X.nbytes + gen.pair.target.X.nbytes",
    )
    assert ratio <= 2.0, f"generation raised peak RSS by {ratio:.1f}x the pair's arrays"


def test_pair_too_large_for_the_process_is_a_config_error(monkeypatch):
    """The estimate is the two n x d domains plus the sampler's buffers."""
    monkeypatch.setattr(datagen, "_memory_limit", lambda: 2**30)
    ShiftSpec(n_per_class=100_000, class_count=2, dim=256)
    with pytest.raises(ConfigError, match=r"^a synthetic pair of 2000000 samples x 256 features per domain needs about 7\.63 GiB, more than the 1 GiB"):
        ShiftSpec(n_per_class=1_000_000, class_count=2, dim=256)

