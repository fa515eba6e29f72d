"""Synthetic domain pairs with a portable counter-based sampler.

Fixtures must be reproducible bit-for-bit across platforms and languages,
so sampling avoids any library RNG. The generator is SplitMix64 used in
counter mode:

    bits(seed, k) = mix64((seed + (k + 1) * 0x9E3779B97F4A7C15) mod 2^64)

with the published mix64 finalizer (xor-shift 30 / mul 0xBF58476D1CE4E5B9 /
xor-shift 27 / mul 0x94D049BB133111EB / xor-shift 31), all arithmetic modulo
2^64. Uniforms take the top 53 bits: u = ((bits >> 11) + 1) * 2^-53, so
u lies in (0, 1]. The t-th standard normal consumes counters 2t and 2t+1
through the Box-Muller cosine branch only:

    z_t = sqrt(-2 ln u(2t)) * cos(2 pi u(2t+1))

Draw order: source features first, then target features, class-major then
sample then feature (normal index t = (c*n_per_class + i)*dim + j, target
offset by class_count*n_per_class*dim). Kind-specific uniforms, if any,
start at counter 4*class_count*n_per_class*dim and consume two counters per
target sample (flip decision, replacement class) regardless of outcome.

The sampler works through the normals _CHUNK at a time, and each domain's
normals are drawn into the array it returns, its class means added in
blocks of rows; a whole-array draw gives the same floats, since every step
is elementwise. A pair whose two n x d domains exceed the memory the
process may take is refused by ShiftSpec before anything is drawn.

Class means sit on a regular simplex of side 6 (unit cluster covariance)
spanned by the first C-1 feature axes via the Helmert construction, centroid
at the origin. Rotation acts in the (0, 1) coordinate plane; mean_offset
shifts the last axis; class_swap_noise redraws a sample's generating cluster
while keeping its truth label, so class priors stay exactly uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DomainPair, LabeledDataset, _memory_limit
from .errors import ConfigError

SIMPLEX_SIDE = 6.0

SHIFT_KINDS = ("rotation", "mean_offset", "class_swap_noise")

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Normals drawn per step of _normals, and the matrix entries per class-mean
# gather in generate_pair (one row, when a row is longer): a 2**15 chunk
# keeps the sampler's temporaries near 1.5 MB at any pair size.
_CHUNK = 2**15


def mix64(seed: np.uint64, counters: np.ndarray) -> np.ndarray:
    """SplitMix64 output words for an array of counters (uint64, wrapping)."""
    with np.errstate(over="ignore"):
        z = counters.astype(np.uint64)
        z += np.uint64(1)
        z *= _GOLDEN
        z += seed
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    return z


def _uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """count uniforms in (0, 1] from consecutive counters starting at start."""
    bits = mix64(np.uint64(seed), np.arange(start, start + count, dtype=np.uint64))
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u += 1.0
    u *= 2.0**-53
    return u


def _normals(seed: int, first_normal: int, count: int) -> np.ndarray:
    """count standard normals; the t-th uses counters 2t and 2t+1.

    The output is filled _CHUNK normals at a time, and a chunk's buffers are
    freed before the next one is drawn, so the sampler's temporaries stay a
    fixed size whatever count is. Every step is elementwise, so each normal is
    the same float as in one whole-array step.
    """
    out = np.empty(count)
    for start in range(0, count, _CHUNK):
        size = min(_CHUNK, count - start)
        _box_muller(_uniforms(seed, 2 * (first_normal + start), 2 * size), out[start : start + size])
    return out


def _box_muller(u: np.ndarray, out: np.ndarray) -> None:
    """out[t] = sqrt(-2 ln u[2t]) * cos(2 pi u[2t+1]), through two half-size buffers."""
    radius = np.log(u[0::2])
    radius *= -2.0
    angle = np.multiply(u[1::2], 2.0 * math.pi)
    np.multiply(np.sqrt(radius, out=radius), np.cos(angle, out=angle), out=out)


@dataclass
class ShiftSpec:
    """Recipe for one synthetic source/target pair.

    magnitude means degrees for rotation, offset length for mean_offset,
    and flip probability for class_swap_noise. Defaults give a plain
    two-axis three-cluster task at 15 degrees. Raising dim pads the layout
    with pure-noise axes (the simplex always spans the first C-1 axes),
    which degrades raw nearest-neighbor accuracy while staying fully
    recoverable by a low-dimensional projection; the benchmark suite in the
    tests uses dim=40 for exactly that reason.
    """

    kind: str = "rotation"
    magnitude: float = 15.0
    n_per_class: int = 67
    class_count: int = 3
    dim: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SHIFT_KINDS:
            raise ConfigError(f"unknown shift kind {self.kind!r}; choose from {SHIFT_KINDS}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must lie in [0, 2**64)")
        if self.n_per_class < 1:
            raise ConfigError("n_per_class must be at least 1")
        if self.class_count < 2:
            raise ConfigError("need at least two classes")
        if self.dim < self.class_count - 1:
            raise ConfigError("dim must be at least class_count - 1 to hold the simplex")
        if self.kind == "rotation" and self.dim < 2:
            raise ConfigError("rotation needs dim >= 2")
        # Half turns are allowed (closed upper bound) so the symmetric
        # two-class layout can be mapped exactly onto itself.
        if self.kind == "rotation" and not 0.0 <= self.magnitude <= 180.0:
            raise ConfigError("rotation magnitude is in degrees within [0, 180]")
        if self.kind == "class_swap_noise" and not 0.0 <= self.magnitude <= 1.0:
            raise ConfigError("class_swap_noise magnitude is a probability in [0, 1]")
        if self.kind == "mean_offset" and not 0 <= self.magnitude < math.inf:
            raise ConfigError("mean_offset magnitude must be non-negative and finite")
        # The two n x d domains, plus the sampler's three 2 * _CHUNK buffers.
        n = self.class_count * self.n_per_class
        need = 8 * (2 * n * self.dim + 6 * _CHUNK)
        limit = _memory_limit()
        if need > limit:
            raise ConfigError(
                f"a synthetic pair of {n} samples x {self.dim} features per domain needs "
                f"about {need / 2**30:.3g} GiB, more than the {limit / 2**30:.3g} GiB "
                "this process can take"
            )


@dataclass
class GeneratedPair:
    """A domain pair plus the exact cluster geometry that produced it."""

    pair: DomainPair
    source_means: np.ndarray  # C x d, truth-class cluster centers
    target_means: np.ndarray  # C x d, centers after the shift


def simplex_means(class_count: int, dim: int) -> np.ndarray:
    """Regular-simplex class means (C x d), side SIMPLEX_SIDE, centroid 0.

    Coordinates come from the Helmert basis of the centered simplex and
    occupy the first C-1 axes.
    """
    C = class_count
    means = np.zeros((C, dim))
    scale = SIMPLEX_SIDE / math.sqrt(2.0)
    for k in range(1, C):
        root = math.sqrt(k * (k + 1))
        for c in range(C):
            if c + 1 <= k:
                means[c, k - 1] = scale / root
            elif c + 1 == k + 1:
                means[c, k - 1] = -scale * k / root
    return means


def generate_pair(spec: ShiftSpec) -> GeneratedPair:
    """Sample a source/target pair under the requested shift.

    Each domain's n x d normals are drawn into the array it returns (as its
    d x n transpose), and the class means are added into it in blocks of
    rows, so no other n x d array is formed.
    """
    C, npc, d = spec.class_count, spec.n_per_class, spec.dim
    n = C * npc
    means = simplex_means(C, d)
    labels = np.repeat(np.arange(1, C + 1), npc)

    target_means = means.copy()
    gen = labels
    if spec.kind == "class_swap_noise":
        # Sample i flips when uniform 2i is at most magnitude, to the pick-th
        # class other than its own (pick from uniform 2i + 1, in 1..C-1):
        # pick below its label, pick + 1 from it on.
        u = _uniforms(spec.seed, 4 * n * d, 2 * n)
        pick = np.ceil(u[1::2] * (C - 1)).astype(labels.dtype)
        gen = np.where(u[0::2] <= spec.magnitude, pick + (pick >= labels), labels)

    Xs = _shifted_normals(spec.seed, 0, means, labels).T
    Xt = _shifted_normals(spec.seed, n * d, means, gen).T
    if spec.kind == "rotation":
        theta = math.radians(spec.magnitude)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        Xt[:2, :] = rot @ Xt[:2, :]
        target_means[:, :2] = target_means[:, :2] @ rot.T
    elif spec.kind == "mean_offset":
        Xt[d - 1, :] += spec.magnitude
        target_means[:, d - 1] += spec.magnitude

    pair = DomainPair(
        source=LabeledDataset(X=Xs, y=labels.copy(), class_count=C),
        target=LabeledDataset(X=Xt, y=labels.copy(), class_count=C),
    )
    return GeneratedPair(pair=pair, source_means=means, target_means=target_means)


def _shifted_normals(seed: int, first_normal: int, means: np.ndarray, gen: np.ndarray) -> np.ndarray:
    """n x d normals from first_normal on, row i shifted by the mean of its
    generating class gen[i]. The means are gathered and added a block of
    rows at a time; the sum is the same float as means[gen - 1] + z."""
    n, d = gen.size, means.shape[1]
    z = _normals(seed, first_normal, n * d).reshape(n, d)
    rows = max(1, _CHUNK // d)
    for i in range(0, n, rows):
        z[i : i + rows] += means[gen[i : i + rows] - 1]
    return z
