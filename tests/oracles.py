"""Brute-force reference implementations the library must agree with.

Everything here is written as literal loops over classes and samples, or
as the dense n x n matrices the package no longer forms, with no shared code
from the package beyond its error type and the pencil types that carry a
dense pencil to the solver, so agreement is meaningful evidence rather than
self-confirmation. The one exception is reference_passes, which checks the
fit loop's reuse of passes and so runs the package's own pass, every time;
and generate_pair_whole takes the package's simplex layout, which
test_datagen checks on its own.
"""

import codecs
import csv
import io
import math

import numpy as np
import scipy.linalg

from mmdadapt import adapt
from mmdadapt.data import one_hot_encode
from mmdadapt.datagen import simplex_means
from mmdadapt.eigensolve import FactoredPencil, ScatterFactor
from mmdadapt.errors import DataError


def class_mean(P, y, c, n_norm):
    """Sum of projected class-c columns divided by a caller-chosen size.

    An empty class contributes the zero vector, mirroring the builders'
    empty-class convention.
    """
    cols = P[:, y == c]
    if cols.shape[1] == 0:
        return np.zeros(P.shape[0])
    return cols.sum(axis=1) / n_norm


def same_class_sum(A, Xs, Xt, ys, yt, C):
    """Sum over classes of squared distance between domain-normalized means."""
    Ps, Pt = A.T @ Xs, A.T @ Xt
    total = 0.0
    for c in range(1, C + 1):
        diff = class_mean(Ps, ys, c, Xs.shape[1]) - class_mean(Pt, yt, c, Xt.shape[1])
        total += float(diff @ diff)
    return total


def cross_class_sum(A, Xs, Xt, ys, yt, C):
    """Double sum over ordered class pairs (c, c') with c' != c."""
    Ps, Pt = A.T @ Xs, A.T @ Xt
    total = 0.0
    for c in range(1, C + 1):
        for c2 in range(1, C + 1):
            if c2 == c:
                continue
            diff = class_mean(Ps, ys, c, Xs.shape[1]) - class_mean(Pt, yt, c2, Xt.shape[1])
            total += float(diff @ diff)
    return total


def marginal_sum(A, Xs, Xt):
    diff = (A.T @ Xs).mean(axis=1) - (A.T @ Xt).mean(axis=1)
    return float(diff @ diff)


def conditional_sum(A, Xs, Xt, ys, yt, C):
    """Per-class mean differences with per-class normalizers; empty skipped."""
    Ps, Pt = A.T @ Xs, A.T @ Xt
    total = 0.0
    for c in range(1, C + 1):
        ns_c = int(np.sum(ys == c))
        nt_c = int(np.sum(yt == c))
        if ns_c == 0 or nt_c == 0:
            continue
        diff = class_mean(Ps, ys, c, ns_c) - class_mean(Pt, yt, c, nt_c)
        total += float(diff @ diff)
    return total


def symmetrized_gram(B):
    """(R + R^T) / 2 with R = B @ B^T, in full: the dense builders' former body.

    The tiled builders must return these bytes exactly.
    """
    R = B @ B.T
    return (R + R.T) / 2.0


def cross_factor_blocks(Ys, Yt):
    """Independent constructor for the cross-class factor pair.

    Iterates ordered pairs (c, c2 != c) directly: for each c (block) and each
    c2 != c in ascending order, emit source column c and target column c2.
    """
    n_s, C = Ys.shape
    n_t = Yt.shape[0]
    fs_cols, ft_cols = [], []
    for c in range(C):
        for c2 in range(C):
            if c2 == c:
                continue
            fs_cols.append(Ys[:, c])
            ft_cols.append(Yt[:, c2])
    Fs = np.column_stack(fs_cols) / n_s
    Ft = np.column_stack(ft_cols) / n_t
    return Fs, Ft


def indicator_factor(Ys, Yt):
    """E = blockdiag(Ys / n_s, Yt / n_t), the n x 2C factor every core acts on."""
    (n_s, C), n_t = Ys.shape, Yt.shape[0]
    E = np.zeros((n_s + n_t, 2 * C))
    E[:n_s, :C] = Ys / n_s
    E[n_s:, C:] = Yt / n_t
    return E


def marginal_mmd_matrix(n_s, n_t):
    """Dense whole-domain mean-difference matrix M_0.

    Entries: 1/n_s^2 on the source block, 1/n_t^2 on the target block,
    -1/(n_s n_t) on the cross blocks.
    """
    if n_s < 1 or n_t < 1:
        raise DataError("both domains need at least one sample")
    e = np.concatenate([np.full(n_s, 1.0 / n_s), np.full(n_t, -1.0 / n_t)])
    return np.outer(e, e)


def conditional_mmd_matrices(Ys, Yt):
    """Dense per-class mean-difference matrices M_c with per-class normalizers.

    Returns C matrices and the (1-based) classes skipped because one domain
    had no samples of that class; skipped classes contribute a zero matrix.
    """
    C = Ys.shape[1]
    n = Ys.shape[0] + Yt.shape[0]
    mats, skipped = [], []
    for c in range(C):
        ns_c, nt_c = Ys[:, c].sum(), Yt[:, c].sum()
        if ns_c == 0 or nt_c == 0:
            mats.append(np.zeros((n, n)))
            skipped.append(c + 1)
            continue
        e = np.concatenate([Ys[:, c] / ns_c, -Yt[:, c] / nt_c])
        mats.append(np.outer(e, e))
    return mats, skipped


def centering_matrix(n):
    """Dense H = I - (1/n) ones(n, n)."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def whiten_solve(S, B, ridge):
    """Generalized eigensolve via explicit whitening, smallest first.

    Uses a Cholesky factor of the stabilized B and a plain symmetric
    eigen-decomposition, a different route than the library's driver.
    """
    m = S.shape[0]
    L = np.linalg.cholesky(B + ridge * np.eye(m))
    Linv = np.linalg.inv(L)
    W = Linv @ S @ Linv.T
    W = (W + W.T) / 2.0
    vals, U = np.linalg.eigh(W)
    vecs = Linv.T @ U
    return vals, vecs


def generalized_solve(S, B, ridge):
    """All pairs of (S, B + ridge*I) from LAPACK's generalized driver.

    The route the library took before it whitened by an explicit Cholesky
    factor: scipy.linalg.eigh(S, B + ridge*I), ascending, each vector
    sign-fixed so its largest-magnitude entry (the first on ties) is
    positive.
    """
    vals, vecs = scipy.linalg.eigh(S, B + ridge * np.eye(S.shape[0]))
    return vals, sign_fixed(vecs)


def sign_fixed(vecs):
    """vecs with each column's largest-magnitude entry (the first on ties)
    made positive."""
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    return vecs * np.where(lead < 0, -1.0, 1.0)


def dense_pencil(S, B, ridge):
    """The dense pencil (S, B + ridge*I) as the fit's pencil: GE = I, W = S
    and lam = 0 on B's own factor, so that its whitened M is T^T S T."""
    return FactoredPencil(np.eye(S.shape[0]), S, ScatterFactor(B.copy(), ridge), 0.0)


def vectors(pencil, res):
    """A solve's pencil eigenvectors T U, sign-fixed, T being the pencil's
    factor.T; B + ridge*I-orthonormal."""
    return sign_fixed(pencil.factor.T @ res.U)


def assemble_pencil(GE, W, lam, B, ridge):
    """dense_pencil of S = (GE) W (GE)^T + lam*I, symmetrized, and B."""
    S = GE @ W @ GE.T + lam * np.eye(GE.shape[0])
    return dense_pencil((S + S.T) / 2.0, B, ridge)


def knn1_scan(train_X, train_y, test_X):
    """1-NN by one exact squared-distance scan per test column.

    np.argmin takes the first minimum, so ties go to the smallest training
    index; the blocked library version must return these labels exactly.
    """
    out = np.empty(test_X.shape[1], dtype=train_y.dtype)
    for j in range(test_X.shape[1]):
        diff = train_X - test_X[:, j : j + 1]
        d = np.sum(diff * diff, axis=0)
        out[j] = train_y[int(np.argmin(d))]
    return out


def proxy_a_distance_primal(Xs, Xt, ridge):
    """Proxy A-distance from the (d+1) x (d+1) primal ridge solve only.

    The library switches to the n x n dual when a split has fewer samples
    than d+1; both forms must give this value.
    """
    G = np.hstack([Xs, Xt]).T
    G = np.hstack([G, np.ones((G.shape[0], 1))])
    y = np.concatenate([-np.ones(Xs.shape[1]), np.ones(Xt.shape[1])])
    w = np.linalg.solve(G.T @ G + ridge * np.eye(G.shape[1]), G.T @ y)
    pred = np.where(G @ w > 0, 1.0, -1.0)
    err = float(np.mean(pred != y))
    return float(min(max(2.0 * (1.0 - 2.0 * err), 0.0), 2.0))


def bda_mu_primal(Xs, ys, Xt, yt, C, ridge):
    """bda balance from primal proxy A-distances, class by class in order."""
    d_m = proxy_a_distance_primal(Xs, Xt, ridge)
    d_cs = 0.0
    for c in range(1, C + 1):
        src, tgt = Xs[:, ys == c], Xt[:, yt == c]
        if src.shape[1] == 0 or tgt.shape[1] == 0:
            continue
        d_cs += proxy_a_distance_primal(src, tgt, ridge)
    return float(min(max(1.0 - d_m / (d_m + d_cs), 0.0), 1.0))


def reference_passes(pair, config, scope, core):
    """The fit loop with every pass solved and none reused, neither from an
    earlier pass of the fit nor from the prepared pair's table of passes.

    Takes adapt._fit_loop's arguments, so a fit dispatched to it runs its
    own algorithm's core(Yt) on its prepared pair, and ignores the scope of
    the passes it would share; returns (projection matrix, record) per pass.
    """
    C = pair.source.class_count
    cores = adapt.same_class_core(C), adapt.cross_class_core(C)
    labels, p = pair.raw_labels, min(config.p, pair.G.shape[0])
    iters = 1 if config.algorithm == "tca" else config.iters
    passes = []
    for index in range(1, iters + 1):
        Yt = one_hot_encode(labels, C)
        W, bda_mu = core(Yt)
        A, labels, record = adapt._solve_pass(
            pair, config, Yt, W, bda_mu, cores, labels, p, index, None
        )
        p = A.shape[1]
        passes.append((A, record))
    return passes


def load_dataset_reference(path, feature_dim=None, class_count=None):
    """The dataset CSV parsed line by line: csv for the fields, float() for each.

    This is the loader as it stood before the C reader took over, changed
    to drop a leading byte-order mark (utf-8-sig) and to number each record
    by its first physical line: the line after the one where the previous
    record ended, so a quoted field that spans lines shifts no later line.
    It returns (X, y, class_count); y is None for an unlabeled file. The
    library's loader must return equal arrays or raise the same DataError
    message.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            lines, starts, end = [], [], 0
            for record in reader:
                lines.append(record)
                starts.append(end + 1)
                end = reader.line_num
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path}: empty file")

    def looks_like_header(row):
        toks = [t.strip() for t in row if t.strip() != ""]
        if not toks:
            return False
        for t in toks:
            try:
                float(t)
            except ValueError:
                return True
        return False

    start = 1 if looks_like_header(lines[0]) else 0
    rows, linenos, ncol = [], [], None
    for lineno, raw in zip(starts[start:], lines[start:]):
        toks = [t.strip() for t in raw]
        if not toks or all(t == "" for t in toks):
            continue
        if ncol is None:
            ncol = len(toks)
        elif len(toks) != ncol:
            raise DataError(f"{path}:{lineno}: expected {ncol} columns, got {len(toks)}")
        try:
            rows.append([float(t) for t in toks])
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed number") from None
        linenos.append(lineno)
    if not rows:
        raise DataError(f"{path}: no data rows")
    arr = np.array(rows)
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise DataError(f"{path}:{linenos[bad[0]]}: non-finite value")

    labeled = True
    if feature_dim is not None:
        if arr.shape[1] == feature_dim:
            labeled = False
        elif arr.shape[1] != feature_dim + 1:
            raise DataError(
                f"{path}: expected {feature_dim} or {feature_dim + 1} columns, "
                f"got {arr.shape[1]}"
            )
    elif arr.shape[1] < 2:
        raise DataError(f"{path}: need at least one feature column plus labels")

    if not labeled:
        if class_count is None:
            raise DataError(f"{path}: unlabeled data needs a class count from the source")
        return arr.T, None, class_count

    feats, labs = arr[:, :-1], arr[:, -1]
    off = np.flatnonzero(labs != np.floor(labs))
    if off.size:
        raise DataError(f"{path}:{linenos[off[0]]}: label is not an integer")
    if class_count is None:
        high, bound = 2.0**53, "2**53"
    else:
        high, bound = class_count, f"class count {class_count}"
    for bad, side in ((labs < 1, "below 1"), (labs > high, f"above {bound}")):
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise DataError(f"{path}:{linenos[i]}: label {labs[i]:.17g} {side}")
    labs = labs.astype(int)
    if class_count is None:
        class_count = int(labs.max())
        if class_count < 2:
            raise DataError(f"{path}: need at least two classes")
    return feats.T, labs, class_count


def first_undecodable_byte(data):
    """The 1-based line and the value of the first byte of data that is not
    UTF-8, or None when it all decodes.

    This is the loader's own search as it stood before it decoded with
    surrogateescape. Lines end as the text reader ends them: at LF, CRLF or
    a lone CR.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    lineno = 1
    # Every LF ends a line, so no character spans two of these chunks.
    for chunk in io.BytesIO(data):
        try:
            decoder.decode(chunk)
        except UnicodeDecodeError as exc:
            return lineno + chunk[: exc.start].count(b"\r"), chunk[exc.start]
        lineno += chunk.count(b"\n") + chunk.count(b"\r") - chunk.count(b"\r\n")
    try:
        decoder.decode(b"", final=True)
    except UnicodeDecodeError as exc:
        return lineno, exc.object[exc.start]
    return None


def save_dataset_reference(path, X, y):
    """The dataset CSV as csv.writer wrote it over the whole X.T.tolist().

    This is the writer as it stood before save_dataset wrote a row at a
    time: header f0..f{d-1} (plus label), then one row per sample, floats
    as csv renders them (their repr) and labels as ints. X is d x n; y is
    None for an unlabeled dataset.
    """
    header = [f"f{j}" for j in range(X.shape[0])]
    rows = X.T.tolist()
    if y is not None:
        header.append("label")
        for row, label in zip(rows, y.tolist()):
            row.append(label)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def uniforms_whole(seed, start, count):
    """The generator's uniforms in (0, 1] from SplitMix64 counters start..,
    in one whole-array step (see datagen's module docstring)."""
    counters = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (np.uint64(seed) + (counters + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)).astype(
            np.uint64
        )
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def normals_whole(seed, first_normal, count):
    """count standard normals in one whole-array step, the t-th from
    counters 2t and 2t+1 by the Box-Muller cosine branch."""
    u = uniforms_whole(seed, 2 * first_normal, 2 * count)
    return np.sqrt(-2.0 * np.log(u[0::2])) * np.cos(2.0 * math.pi * u[1::2])


def generate_pair_whole(spec):
    """datagen.generate_pair with each domain's normals drawn whole and the
    class means added by one n x d gather: (Xs, Xt, labels, source_means,
    target_means)."""
    C, npc, d = spec.class_count, spec.n_per_class, spec.dim
    n = C * npc
    means = simplex_means(C, d)
    labels = np.repeat(np.arange(1, C + 1), npc)
    z_src = normals_whole(spec.seed, 0, n * d).reshape(n, d)
    z_tgt = normals_whole(spec.seed, n * d, n * d).reshape(n, d)
    Xs = (means[labels - 1] + z_src).T
    target_means = means.copy()
    if spec.kind == "class_swap_noise":
        u = uniforms_whole(spec.seed, 4 * n * d, 2 * n)
        gen = labels.copy()
        for i in range(n):
            if u[2 * i] <= spec.magnitude:
                pick = int(math.ceil(u[2 * i + 1] * (C - 1)))
                others = [c for c in range(1, C + 1) if c != labels[i]]
                gen[i] = others[pick - 1]
        Xt = (means[gen - 1] + z_tgt).T
    else:
        Xt = (means[labels - 1] + z_tgt).T
        if spec.kind == "rotation":
            theta = math.radians(spec.magnitude)
            rot = np.array(
                [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
            )
            Xt[:2, :] = rot @ Xt[:2, :]
            target_means[:, :2] = target_means[:, :2] @ rot.T
        else:
            Xt[d - 1, :] += spec.magnitude
            target_means[:, d - 1] += spec.magnitude
    return Xs, Xt, labels, means, target_means
