"""Experiment harness: dataset files, runs, sweeps, traces, embeddings.

Dataset format: UTF-8 CSV (a leading byte-order mark is skipped), one
sample per row, d feature columns followed by one integer label column
(labels 1..C). An optional single header row is auto-detected. A target
file may omit the label column, in which case the run is not scored. All
emitted CSVs can be read back by the loaders here.

A process parses a given file content once: the parse hashes the bytes
it reads, and a later load of bytes it parsed recently (a sweep after a
run, say) costs one read and hash, so the `load` stage of such a run times
only that. A pipe is read into memory first, since a parse may need to
read its start again, and its bytes then take a file's route but are
neither hashed nor kept. Loaded feature arrays are read-only, because
later loads may share them. Every check still runs on each load.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import json
import os
import stat
import time
import warnings
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import __version__
from .adapt import _TIMING, PreparedPair, _record_dict, fit, transform
from .classify import accuracy
from .data import AdaptConfig, DomainPair, LabeledDataset
from .datagen import ShiftSpec, generate_pair
from .errors import ConfigError, DataError, NumericalError
from .kernels import KernelSpec

NORMALIZE_MODES = ("none", "l2col", "zscore")

PRESETS = {
    # Linear kernel and a heavier regularizer suit the small dense feature
    # sets of the classic object-recognition benchmark.
    "office-caltech": {"kernel": "linear", "lam": 1.0},
}


# Echo key of each ShiftSpec field. The CLI's synthetic-data flags store
# under these keys too, so that its settings are an echo.
SYNTH_KEYS = {
    f.name: "synth_" + ("classes" if f.name == "class_count" else f.name)
    for f in fields(ShiftSpec)
}


@dataclass
class ExperimentConfig:
    """Everything one run needs; the echo of this is what replays a run."""

    source: str | None = None
    target: str | None = None
    synth: ShiftSpec | None = None
    algorithms: list[str] = field(default_factory=lambda: ["tca", "jda", "bda", "jpda"])
    p: int = 100
    iters: int = 10
    mu: float = 0.1
    lam: float = 0.1
    kernel: str = "primal"
    bandwidth: float | None = None
    ridge: float = 1e-6
    seed: int = 0
    out: str = "."
    jobs: int = 1
    preset: str | None = None
    freeze_bda_mu: bool = False
    bda_mu: float | None = None
    normalize: str = "none"

    def __post_init__(self):
        if self.normalize not in NORMALIZE_MODES:
            raise ConfigError(f"unknown normalize mode {self.normalize!r}")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if not self.algorithms:
            raise ConfigError("choose at least one algorithm")
        # The solver settings, kernel included, are checked here, before
        # any data is read.
        for algo in self.algorithms:
            adapt_config_for(self, algo)
        if (self.source is None) != (self.target is None):
            raise ConfigError("provide both --source and --target, or neither")
        if self.source is None and self.synth is None:
            self.synth = ShiftSpec(seed=self.seed)

    def echo(self) -> dict:
        """The settings as one flat dict; the synthetic spec's fields appear under SYNTH_KEYS."""
        out = asdict(self)
        synth = out.pop("synth")
        if synth is not None:
            out.update({SYNTH_KEYS[name]: value for name, value in synth.items()})
        return out


def config_from_echo(echo: dict) -> ExperimentConfig:
    """Rebuild a config from an echo (the replay path); absent keys keep their defaults.

    A synthetic spec is built when any of its keys is present; its seed
    defaults to the run seed.
    """
    settings = dict(echo)
    spec = {name: settings.pop(key) for name, key in SYNTH_KEYS.items() if key in settings}
    if spec:
        spec.setdefault("seed", settings.get("seed", ExperimentConfig.seed))
        settings["synth"] = ShiftSpec(**spec)
    return ExperimentConfig(**settings)


@dataclass
class RunReport:
    """One run: report.json is to_dict(), and config is the echo that replays it."""

    version: str
    seed: int
    config: dict
    # Solvers never see target labels; when the target file carries them
    # they feed accuracy columns only, and the report says so here.
    target_labels: str
    raw_accuracy: float | None
    algorithms: dict
    stage_wall: dict = field(metadata=_TIMING)

    to_dict = _record_dict


def load_dataset(
    path: str,
    feature_dim: int | None = None,
    class_count: int | None = None,
) -> LabeledDataset:
    """Read a dataset CSV.

    Without feature_dim the last column must be the label column. With it,
    a file with exactly feature_dim columns loads as unlabeled. Errors carry
    1-based line numbers.
    """
    arr, lines = _read_rows(path)

    def fail_at(row: int, what: str):
        raise DataError(f"{path}:{lines()[row]}: {what}")

    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        fail_at(bad[0], "non-finite value")

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
        return LabeledDataset(X=arr.T, y=None, class_count=class_count)

    feats, labs = arr[:, :-1], arr[:, -1]
    off = np.flatnonzero(labs != np.floor(labs))
    if off.size:
        fail_at(off[0], "label is not an integer")
    # The range is checked on the parsed floats, before the cast to int can
    # wrap. Without a class count a label may reach 2**53, the largest range
    # of integers a float holds exactly.
    if class_count is None:
        high, bound = 2.0**53, "2**53"
    else:
        high, bound = class_count, f"class count {class_count}"
    for bad, side in ((labs < 1, "below 1"), (labs > high, f"above {bound}")):
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            fail_at(i, f"label {labs[i]:.17g} {side}")
    labs = labs.astype(int)
    if class_count is None:
        class_count = int(labs.max())
        if class_count < 2:
            raise DataError(f"{path}: need at least two classes")
    return LabeledDataset(X=feats.T, y=labs, class_count=class_count)


# The rows of the last regular files parsed, oldest first, each with its byte
# count and keyed by the SHA-256 of the bytes that were parsed. A run reads
# one pair, so two entries let a run and then a sweep of the same files
# parse each file once per process.
_PARSED: dict[bytes, tuple[int, tuple[np.ndarray, tuple[int, ...] | None]]] = {}
_PARSED_SIZE = 2


def _read_rows(path: str) -> tuple[np.ndarray, Callable[[], tuple[int, ...]]]:
    """The data rows as a read-only array, and a function that gives the
    1-based line of each row.

    One streamed np.loadtxt parses the file and keeps no line numbers, so
    for its rows the function reads the text again by the csv and float()
    loop. That loop parses the file itself where the C reader rejects the
    text: it accepts what csv and float() accept (quoted numbers, 1_0,
    comma-only lines) and names the line of a syntax error. Both parse a
    number as float() does, so their arrays are equal.

    A regular file whose bytes are those of a recent parse gets that
    parse's rows. A pipe cannot seek back to its first line or to the start
    of the csv loop, so its bytes are read into memory, parsed there like a
    file's and never kept.
    """
    try:
        with open(path, "rb", buffering=0) as file:
            if file.seekable():
                keep = stat.S_ISREG(os.fstat(file.fileno()).st_mode)
                arr, linenos = _parsed_once(path, file, keep)
                reopen = partial(open, path, "rb")
            else:
                data = file.readall()
                arr, linenos = _parsed_once(path, io.BytesIO(data), keep=False)
                reopen = partial(io.BytesIO, data)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if linenos is not None:
        return arr, lambda: linenos
    return arr, lambda: _file_lines(path, reopen)


def _file_lines(path: str, reopen) -> tuple[int, ...]:
    """The line of each row, by the csv loop over the bytes reopen() gives."""
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports put
        # ahead of the first row.
        with io.TextIOWrapper(reopen(), encoding="utf-8-sig", newline="") as fh:
            return _decoded(path, fh, _csv_rows)[1]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _parsed_once(path: str, file, keep: bool) -> tuple[np.ndarray, tuple[int, ...] | None]:
    """The rows of a seekable binary file, parsed unless a recent parse read
    its bytes.

    Only a regular file's rows are kept (keep). The parse of such a file
    hashes what it reads and files the rows under that digest, so a first
    load reads the file once, and a file that changes during a load is
    filed under what was parsed. Only a file of the byte count of a kept
    entry is hashed beforehand, in a pass of its own, to look it up.
    """
    if keep and os.fstat(file.fileno()).st_size in [size for size, _ in _PARSED.values()]:
        raw = _HashingReader(file)
        _read_to_end(raw)
        hit = _PARSED.pop(raw.digest(), None)
        if hit is not None:
            _PARSED[raw.digest()] = hit
            return hit[1]
        file.seek(0)
    raw = _HashingReader(file) if keep else file
    # utf-8-sig, as in _file_lines.
    fh = io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8-sig", newline="")
    rows = _decoded(path, fh, _parse_rows)
    rows[0].flags.writeable = False
    if keep:
        # The key covers the whole file, wherever the parser stopped.
        _read_to_end(raw)
        _PARSED.pop(raw.digest(), None)
        _PARSED[raw.digest()] = (raw.size, rows)
        if len(_PARSED) > _PARSED_SIZE:
            del _PARSED[next(iter(_PARSED))]
    return rows


class _HashingReader(io.RawIOBase):
    """A raw reader over an unbuffered file that hashes the bytes read since
    the start of the file."""

    def __init__(self, file):
        self._file = file
        self._sha = hashlib.sha256()
        self.size = 0

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return self._file.seekable()

    def readinto(self, buf) -> int:
        n = self._file.readinto(buf)
        self._sha.update(memoryview(buf)[:n])
        self.size += n
        return n

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        pos = self._file.seek(offset, whence)
        if pos == 0:
            self._sha, self.size = hashlib.sha256(), 0
        elif pos != self.size:
            raise io.UnsupportedOperation("a hashing reader seeks only to the start")
        return pos

    def tell(self) -> int:
        return self._file.tell()

    def digest(self) -> bytes:
        return self._sha.digest()


def _read_to_end(raw: _HashingReader) -> None:
    chunk = bytearray(1 << 16)
    while raw.readinto(chunk):
        pass


def _parse_rows(path: str, fh) -> tuple[np.ndarray, tuple[int, ...] | None]:
    arr = _loadtxt_rows(fh)
    if arr is not None:
        return arr, None
    fh.seek(0)
    return _csv_rows(path, fh)


def _decoded(path: str, fh, parse):
    """parse(path, fh) of a seekable file, with text that is not UTF-8 a
    DataError that names the line of its first undecodable byte."""
    try:
        return parse(path, fh)
    except UnicodeDecodeError:
        line, byte = _first_undecodable_byte(path, fh.buffer)
        raise DataError(f"{path}:{line}: byte 0x{byte:02x} is not UTF-8") from None


def _first_undecodable_byte(path: str, binary) -> tuple[int, int]:
    """The 1-based line and the value of the first byte that is not UTF-8.

    Lines end as the text reader ends them: at LF, CRLF or a lone CR.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    lineno = 1
    binary.seek(0)
    # Every LF ends a line, so no character spans two of these chunks.
    for chunk in binary:
        try:
            decoder.decode(chunk)
        except UnicodeDecodeError as exc:
            return lineno + chunk[: exc.start].count(b"\r"), chunk[exc.start]
        lineno += chunk.count(b"\n") + chunk.count(b"\r") - chunk.count(b"\r\n")
    try:
        decoder.decode(b"", final=True)
    except UnicodeDecodeError as exc:
        return lineno, exc.object[exc.start]
    raise DataError(f"{path}: changed while it was read")


def _loadtxt_rows(fh) -> np.ndarray | None:
    """The rows by numpy's C reader, or None where it rejects the text or finds none."""
    first = fh.readline()
    # A quote may open a field that spans lines, so only csv can tell where
    # the first row ends.
    if not first or '"' in first:
        return None
    if not _looks_like_header(first.split(",")):
        fh.seek(0)
    try:
        with warnings.catch_warnings():
            # An empty body warns; the csv loop then names the error.
            warnings.simplefilter("ignore", UserWarning)
            arr = np.loadtxt(fh, delimiter=",", comments=None, quotechar=None, ndmin=2)
    except UnicodeDecodeError:
        # A ValueError too, but the csv loop would only fail on it again.
        raise
    except ValueError:
        return None
    return arr if arr.size else None


def _csv_rows(path: str, fh) -> tuple[np.ndarray, tuple[int, ...]]:
    lines = list(csv.reader(fh))
    if not lines:
        raise DataError(f"{path}: empty file")

    start = 1 if _looks_like_header(lines[0]) else 0
    rows: list[list[float]] = []
    linenos: list[int] = []
    ncol = None
    for lineno, raw in enumerate(lines[start:], start=start + 1):
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
    return np.array(rows), tuple(linenos)


def save_dataset(path: str, ds: LabeledDataset) -> None:
    """Write a dataset in the loadable CSV format (header row included).

    One line per sample, written as it is formed: the features as their
    repr, so a load gives back the same bits, then the integer label. A
    write holds one row beyond the array. The bytes are those of write_table
    (csv) on the same rows.
    """
    header = [f"f{j}" for j in range(ds.dim)]
    tails = [""] * ds.n
    if ds.y is not None:
        header.append("label")
        sep = "," if ds.dim else ""
        tails = [f"{sep}{label}" for label in ds.y.tolist()]
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for row, tail in zip(ds.X.T, tails):
            fh.write(",".join(map(repr, row.tolist())) + tail + "\r\n")


def _looks_like_header(row: list[str]) -> bool:
    toks = [t.strip() for t in row if t.strip() != ""]
    if not toks:
        return False
    for t in toks:
        try:
            float(t)
        except ValueError:
            return True
    return False


def write_table(path: str, header, rows) -> None:
    """Write a CSV table: the header, then one line per row of cells.

    csv renders every cell: a float as its repr, so the table reads back
    exactly, an int or a string as its str and None as an empty cell. A
    table of row dicts passes the first row's keys as the header. It serves
    the small mixed-cell tables; save_dataset writes feature files itself,
    a row at a time, in the same bytes.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def resolve_pair(config: ExperimentConfig) -> DomainPair:
    """Load or generate the domain pair, then apply normalization."""
    if config.source is not None:
        src = load_dataset(config.source)
        tgt = load_dataset(config.target, feature_dim=src.dim, class_count=src.class_count)
        pair = DomainPair(source=src, target=tgt)
    else:
        pair = generate_pair(config.synth).pair
    return _normalize(pair, config.normalize)


def _normalize(pair: DomainPair, mode: str) -> DomainPair:
    if mode == "none":
        return pair
    Xs, Xt = pair.source.X.copy(), pair.target.X.copy()
    if mode == "l2col":
        for X in (Xs, Xt):
            norms = np.linalg.norm(X, axis=0)
            norms[norms == 0] = 1.0
            X /= norms
    else:  # zscore over the pooled samples
        pooled = np.hstack([Xs, Xt])
        mean = pooled.mean(axis=1, keepdims=True)
        std = pooled.std(axis=1, keepdims=True)
        std[std == 0] = 1.0
        Xs = (Xs - mean) / std
        Xt = (Xt - mean) / std
    return DomainPair(
        source=LabeledDataset(X=Xs, y=pair.source.y, class_count=pair.source.class_count),
        target=LabeledDataset(X=Xt, y=pair.target.y, class_count=pair.target.class_count),
    )


def adapt_config_for(config: ExperimentConfig, algorithm: str) -> AdaptConfig:
    """The solver settings of one algorithm.

    AdaptConfig fields other than algorithm and kernel copy the config's
    settings of the same name.
    """
    kernel = None
    if config.kernel != "primal":
        kernel = KernelSpec(kind=config.kernel, bandwidth=config.bandwidth)
    shared = {
        f.name: getattr(config, f.name)
        for f in fields(AdaptConfig)
        if f.name not in ("algorithm", "kernel")
    }
    return AdaptConfig(algorithm=algorithm, kernel=kernel, **shared)


def run(config: ExperimentConfig, write: bool = True) -> RunReport:
    """Fit every requested algorithm once; emit report.json and accuracy.csv."""
    stage = {}
    t0 = time.perf_counter()
    pair = resolve_pair(config)
    stage["load"] = time.perf_counter() - t0

    truth = pair.target.y
    t0 = time.perf_counter()
    # Every algorithm shares the kernel and ridge, so one record serves all.
    pair = PreparedPair.of(pair, adapt_config_for(config, config.algorithms[0]))
    raw_acc = accuracy(pair.raw_labels, truth) if truth is not None else None
    stage["prepare"] = time.perf_counter() - t0

    reports = {}
    for algo in config.algorithms:
        t0 = time.perf_counter()
        reports[algo] = fit(pair, adapt_config_for(config, algo)).report
        stage[f"fit:{algo}"] = time.perf_counter() - t0

    report = RunReport(
        version=__version__,
        seed=config.seed,
        config=config.echo(),
        target_labels="scoring only" if truth is not None else "absent",
        raw_accuracy=raw_acc,
        algorithms=reports,
        stage_wall=stage,
    )
    if write:
        write_run_outputs(report, config.out)
    return report


def write_run_outputs(report: RunReport, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    rows = [{"algorithm": "raw_1nn", "accuracy": report.raw_accuracy}] + [
        {"algorithm": name, "accuracy": rep.final_accuracy}
        for name, rep in report.algorithms.items()
    ]
    write_table(os.path.join(out_dir, "accuracy.csv"), rows[0].keys(), [r.values() for r in rows])


class _SweepFitter:
    """Fits (pair key, AdaptConfig) cells, keeping the prepared pair of the
    latest key only: fed cells grouped by key, it prepares each pair once."""

    def __init__(self, pairs: dict):
        self.pairs = pairs
        self.key = self.prepared = None

    def __call__(self, cell) -> float:
        key, adapt_config = cell
        if key != self.key:
            self.key, self.prepared = key, self.pairs[key]
        self.prepared = PreparedPair.of(self.prepared, adapt_config)
        return float(fit(self.prepared, adapt_config).report.final_accuracy)


# The fitter of a sweep worker process, set once by its pool initializer.
_worker_fitter: _SweepFitter | None = None


def _init_sweep_worker(pairs: dict) -> None:
    global _worker_fitter
    _worker_fitter = _SweepFitter(pairs)


def _sweep_cell(cell) -> float:
    return _worker_fitter(cell)


def sweep(
    config: ExperimentConfig,
    param: str,
    values: list[float],
    seeds: list[int],
    write: bool = True,
) -> list[dict]:
    """Grid of (algorithm, value, seed) cells; one row per cell plus group stats."""
    if param not in ("mu", "lambda"):
        raise ConfigError("sweep param must be 'mu' or 'lambda'")
    if not values or not seeds:
        raise ConfigError("sweep needs at least one value and one seed")
    key = "mu" if param == "mu" else "lam"
    # The solver reads no RNG: a seed reaches a cell only through generated
    # data, so file inputs are resolved and prepared once for every seed.
    if config.synth is None:
        pair_key = dict.fromkeys(seeds, "file")
        pairs = {"file": resolve_pair(config)}
    else:
        pair_key = {s: s for s in seeds}
        pairs = {
            s: resolve_pair(replace(config, synth=replace(config.synth, seed=s)))
            for s in pair_key
        }
    if any(pair.target.y is None for pair in pairs.values()):
        raise ConfigError("sweep needs a labeled target for scoring")
    cells = [
        (pair_key[s], adapt_config_for(replace(config, **{key: v}), algo))
        for algo in config.algorithms
        for v in values
        for s in seeds
    ]
    # Fitted grouped by pair key (a stable sort keeps row order within one).
    order = sorted(range(len(cells)), key=lambda i: cells[i][0])
    ordered = [cells[i] for i in order]
    if config.jobs > 1:
        with ProcessPoolExecutor(
            max_workers=min(config.jobs, len(cells)),
            initializer=_init_sweep_worker,
            initargs=(pairs,),
        ) as pool:
            fitted = list(pool.map(_sweep_cell, ordered))
    else:
        fitter = _SweepFitter(pairs)
        fitted = [fitter(c) for c in ordered]
    accs = [acc for _, acc in sorted(zip(order, fitted))]

    rows = []
    i = 0
    for algo in config.algorithms:
        for v in values:
            group = accs[i : i + len(seeds)]
            mean = float(np.mean(group))
            std = float(np.std(group))
            for s, acc in zip(seeds, group):
                rows.append(
                    {
                        "algorithm": algo,
                        "param": param,
                        "value": float(v),
                        "seed": s,
                        "accuracy": acc,
                        "mean_accuracy": mean,
                        "std_accuracy": std,
                    }
                )
            i += len(seeds)
    if write:
        path = os.path.join(config.out, "sweep.csv")
        write_table(path, rows[0].keys(), [r.values() for r in rows])
    return rows


def trace(config: ExperimentConfig, write: bool = True) -> list[dict]:
    """Per-iteration projected discrepancy and accuracy for one algorithm."""
    algo = config.algorithms[0]
    if algo == "tca":
        raise ConfigError("trace needs an iterative algorithm; tca runs a single step")
    pair = resolve_pair(config)
    res = fit(pair, adapt_config_for(config, algo))
    rows = [
        {"iteration": r.index, "mmd": r.transfer, "accuracy": r.accuracy}
        for r in res.report.iterations
    ]
    if write:
        path = os.path.join(config.out, "trace.csv")
        write_table(path, rows[0].keys(), [r.values() for r in rows])
    return rows


def embed2d(config: ExperimentConfig, write: bool = True) -> list[dict]:
    """Top-2 principal components of the projected pair, for scatter plots."""
    algo = config.algorithms[0]
    pair = resolve_pair(config)
    res = fit(pair, adapt_config_for(config, algo))
    if res.report.p_used < 2:
        raise ConfigError(
            f"embedding needs p >= 2 but only {res.report.p_used} directions "
            "were available; request a larger p"
        )
    Z = transform(res.projection, pair.stacked())
    Zc = Z - Z.mean(axis=1, keepdims=True)
    if not np.any(np.abs(Zc) > 0):
        raise NumericalError("projected features have zero variance; nothing to embed")
    U, _s, _vt = np.linalg.svd(Zc, full_matrices=False)
    for k in range(2):
        col = U[:, k]
        if col[int(np.argmax(np.abs(col)))] < 0:
            U[:, k] = -col
    E = U[:, :2].T @ Zc

    ns = pair.source.n
    truth = pair.target.y
    rows = []
    for i in range(E.shape[1]):
        if i < ns:
            domain, cls = "source", int(pair.source.y[i])
        else:
            j = i - ns
            cls = int(truth[j]) if truth is not None else int(res.pseudo_labels[j])
            domain = "target"
        rows.append({"pc1": float(E[0, i]), "pc2": float(E[1, i]), "domain": domain, "class": cls})
    if write:
        path = os.path.join(config.out, "embedding.csv")
        write_table(path, rows[0].keys(), [r.values() for r in rows])
    return rows


def datagen_cmd(config: ExperimentConfig) -> tuple[str, str]:
    """Write a generated pair as source.csv / target.csv in the out dir."""
    gen = generate_pair(config.synth)
    src = os.path.join(config.out, "source.csv")
    tgt = os.path.join(config.out, "target.csv")
    save_dataset(src, gen.pair.source)
    save_dataset(tgt, gen.pair.target)
    return src, tgt
