"""Experiment harness: dataset files, runs, sweeps, traces, embeddings.

Dataset format: UTF-8 CSV (a leading byte-order mark is skipped), one
sample per row, d feature columns followed by one integer label column
(labels 1..C). An optional single header row is auto-detected, quoted
names included. A target file may omit the label column, in which case the
run is not scored. All emitted CSVs can be read back by the loaders here.
Errors name the first line that does not parse, and the byte when it is
one that is not UTF-8: each parse decodes such a byte to a character that
no number holds. Lines are physical lines, so a quoted field that spans
lines counts each of them. A parse keeps no line numbers; one csv pass
numbers the rows when an error names one.

A process parses a given file content once: the parse hashes the bytes
it reads, and a later load of bytes it parsed recently (a sweep after a
run, say) costs one read and hash, so the `load` stage of such a run times
only that. A pipe is read into memory first, since a parse may need to
read its start again, and its bytes then take a file's route but are
neither hashed nor kept. Loaded feature arrays are read-only, because
later loads may share them. Every check still runs on each load.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import stat
import time
import warnings
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import __version__
from .adapt import _TIMING, PreparedPair, _record_dict, fit
from .classify import accuracy
from .data import AdaptConfig, DomainPair, LabeledDataset
from .datagen import ShiftSpec, generate_pair
from .eigensolve import _fix_signs
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
        if self.synth is not None and (self.source is not None or self.target is not None):
            raise ConfigError("give dataset files or synthetic settings, not both")
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
_PARSED: dict[bytes, tuple[int, np.ndarray]] = {}
_PARSED_SIZE = 2


def _read_rows(path: str) -> tuple[np.ndarray, Callable[[], list[int]]]:
    """The data rows as a read-only array, and a function that gives the
    1-based line of each row.

    One streamed np.loadtxt parses the file where the C reader accepts the
    text. The csv and float() loop parses it where the C reader rejects it:
    that loop accepts what csv and float() accept (quoted numbers, 1_0,
    comma-only lines) and names the line of a syntax error. Both parse a
    number as float() does, so their arrays are equal. Neither keeps line
    numbers: the function reads the text again by csv, and only when an
    error asks for a line.

    A regular file whose bytes are those of a recent parse gets that
    parse's rows. A pipe cannot seek back to its first line or to the start
    of the csv loop, so its bytes are read into memory, parsed there like a
    file's and never kept.
    """
    try:
        with open(path, "rb", buffering=0) as file:
            if file.seekable():
                keep = stat.S_ISREG(os.fstat(file.fileno()).st_mode)
                arr = _parsed_once(path, file, keep)
                reopen = partial(open, path, "rb")
            else:
                data = file.readall()
                arr = _parsed_once(path, io.BytesIO(data), keep=False)
                reopen = partial(io.BytesIO, data)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return arr, lambda: _file_lines(path, reopen)


def _file_lines(path: str, reopen) -> list[int]:
    """The line of each row of the bytes reopen() gives; no number is parsed."""
    try:
        with _text(reopen()) as fh:
            return [lineno for lineno, _ in _numbered_rows(path, fh)]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _text(binary) -> io.TextIOWrapper:
    """The text of a binary dataset file, for every parse of it. utf-8-sig
    drops the byte-order mark that spreadsheet exports put ahead of the first
    row; surrogateescape makes a byte that is not UTF-8 a lone surrogate
    (U+DC80-U+DCFF), which no number parses, so its row fails and names it."""
    return io.TextIOWrapper(binary, encoding="utf-8-sig", errors="surrogateescape", newline="")


def _parsed_once(path: str, file, keep: bool) -> np.ndarray:
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
    fh = _text(io.BufferedReader(raw))
    arr = _loadtxt_rows(fh)
    if arr is None:
        fh.seek(0)
        arr = _csv_rows(path, fh)
    arr.flags.writeable = False
    if keep:
        # The key covers the whole file, wherever the parser stopped.
        _read_to_end(raw)
        _PARSED.pop(raw.digest(), None)
        _PARSED[raw.digest()] = (raw.size, arr)
        if len(_PARSED) > _PARSED_SIZE:
            del _PARSED[next(iter(_PARSED))]
    return arr


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
    except ValueError:
        return None
    return arr if arr.size else None


def _numbered_rows(path: str, fh):
    """The data rows of a dataset text by csv, each as its first physical
    line and its stripped fields. The header and rows of empty fields are
    skipped; a row of another width than the first is an error. A record
    starts on the line after the one where the previous record ended. A
    record that csv cannot read (a field over its size limit) is an error
    that names the record's first line."""
    reader = csv.reader(fh)
    ncol, end = None, 0
    try:
        for raw in reader:
            lineno, end = end + 1, reader.line_num
            toks = [t.strip() for t in raw]
            if not any(toks) or lineno == 1 and _looks_like_header(toks):
                continue
            if ncol is None:
                ncol = len(toks)
            elif len(toks) != ncol:
                raise _row_error(path, lineno, toks, f"expected {ncol} columns, got {len(toks)}")
            yield lineno, toks
    except csv.Error as exc:
        raise DataError(f"{path}:{end + 1}: {exc}") from None
    if end == 0:
        raise DataError(f"{path}: empty file")


def _csv_rows(path: str, fh) -> np.ndarray:
    """The rows by the csv and float() loop, filled into one flat array."""
    ncol = 0

    def values():
        nonlocal ncol
        for lineno, toks in _numbered_rows(path, fh):
            try:
                row = [float(t) for t in toks]
            except ValueError:
                raise _row_error(path, lineno, toks, "malformed number") from None
            ncol = len(row)
            yield from row

    flat = np.fromiter(values(), dtype=float)
    if not flat.size:
        raise DataError(f"{path}: no data rows")
    return flat.reshape(-1, ncol)


def _row_error(path: str, lineno: int, toks: list[str], what: str) -> DataError:
    """The error of a row that does not parse: what is wrong with it, or its
    first byte that is not UTF-8."""
    byte = _escaped_byte(toks)
    if byte is not None:
        what = f"byte 0x{byte:02x} is not UTF-8"
    return DataError(f"{path}:{lineno}: {what}")


def _escaped_byte(toks: list[str]) -> int | None:
    """The first byte that _text escaped in the fields, or None."""
    return next((ord(c) - 0xDC00 for c in "".join(toks) if "\udc80" <= c <= "\udcff"), None)


@contextmanager
def _output_file(path: str):
    """path opened for writing UTF-8 text, its directory made first; an
    OSError on the way, or while writing, is a ConfigError naming path."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def save_dataset(path: str, ds: LabeledDataset) -> None:
    """Write a dataset in the loadable CSV format (header row included).

    One line per sample, written as it is formed: the features as their
    repr, so a load gives back the same bits, then the integer label. A
    write holds one row beyond the array. The bytes are those of write_table
    (csv) on the same rows.
    """
    header = [f"f{j}" for j in range(ds.dim)]
    if ds.y is not None:
        header.append("label")
    sep = "," if ds.dim else ""
    with _output_file(path) as fh:
        fh.write(",".join(header) + "\r\n")
        for j, row in enumerate(ds.X.T):
            tail = "" if ds.y is None else f"{sep}{ds.y[j]}"
            fh.write(",".join(map(repr, row.tolist())) + tail + "\r\n")


def _looks_like_header(row: list[str]) -> bool:
    """A row of fields that are not all numbers; a row with a byte that is
    not UTF-8 is data, so that the parse names the byte."""
    toks = [t.strip() for t in row if t.strip() != ""]
    if not toks or _escaped_byte(toks) is not None:
        return False
    for t in toks:
        try:
            float(t)
        except ValueError:
            return True
    return False


def write_table(path: str, rows: list[dict]) -> None:
    """Write a CSV table of row dicts: the first row's keys, then one line per row.

    csv renders every cell: a float as its repr, so the table reads back
    exactly, an int or a string as its str and None as an empty cell. It
    serves the small mixed-cell tables; save_dataset writes feature files
    itself, a row at a time, in the same bytes.
    """
    with _output_file(path) as fh:
        w = csv.writer(fh)
        w.writerow(rows[0].keys())
        w.writerows(row.values() for row in rows)


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
    with _output_file(os.path.join(out_dir, "report.json")) as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    rows = [{"algorithm": "raw_1nn", "accuracy": report.raw_accuracy}] + [
        {"algorithm": name, "accuracy": rep.final_accuracy}
        for name, rep in report.algorithms.items()
    ]
    write_table(os.path.join(out_dir, "accuracy.csv"), rows)


def _pair_config(config: ExperimentConfig, key) -> ExperimentConfig:
    """The config that resolves a sweep's pair key: a generated seed, or "file"."""
    return config if key == "file" else replace(config, synth=replace(config.synth, seed=key))


def _fit_task(config: ExperimentConfig, lone: PreparedPair | None, task) -> list[float]:
    """The accuracies of a sweep task (pair key, AdaptConfigs, times): each
    config fitted times times, back to back, on the key's pair: the lone
    prepared pair, or else the key's generated pair, made and prepared here.
    Repeats take the first fit's passes."""
    key, configs, times = task
    pair = lone if lone is not None else resolve_pair(_pair_config(config, key))
    accs = []
    for adapt_config in configs:
        pair = PreparedPair.of(pair, adapt_config)
        accs += [float(fit(pair, adapt_config).report.final_accuracy) for _ in range(times)]
    return accs


# The config and lone prepared pair (or None) of a sweep worker process, set
# once by its pool initializer.
_worker_sweep: tuple | None = None


def _init_sweep_worker(config: ExperimentConfig, lone: PreparedPair | None) -> None:
    global _worker_sweep
    _worker_sweep = config, lone


def _worker_task(task) -> list[float]:
    return _fit_task(*_worker_sweep, task)


def sweep(
    config: ExperimentConfig,
    param: str,
    values: list[float],
    seeds: list[int],
    write: bool = True,
) -> list[dict]:
    """Grid of (algorithm, value, seed) cells; one row per cell plus group stats.

    The solver reads no RNG, so file inputs give one pair for every seed.
    Each pair is made and prepared by one process. A lone pair (file
    inputs, or one distinct generated seed) is prepared here, and a task
    fits one setting (algorithm, value) once per seed; with several
    generated seeds, a task makes and prepares one seed's pair and fits
    every setting on it once per occurrence of the seed, so a process holds
    one pair at a time. Every seed's spec is checked here first. With
    jobs > 1, at most jobs workers run the tasks and get the config and the
    lone pair from the pool initializer.
    """
    if param not in ("mu", "lambda"):
        raise ConfigError("sweep param must be 'mu' or 'lambda'")
    if not values or not seeds:
        raise ConfigError("sweep needs at least one value and one seed")
    key = "mu" if param == "mu" else "lam"
    pair_key = {s: "file" if config.synth is None else s for s in seeds}
    keys = list(dict.fromkeys(pair_key.values()))
    # Each seed's spec is built here, so that a bad one fails before any fit.
    configs = [_pair_config(config, k) for k in keys]
    settings = [
        adapt_config_for(replace(config, **{key: v}), algo)
        for algo in config.algorithms
        for v in values
    ]
    lone = None
    if len(keys) == 1:
        lone = resolve_pair(configs[0])
        if lone.target.y is None:
            raise ConfigError("sweep needs a labeled target for scoring")
        # Every setting shares the kernel and ridge, so one preparation
        # serves all; rebinding drops the unprepared pair.
        lone = PreparedPair.of(lone, settings[0])
        tasks = [(keys[0], [setting], len(seeds)) for setting in settings]
    else:
        tasks = [(k, settings, seeds.count(k)) for k in keys]
    if config.jobs > 1:
        # Imported here: a serial run loads no multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(config.jobs, len(tasks)),
            initializer=_init_sweep_worker,
            initargs=(config, lone),
        ) as pool:
            fitted = list(pool.map(_worker_task, tasks))
    else:
        fitted = [_fit_task(config, lone, task) for task in tasks]
    # Each pair's accuracies, in the row order of its cells.
    accs = {k: [] for k in keys}
    for (k, _, _), got in zip(tasks, fitted):
        accs[k] += got

    rows = []
    for algo in config.algorithms:
        for v in values:
            group = [accs[pair_key[s]].pop(0) for s in seeds]
            stats = {"mean_accuracy": float(np.mean(group)), "std_accuracy": float(np.std(group))}
            cell = {"algorithm": algo, "param": param, "value": float(v)}
            rows += [{**cell, "seed": s, "accuracy": acc, **stats} for s, acc in zip(seeds, group)]
    if write:
        write_table(os.path.join(config.out, "sweep.csv"), rows)
    return rows


def trace(config: ExperimentConfig, write: bool = True) -> list[dict]:
    """Per-iteration projected discrepancy and accuracy for one algorithm."""
    algo = config.algorithms[0]
    if algo == "tca":
        raise ConfigError("trace needs an iterative algorithm; tca runs a single step")
    adapt_config = adapt_config_for(config, algo)
    res = fit(PreparedPair.of(resolve_pair(config), adapt_config), adapt_config)
    rows = [
        {"iteration": r.index, "mmd": r.transfer, "accuracy": r.accuracy}
        for r in res.report.iterations
    ]
    if write:
        write_table(os.path.join(config.out, "trace.csv"), rows)
    return rows


def embed2d(config: ExperimentConfig, write: bool = True) -> list[dict]:
    """Top-2 principal components of the projected pair, for scatter plots."""
    algo = config.algorithms[0]
    adapt_config = adapt_config_for(config, algo)
    pair = PreparedPair.of(resolve_pair(config), adapt_config)
    res = fit(pair, adapt_config)
    if res.report.p_used < 2:
        raise ConfigError(
            f"embedding needs p >= 2 but only {res.report.p_used} directions "
            "were available; request a larger p"
        )
    # The samples the fit's last 1-NN projected: Z = A^T G.
    Z = res.projection.matrix.T @ pair.G
    Zc = Z - Z.mean(axis=1, keepdims=True)
    if not np.any(np.abs(Zc) > 0):
        raise NumericalError("projected features have zero variance; nothing to embed")
    U, _s, _vt = np.linalg.svd(Zc, full_matrices=False)
    U = U[:, :2]
    _fix_signs(U)
    E = U.T @ Zc

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
        write_table(os.path.join(config.out, "embedding.csv"), rows)
    return rows


def datagen_cmd(config: ExperimentConfig) -> tuple[str, str]:
    """Write a generated pair as source.csv / target.csv in the out dir."""
    gen = generate_pair(config.synth)
    src = os.path.join(config.out, "source.csv")
    tgt = os.path.join(config.out, "target.csv")
    save_dataset(src, gen.pair.source)
    save_dataset(tgt, gen.pair.target)
    return src, tgt
