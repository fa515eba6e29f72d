"""Command-line entry point.

Subcommands: run, sweep, trace, embed2d, datagen. Settings resolve in the
order built-in defaults < preset < config file < flags (flags win). Exit
codes: 0 success, 2 configuration error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from .datagen import SHIFT_KINDS
from .errors import ConfigError, DataError, NumericalError
from .harness import (
    NORMALIZE_MODES,
    PRESETS,
    SYNTH_KEYS,
    ExperimentConfig,
    config_from_echo,
    datagen_cmd,
    embed2d,
    run,
    sweep,
    trace,
)
from .kernels import KERNEL_KINDS

_REQUIRED_FILE_KEYS = ("algo", "p", "iters", "mu", "lam", "kernel", "seed")

# Config-file keys are the flag names, read with hyphens as underscores,
# plus these aliases.
_KEY_ALIASES = {"algorithm": "algo", "algorithms": "algo", "t": "iters", "lam": "lambda"}


def _algorithm_list(value: str) -> list[str]:
    return [a.strip() for a in value.split(",") if a.strip()]


def _settings_parser() -> argparse.ArgumentParser:
    """The flags every subcommand shares.

    A setting's dest is its key in ExperimentConfig.echo, except that --algo
    fills the echo's algorithms, so that the merged settings are an echo.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value settings file")
    common.add_argument("--source", help="source dataset CSV")
    common.add_argument("--target", help="target dataset CSV")
    common.add_argument(
        "--algo", type=_algorithm_list, help="comma-separated algorithms (tca,jda,bda,jp,jpda)"
    )
    common.add_argument("--p", type=int, help="subspace dimension")
    common.add_argument("--iters", type=int, help="pseudo-label refinement count T")
    common.add_argument("--mu", type=float, help="cross-class term weight")
    common.add_argument("--lambda", dest="lam", type=float, help="regularizer weight")
    common.add_argument("--kernel", choices=KERNEL_KINDS)
    common.add_argument("--bandwidth", type=float, help="rbf bandwidth (default: median)")
    common.add_argument("--ridge", type=float, help="relative ridge for the eigensolver")
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="output directory")
    common.add_argument("--jobs", type=int, help="sweep worker processes, at most one per task")
    common.add_argument("--preset", choices=sorted(PRESETS))
    common.add_argument(
        "--freeze-bda-mu",
        action="store_true",
        default=None,
        help="estimate the bda balance once per fit, from the raw 1-NN labels",
    )
    common.add_argument("--bda-mu", type=float, help="fixed bda balance")
    common.add_argument("--normalize", choices=NORMALIZE_MODES)
    common.add_argument(
        "--synth", dest=SYNTH_KEYS["kind"], choices=SHIFT_KINDS, help="synthetic shift kind"
    )
    common.add_argument(
        "--magnitude",
        dest=SYNTH_KEYS["magnitude"],
        metavar="MAGNITUDE",
        type=float,
        help="shift magnitude",
    )
    common.add_argument(
        "--n-per-class", dest=SYNTH_KEYS["n_per_class"], metavar="N_PER_CLASS", type=int
    )
    common.add_argument(
        "--classes", dest=SYNTH_KEYS["class_count"], metavar="CLASSES", type=int
    )
    common.add_argument("--dim", dest=SYNTH_KEYS["dim"], metavar="DIM", type=int)
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmdadapt",
        description="MMD-based domain adaptation runs, sweeps and traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _settings_parser()
    sub.add_parser("run", parents=[common], help="fit algorithms once, emit report")
    sw = sub.add_parser("sweep", parents=[common], help="grid over mu or lambda x seeds")
    sw.add_argument("--param", choices=("mu", "lambda"), required=True)
    sw.add_argument("--values", required=True, help="comma-separated grid values")
    sw.add_argument("--seeds", required=True, help="comma list or a:b range")
    sub.add_parser("trace", parents=[common], help="per-iteration discrepancy/accuracy")
    sub.add_parser("embed2d", parents=[common], help="2-d embedding of projected pair")
    sub.add_parser("datagen", parents=[common], help="write a synthetic pair as CSV")
    return parser


def _settings() -> dict[str, argparse.Action]:
    """The setting flags by config-file key: the flag name with underscores."""
    return {
        a.option_strings[0][2:].replace("-", "_"): a
        for a in _settings_parser()._actions
        if a.dest != "config"
    }


def _convert(action: argparse.Action, value: str):
    """A config-file value read as its flag reads it; on/off flags take yes/no words."""
    if action.nargs == 0:
        low = value.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(value)
    return action.type(value) if action.type else value


def parse_config_file(path: str) -> dict:
    """Read a flat key = value file into settings keyed by flag dest; a
    leading byte-order mark is skipped, as in dataset files."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    settings = _settings()
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        k, v = s.split("=", 1)
        key = k.strip().lower().replace("-", "_")
        key = _KEY_ALIASES.get(key, key)
        if key not in settings:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[settings[key].dest] = _convert(settings[key], v.strip())
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {v.strip()!r} for {key}") from None
    missing = [k for k in _REQUIRED_FILE_KEYS if k not in out]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")
    return out


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults < preset < config file < flags into one config."""
    file_vals = parse_config_file(args.config) if args.config else {}
    dests = {a.dest for a in _settings().values()}
    flag_vals = {k: v for k, v in vars(args).items() if k in dests and v is not None}

    preset_name = flag_vals.get("preset", file_vals.get("preset"))
    merged: dict = {}
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ConfigError(f"unknown preset {preset_name!r}")
        merged.update(PRESETS[preset_name])
        merged["preset"] = preset_name
    merged.update(file_vals)
    merged.update(flag_vals)

    if "algo" in merged:
        merged["algorithms"] = merged.pop("algo")
    elif args.command in ("trace", "embed2d"):
        merged["algorithms"] = ["jpda"]
    return config_from_echo(merged)


def _parse_seeds(spec: str) -> list[int]:
    spec = spec.strip()
    try:
        if ":" in spec:
            a, b = spec.split(":", 1)
            lo, hi = int(a), int(b)
            if hi <= lo:
                raise ValueError
            return list(range(lo, hi))
        return [int(s) for s in spec.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"bad seed spec {spec!r}; use a comma list or a:b") from None


def _parse_values(spec: str) -> list[float]:
    try:
        vals = [float(s) for s in spec.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"bad value list {spec!r}") from None
    if not vals:
        raise ConfigError("empty value list")
    return vals


def _check_out_dir(out: str) -> None:
    """A ConfigError that names out unless it is a writable directory or
    can be made in one. Nothing is made, so a failed command leaves none."""
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"cannot write to --out {out}: {path} is not a directory")
    if not os.access(path, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot write to --out {out}: {path} is not writable")


def _run_command(args) -> None:
    """Carry out the parsed subcommand, printing its summary to stdout."""
    config = build_config(args)
    # Every command writes to --out: a bad one fails before any data is read.
    _check_out_dir(config.out)
    if args.command == "run":
        report = run(config)
        if report.raw_accuracy is not None:
            print(f"raw_1nn {report.raw_accuracy:.4f}")
        for name, rep in report.algorithms.items():
            acc = "n/a" if rep.final_accuracy is None else f"{rep.final_accuracy:.4f}"
            print(f"{name} {acc}")
        print(f"wrote report.json and accuracy.csv to {config.out}")
    elif args.command == "sweep":
        rows = sweep(config, args.param, _parse_values(args.values), _parse_seeds(args.seeds))
        seen = []
        for r in rows:
            key = (r["algorithm"], r["value"])
            if key not in seen:
                seen.append(key)
                print(
                    f"{r['algorithm']} {args.param}={r['value']:g} "
                    f"mean={r['mean_accuracy']:.4f} std={r['std_accuracy']:.4f}"
                )
        print(f"wrote sweep.csv to {config.out}")
    elif args.command == "trace":
        for r in trace(config):
            acc = "n/a" if r["accuracy"] is None else f"{r['accuracy']:.4f}"
            print(f"iter {r['iteration']:3d} mmd={r['mmd']:.6g} acc={acc}")
        print(f"wrote trace.csv to {config.out}")
    elif args.command == "embed2d":
        rows = embed2d(config)
        print(f"embedded {len(rows)} samples; wrote embedding.csv to {config.out}")
    elif args.command == "datagen":
        if config.synth is None:
            raise ConfigError("datagen needs synthetic settings (--synth and friends)")
        src, tgt = datagen_cmd(config)
        print(f"wrote {src} and {tgt}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # stderr of a failed command is the one JSON error record: warnings the
    # command raised on the way (numpy's overflow warnings from a diverging
    # solve, say) are dropped. After a success they are shown as usual.
    with warnings.catch_warnings(record=True) as caught:
        try:
            _run_command(args)
        except (ConfigError, DataError, NumericalError) as exc:
            code = {"ConfigError": 2, "DataError": 3, "NumericalError": 4}[type(exc).__name__]
            record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
            print(json.dumps(record), file=sys.stderr)
            return code
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
