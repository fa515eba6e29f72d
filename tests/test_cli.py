"""Command-line surface: precedence, config files, exit codes, outputs."""

import json
import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

from conftest import read_table
from mmdadapt import cli, harness
from mmdadapt.cli import (
    _parse_seeds,
    _parse_values,
    build_config,
    build_parser,
    main,
    parse_config_file,
)
from mmdadapt.datagen import ShiftSpec, generate_pair
from mmdadapt.errors import ConfigError
from mmdadapt.harness import load_dataset, save_dataset, write_run_outputs, write_table


def _args(*argv: str):
    return build_parser().parse_args(list(argv))


def _cfg_file(tmp_path, extra: str = "") -> str:
    path = tmp_path / "run.cfg"
    path.write_text(
        "algo = jpda\np = 2\niters = 2\nmu = 0.1\nlambda = 0.5\n"
        "kernel = primal\nseed = 0\n" + extra,
        encoding="utf-8",
    )
    return str(path)


# -------------------------------------------------------------- precedence


def test_defaults_alone():
    cfg = build_config(_args("run"))
    assert cfg.algorithms == ["tca", "jda", "bda", "jpda"]
    assert cfg.p == 100 and cfg.iters == 10
    assert cfg.mu == 0.1 and cfg.lam == 0.1
    assert cfg.kernel == "primal"
    assert cfg.synth == ShiftSpec(seed=0)


def test_preset_overrides_defaults():
    cfg = build_config(_args("run", "--preset", "office-caltech"))
    assert cfg.kernel == "linear"
    assert cfg.lam == 1.0
    assert cfg.preset == "office-caltech"


def test_file_overrides_preset(tmp_path):
    cfg = build_config(
        _args("run", "--preset", "office-caltech", "--config", _cfg_file(tmp_path))
    )
    assert cfg.lam == 0.5  # from the file
    assert cfg.kernel == "primal"  # file sets kernel too
    assert cfg.algorithms == ["jpda"]


def test_flags_override_file(tmp_path):
    cfg = build_config(
        _args("run", "--config", _cfg_file(tmp_path), "--lambda", "0.25", "--algo", "tca,jda")
    )
    assert cfg.lam == 0.25
    assert cfg.algorithms == ["tca", "jda"]
    assert cfg.iters == 2  # untouched file value survives


def test_synth_flags_build_spec_with_field_defaults():
    cfg = build_config(_args("run", "--magnitude", "30", "--seed", "4"))
    assert cfg.synth == ShiftSpec(magnitude=30.0, seed=4)
    cfg2 = build_config(_args("run", "--synth", "mean_offset", "--dim", "5"))
    assert cfg2.synth == ShiftSpec(kind="mean_offset", dim=5, seed=0)


def test_synth_and_files_conflict():
    with pytest.raises(ConfigError, match="not both"):
        build_config(_args("run", "--source", "a.csv", "--target", "b.csv", "--magnitude", "5"))


# ------------------------------------------------------------- config file


def test_config_file_aliases_and_types(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "# comment line\n"
        "algorithm = jpda,tca\n"
        "t = 3\n"
        "lambda = 0.7\n"
        "p = 4\nmu = 0.05\nkernel = rbf\nseed = 2\n"
        "freeze-bda-mu = true\n"
        "\n",
        encoding="utf-8",
    )
    vals = parse_config_file(str(path))
    assert vals["algo"] == ["jpda", "tca"]
    assert vals["iters"] == 3
    assert vals["lam"] == 0.7
    assert vals["freeze_bda_mu"] is True


def test_every_setting_flag_is_a_config_file_key(tmp_path):
    flags = {
        "source": "s.csv", "target": "t.csv", "algo": "jpda,tca", "p": "2", "iters": "3",
        "mu": "0.2", "lambda": "0.5", "kernel": "rbf", "bandwidth": "0.5", "ridge": "1e-5",
        "seed": "4", "out": "res", "jobs": "2", "preset": "office-caltech", "bda-mu": "0.3",
        "normalize": "zscore", "synth": "mean_offset", "magnitude": "2", "n-per-class": "4",
        "classes": "5", "dim": "6",
    }
    argv = [tok for k, v in flags.items() for tok in (f"--{k}", v)]
    expected = vars(_args("run", *argv, "--freeze-bda-mu"))
    del expected["command"], expected["config"]
    expected["freeze_bda_mu"] = False
    # Keys take hyphens or underscores alike.
    lines = [
        f"{k.replace('-', '_') if i % 2 else k} = {v}" for i, (k, v) in enumerate(flags.items())
    ]
    path = tmp_path / "all.cfg"
    path.write_text("\n".join(lines + ["freeze-bda-mu = no"]) + "\n", encoding="utf-8")
    vals = parse_config_file(str(path))
    assert vals == expected
    assert {k: type(v) for k, v in vals.items()} == {k: type(v) for k, v in expected.items()}
    for key in ("config", "synth_kind", "lam_bda"):
        path.write_text(f"{key} = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config_file(str(path))


def test_config_file_missing_keys(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("algo = jpda\np = 2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="missing required keys.*iters"):
        parse_config_file(str(path))


def test_config_file_syntax_error_names_line(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("algo = jpda\nwhat is this\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"c\.cfg:2: expected key = value"):
        parse_config_file(str(path))


def test_config_file_bad_value_and_unknown_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("p = many\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1: bad value 'many' for p"):
        parse_config_file(str(bad))
    unk = tmp_path / "unk.cfg"
    unk.write_text("warp = 9\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key 'warp'"):
        parse_config_file(str(unk))


@pytest.mark.parametrize(
    "line,message",
    [
        ("preset = nope", "unknown preset 'nope'"),
        ("freeze_bda_mu = maybe", "bad value 'maybe' for freeze_bda_mu"),
    ],
)
def test_config_file_bad_preset_or_switch_exits_2(tmp_path, capsys, line, message):
    path = _cfg_file(tmp_path, line + "\n")
    code = main(["run", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert message in record["message"]
    assert not os.path.exists(tmp_path / "out")


def test_config_file_with_a_byte_order_mark_reads_as_without(tmp_path):
    """Editors that save "UTF-8 with BOM" put U+FEFF before the first key."""
    plain = _cfg_file(tmp_path, "freeze-bda-mu = yes\n")
    text = open(plain, encoding="utf-8").read()
    marked = tmp_path / "bom.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert parse_config_file(str(marked)) == parse_config_file(plain)
    flags = ["--out", str(tmp_path / "out")]
    assert build_config(_args("run", "--config", str(marked), *flags)) == build_config(
        _args("run", "--config", plain, *flags)
    )


def test_config_file_unreadable():
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config_file("/nonexistent/x.cfg")


# ------------------------------------------------------------ seed parsing


def test_parse_seeds_and_values():
    assert _parse_seeds("0,1,2") == [0, 1, 2]
    assert _parse_seeds("3:6") == [3, 4, 5]
    assert _parse_values("0.05, 0.1") == [0.05, 0.1]
    with pytest.raises(ConfigError):
        _parse_seeds("5:2")
    with pytest.raises(ConfigError):
        _parse_seeds("x")
    with pytest.raises(ConfigError):
        _parse_values("a,b")
    with pytest.raises(ConfigError, match="empty"):
        _parse_values(" , ")


# -------------------------------------------------------------- exit codes


def test_run_success_prints_accuracies(tmp_path, capsys):
    code = main(
        ["run", "--n-per-class", "8", "--iters", "2", "--p", "2", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("raw_1nn ")
    for name in ("tca", "jda", "bda", "jpda"):
        assert f"\n{name} " in out
    assert os.path.exists(tmp_path / "report.json")
    assert os.path.exists(tmp_path / "accuracy.csv")


def test_config_error_exit_code_and_record(capsys):
    code = main(["run", "--source", "a.csv", "--target", "b.csv", "--magnitude", "5"])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert record["exit_code"] == 2
    assert "not both" in record["message"]


def test_data_error_exit_code(tmp_path, capsys):
    code = main(
        ["run", "--source", str(tmp_path / "no.csv"), "--target", str(tmp_path / "pe.csv")]
    )
    assert code == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "DataError"
    assert record["exit_code"] == 3


def test_numerical_error_exit_code(tmp_path, capsys):
    # identical samples give a zero median distance, so no rbf bandwidth
    src = tmp_path / "s.csv"
    src.write_text("1.0,1\n1.0,1\n1.0,2\n1.0,2\n", encoding="utf-8")
    tgt = tmp_path / "t.csv"
    tgt.write_text("1.0,1\n1.0,2\n", encoding="utf-8")
    code = main(
        ["run", "--source", str(src), "--target", str(tgt), "--algo", "jpda",
         "--kernel", "rbf", "--iters", "1", "--out", str(tmp_path)]
    )
    assert code == 4
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "NumericalError"
    assert record["exit_code"] == 4


@pytest.mark.parametrize(
    "flags",
    [[], ["--ridge", "10"], ["--kernel", "rbf", "--bandwidth", "1e100"]],
    ids=["primal", "large-ridge", "flat-rbf-gram"],
)
def test_samples_that_do_not_vary_are_a_data_error(tmp_path, capsys, flags):
    """No ridge mends a zero scatter: the relative ridge is zero as well."""
    data = tmp_path / "s.csv"
    data.write_text("1.0,1\n1.0,1\n1.0,2\n1.0,2\n", encoding="utf-8")
    code = main(
        ["run", "--source", str(data), "--target", str(data), "--algo", "jpda",
         "--iters", "1", "--out", str(tmp_path), *flags]
    )
    assert code == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "DataError"
    assert "do not vary" in record["message"] and "ridge" not in record["message"]


@pytest.mark.parametrize(
    "flags, code",
    [
        (["--dim", "40", "--ridge", "0"], 4),
        (["--dim", "40", "--ridge", "1e-16"], 4),
        (["--kernel", "linear", "--ridge", "0"], 4),
        (["--kernel", "rbf", "--ridge", "0"], 4),
        (["--kernel", "linear", "--ridge", "1e-15"], 4),
        (["--dim", "40", "--ridge", "1e-14"], 0),
        (["--dim", "4", "--ridge", "0"], 0),
    ],
)
def test_b_is_refused_exactly_when_its_smallest_eigenvalue_is_not_positive(
    tmp_path, capsys, flags, code
):
    """15 samples per domain: 40 features or a gram of 30 samples leave B
    singular, so a zero or negligible ridge leaves an eigenvalue of B at or
    below 0, while 4 features or a ridge of 1e-14 keep them all positive."""
    args = ["run", "--n-per-class", "5", "--classes", "3", *flags, "--out", str(tmp_path)]
    assert main(args) == code
    if code:
        assert json.loads(capsys.readouterr().err) == {
            "error": "NumericalError",
            "message": "stabilized B is not positive definite; increase ridge",
            "exit_code": 4,
        }


@pytest.mark.parametrize("case", ["huge_mu", "huge_features"])
def test_solver_overflow_is_a_numerical_error(tmp_path, capsys, case):
    """scipy's finiteness check rejects the overflowed B, whose eigenbasis
    whitens the pencil, or the overflowed whitened matrix."""
    if case == "huge_mu":
        inputs = ["--n-per-class", "5", "--mu", "1e308"]
    else:
        src = tmp_path / "s.csv"
        src.write_text("1e200,1\n-1e200,1\n3.0,2\n4.0,2\n", encoding="utf-8")
        tgt = tmp_path / "t.csv"
        tgt.write_text("1.0,1\n2.0,2\n", encoding="utf-8")
        inputs = ["--source", str(src), "--target", str(tgt)]
    code = main(
        ["run", *inputs, "--algo", "jpda", "--p", "1", "--iters", "1", "--out", str(tmp_path)]
    )
    assert code == 4
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "NumericalError"
    assert record["exit_code"] == 4


def test_failed_command_writes_only_the_error_record_to_stderr(tmp_path):
    """In a plain interpreter, with no test harness capturing warnings, the
    overflowing solve's numpy warnings must not print ahead of the record."""
    proc = subprocess.run(
        [
            sys.executable, "-m", "mmdadapt.cli", "run", "--mu", "1e308",
            "--n-per-class", "5", "--p", "1", "--iters", "1", "--algo", "jpda",
            "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONWARNINGS": "default"},
        timeout=120,
    )
    assert proc.returncode == 4
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr) == {
        "error": "NumericalError",
        "message": "the whitened eigenproblem overflowed; reduce mu or lambda",
        "exit_code": 4,
    }


def _spy_work(monkeypatch) -> list[str]:
    """Log every dataset load, generated pair and fit the harness makes."""
    work = []
    for name in ("load_dataset", "generate_pair", "fit"):
        inner = getattr(harness, name)

        def spy(*args, _name=name, _inner=inner):
            work.append(_name)
            return _inner(*args)

        monkeypatch.setattr(harness, name, spy)
    return work


_COMMAND_FLAGS = {"sweep": ["--param", "mu", "--values", "0.1", "--seeds", "0"]}


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("command", ["run", "sweep", "trace", "embed2d", "datagen"])
def test_out_that_cannot_be_a_directory_fails_before_any_work(
    tmp_path, capsys, monkeypatch, command, under
):
    taken = tmp_path / "taken"
    taken.write_text("kept\n", encoding="utf-8")
    out = taken / "sub" if under else taken
    work = _spy_work(monkeypatch)
    argv = [command, "--algo", "jpda", "--p", "2", "--iters", "1", "--n-per-class", "4"]
    code = main(argv + _COMMAND_FLAGS.get(command, []) + ["--out", str(out)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert record["message"] == f"cannot write to --out {out}: {taken} is not a directory"
    assert work == []
    assert taken.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("kernel", [[], ["--kernel", "linear"]], ids=["primal", "linear"])
def test_bandwidth_on_a_kernel_that_reads_none_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, kernel
):
    work = _spy_work(monkeypatch)
    argv = ["run", "--algo", "jda", "--p", "2", "--iters", "2", "--n-per-class", "8"]
    code = main(argv + kernel + ["--bandwidth", "2.0", "--out", str(tmp_path)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert "takes no bandwidth" in record["message"]
    assert work == []


def test_out_in_an_unwritable_directory_fails_before_any_work(tmp_path, capsys, monkeypatch):
    work = _spy_work(monkeypatch)
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    out = tmp_path / "new" / "out"
    code = main(["run", "--algo", "tca", "--p", "2", "--iters", "1", "--out", str(out)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["message"] == f"cannot write to --out {out}: {tmp_path} is not writable"
    assert work == [] and not os.path.exists(tmp_path / "new")


def test_a_writer_that_fails_is_a_config_error_naming_its_file(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("kept\n", encoding="utf-8")
    path = str(taken / "t.csv")
    with pytest.raises(ConfigError, match=f"cannot write {re.escape(path)}: "):
        write_table(path, [{"a": 1}])
    with pytest.raises(ConfigError, match=f"cannot write {re.escape(path)}: "):
        save_dataset(path, generate_pair(ShiftSpec(n_per_class=2)).pair.source)
    report = harness.run(harness.ExperimentConfig(algorithms=["tca"], p=2), write=False)
    with pytest.raises(ConfigError, match=re.escape(str(taken / "report.json"))):
        write_run_outputs(report, str(taken))
    assert taken.read_text(encoding="utf-8") == "kept\n"


def test_non_utf8_dataset_is_a_data_error(tmp_path):
    src = tmp_path / "latin.csv"
    src.write_bytes(b"f0,label\n0.5,1\n0.\xe9,2\n")
    tgt = tmp_path / "t.csv"
    tgt.write_text("0.5\n", encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "mmdadapt.cli", "run", "--source", str(src),
            "--target", str(tgt), "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr) == {
        "error": "DataError",
        "message": f"{src}:3: byte 0xe9 is not UTF-8",
        "exit_code": 3,
    }


def _address_space_limit(nbytes: int):
    """A preexec_fn capping the child's address space, so that an allocation
    the program fails to refuse ends in a MemoryError, not in a large
    allocation."""
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (nbytes, nbytes))


def _run_capped(args, tmp_path):
    """A CLI command in a child capped at 1.5 GB of address space, with one BLAS thread."""
    return subprocess.run(
        [sys.executable, "-m", "mmdadapt.cli", *args, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        preexec_fn=_address_space_limit(1_500_000 * 1024),
        timeout=120,
    )


@pytest.mark.parametrize("command", ["run", "trace"])
def test_huge_class_count_is_a_data_error_before_any_allocation(tmp_path, command):
    """A label of 10**6 makes a million classes: their 2C x 2C cores alone
    would take 7.3 TiB."""
    src = tmp_path / "s.csv"
    src.write_text("0.5,1\n0.7,2\n0.2,1000000\n0.9,2\n", encoding="utf-8")
    tgt = tmp_path / "t.csv"
    tgt.write_text("0.5\n0.7\n0.2\n0.9\n", encoding="utf-8")
    proc = _run_capped(
        [command, "--source", str(src), "--target", str(tgt), "--p", "1", "--iters", "1"], tmp_path
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.count("\n") == 1
    record = json.loads(proc.stderr)
    assert record["error"] == "DataError"
    assert record["message"].startswith("1000000 classes need about ")
    assert record["exit_code"] == 3


@pytest.mark.parametrize(
    "args, estimate",
    [
        (["datagen", "--synth", "rotation", "--n-per-class", "10000000"], "381 GiB"),
        (["run", "--n-per-class", "200000"], "7.63 GiB"),
        (["datagen", "--synth", "rotation", "--n-per-class", "34000"], "1.3 GiB"),
        (["datagen", "--synth", "rotation", "--n-per-class", "32000"], "1.22 GiB"),
    ],
)
def test_synthetic_pair_too_large_for_the_process_is_a_config_error(tmp_path, args, estimate):
    """Ten classes of 256 features: the two n x d domains alone exceed the
    cap. 1.3 GiB is under the 1.43 GiB cap itself, but over what the cap
    leaves beside the interpreter and its libraries. 1.22 GiB is over it
    only once the 32 MiB buffer that OpenBLAS maps at its first product is
    counted; uncounted, that buffer failed to map after the check passed."""
    proc = _run_capped([*args, "--classes", "10", "--dim", "256"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1
    record = json.loads(proc.stderr)
    assert record["error"] == "ConfigError"
    assert re.fullmatch(
        rf"a synthetic pair of \d+ samples x 256 features per domain needs about {estimate}, "
        r"more than the [\d.]+ GiB this process can take",
        record["message"],
    )


def _write_rows(path, rows):
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("case", ["linear-kernel-rows", "primal-features"])
def test_pencil_too_large_for_the_process_is_a_data_error(tmp_path, case):
    """m = 60000 either way: 30000 one-feature rows per domain under a linear
    kernel, whose 60000 x 60000 gram alone takes 26.8 GiB, or four rows of
    60000 features in a primal fit, whose B is as large."""
    if case == "linear-kernel-rows":
        rows, width, flags = 30000, 1, ["--kernel", "linear"]
    else:
        rows, width, flags = 4, 60000, []
    features = [[f"{(i * 7 + j) % 10 / 10}" for j in range(width)] for i in range(rows)]
    src = _write_rows(tmp_path / "s.csv", (x + [str(i % 2 + 1)] for i, x in enumerate(features)))
    tgt = _write_rows(tmp_path / "t.csv", reversed(features))
    proc = _run_capped(
        ["run", "--source", src, "--target", tgt, "--p", "1", "--iters", "1", *flags], tmp_path
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.count("\n") == 1
    record = json.loads(proc.stderr)
    assert record["error"] == "DataError"
    assert re.fullmatch(
        r"a pencil of size m = 60000 needs about 1\d\d GiB for its m x m arrays, "
        r"more than the [\d.]+ GiB this process can take",
        record["message"],
    )


def test_run_keeps_its_labels_under_another_blas_thread_count(tmp_path):
    """The README's replay scope: report.json replays exactly only at the
    same BLAS thread count, but under 1 and 2 OpenBLAS threads every pass
    of every default algorithm ends on the same pseudo-labels."""
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        subprocess.run(
            [sys.executable, "-m", "mmdadapt.cli", "run", "--kernel", "rbf", "--classes", "3",
             "--dim", "40", "--seed", "0", "--out", str(out)],
            check=True,
            capture_output=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
            timeout=120,
        )
        reports.append(json.loads((out / "report.json").read_text(encoding="utf-8")))
    one, two = (report["algorithms"] for report in reports)
    assert list(one) == list(two) == ["tca", "jda", "bda", "jpda"]
    for algo in one:
        assert [rec["pseudo_labels"] for rec in one[algo]["iterations"]] == [
            rec["pseudo_labels"] for rec in two[algo]["iterations"]
        ]


def test_sweep_jobs_under_two_blas_threads_write_the_serial_table(tmp_path):
    """A file sweep prepares its pair, OpenBLAS threads and all, before the
    pool starts its workers; under 2 OpenBLAS threads `--jobs 2` still
    exits 0 and writes the bytes of `--jobs 1`."""
    gen = generate_pair(ShiftSpec(n_per_class=60, dim=20, seed=5))
    s, t = str(tmp_path / "s.csv"), str(tmp_path / "t.csv")
    save_dataset(s, gen.pair.source)
    save_dataset(t, gen.pair.target)
    tables = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        subprocess.run(
            [sys.executable, "-m", "mmdadapt.cli", "sweep", "--source", s, "--target", t,
             "--kernel", "rbf", "--algo", "jpda", "--p", "10", "--iters", "3",
             "--param", "mu", "--values", "0.01,0.1,1", "--seeds", "0:2", "--jobs", jobs,
             "--out", str(out)],
            check=True,
            capture_output=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"},
            timeout=120,
        )
        tables.append((out / "sweep.csv").read_bytes())
    assert tables[0] == tables[1]


def test_warnings_of_a_successful_command_are_still_shown(tmp_path):
    src = tmp_path / "s.csv"
    src.write_text("0,0,1\n0.2,0.1,1\n-0.1,0.2,1\n10,10,2\n10.2,9.8,2\n9.9,10.1,2\n", encoding="utf-8")
    tgt = tmp_path / "t.csv"
    tgt.write_text("0.05,0.05\n0.15,0\n-0.05,0.1\n0.1,0.15\n", encoding="utf-8")
    with pytest.warns(UserWarning, match="collapsed to class 1 at iteration 1"):
        code = main(
            ["run", "--source", str(src), "--target", str(tgt), "--algo", "jpda",
             "--p", "1", "--iters", "1", "--out", str(tmp_path / "out")]
        )
    assert code == 0


def test_unknown_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main(["transmogrify"])


# ------------------------------------------------------------- subcommands


def test_datagen_writes_reloadable_pair(tmp_path, capsys):
    out = str(tmp_path / "g")
    code = main(["datagen", "--n-per-class", "3", "--seed", "5", "--out", out])
    assert code == 0
    assert "source.csv" in capsys.readouterr().out
    src = load_dataset(os.path.join(out, "source.csv"))
    gen = generate_pair(ShiftSpec(n_per_class=3, seed=5))
    np.testing.assert_array_equal(src.X, gen.pair.source.X)
    tgt = load_dataset(os.path.join(out, "target.csv"))
    np.testing.assert_array_equal(tgt.X, gen.pair.target.X)


def test_trace_defaults_to_joint_solver(tmp_path, capsys):
    code = main(
        ["trace", "--n-per-class", "6", "--iters", "2", "--p", "2", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "iter   1" in out and "iter   2" in out
    header, rows = read_table(str(tmp_path / "trace.csv"))
    assert header == ["iteration", "mmd", "accuracy"]
    assert len(rows) == 2


def test_trace_respects_config_file_algorithm(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, "")  # algo = jpda in the file
    path = tmp_path / "tca.cfg"
    path.write_text(
        "algo = tca\np = 2\niters = 2\nmu = 0.1\nlambda = 0.5\nkernel = primal\nseed = 0\n",
        encoding="utf-8",
    )
    code = main(["trace", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2  # tca cannot be traced, and the file's choice is honored
    record = json.loads(capsys.readouterr().err)
    assert "tca" in record["message"]
    assert main(["trace", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()


def test_config_file_is_read_once(tmp_path, monkeypatch, capsys):
    reads = []
    real = cli.parse_config_file
    monkeypatch.setattr(cli, "parse_config_file", lambda path: reads.append(path) or real(path))
    cfg = _cfg_file(tmp_path)
    for command in ("run", "trace", "embed2d"):
        assert main([command, "--config", cfg, "--n-per-class", "6", "--out", str(tmp_path)]) == 0
    assert reads == [cfg] * 3
    capsys.readouterr()


def test_sweep_prints_group_means(tmp_path, capsys):
    code = main(
        [
            "sweep", "--param", "mu", "--values", "0.05,0.1", "--seeds", "0:2",
            "--algo", "jpda", "--n-per-class", "6", "--iters", "2", "--p", "2",
            "--out", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("mean=") == 2
    assert "mu=0.05" in out and "mu=0.1" in out
    header, rows = read_table(str(tmp_path / "sweep.csv"))
    assert len(rows) == 4


def test_embed2d_cli(tmp_path, capsys):
    code = main(
        ["embed2d", "--n-per-class", "6", "--iters", "2", "--p", "2", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "embedded 36 samples" in out
    assert os.path.exists(tmp_path / "embedding.csv")


def test_datagen_rejects_file_inputs(tmp_path, capsys):
    gen = generate_pair(ShiftSpec(n_per_class=3, seed=0))
    s, t = str(tmp_path / "s.csv"), str(tmp_path / "t.csv")
    save_dataset(s, gen.pair.source)
    save_dataset(t, gen.pair.target)
    code = main(["datagen", "--source", s, "--target", t, "--out", str(tmp_path)])
    assert code == 2
    assert "synthetic settings" in json.loads(capsys.readouterr().err)["message"]


def test_freeze_flag_defaults_off():
    assert build_config(_args("run")).freeze_bda_mu is False
    assert build_config(_args("run", "--freeze-bda-mu")).freeze_bda_mu is True


def test_importing_the_cli_loads_no_process_pool():
    """Only a sweep with --jobs above 1 makes a process pool, so a fresh
    interpreter that imports the CLI has not loaded one."""
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, mmdadapt.cli; print('concurrent.futures.process' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
