"""File formats, run/sweep/trace/embed drivers, and replayability."""

import concurrent.futures
import gc
import io
import json
import math
import multiprocessing
import os
import pickle
import tracemalloc
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, fields, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import distinct_passes, needs_vmhwm, peak_rss_ratio, read_table
from mmdadapt import adapt, harness
from mmdadapt.adapt import PreparedPair, fit
from mmdadapt.data import AdaptConfig, DomainPair, LabeledDataset
from mmdadapt.datagen import ShiftSpec, generate_pair
from mmdadapt.errors import ConfigError, DataError
from mmdadapt.kernels import KernelSpec
from mmdadapt.harness import (
    PRESETS,
    ExperimentConfig,
    adapt_config_for,
    config_from_echo,
    datagen_cmd,
    embed2d,
    load_dataset,
    resolve_pair,
    run,
    save_dataset,
    sweep,
    trace,
)


# Tests that count calls in forked sweep workers, which inherit the counter.
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)


def _write(path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------- loading


def test_load_basic_with_and_without_header(tmp_path):
    body = "1.0,2.0,1\n3.0,4.0,2\n5.0,6.0,1\n"
    plain = _write(tmp_path / "plain.csv", body)
    headed = _write(tmp_path / "headed.csv", "x,y,label\n" + body)
    for path in (plain, headed):
        ds = load_dataset(path)
        assert ds.X.shape == (2, 3)
        np.testing.assert_array_equal(ds.y, [1, 2, 1])
        assert ds.class_count == 2
    np.testing.assert_array_equal(load_dataset(plain).X, load_dataset(headed).X)


def test_load_unlabeled_target_by_feature_dim(tmp_path):
    path = _write(tmp_path / "t.csv", "1.0,2.0\n3.0,4.0\n")
    ds = load_dataset(path, feature_dim=2, class_count=3)
    assert ds.y is None
    assert ds.class_count == 3
    assert ds.X.shape == (2, 2)
    with pytest.raises(DataError, match="class count"):
        load_dataset(path, feature_dim=2)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty file"),
        ("x,y,label\n", "no data rows"),
        ("1.0,2.0,1\n3.0,4.0\n", ":2"),
        ("1.0,2.0,1\n1.0,nan,2\n", ":2"),
        ("1.0,2.0,1.5\n", "not an integer"),
        ("1.0,2.0,0\n", "below 1"),
        ("1.0,2.0,1\n3.0,oops,2\n", "malformed"),
        ("5\n6\n", "at least one feature"),
    ],
)
def test_load_errors_name_the_line(tmp_path, text, fragment):
    path = _write(tmp_path / "bad.csv", text)
    with pytest.raises(DataError, match=fragment):
        load_dataset(path)


def test_target_label_above_the_class_count_names_the_line(tmp_path):
    path = _write(tmp_path / "t.csv", "0.5,1\n0.5,2\n\n0.5,7\n")
    with pytest.raises(DataError, match=r"t\.csv:4: label 7 above"):
        load_dataset(path, feature_dim=1, class_count=2)


def test_label_beyond_the_integer_range_names_the_line(tmp_path):
    """1e30 is integer-valued but has no int64 value: it must fail on the
    parsed float, with no wrapped value and no cast warning."""
    path = _write(tmp_path / "big.csv", "0.5,1\n0.7,1e30\n0.2,2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"big\.csv:2: label 1e\+30 above 2\*\*53"):
            load_dataset(path)
        with pytest.raises(DataError, match=r"big\.csv:2: label 1e\+30 above class count 2"):
            load_dataset(path, feature_dim=1, class_count=2)


def test_load_missing_file():
    with pytest.raises(DataError, match="cannot read"):
        load_dataset("/nonexistent/nope.csv")


def test_load_wrong_width_against_feature_dim(tmp_path):
    path = _write(tmp_path / "w.csv", "1.0,2.0,3.0,4.0\n")
    with pytest.raises(DataError, match="expected 2 or 3 columns"):
        load_dataset(path, feature_dim=2)


def test_save_load_round_trip_is_exact(tmp_path):
    gen = generate_pair(ShiftSpec(n_per_class=5, seed=12))
    for name, ds in (("s", gen.pair.source), ("t", gen.pair.target)):
        path = str(tmp_path / f"{name}.csv")
        save_dataset(path, ds)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)
        assert back.class_count == ds.class_count


def test_save_dataset_bytes(tmp_path):
    """Floats are written as their repr, labels as integers."""
    X = np.array([[0.1, -2.0, 1e-20], [3.0, 0.1 + 0.2, -0.0]])
    path = tmp_path / "pin.csv"
    save_dataset(str(path), LabeledDataset(X=X, y=np.array([1, 2, 2]), class_count=2))
    assert path.read_bytes() == (
        b"f0,f1,label\r\n0.1,3.0,1\r\n-2.0,0.30000000000000004,2\r\n1e-20,-0.0,2\r\n"
    )
    save_dataset(str(path), LabeledDataset(X=X[:, :1], y=None, class_count=2))
    assert path.read_bytes() == b"f0,f1\r\n0.1,3.0\r\n"
    # No feature column, as csv.writer wrote it: the label alone.
    save_dataset(str(path), LabeledDataset(X=np.empty((0, 2)), y=np.array([1, 2]), class_count=2))
    assert path.read_bytes() == b"label\r\n1\r\n2\r\n"


# Floats at the edges of repr: signed zero, the smallest subnormal, the
# largest finite value, and both sides of the switches to exponent form at
# 1e16 and below 1e-4.
_EDGE_FLOATS = (
    -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1e-5, -1e-5,
)


@st.composite
def _datasets(draw):
    """Small datasets of edge, arbitrary finite and float32-valued floats, labeled or not."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    value = st.one_of(
        st.sampled_from(_EDGE_FLOATS),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(width=32, allow_nan=False, allow_infinity=False),
    )
    X = np.array(draw(st.lists(value, min_size=d * n, max_size=d * n))).reshape(d, n)
    y = draw(st.none() | st.lists(st.integers(1, 9), min_size=n, max_size=n))
    return LabeledDataset(X=X, y=None if y is None else np.array(y), class_count=9)


@settings(max_examples=150, deadline=None)
@given(ds=_datasets())
def test_save_dataset_writes_the_csv_writer_bytes(tmp_path_factory, ds):
    """The row-at-a-time writer gives csv.writer's bytes; a load gives back
    the same bits, and the loader's read-only transposed X writes the same
    bytes again."""
    base = tmp_path_factory.getbasetemp()
    got, want = base / "rows.csv", base / "reference.csv"
    save_dataset(str(got), ds)
    oracles.save_dataset_reference(str(want), ds.X, ds.y)
    assert got.read_bytes() == want.read_bytes()
    back = load_dataset(str(got), feature_dim=ds.dim, class_count=9)
    assert back.X.tobytes() == ds.X.tobytes()
    if ds.y is None:
        assert back.y is None
    else:
        np.testing.assert_array_equal(back.y, ds.y)
    assert not back.X.flags.writeable
    save_dataset(str(got), back)
    assert got.read_bytes() == want.read_bytes()


def test_save_dataset_holds_one_row_beyond_the_array(tmp_path):
    """A write forms each line in turn: writing all rows as Python lists
    first took about 4.3 times the array."""
    X = np.random.default_rng(5).normal(size=(100, 1000))
    ds = LabeledDataset(X=X, y=np.arange(1000) % 10 + 1, class_count=10)
    tracemalloc.start()
    try:
        save_dataset(str(tmp_path / "m.csv"), ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= X.nbytes / 4


def test_save_dataset_forms_each_label_with_its_row(tmp_path):
    """Narrow rows leave the labels to show: a list of all n label strings
    took about 15 MB here. The write's buffers are its whole peak, whatever n."""
    n = 200_000
    ds = LabeledDataset(X=np.linspace(0.0, 1.0, n)[None, :], y=np.arange(n) % 2 + 1, class_count=2)
    tracemalloc.start()
    try:
        save_dataset(str(tmp_path / "narrow.csv"), ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024


def test_save_load_unlabeled_round_trip(tmp_path):
    ds = LabeledDataset(X=np.array([[1.5, -2.0], [0.25, 4.0]]), y=None, class_count=2)
    path = str(tmp_path / "u.csv")
    save_dataset(path, ds)
    back = load_dataset(path, feature_dim=2, class_count=2)
    assert back.y is None
    np.testing.assert_array_equal(back.X, ds.X)


def _write_bytes(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


def test_load_crlf_line_endings(tmp_path):
    path = _write_bytes(tmp_path / "crlf.csv", b"f0,f1,label\r\n0.5,-1.0,1\r\n1.5,2.0,2\r\n")
    ds = load_dataset(path)
    np.testing.assert_array_equal(ds.X, [[0.5, 1.5], [-1.0, 2.0]])
    np.testing.assert_array_equal(ds.y, [1, 2])
    bad = _write_bytes(tmp_path / "bad.csv", b"0.5,1\r\n\r\n1.5,x\r\n")
    with pytest.raises(DataError, match=r"bad\.csv:3: malformed number$"):
        load_dataset(bad)


def test_load_skips_blank_and_comma_only_lines_but_counts_them(tmp_path):
    path = _write(tmp_path / "gaps.csv", "0.5,1\n\n,\n , \t\n,,,\n1.5,2\n")
    ds = load_dataset(path)
    np.testing.assert_array_equal(ds.X, [[0.5, 1.5]])
    np.testing.assert_array_equal(ds.y, [1, 2])
    for body, message in (
        ("0.5,1\n\n,\n1.5,2\n\n2.5,oops\n", r":6: malformed number$"),
        ("0.5,1\n,\n\n1.5,inf\n", r":4: non-finite value$"),
        ("x,label\n\n0.5,1\n,\n0.5,2.5\n", r":5: label is not an integer$"),
        ("0.5,1\n , \n0.5,0\n", r":3: label 0 below 1$"),
    ):
        with pytest.raises(DataError, match=r"bad\.csv" + message):
            load_dataset(_write(tmp_path / "bad.csv", body))


def test_load_accepts_quotes_underscores_and_padding(tmp_path):
    path = _write(tmp_path / "q.csv", 'f0,f1,label\n"0.5", 1_0 ,\t2 \n"-1e-3",2_0.5,"1"\n')
    ds = load_dataset(path)
    np.testing.assert_array_equal(ds.X, [[0.5, -1e-3], [10.0, 20.5]])
    np.testing.assert_array_equal(ds.y, [2, 1])


@pytest.mark.parametrize(
    "text,message",
    [
        ("0.5,1,\n1.5,2,\n", r"c\.csv:1: malformed number$"),
        ("0.5,1\n#1.5,2\n", r"c\.csv:2: malformed number$"),
        ("0.5,1\n1.5,2 # note\n", r"c\.csv:2: malformed number$"),
        ("1,2,1\n\n3,4,1,9\n", r"c\.csv:3: expected 3 columns, got 4$"),
        ("1,2,1\n3,4\n", r"c\.csv:2: expected 3 columns, got 2$"),
        ('"0.5\n",1\n0.7,x\n', r"c\.csv:3: malformed number$"),
        ('0.5,1\n"0.7\r\n\r\n",2\n\n0.9\n', r"c\.csv:6: expected 2 columns, got 1$"),
    ],
)
def test_load_has_no_comment_syntax_and_no_ragged_rows(tmp_path, text, message):
    """Lines are physical lines: a quoted field that spans lines counts each."""
    with pytest.raises(DataError, match=message):
        load_dataset(_write(tmp_path / "c.csv", text))


@pytest.mark.parametrize("text", ["f0,label\r\n", "f0,label\n\n\n"])
def test_header_only_file_has_no_data_rows_and_warns_nothing(tmp_path, text):
    path = _write_bytes(tmp_path / "h.csv", text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"h\.csv: no data rows$"):
            load_dataset(path)


def test_load_single_row_and_single_column(tmp_path):
    ds = load_dataset(_write(tmp_path / "row.csv", "0.5,1.5,2\n"))
    np.testing.assert_array_equal(ds.X, [[0.5], [1.5]])
    np.testing.assert_array_equal(ds.y, [2])
    col = _write(tmp_path / "col.csv", "5\n6\n")
    with pytest.raises(DataError, match="at least one feature"):
        load_dataset(col)
    ds = load_dataset(col, feature_dim=1, class_count=3)
    np.testing.assert_array_equal(ds.X, [[5.0, 6.0]])
    assert ds.y is None


def test_load_round_trips_extreme_floats_bit_for_bit(tmp_path):
    X = np.array([[5e-324, 1.7976931348623157e308, -0.0, 1e16, 1e-5]])
    path = str(tmp_path / "x.csv")
    save_dataset(path, LabeledDataset(X=X, y=np.array([1, 2, 1, 2, 1]), class_count=2))
    assert load_dataset(path).X.tobytes() == X.tobytes()
    typed = _write(tmp_path / "typed.csv", "5e-324,1\n1.7976931348623157e308,2\n-0.0,1\n1e16,2\n1e-5,1\n")
    assert load_dataset(typed).X.tobytes() == X.tobytes()


@pytest.mark.parametrize("header", [b"", b"f0,label\r\n"])
def test_byte_order_mark_keeps_the_first_row(tmp_path, header):
    """Spreadsheet "CSV UTF-8" exports start with a byte-order mark."""
    path = _write_bytes(tmp_path / "bom.csv", b"\xef\xbb\xbf" + header + b"0.5,1\r\n1.5,2\r\n2.5,1\r\n")
    ds = load_dataset(path)
    assert ds.n == 3
    np.testing.assert_array_equal(ds.X, [[0.5, 1.5, 2.5]])


def test_clean_file_skips_the_line_loop(tmp_path, monkeypatch):
    """The per-line loop runs only when a line must be named."""
    calls = []
    line_loop = harness._numbered_rows
    monkeypatch.setattr(harness, "_numbered_rows", lambda *a: calls.append(1) or line_loop(*a))
    path = _write(tmp_path / "s.csv", "f0,label\n0.5,1\n0.7,1\n0.2,2\n")
    load_dataset(path)
    assert calls == []
    with pytest.raises(DataError, match=r"s\.csv:4: label 2 above class count 1$"):
        load_dataset(path, feature_dim=1, class_count=1)
    assert calls == [1]


def test_number_past_the_csv_field_limit_loads_by_the_c_reader(tmp_path):
    """csv refuses a field over 131072 characters; the C reader does not."""
    long = "0." + "0" * 200000 + "1"
    ds = load_dataset(_write(tmp_path / "l.csv", f"{long},1\n0.5,2\n"))
    np.testing.assert_array_equal(ds.X, [[0.0, 0.5]])


@pytest.mark.parametrize(
    "text",
    [
        "0.5,1\n" + "1" * 200000 + ",2\n0.5,1\n",
        '"0.5",1\n0.' + "0" * 200000 + "1,2\n",
    ],
    ids=["line-asked-for", "csv-route"],
)
def test_field_past_the_csv_field_limit_is_a_data_error_naming_its_line(tmp_path, text):
    """Where a row must be read by csv, to name a non-finite value or to
    parse a quoted file, a field csv refuses is a data error."""
    with pytest.raises(DataError, match=r"l\.csv:2: field larger than field limit \(131072\)$"):
        load_dataset(_write(tmp_path / "l.csv", text))


@pytest.mark.parametrize(
    "data,message",
    [
        (b"f0,label\n0.5,1\n0.\xe9,2\n", r":3: byte 0xe9 is not UTF-8$"),
        (b"\xef\xbb\xbf0.5,1\r0.5,1\r\n\xe9.5,2\r\n", r":3: byte 0xe9 is not UTF-8$"),
        (b"0.5,1\n0.5,2\xc3", r":2: byte 0xc3 is not UTF-8$"),
        (b"0.5,1\n" * 5000 + b"0.5,\xff\n", r":5001: byte 0xff is not UTF-8$"),
        (b"f\xe90,label\n0.5,1\n0.7,2\n", r":1: byte 0xe9 is not UTF-8$"),
        (b"0.\xe95,1\n0.5,2\n", r":1: byte 0xe9 is not UTF-8$"),
        (b"0.5,1\n\xff\n0.7,2\n", r":2: byte 0xff is not UTF-8$"),
        (b"0.5,1\n0.5,2\n0.5\n" + b"0.5,1\n" * 5000 + b"0.5,\xff\n", r":3: expected 2 columns, got 1$"),
    ],
    ids=[
        "latin-1",
        "cr-and-bom",
        "cut-at-end",
        "past-the-first-chunk",
        "in-the-header",
        "first-row-of-a-headerless-file",
        "lone-field",
        "ragged-row-first",
    ],
)
def test_non_utf8_file_is_a_data_error_naming_its_line(tmp_path, data, message):
    """From a file, and from a pipe where there is /dev/fd. A byte in the
    header line makes it a data row; the first line that does not parse is
    the one named, whatever comes after it."""
    with pytest.raises(DataError, match=r"l\.csv" + message):
        load_dataset(_write_bytes(tmp_path / "l.csv", data))
    if os.path.isdir("/dev/fd"):
        with pytest.raises(DataError, match=r"^/dev/fd/\d+" + message):
            _load_from_pipe(data)


def _counting_parses(monkeypatch) -> list:
    return _counting(monkeypatch, "_loadtxt_rows")


def test_unchanged_file_is_parsed_once(tmp_path, monkeypatch):
    """Loads are keyed by content: a second path with the same bytes is a hit."""
    parses = _counting_parses(monkeypatch)
    first = _write(tmp_path / "a.csv", "0.5,1\n0.7,2\n")
    copy = _write(tmp_path / "copy.csv", "0.5,1\n0.7,2\n")
    for path in (first, first, copy):
        ds = load_dataset(path)
        np.testing.assert_array_equal(ds.X, [[0.5, 0.7]])
        np.testing.assert_array_equal(ds.y, [1, 2])
    assert len(parses) == 1


def test_only_the_two_latest_files_stay_parsed(tmp_path, monkeypatch):
    parses = _counting_parses(monkeypatch)
    a, b, c = (_write(tmp_path / f"{n}.csv", f"0.{i},1\n0.5,2\n") for i, n in enumerate("abc"))
    for path in (a, b, a, b, c, b):
        load_dataset(path)
    assert len(parses) == 3
    load_dataset(a)
    assert len(parses) == 4


def test_rewrite_of_the_same_size_and_mtime_loads_the_new_rows(tmp_path, monkeypatch):
    parses = _counting_parses(monkeypatch)
    path = _write(tmp_path / "r.csv", "0.5,1\n0.7,2\n")
    load_dataset(path)
    load_dataset(path)
    assert len(parses) == 1
    before = os.stat(path)
    _write(tmp_path / "r.csv", "0.9,2\n0.3,1\n")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    ds = load_dataset(path)
    np.testing.assert_array_equal(ds.X, [[0.9, 0.3]])
    np.testing.assert_array_equal(ds.y, [2, 1])
    assert len(parses) == 2


def _hashing_readers(monkeypatch, on_new=None) -> list:
    """Every _HashingReader a load builds; on_new(i) runs before the i-th."""
    readers, reader = [], harness._HashingReader

    def tracked(file):
        if on_new is not None:
            on_new(len(readers))
        readers.append(reader(file))
        return readers[-1]

    monkeypatch.setattr(harness, "_HashingReader", tracked)
    return readers


def test_first_load_reads_the_file_once(tmp_path, monkeypatch):
    readers = _hashing_readers(monkeypatch)
    for i, text in enumerate(("0.5,1\n0.7,2\n", "0.25,1\n0.75,2\n")):
        path = _write(tmp_path / f"{i}.csv", text)
        load_dataset(path)
        assert [r.size for r in readers] == [os.path.getsize(path)]
        readers.clear()


def test_rewrite_during_a_parse_is_filed_under_the_parsed_bytes(tmp_path, monkeypatch):
    """The file changes after its digest is taken and before it is parsed."""
    other, old, new = "0.1,1\n0.2,2\n", "0.5,1\n0.7,2\n", "0.9,2\n0.3,1\n"
    path = _write(tmp_path / "r.csv", other)
    load_dataset(path)
    _write(tmp_path / "r.csv", old)

    def rewrite_before_the_parse(i):
        # The first reader digests the old bytes, which match the size of
        # the kept entry; the second one parses.
        if i == 1:
            _write(tmp_path / "r.csv", new)

    readers = _hashing_readers(monkeypatch, rewrite_before_the_parse)
    np.testing.assert_array_equal(load_dataset(path).X, [[0.9, 0.3]])
    assert len(readers) == 2
    _write(tmp_path / "r.csv", old)
    np.testing.assert_array_equal(load_dataset(path).X, [[0.5, 0.7]])


_needs_dev_fd = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")


@_needs_dev_fd
def test_headered_file_loads_from_a_pipe():
    """A pipe can be read only once: it is parsed in one pass and not kept."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, b"f0,f1,label\n0.5,1.5,1\n0.7,2.5,2\n")
        os.close(write_end)
        ds = load_dataset(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    np.testing.assert_array_equal(ds.X, [[0.5, 0.7], [1.5, 2.5]])
    np.testing.assert_array_equal(ds.y, [1, 2])
    assert not ds.X.flags.writeable
    assert harness._PARSED == {}


def _load_from_pipe(data: bytes, **kwargs):
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)
        os.close(write_end)
        return load_dataset(f"/dev/fd/{read_end}", **kwargs)
    finally:
        os.close(read_end)


@_needs_dev_fd
@pytest.mark.parametrize(
    "data",
    [b"0.5,1\n0.7,2\n", b'"0.5",1\n0.7,2\n', b"\xef\xbb\xbf0.5,1\r\n\r\n0.7,2\r\n"],
    ids=["headerless", "quoted", "bom-crlf"],
)
def test_any_file_loads_from_a_pipe(monkeypatch, data):
    """A pipe cannot seek back: its bytes are parsed in memory, not kept."""
    parses = _counting_parses(monkeypatch)
    ds = _load_from_pipe(data)
    np.testing.assert_array_equal(ds.X, [[0.5, 0.7]])
    np.testing.assert_array_equal(ds.y, [1, 2])
    assert not ds.X.flags.writeable
    assert len(parses) == 1 and harness._PARSED == {}


@_needs_dev_fd
@pytest.mark.parametrize(
    "data,message",
    [
        (b"0.5,1\n\n0.7,0\n", r":3: label 0 below 1$"),
        (b"f0,label\n0.5,1\n0.7,inf\n", r":3: non-finite value$"),
        (b'"0.5",1\n0.7,2\n0.9,2.5\n', r":3: label is not an integer$"),
        (b"0.5,1\n0.7,x\n", r":2: malformed number$"),
        (b'"0.5\n",1\n0.7,x\n', r":3: malformed number$"),
    ],
)
def test_bad_row_of_a_pipe_names_its_line(data, message):
    with pytest.raises(DataError, match=r"^/dev/fd/\d+" + message):
        _load_from_pipe(data)


@_needs_dev_fd
def test_non_utf8_pipe_is_a_data_error_naming_the_byte():
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, b"f0,label\n0.5,1\n0.\xe9,2\n")
        os.close(write_end)
        with pytest.raises(DataError, match=r"/dev/fd/\d+:3: byte 0xe9 is not UTF-8$"):
            load_dataset(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)


def test_loaded_features_are_read_only(tmp_path, monkeypatch):
    parses = _counting_parses(monkeypatch)
    path = _write(tmp_path / "w.csv", 'f0,f1,label\n0.5,1.5,1\n0.7,2.5,2\n')
    quoted = _write(tmp_path / "q.csv", '"0.5",1\n"0.7",2\n')
    for p in (path, quoted):
        ds = load_dataset(p)
        with pytest.raises(ValueError, match="read-only"):
            ds.X[0, 0] = 9.0
    ds = load_dataset(path)
    np.testing.assert_array_equal(ds.X, [[0.5, 0.7], [1.5, 2.5]])
    assert len(parses) == 2


def test_cache_hit_still_names_the_line_of_a_label_above_the_class_count(tmp_path, monkeypatch):
    parses = _counting_parses(monkeypatch)
    path = _write(tmp_path / "t.csv", "0.5,1\n0.5,2\n\n0.5,7\n")
    assert load_dataset(path).class_count == 7
    with pytest.raises(DataError, match=r"t\.csv:4: label 7 above class count 2$"):
        load_dataset(path, feature_dim=1, class_count=2)
    assert len(parses) == 1


def _last_label_zero(lines: list[str]) -> None:
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",0"


def _underscore_mid_file(lines: list[str]) -> None:
    lines[len(lines) // 2] = "1_0," + lines[len(lines) // 2].split(",", 1)[1]


@needs_vmhwm
@pytest.mark.parametrize(
    "edit, statement",
    [
        (None, "load_dataset(sys.argv[1])"),
        (
            _last_label_zero,
            "try:\n    load_dataset(sys.argv[1])\nexcept DataError as exc:\n"
            "    assert str(exc).endswith(':2001: label 0 below 1'), exc\n"
            "else:\n    raise AssertionError('loaded')",
        ),
        (_underscore_mid_file, "assert load_dataset(sys.argv[1]).X[0, 999] == 10.0"),
    ],
    ids=["clean", "last-label-zero", "csv-route"],
)
def test_loader_memory_stays_near_one_copy_of_the_array(tmp_path, edit, statement):
    """Peak RSS rises by at most 4x the parsed array (about 16 MB here): on a
    clean file, on one whose last row must be named, and on one that only
    the csv loop parses. A list of Python floats per value costs about 17x."""
    rng = np.random.default_rng(3)
    n, d = 2000, 256
    path = tmp_path / "big.csv"
    save_dataset(str(path), LabeledDataset(X=rng.normal(size=(d, n)), y=np.arange(n) % 4 + 1, class_count=4))
    if edit is not None:
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
    ratio = peak_rss_ratio(
        "from mmdadapt.errors import DataError\nfrom mmdadapt.harness import load_dataset",
        statement,
        f"{(d + 1) * n * 8}",
        str(path),
    )
    assert ratio <= 4.0, f"loading raised peak RSS by {ratio:.1f}x the array"


_FEATURE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda v: f"{v:.3e}"),
    st.integers(-5, 5).map(str),
    st.sampled_from(["1_0", "nan", "-inf", "1e400", "oops", "", "#1", "0x1", "١"]),
)
_LABEL = st.one_of(
    st.integers(1, 3).map(str),
    st.sampled_from(["2.0", "0", "1.5", "1e30", "-1"]),
    _FEATURE,
)
_PAD = st.sampled_from(["", "", " ", "\t"])
_EOL = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _cells(draw, token):
    text = draw(token)
    if draw(st.integers(0, 5)) == 0:
        # A quoted field may span lines.
        if draw(st.booleans()):
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(_EOL) + text[at:]
        text = f'"{text}"'
    return draw(_PAD) + text + draw(_PAD)


@st.composite
def _csv_texts(draw):
    ncol = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        quote = '"' if draw(st.booleans()) else ""
        lines.append(",".join(f"{quote}c{j}{quote}" for j in range(ncol)))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "commas", "ragged"]))
        if kind == "blank":
            lines.append(draw(_PAD))
        elif kind == "commas":
            lines.append("," * draw(st.integers(1, ncol)))
        else:
            width = ncol + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
            feats = [draw(_cells(_FEATURE)) for _ in range(width - 1)]
            lines.append(",".join(feats + [draw(_cells(_LABEL))]))
    eol = draw(_EOL)
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    return ("﻿" if draw(st.booleans()) else "") + text, ncol


def _load_outcome(load, path, *args):
    try:
        out = load(path, *args)
    except DataError as exc:
        return str(exc)
    if isinstance(out, LabeledDataset):
        out = (out.X, out.y, out.class_count)
    X, y, count = out
    return X.shape, X.tobytes(), None if y is None else y.tolist(), count


@settings(max_examples=300, deadline=None)
@given(case=_csv_texts())
def test_loader_matches_the_line_by_line_reference(tmp_path_factory, case):
    text, ncol = case
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(text.encode("utf-8"))
    for args in ((), (ncol - 1, 3), (ncol, 3)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _load_outcome(load_dataset, str(path), *args)
        assert got == _load_outcome(oracles.load_dataset_reference, str(path), *args)


_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5, 5).map(str),
)
# Bytes that are never part of a UTF-8 sequence when no lead byte
# (0xc2-0xf4) is in the text: continuation bytes and those never used.
_NOT_UTF8 = st.one_of(st.integers(0x80, 0xC1), st.integers(0xF5, 0xFF))


@st.composite
def _texts_with_bad_bytes(draw):
    """Valid rows, with no quoted field spanning lines, and 1-3 bytes that
    are not UTF-8 spliced in after the byte-order mark."""
    ncol = draw(st.integers(1, 3))
    lines = [",".join(f"c{j}" for j in range(ncol))] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(_PAD))
            continue
        cells = [draw(_NUMBER) for _ in range(ncol)]
        lines.append(",".join(f'"{c}"' if draw(st.integers(0, 4)) == 0 else c for c in cells))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (eol.join(lines) + draw(st.sampled_from(["", eol]))).encode("ascii")
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bytes([draw(_NOT_UTF8)]) + data[at:]
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + data


@settings(max_examples=200, deadline=None)
@given(data=_texts_with_bad_bytes())
def test_bad_byte_after_valid_rows_is_named_where_the_reference_finds_it(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "bad-byte.csv"
    path.write_bytes(data)
    line, byte = oracles.first_undecodable_byte(data)
    with pytest.raises(DataError) as caught:
        load_dataset(str(path))
    assert str(caught.value) == f"{path}:{line}: byte 0x{byte:02x} is not UTF-8"


# ------------------------------------------------------------------ config


def test_config_autofills_synth_from_seed():
    cfg = ExperimentConfig(seed=9)
    assert cfg.synth == ShiftSpec(seed=9)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"source": "only.csv"},
        {"algorithms": ["jpda", "nope"]},
        {"kernel": "poly"},
        {"jobs": 0},
        {"normalize": "minmax"},
        {"algorithms": []},
        {"p": 0},
        {"iters": 0},
        {"mu": -0.1},
        {"lam": 0.0},
        {"ridge": -1e-6},
        {"bda_mu": 1.5},
        {"mu": math.nan},
        {"mu": math.inf},
        {"lam": math.nan},
        {"lam": math.inf},
        {"ridge": math.nan},
        {"ridge": math.inf},
        {"kernel": "rbf", "bandwidth": math.nan},
        {"kernel": "rbf", "bandwidth": math.inf},
        {"seed": -1},
        {"seed": 2**64},
        # 2 * bandwidth**2 underflows to 0 or overflows
        {"kernel": "rbf", "bandwidth": 1e-200},
        {"kernel": "rbf", "bandwidth": 1e200},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs)


def _field_defaults(cls) -> dict:
    return {
        f.name: f.default_factory() if f.default is MISSING else f.default
        for f in fields(cls)
    }


def test_config_echo_round_trip():
    settings = dict(
        algorithms=["jpda", "tca"],
        p=7,
        iters=3,
        mu=0.05,
        lam=0.5,
        kernel="rbf",
        bandwidth=0.7,
        ridge=1e-5,
        seed=4,
        out="res",
        jobs=2,
        preset="office-caltech",
        freeze_bda_mu=True,
        bda_mu=0.25,
        normalize="zscore",
    )
    synth = ExperimentConfig(synth=ShiftSpec("mean_offset", 2.5, 8, 4, 5, 11), **settings)
    files = ExperimentConfig(source="s.csv", target="t.csv", **settings)
    # Between them the two cases set every field away from its default.
    defaults = _field_defaults(ExperimentConfig)
    assert {k for k, v in defaults.items() if getattr(synth, k) == v} == {"source", "target"}
    assert {k for k, v in defaults.items() if getattr(files, k) == v} == {"synth"}
    assert all(getattr(synth.synth, k) != v for k, v in _field_defaults(ShiftSpec).items())
    for cfg in (synth, files):
        echo = cfg.echo()
        assert config_from_echo(echo) == cfg
        assert config_from_echo(json.loads(json.dumps(echo))) == cfg


def test_presets_registry():
    assert PRESETS["office-caltech"] == {"kernel": "linear", "lam": 1.0}


# ----------------------------------------------------------------- running


def test_zero_shift_run_all_algorithms_match_raw():
    cfg = ExperimentConfig(synth=ShiftSpec(magnitude=0.0, seed=0))
    report = run(cfg, write=False)
    assert report.raw_accuracy is not None and report.raw_accuracy > 0.9
    assert set(report.algorithms) == {"tca", "jda", "bda", "jpda"}
    for rep in report.algorithms.values():
        assert rep.final_accuracy >= report.raw_accuracy - 0.02
    assert report.target_labels == "scoring only"


def test_run_replays_exactly_from_echo():
    cfg = ExperimentConfig(
        synth=ShiftSpec(seed=3), algorithms=["jpda", "bda"], p=2, iters=4
    )
    first = run(cfg, write=False)
    again = run(config_from_echo(first.config), write=False)
    assert first.to_dict(include_timing=False) == again.to_dict(include_timing=False)


def test_run_writes_report_and_accuracy_csv(tmp_path):
    out = str(tmp_path / "res")
    cfg = ExperimentConfig(
        synth=ShiftSpec(n_per_class=8, seed=1), algorithms=["jpda"], p=2, iters=2, out=out
    )
    report = run(cfg)
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        blob = json.load(fh)
    assert blob["raw_accuracy"] == report.raw_accuracy
    assert blob["algorithms"]["jpda"]["final_accuracy"] == pytest.approx(
        report.algorithms["jpda"].final_accuracy
    )
    assert "stage_wall" in blob and "fit:jpda" in blob["stage_wall"]
    header, rows = read_table(os.path.join(out, "accuracy.csv"))
    assert header == ["algorithm", "accuracy"]
    assert [r[0] for r in rows] == ["raw_1nn", "jpda"]
    assert float(rows[0][1]) == report.raw_accuracy


def _cell(value) -> str:
    """A row-dict value as csv renders it."""
    assert value is None or type(value) in (float, int, str), type(value)
    if value is None:
        return ""
    return repr(value) if type(value) is float else str(value)


def test_tables_render_their_row_dicts(tmp_path):
    """A table's header is its rows' keys and each cell is its value as csv
    writes it; report.json's keys are RunReport's fields in order."""
    gen = generate_pair(ShiftSpec(n_per_class=6, seed=2))
    src, tgt = str(tmp_path / "s.csv"), str(tmp_path / "t.csv")
    save_dataset(src, gen.pair.source)
    save_dataset(tgt, LabeledDataset(X=gen.pair.target.X, y=None, class_count=3))
    files = ExperimentConfig(
        source=src, target=tgt, algorithms=["jpda", "bda"], p=2, iters=2, out=str(tmp_path / "f")
    )
    synth = ExperimentConfig(
        synth=ShiftSpec(n_per_class=6, seed=0),
        algorithms=["jpda"],
        p=2,
        iters=2,
        out=str(tmp_path / "g"),
    )
    report = run(files)
    header, body = read_table(str(tmp_path / "f" / "accuracy.csv"))
    assert header == ["algorithm", "accuracy"]
    assert body == [["raw_1nn", ""], ["jpda", ""], ["bda", ""]]
    tables = {
        "f/trace.csv": trace(files),
        "f/embedding.csv": embed2d(files),
        "g/sweep.csv": sweep(synth, "mu", [1, 0.5], [0, 1]),
    }
    for name, rows in tables.items():
        header, body = read_table(str(tmp_path / name))
        assert header == list(rows[0])
        assert body == [[_cell(v) for v in r.values()] for r in rows]
    # An integer grid value is a float in the rows and the table.
    assert [r["value"] for r in tables["g/sweep.csv"]] == [1.0, 1.0, 0.5, 0.5]

    keys = ["version", "seed", "config", "target_labels", "raw_accuracy", "algorithms"]
    assert list(report.to_dict()) == keys + ["stage_wall"]
    assert list(report.to_dict(include_timing=False)) == keys
    with open(tmp_path / "f" / "report.json", encoding="utf-8") as fh:
        assert list(json.load(fh)) == keys + ["stage_wall"]


def test_report_json_label_flips_replay_exactly(tmp_path):
    out = str(tmp_path / "res")
    cfg = ExperimentConfig(
        synth=ShiftSpec(seed=3), algorithms=["jpda", "bda"], p=2, iters=4, out=out
    )
    run(cfg)
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        blob = json.load(fh)
    again = run(config_from_echo(blob["config"]), write=False).to_dict()
    for algo in ("jpda", "bda"):
        written = blob["algorithms"][algo]["iterations"]
        replayed = again["algorithms"][algo]["iterations"]
        assert [r["label_flips"] for r in written] == [r["label_flips"] for r in replayed]
        for prev, cur in zip(written, written[1:]):
            assert cur["label_flips"] == int(
                np.sum(np.array(prev["pseudo_labels"]) != np.array(cur["pseudo_labels"]))
            )


def test_report_json_eigen_diagnostics_replay_exactly(tmp_path):
    out = str(tmp_path / "res")
    cfg = ExperimentConfig(
        synth=ShiftSpec(n_per_class=4, class_count=3, dim=2, seed=1),
        algorithms=["jpda"], p=100, iters=3, mu=10.0, lam=1e-3, kernel="rbf", out=out,
    )
    run(cfg)
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        blob = json.load(fh)
    written = blob["algorithms"]["jpda"]["iterations"]
    again = run(config_from_echo(blob["config"]), write=False).to_dict()
    replayed = again["algorithms"]["jpda"]["iterations"]
    for key in ("null_dropped", "eigen_residual"):
        assert [r[key] for r in written] == [r[key] for r in replayed]
    assert all(r["null_dropped"] > 0 for r in written)
    assert all(0.0 <= r["eigen_residual"] < 1e-6 for r in written)


def test_run_unlabeled_target_scores_nothing(tmp_path):
    gen = generate_pair(ShiftSpec(n_per_class=6, seed=2))
    src = str(tmp_path / "s.csv")
    tgt = str(tmp_path / "t.csv")
    save_dataset(src, gen.pair.source)
    save_dataset(tgt, LabeledDataset(X=gen.pair.target.X, y=None, class_count=3))
    out = str(tmp_path / "o")
    cfg = ExperimentConfig(source=src, target=tgt, algorithms=["jpda"], p=2, iters=2, out=out)
    report = run(cfg)
    assert report.target_labels == "absent"
    assert report.raw_accuracy is None
    assert report.algorithms["jpda"].final_accuracy is None
    _header, rows = read_table(os.path.join(out, "accuracy.csv"))
    assert rows[0] == ["raw_1nn", ""]


def test_single_pass_algorithm_is_cheapest_stage():
    cfg = ExperimentConfig(
        synth=ShiftSpec(n_per_class=20, dim=40, seed=0),
        algorithms=["tca", "jpda"],
        p=2,
        iters=10,
    )
    report = run(cfg, write=False)
    assert report.stage_wall["fit:tca"] < report.stage_wall["fit:jpda"]


# --------------------------------------------------------------- normalize


def test_normalize_l2col_unit_columns():
    cfg = ExperimentConfig(synth=ShiftSpec(n_per_class=5, seed=6), normalize="l2col")
    pair = resolve_pair(cfg)
    np.testing.assert_allclose(np.linalg.norm(pair.source.X, axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(pair.target.X, axis=0), 1.0, atol=1e-12)


def test_normalize_zscore_pools_both_domains():
    cfg = ExperimentConfig(synth=ShiftSpec(n_per_class=5, seed=6), normalize="zscore")
    pair = resolve_pair(cfg)
    pooled = pair.stacked()
    np.testing.assert_allclose(pooled.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(pooled.std(axis=1), 1.0, atol=1e-12)


def test_normalize_none_keeps_data():
    spec = ShiftSpec(n_per_class=5, seed=6)
    pair = resolve_pair(ExperimentConfig(synth=spec))
    np.testing.assert_array_equal(pair.source.X, generate_pair(spec).pair.source.X)


# ------------------------------------------------------------------- trace


def test_trace_canonical_instance_frozen():
    cfg = ExperimentConfig(synth=ShiftSpec(seed=7), algorithms=["jpda"], p=2)
    rows = trace(cfg, write=False)
    assert len(rows) == 10
    assert rows[0]["mmd"] == pytest.approx(8.71686630180048e-05, rel=1e-9)
    assert rows[-1]["mmd"] <= rows[0]["mmd"]
    assert all(r["accuracy"] is not None for r in rows)


def test_trace_single_iteration(tmp_path):
    out = str(tmp_path / "tr")
    cfg = ExperimentConfig(
        synth=ShiftSpec(n_per_class=8, seed=1), algorithms=["jpda"], p=2, iters=1, out=out
    )
    rows = trace(cfg)
    assert len(rows) == 1 and rows[0]["iteration"] == 1
    header, body = read_table(os.path.join(out, "trace.csv"))
    assert header == ["iteration", "mmd", "accuracy"]
    assert len(body) == 1
    assert float(body[0][1]) == pytest.approx(rows[0]["mmd"])


def test_trace_identical_domains_mmd_is_zero(tmp_path):
    src = generate_pair(ShiftSpec(n_per_class=8, seed=5)).pair.source
    s = str(tmp_path / "s.csv")
    t = str(tmp_path / "t.csv")
    save_dataset(s, src)
    save_dataset(t, src)
    cfg = ExperimentConfig(source=s, target=t, algorithms=["jpda"], p=2, iters=3)
    rows = trace(cfg, write=False)
    assert all(r["mmd"] <= 1e-10 for r in rows)
    assert rows[-1]["accuracy"] == 1.0


def test_trace_rejects_single_step_algorithm():
    cfg = ExperimentConfig(algorithms=["tca"])
    with pytest.raises(ConfigError, match="tca"):
        trace(cfg, write=False)


# ----------------------------------------------------------------- embed2d


def test_embed2d_shape_and_csv(tmp_path):
    out = str(tmp_path / "e")
    cfg = ExperimentConfig(
        synth=ShiftSpec(n_per_class=6, seed=2), algorithms=["jpda"], p=2, iters=2, out=out
    )
    rows = embed2d(cfg)
    assert len(rows) == 36
    assert sum(r["domain"] == "source" for r in rows) == 18
    assert {r["class"] for r in rows} <= {1, 2, 3}
    header, body = read_table(os.path.join(out, "embedding.csv"))
    assert header == ["pc1", "pc2", "domain", "class"]
    assert len(body) == 36
    assert all(math.isfinite(float(r[0])) and math.isfinite(float(r[1])) for r in body)


def test_embed2d_needs_two_directions(tmp_path):
    src = _write(tmp_path / "s.csv", "0.0,1\n1.0,1\n5.0,2\n6.0,2\n")
    tgt = _write(tmp_path / "t.csv", "0.5,1\n5.5,2\n")
    cfg = ExperimentConfig(source=src, target=tgt, algorithms=["jpda"], iters=1)
    with pytest.raises(ConfigError, match="p >= 2"):
        embed2d(cfg, write=False)


def test_rbf_embed2d_builds_one_gram(monkeypatch):
    """embed2d projects the prepared pair's G, the samples that the fit's
    last 1-NN projected, so an rbf embedding builds its n x n gram once."""
    grams = _counting(monkeypatch, "gram", adapt)
    cfg = ExperimentConfig(
        synth=ShiftSpec(n_per_class=8, seed=2), algorithms=["jpda"], p=2, iters=2, kernel="rbf"
    )
    assert len(embed2d(cfg, write=False)) == 48
    assert len(grams) == 1


def test_embed2d_distances_invariant_under_input_rotation(tmp_path):
    spec = ShiftSpec(n_per_class=15, seed=4)
    pair = generate_pair(spec).pair
    th = math.radians(45.0)
    Q = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])

    def embed_of(p: DomainPair):
        s, t = str(tmp_path / "qs.csv"), str(tmp_path / "qt.csv")
        save_dataset(s, p.source)
        save_dataset(t, p.target)
        cfg = ExperimentConfig(source=s, target=t, algorithms=["jpda"], p=2, iters=2)
        rows = embed2d(cfg, write=False)
        return np.array([[r["pc1"], r["pc2"]] for r in rows])

    E1 = embed_of(pair)
    rotated = DomainPair(
        source=LabeledDataset(X=Q @ pair.source.X, y=pair.source.y, class_count=3),
        target=LabeledDataset(X=Q @ pair.target.X, y=pair.target.y, class_count=3),
    )
    E2 = embed_of(rotated)
    d1 = np.linalg.norm(E1[:, None, :] - E1[None, :, :], axis=2)
    d2 = np.linalg.norm(E2[:, None, :] - E2[None, :, :], axis=2)
    np.testing.assert_allclose(d1, d2, atol=1e-7)


# ------------------------------------------------------------------- sweep


def test_sweep_single_cell_matches_run():
    base = ExperimentConfig(
        synth=ShiftSpec(n_per_class=8, seed=0), algorithms=["jpda"], p=2, iters=3
    )
    rows = sweep(base, "mu", [0.1], [0], write=False)
    assert len(rows) == 1
    direct = run(base, write=False).algorithms["jpda"].final_accuracy
    assert rows[0]["accuracy"] == direct
    assert rows[0]["mean_accuracy"] == rows[0]["accuracy"]
    assert rows[0]["std_accuracy"] == 0.0


def test_sweep_grid_shape_stats_and_csv(tmp_path):
    out = str(tmp_path / "sw")
    cfg = ExperimentConfig(
        synth=ShiftSpec(n_per_class=8, seed=0),
        algorithms=["jpda", "tca"],
        p=2,
        iters=2,
        out=out,
    )
    rows = sweep(cfg, "lambda", [0.1, 1.0], [0, 1, 2])
    assert len(rows) == 12
    group = [r for r in rows if r["algorithm"] == "jpda" and r["value"] == 0.1]
    assert len(group) == 3
    accs = [r["accuracy"] for r in group]
    assert group[0]["mean_accuracy"] == pytest.approx(float(np.mean(accs)))
    assert group[0]["std_accuracy"] == pytest.approx(float(np.std(accs)))
    header, body = read_table(os.path.join(out, "sweep.csv"))
    assert header == ["algorithm", "param", "value", "seed", "accuracy", "mean_accuracy", "std_accuracy"]
    assert len(body) == 12
    assert {r[0] for r in body} == {"jpda", "tca"}


def test_sweep_parallel_equals_serial():
    cfg = ExperimentConfig(
        synth=ShiftSpec(n_per_class=6, seed=0), algorithms=["jpda"], p=2, iters=2
    )
    serial = sweep(cfg, "mu", [0.01, 0.1], [0, 1], write=False)
    parallel = sweep(replace(cfg, jobs=2), "mu", [0.01, 0.1], [0, 1], write=False)
    assert serial == parallel


def test_sweep_varies_seed_of_generated_data():
    # the noise-padded layout is hard enough that seeds do not all tie at 1.0
    cfg = ExperimentConfig(
        synth=ShiftSpec(n_per_class=30, dim=40, seed=0), algorithms=["jpda"], p=2, iters=2
    )
    rows = sweep(cfg, "mu", [0.1], [0, 1, 2, 3], write=False)
    assert len({r["accuracy"] for r in rows}) > 1


@pytest.mark.parametrize(
    "param,values,seeds",
    [
        ("gamma", [0.1], [0]),
        ("mu", [], [0]),
        ("mu", [0.1], []),
        ("mu", [math.nan], [0]),
        ("lambda", [math.inf], [0]),
        ("mu", [0.1], [-1]),
    ],
)
def test_sweep_argument_validation(param, values, seeds):
    cfg = ExperimentConfig(algorithms=["jpda"])
    with pytest.raises(ConfigError):
        sweep(cfg, param, values, seeds, write=False)


def _counting(monkeypatch, name, module=harness):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("kernel", ["primal", "rbf"])
def _recording_fits(monkeypatch) -> list:
    """Make the harness record (pair, config, report) of every fit it runs."""
    fits = []

    def fitted(pair, config):
        result = fit(pair, config)
        fits.append((pair, config, result.report))
        return result

    monkeypatch.setattr(harness, "fit", fitted)
    return fits


@pytest.mark.parametrize("kernel", ["primal", "rbf"])
def test_run_prepares_the_pair_once(monkeypatch, kernel):
    """The raw 1-NN labels start every fit and score raw_1nn; B is built
    once, and each distinct pass runs one 1-NN."""
    knn = _counting(monkeypatch, "knn1_predict", adapt)
    scatter = _counting(monkeypatch, "centered_scatter", adapt)
    fits = _recording_fits(monkeypatch)
    cfg = ExperimentConfig(
        synth=ShiftSpec(n_per_class=8, seed=1),
        algorithms=["tca", "jda", "bda", "jp", "jpda"],
        p=2,
        iters=3,
        kernel=kernel,
    )
    report = run(cfg, write=False)
    assert len(fits) == len(cfg.algorithms)
    assert len(knn) == 1 + distinct_passes(fits)
    assert len(scatter) == 1
    assert "prepare" in report.stage_wall


@pytest.mark.parametrize("seeds,distinct", [([4, 5, 4], 2), ([7], 1)])
def test_sweep_prepares_each_distinct_pair_once(monkeypatch, seeds, distinct):
    """Each distinct pair is prepared once, and each distinct pass on it runs
    one 1-NN: seed 4's second cells repeat its first ones."""
    knn = _counting(monkeypatch, "knn1_predict", adapt)
    scatter = _counting(monkeypatch, "centered_scatter", adapt)
    fits = _recording_fits(monkeypatch)
    cfg = ExperimentConfig(
        synth=ShiftSpec(n_per_class=6, seed=0), algorithms=["jpda", "tca"], p=2, iters=2
    )
    rows = sweep(cfg, "lambda", [0.1, 1.0], seeds, write=False)
    assert len(scatter) == distinct
    assert len(fits) == len(rows)
    assert len(knn) == distinct + distinct_passes(fits)


@pytest.mark.parametrize("kernel", ["primal", "rbf"])
def test_source_half_of_GE_is_formed_once_per_prepared_pair(monkeypatch, kernel):
    """A five-algorithm run and a three-value sweep form the label-free
    source half of G E once on each of their two prepared pairs, and the
    target half once per distinct pass."""
    halves = _counting(monkeypatch, "indicator_product", adapt)
    fits = _recording_fits(monkeypatch)
    cfg = ExperimentConfig(
        synth=ShiftSpec(n_per_class=8, seed=1),
        algorithms=["tca", "jda", "bda", "jp", "jpda"],
        p=2,
        iters=3,
        kernel=kernel,
    )
    run(cfg, write=False)
    sweep(replace(cfg, algorithms=["jpda"]), "mu", [0.01, 0.1, 1.0], [1], write=False)
    pairs = {id(pair): pair for pair, _, _ in fits}
    # A source half is the view that starts where its pair's G starts.
    starts = {pair.G.ctypes.data for pair in pairs.values()}
    sources = [G for G, _ in halves if G.ctypes.data in starts]
    assert len(pairs) == len(sources) == 2
    assert len(halves) - len(sources) == distinct_passes(fits)


class InProcessPool:
    """A stand-in for the sweep's process pool that runs cells in this process."""

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers = max_workers
        self.initializer, self.initargs = initializer, initargs
        self.cells = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, cells):
        self.initializer(*self.initargs)
        self.cells = list(cells)
        return [fn(c) for c in self.cells]


def _in_process_pools(monkeypatch) -> list[InProcessPool]:
    """Make sweep use InProcessPool; the list collects the pools it makes."""
    pools = []

    def make(**kwargs):
        pools.append(InProcessPool(**kwargs))
        return pools[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", make)
    monkeypatch.setattr(harness, "_worker_sweep", None)
    return pools


def test_sweep_jobs_ship_pairs_once_and_cells_without_arrays(monkeypatch):
    """Workers get the config and a lone pair, prepared, from the pool
    initializer; with several seeds it ships no pair, and each task makes
    its own. A task is a pair key, AdaptConfigs and a fit count: one task
    per setting on a lone pair, one per pair otherwise."""

    class NoArrays(pickle.Pickler):
        def reducer_override(self, obj):
            assert not isinstance(obj, np.ndarray), "a sweep task carries an array"
            return NotImplemented

    pools = _in_process_pools(monkeypatch)
    scatter = _counting(monkeypatch, "centered_scatter", adapt)
    cfg = ExperimentConfig(
        synth=ShiftSpec(n_per_class=6, seed=0), algorithms=["jpda"], p=2, iters=2
    )
    values = [0.01, 0.1, 1.0]
    for seeds, kind, tasks in (([0, 1], type(None), 2), ([3, 3], PreparedPair, 3)):
        scatter.clear()
        parallel = sweep(replace(cfg, jobs=2), "mu", values, seeds, write=False)
        pool = pools[-1]
        assert len(pool.cells) == tasks
        NoArrays(io.BytesIO()).dump(pool.cells)
        for pair_key, configs, times in pool.cells:
            assert pair_key in seeds
            assert all(type(c) is AdaptConfig for c in configs)
            assert len(configs) * times == len(values) * len(seeds) // tasks
        shipped, lone = pool.initargs
        assert shipped == replace(cfg, jobs=2)
        assert type(lone) is kind
        assert len(scatter) == len(set(seeds))
        assert parallel == sweep(cfg, "mu", values, seeds, write=False)


@pytest.mark.parametrize("jobs,workers", [(64, 4), (3, 3)])
def test_sweep_starts_no_more_workers_than_cells(monkeypatch, jobs, workers):
    """The pool is capped by the task count: four settings on a lone pair,
    or four pairs, each with eight cells."""
    pools = _in_process_pools(monkeypatch)
    cfg = ExperimentConfig(
        synth=ShiftSpec(n_per_class=4, seed=0), algorithms=["jpda"], p=2, iters=1, jobs=jobs
    )
    sweep(cfg, "mu", [0.01, 0.1, 1.0, 10.0], [0, 0], write=False)
    sweep(cfg, "mu", [0.01, 0.1], [0, 1, 2, 3], write=False)
    for pool in pools:
        assert len(pool.cells) == 4
        assert pool.max_workers == workers


def test_serial_sweep_leaves_no_pair_behind(monkeypatch):
    """A serial sweep sets no worker state: once it returns, nothing refers
    to the pairs it fitted on."""
    refs = []

    def fitted(pair, config):
        refs.append(weakref.ref(pair))
        return fit(pair, config)

    monkeypatch.setattr(harness, "fit", fitted)
    cfg = ExperimentConfig(
        synth=ShiftSpec(n_per_class=4, seed=0), algorithms=["jpda"], p=2, iters=1
    )
    for seeds in ([0, 0], [0, 1]):
        sweep(cfg, "mu", [0.01, 0.1], seeds, write=False)
    gc.collect()
    assert len(refs) == 8
    assert all(ref() is None for ref in refs)


def test_commands_drop_the_unprepared_pair_before_fitting(monkeypatch):
    """run, trace, embed2d and a lone-pair sweep hold a generated primal
    pair's samples once: the resolved pair's source.X, whose values the
    prepared pair's G holds, is gone when the first fit starts."""
    refs, dead = [], []
    inner = harness.resolve_pair

    def resolved(config):
        pair = inner(config)
        refs.append(weakref.ref(pair.source.X))
        return pair

    def fitted(pair, config):
        dead.append(refs[-1]() is None)
        return fit(pair, config)

    monkeypatch.setattr(harness, "resolve_pair", resolved)
    monkeypatch.setattr(harness, "fit", fitted)
    cfg = ExperimentConfig(
        synth=ShiftSpec(n_per_class=4, seed=0), algorithms=["jpda"], p=2, iters=2
    )
    for command in (run, trace, embed2d):
        command(cfg, write=False)
    sweep(cfg, "mu", [0.1], [0, 0], write=False)
    assert len(refs) == 4 and len(dead) == 5 and all(dead)


def test_serial_sweep_holds_one_generated_pair_at_a_time(monkeypatch):
    """With several seeds, each task makes its seed's pair and lets it go
    when it ends: no pair that resolve_pair returned, nor its domains, is
    alive when the next one is made."""
    refs = []
    inner = harness.resolve_pair

    def resolved(config):
        gc.collect()
        assert all(ref() is None for ref in refs), "two resolved pairs are held at once"
        pair = inner(config)
        refs.extend(weakref.ref(obj) for obj in (pair, pair.source, pair.target))
        return pair

    monkeypatch.setattr(harness, "resolve_pair", resolved)
    cfg = ExperimentConfig(
        synth=ShiftSpec(n_per_class=4, seed=0), algorithms=["jpda", "tca"], p=2, iters=1
    )
    rows = sweep(cfg, "mu", [0.01, 0.1], [0, 1, 2, 3], write=False)
    assert len(refs) == 3 * 4 and len(rows) == 2 * 2 * 4


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_with_a_bad_seed_fails_before_any_pair_or_fit(monkeypatch, jobs):
    """Every seed's spec is checked before the first pair is made: a bad
    last seed fails with no pair generated and no fit run."""
    gens = _counting(monkeypatch, "generate_pair")
    fits = _recording_fits(monkeypatch)
    cfg = ExperimentConfig(
        synth=ShiftSpec(n_per_class=4, seed=0), algorithms=["jpda"], p=2, iters=1, jobs=jobs
    )
    with pytest.raises(ConfigError, match="seed"):
        sweep(cfg, "mu", [0.1], [0, 1, -1], write=False)
    assert gens == [] and fits == []


def _counting_in_every_process(monkeypatch, tmp_path, name):
    """Make adapt.name append its caller's pid to a file, and the sweep's
    pool fork its workers, which inherit the wrapper; the function returned
    reads the pids of every call so far."""
    log = tmp_path / f"{name}.pids"
    inner = getattr(adapt, name)

    def counted(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return inner(*args, **kwargs)

    monkeypatch.setattr(adapt, name, counted)
    fork = partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fork)
    return lambda: log.read_text(encoding="utf-8").split() if log.exists() else []


def _file_pair(tmp_path, spec: ShiftSpec) -> tuple[str, str]:
    gen = generate_pair(spec)
    s, t = str(tmp_path / "s.csv"), str(tmp_path / "t.csv")
    save_dataset(s, gen.pair.source)
    save_dataset(t, gen.pair.target)
    return s, t


@needs_fork
@pytest.mark.parametrize("files,seeds,prepared", [(True, [0, 1], 1), (False, [4, 5, 4], 2)])
def test_sweep_jobs_prepare_each_pair_in_one_process(tmp_path, monkeypatch, files, seeds, prepared):
    """Across the parent and its workers, a file pair is factored once, and
    generated seeds once per distinct seed."""
    spec = ShiftSpec(n_per_class=20, dim=10, seed=0)
    cfg = ExperimentConfig(synth=spec, algorithms=["jpda", "tca"], p=2, iters=2, jobs=2)
    if files:
        s, t = _file_pair(tmp_path, spec)
        cfg = replace(cfg, source=s, target=t, synth=None)
    serial = sweep(replace(cfg, jobs=1), "lambda", [0.1, 1.0], seeds, write=False)
    scatter = _counting_in_every_process(monkeypatch, tmp_path, "centered_scatter")
    assert sweep(cfg, "lambda", [0.1, 1.0], seeds, write=False) == serial
    assert len(scatter()) == prepared


@needs_fork
def test_file_sweep_jobs_solve_each_distinct_pass_once(tmp_path, monkeypatch):
    """A file sweep's equal seed cells run back to back in one worker, so
    the workers together solve as many passes as one process does."""
    s, t = _file_pair(tmp_path, ShiftSpec(n_per_class=20, dim=10, seed=3))
    cfg = ExperimentConfig(source=s, target=t, algorithms=["jpda", "bda", "tca"], p=2, iters=3)
    values, seeds = [0.1, 1.0], [0, 1, 2]
    with monkeypatch.context() as mp:
        fits = _recording_fits(mp)
        serial = sweep(cfg, "lambda", values, seeds, write=False)
    solves = _counting_in_every_process(monkeypatch, tmp_path, "_solve_pass")
    assert sweep(replace(cfg, jobs=2), "lambda", values, seeds, write=False) == serial
    assert len(solves()) == distinct_passes(fits)


def test_file_sweep_runs_in_spawned_workers(tmp_path, monkeypatch):
    """Under spawn, as under Python 3.14's forkserver default, each worker
    unpickles the config and the lone prepared pair from the pool
    initializer; with generated seeds [0, 1] it makes each pair itself."""
    spec = ShiftSpec(n_per_class=10, dim=6, seed=3)
    generated = ExperimentConfig(synth=spec, algorithms=["jpda"], p=2, iters=2)
    s, t = _file_pair(tmp_path, spec)
    files = replace(generated, source=s, target=t, synth=None)
    serial = [sweep(cfg, "mu", [0.01, 0.1], [0, 1], write=False) for cfg in (files, generated)]
    spawn = partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawn)
    for cfg, rows in zip((files, generated), serial):
        assert sweep(replace(cfg, jobs=2), "mu", [0.01, 0.1], [0, 1], write=False) == rows


def test_file_sweep_reads_each_csv_once(tmp_path, monkeypatch):
    gen = generate_pair(ShiftSpec(n_per_class=6, seed=3))
    s, t = str(tmp_path / "s.csv"), str(tmp_path / "t.csv")
    save_dataset(s, gen.pair.source)
    save_dataset(t, gen.pair.target)
    cfg = ExperimentConfig(source=s, target=t, algorithms=["jpda", "bda"], p=2, iters=2)
    values = [0.01, 0.1, 1.0]
    loads = _counting(monkeypatch, "load_dataset")
    scatter = _counting(monkeypatch, "centered_scatter", adapt)
    rows = sweep(cfg, "mu", values, [0, 1], write=False)
    assert [c[0] for c in loads] == [s, t]
    assert len(scatter) == 1

    pair = resolve_pair(cfg)
    expected = [
        fit(pair, adapt_config_for(replace(cfg, mu=v), algo)).report.final_accuracy
        for algo in cfg.algorithms
        for v in values
        for _seed in (0, 1)
    ]
    assert [r["accuracy"] for r in rows] == expected


def test_file_sweep_solves_each_distinct_pass_once(tmp_path, monkeypatch):
    """Three seeds of one file pair fit equal cells back to back: the second
    and third take the first one's passes, and sweep.csv is the one that
    fits on fresh pairs write."""
    gen = generate_pair(ShiftSpec(n_per_class=6, seed=3))
    s, t = str(tmp_path / "s.csv"), str(tmp_path / "t.csv")
    save_dataset(s, gen.pair.source)
    save_dataset(t, gen.pair.target)
    cfg = ExperimentConfig(
        source=s, target=t, algorithms=["jpda", "bda", "tca"], p=2, iters=3,
        out=str(tmp_path / "fresh"),
    )
    # lam enters every pass, so cells of two values share none.
    values, seeds = [0.1, 1.0], [0, 1, 2]

    def fresh_fit(pair, config):
        return fit(PreparedPair.of(DomainPair(pair.source, pair.target), config), config)

    with monkeypatch.context() as mp:
        mp.setattr(harness, "fit", fresh_fit)
        sweep(cfg, "lambda", values, seeds)
    solves = _counting(monkeypatch, "_solve_pass", adapt)
    knn = _counting(monkeypatch, "knn1_predict", adapt)
    fits = _recording_fits(monkeypatch)
    sweep(replace(cfg, out=str(tmp_path / "shared")), "lambda", values, seeds)
    assert len(fits) == len(cfg.algorithms) * len(values) * len(seeds)
    assert len(solves) == distinct_passes(fits) == distinct_passes(fits[:: len(seeds)])
    assert len(knn) == 1 + len(solves)
    with open(tmp_path / "fresh" / "sweep.csv", "rb") as fresh:
        with open(tmp_path / "shared" / "sweep.csv", "rb") as shared:
            assert shared.read() == fresh.read()


def test_run_then_sweep_parse_each_csv_once(tmp_path, monkeypatch):
    gen = generate_pair(ShiftSpec(n_per_class=6, seed=3))
    s, t = str(tmp_path / "s.csv"), str(tmp_path / "t.csv")
    save_dataset(s, gen.pair.source)
    save_dataset(t, gen.pair.target)
    cfg = ExperimentConfig(source=s, target=t, algorithms=["jpda"], p=2, iters=2)
    parses = _counting_parses(monkeypatch)
    run(cfg, write=False)
    sweep(cfg, "mu", [0.01, 1.0], [0, 1], write=False)
    assert len(parses) == 2


def test_synthetic_sweep_generates_one_pair_per_seed(monkeypatch):
    cfg = ExperimentConfig(
        synth=ShiftSpec(n_per_class=6, seed=0), algorithms=["jpda", "tca"], p=2, iters=2
    )
    gens = _counting(monkeypatch, "generate_pair")
    sweep(cfg, "lambda", [0.1, 1.0], [4, 5, 6], write=False)
    assert [c[0].seed for c in gens] == [4, 5, 6]


def test_sweep_needs_labeled_target(tmp_path):
    gen = generate_pair(ShiftSpec(n_per_class=5, seed=1))
    s, t = str(tmp_path / "s.csv"), str(tmp_path / "t.csv")
    save_dataset(s, gen.pair.source)
    save_dataset(t, LabeledDataset(X=gen.pair.target.X, y=None, class_count=3))
    cfg = ExperimentConfig(source=s, target=t, algorithms=["jpda"], p=2, iters=1)
    with pytest.raises(ConfigError, match="labeled target"):
        sweep(cfg, "mu", [0.1], [0], write=False)


def test_files_with_a_synthetic_spec_are_refused(tmp_path):
    """Dataset files and a synthetic spec together are refused when the
    config is made, before a sweep's per-seed branch could skip the
    labeled-target check."""
    gen = generate_pair(ShiftSpec(n_per_class=5, seed=1))
    s, t = str(tmp_path / "s.csv"), str(tmp_path / "t.csv")
    save_dataset(s, gen.pair.source)
    save_dataset(t, LabeledDataset(X=gen.pair.target.X, y=None, class_count=3))
    with pytest.raises(ConfigError, match="^give dataset files or synthetic settings, not both$"):
        ExperimentConfig(
            source=s, target=t, synth=ShiftSpec(seed=1), algorithms=["jda"], p=2, iters=2
        )


def test_solver_settings_default_to_the_primal_kernel():
    assert adapt_config_for(ExperimentConfig(), "jda").kernel == KernelSpec("primal")


# ----------------------------------------------------------------- datagen


def test_datagen_cmd_writes_loadable_pair(tmp_path):
    out = str(tmp_path / "gen")
    cfg = ExperimentConfig(synth=ShiftSpec(n_per_class=4, seed=8), out=out)
    src, tgt = datagen_cmd(cfg)
    pair = DomainPair(
        source=load_dataset(src),
        target=load_dataset(tgt, feature_dim=2, class_count=3),
    )
    gen = generate_pair(ShiftSpec(n_per_class=4, seed=8))
    np.testing.assert_array_equal(pair.source.X, gen.pair.source.X)
    np.testing.assert_array_equal(pair.target.X, gen.pair.target.X)
