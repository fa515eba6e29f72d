"""Shared builders for randomized test instances."""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest

from mmdadapt import harness
from mmdadapt.data import DomainPair, LabeledDataset, one_hot_encode


def random_pair(rng, n_s=None, n_t=None, C=None, d=None, ensure_all_classes=True):
    """A random labeled pair; every class present in both domains by default."""
    C = C or int(rng.integers(2, 5))
    d = d or int(rng.integers(1, 11))
    n_s = n_s or int(rng.integers(C, 31))
    n_t = n_t or int(rng.integers(C, 31))
    ys = rng.integers(1, C + 1, size=n_s)
    yt = rng.integers(1, C + 1, size=n_t)
    if ensure_all_classes:
        ys[:C] = np.arange(1, C + 1)
        yt[:C] = np.arange(1, C + 1)
    return DomainPair(
        source=LabeledDataset(X=rng.normal(size=(d, n_s)), y=ys, class_count=C),
        target=LabeledDataset(X=rng.normal(size=(d, n_t)), y=yt, class_count=C),
    )


def read_table(path):
    """Header row and body rows of a CSV file the harness wrote."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def solved_passes(report):
    """The records of a fit's distinct passes, in order: those that repeat no
    earlier pass of the fit. Each was solved, or taken from the prepared
    pair's table of the passes of the fit before.

    Checks every reused record against the pass it names: the same numbers
    and labels (in an array of its own), a later index, and a source that
    was itself solved.
    """
    def numbers(rec):
        out = rec.to_dict(include_timing=False)
        del out["index"], out["repeat_of"]
        return out

    by_index = {rec.index: rec for rec in report.iterations}
    solved = []
    for rec in report.iterations:
        if rec.repeat_of is None:
            solved.append(rec)
            continue
        source = by_index[rec.repeat_of]
        assert source.repeat_of is None and source.index < rec.index
        assert rec.pseudo_labels is not source.pseudo_labels
        assert numbers(rec) == numbers(source)
    return solved


def distinct_passes(fits):
    """How many distinct passes fits ran, counted per prepared pair.

    fits holds (prepared pair, AdaptConfig, report) per fit, with each pair
    kept alive so that ids stay apart. A fit with the settings of an earlier
    fit on the same pair runs that fit's passes again, so only the first
    such fit counts. Callers fit equal settings back to back, and vary only
    settings that every pass reads, such as lam, so that fits of different
    settings share no pass.
    """
    first = {}
    for pair, config, report in fits:
        first.setdefault((id(pair), repr(config)), report)
    return sum(len(solved_passes(report)) for report in first.values())


_PEAK_RSS_SCRIPT = """
import sys
{setup}

def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

before = peak_kb()
{statement}
print((peak_kb() - before) * 1024 / ({size}))
"""

# Tests of peak_rss_ratio read VmHWM, which only Linux reports.
needs_vmhwm = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM"
)


def peak_rss_ratio(setup, statement, size, *argv):
    """How far statement raises the peak RSS of a fresh interpreter, in units
    of the bytes that the expression size gives after it.

    The child runs setup first, then reads its own high-water mark (VmHWM)
    before and after statement; sys.argv[1:] holds argv. ru_maxrss would not
    do: Linux carries the parent's peak over the exec, which hid most of a
    rise under pytest.
    """
    script = _PEAK_RSS_SCRIPT.format(setup=setup, statement=statement, size=size)
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout)


def random_onehots(rng, pair):
    return (
        one_hot_encode(pair.source.y, pair.source.class_count),
        one_hot_encode(pair.target.y, pair.target.class_count),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def _no_parsed_files():
    """Each test starts with no dataset file parsed, so its first load of a
    file runs the parser whatever earlier tests loaded."""
    harness._PARSED.clear()


@pytest.fixture(scope="session", autouse=True)
def _src_on_child_path():
    """pyproject's pythonpath reaches this interpreter only; child interpreters
    that tests start (criterion 7) import the checkout through PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield
