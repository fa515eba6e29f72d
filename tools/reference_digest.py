"""Print two SHA-256 per reference fit, so two trees can be compared by diff.

Usage: python3 tools/reference_digest.py [ROOT] > digests.txt
       python3 tools/reference_digest.py --diff A B

ROOT is the repository to run (default: the one holding this script). For
every benchmark workload and data seed 0..REFERENCE_SEEDS-1 it builds the
inputs and runs the measured harness calls in this process, through
ROOT's benchmarks/workloads.py (prepare, then execute), with harness.fit
wrapped so that each fit is seen. Each fit prints one line:

    <workload> <seed> <fit number> <algorithm> <sha256> <stable sha256>

The first digest covers the fit's report without its timing fields
(repeat_of included), its projection matrix bytes and its final
pseudo-label bytes. Two trees whose first columns are equal fit every
reference fit bit for bit. The second covers only what rounding does not
move: p_used and each pass's pseudo-labels, accuracy, null_dropped, route
and repeat_of. A change that moves only rounding leaves the second column
of every line as it was.
The script reads benchmarks/ and writes only to a temporary directory.

With --diff, it runs nothing: it reads two such outputs, A and B, and
prints, per workload and algorithm, how many fits there are and how many
of them differ in the first column and in the second. A fit that only one
file holds differs in both.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile


def fit_digest(result) -> str:
    """SHA-256 of a FitResult's timing-free report, projection and labels."""
    h = hashlib.sha256()
    h.update(json.dumps(result.report.to_dict(include_timing=False)).encode())
    h.update(result.projection.matrix.tobytes())
    h.update(result.pseudo_labels.tobytes())
    return h.hexdigest()


def stable_digest(result) -> str:
    """SHA-256 of a FitResult's p_used and each pass's labels, accuracy,
    null_dropped, route and repeat_of."""
    passes = [
        [rec.pseudo_labels.tolist(), rec.accuracy, rec.null_dropped, rec.route, rec.repeat_of]
        for rec in result.report.iterations
    ]
    return hashlib.sha256(json.dumps([result.report.p_used, passes]).encode()).hexdigest()


def read_digests(path: str) -> dict:
    """{(workload, seed, fit number): (algorithm, digest, stable digest)}
    of one output of this script."""
    with open(path) as f:
        return {tuple(fields[:3]): tuple(fields[3:]) for fields in map(str.split, f)}


def diff_counts(a: dict, b: dict) -> dict:
    """{(workload, algorithm): [fits, digests that differ, stable digests
    that differ]} over the fits of two read_digests results."""
    counts = {}
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key), b.get(key)
        row = counts.setdefault((key[0], (x or y)[0]), [0, 0, 0])
        row[0] += 1
        row[1] += x is None or y is None or x[1] != y[1]
        row[2] += x is None or y is None or x[2] != y[2]
    return counts


def print_diff(a_path: str, b_path: str) -> None:
    counts = diff_counts(read_digests(a_path), read_digests(b_path))
    print("workload algorithm fits digest_differs stable_differs")
    for (workload, algorithm), row in counts.items():
        print(workload, algorithm, *row)
    print("total -", *map(sum, zip(*counts.values())))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Digest every reference fit, or compare two digest files."
    )
    parser.add_argument("root", nargs="?", help="repository to run (default: this one)")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two digest files")
    args = parser.parse_args(argv)
    if args.diff:
        print_diff(*args.diff)
        return 0
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    root = os.path.abspath(args.root or here)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "benchmarks")]
    import workloads
    from mmdadapt import harness

    inner_fit = harness.fit
    fits = []

    def seen_fit(pair, adapt_config):
        result = inner_fit(pair, adapt_config)
        fits.append(result)
        return result

    harness.fit = seen_fit
    try:
        for name, workload in workloads.WORKLOADS.items():
            for seed in range(workloads.REFERENCE_SEEDS):
                with tempfile.TemporaryDirectory(prefix="digest-") as workdir:
                    config = workloads.prepare(workload, seed, workdir)
                    fits.clear()
                    workloads.execute(workload, config)
                for i, result in enumerate(fits):
                    algorithm = result.report.algorithm
                    digests = f"{fit_digest(result)} {stable_digest(result)}"
                    print(f"{name} {seed} {i} {algorithm} {digests}", flush=True)
    finally:
        harness.fit = inner_fit
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
