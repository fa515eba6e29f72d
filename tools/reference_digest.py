"""Print two SHA-256 per reference fit, so two trees can be compared by diff.

Usage: python3 tools/reference_digest.py [ROOT] > digests.txt

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
"""

from __future__ import annotations

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


def main(argv: list[str]) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    root = os.path.abspath(argv[0]) if argv else here
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
