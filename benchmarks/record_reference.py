"""Record the reference outputs the benchmark checks against.

Usage (from the repository root): python3 benchmarks/record_reference.py

For every workload and data seed 0..REFERENCE_SEEDS-1 it runs one untraced
repetition and stores each fit's algorithm, final target accuracy and final
pseudo-labels, in call order, in reference.json. Re-record only when the
workloads themselves change: the point of the file is to hold the outputs of
the commit that defined the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from run import WORK_DIR, make_job, run_child
from workloads import REFERENCE_PATH, REFERENCE_SEEDS, WORKLOADS


def main() -> int:
    reference = {}
    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="record-", dir=WORK_DIR)
    try:
        for name, workload in WORKLOADS.items():
            for seed in range(REFERENCE_SEEDS):
                job = make_job(name, seed, os.path.join(run_dir, f"{name}-{seed}"), record=True)
                rep = run_child(job)
                if rep is None or rep["error"] or len(rep["fits"]) != workload.fit_count:
                    print(f"{name} seed {seed}: repetition failed", file=sys.stderr)
                    return 1
                reference.setdefault(name, {})[str(seed)] = [
                    {"algorithm": f["algorithm"], "accuracy": f["accuracy"], "labels": f["labels"]}
                    for f in rep["fits"]
                ]
                accs = " ".join(f"{f['algorithm']}={f['accuracy']:.3f}" for f in rep["fits"])
                print(f"{name} seed {seed}: {accs}", flush=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
