"""mmdadapt benchmark: one workload, repeated in fresh child processes.

Usage (from the repository root):

    python3 benchmarks/run.py --workload digits-primal --seed 0 --seconds 30 --trace 0

Each repetition is a child process (child.py) that sets up the workload's
inputs and calls the harness once. Repetitions start until --seconds have
passed and at least MIN_REPS have run; every metric is a median over them.
With --trace 0 the output holds the end-to-end metrics of untraced
repetitions. With --trace 1 traced and untraced repetitions alternate; the
output holds the per-layer metrics of the traced ones and the tracing
overhead (median traced wall_s minus median untraced wall_s).

An operation is one adapt.fit call. It fails when it raises a MemoryError or
a package error, when a crash or time-out ends its repetition, or when its
output grossly mismatches the recorded reference. The last line of output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import unit_of  # noqa: E402
from workloads import ALGORITHMS, WORKLOADS  # noqa: E402

MIN_REPS = 3
# Stop starting repetitions once this many have been tried without MIN_REPS
# succeeding (after --seconds have passed).
MAX_TRIES = 12
CHILD_TIMEOUT_S = 120
# Set before numpy loads in the child. One thread ran the solvers faster
# than two on a 2-core machine, and each child pins itself to that many CPUs.
BLAS_THREADS = "1"
WORK_DIR = os.path.join(ROOT, ".bench_work")


def make_job(
    workload: str,
    seed: int,
    workdir: str,
    trace: bool = False,
    record: bool = False,
    spans_path: str | None = None,
) -> dict:
    """Arguments of one child repetition (see child.py)."""
    return {
        "workload": workload,
        "seed": seed,
        "root": ROOT,
        "workdir": workdir,
        "trace": trace,
        "record": record,
        "spans_path": spans_path,
    }


def run_child(job: dict) -> dict | None:
    """Run one repetition; None when the child crashed or timed out."""
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    job = dict(job, spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"child timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - job["spawned"]
    return out


def fit_failures(rep: dict | None, expected: int) -> int:
    if rep is None:
        return expected
    bad = sum(1 for f in rep["fits"] if not f["ok"])
    return bad + max(0, expected - len(rep["fits"]))


def end_to_end(reps: list[dict]) -> dict:
    median = statistics.median
    metrics = {
        "wall_s": (median([r["wall_s"] for r in reps]), "s"),
        "setup_s": (median([r["setup_s"] for r in reps]), "s"),
    }
    for algo in ALGORITHMS:
        per_rep = [sum(f["seconds"] for f in r["fits"] if f["algorithm"] == algo) for r in reps]
        metrics[f"fit_s.{algo}"] = (median(per_rep), "s")
    metrics["peak_rss_mb"] = (median([r["peak_rss_mb"] for r in reps]), "MB")
    fits = [f for r in reps for f in r["fits"]]
    metrics["accuracy_mean_rel"] = (
        sum(f["accuracy"] for f in fits) / sum(f["ref_accuracy"] for f in fits),
        "ratio",
    )
    metrics["label_agreement"] = (
        sum(f["matched"] for f in fits) / sum(f["total"] for f in fits),
        "ratio",
    )
    return metrics


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    metrics = {}
    for name in traced[0]["layers"]:
        metrics[name] = (statistics.median(r["layers"][name] for r in traced), unit_of(name))
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in untraced
    )
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mmdadapt", "__init__.py")):
        print("no mmdadapt sources under src/; run from a repository checkout", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    trace_dir = os.path.join(WORK_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    kinds = [False, True] if args.trace else [False]
    reps = {kind: [] for kind in kinds}
    attempted = failed = 0
    start = time.monotonic()
    index = 0
    try:
        while True:
            enough = all(len(r) >= MIN_REPS for r in reps.values())
            if time.monotonic() - start >= args.seconds and (enough or index >= MAX_TRIES):
                break
            traced = kinds[index % len(kinds)]
            spans = f"{workload.name}-seed{args.seed}-rep{index}.json"
            job = make_job(
                workload.name,
                args.seed,
                os.path.join(run_dir, f"rep{index}"),
                trace=traced,
                spans_path=os.path.join(trace_dir, spans) if traced else None,
            )
            rep = run_child(job)
            shutil.rmtree(job["workdir"], ignore_errors=True)
            attempted += workload.fit_count
            failed += fit_failures(rep, workload.fit_count)
            if rep is not None and rep["error"] is None and len(rep["fits"]) == workload.fit_count:
                reps[traced].append(rep)
            elif rep is not None:
                print(f"repetition {index}: {rep['error'] or 'fit count mismatch'}", file=sys.stderr)
            index += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if not all(reps.values()):
        print("no repetition completed; no metrics to report", file=sys.stderr)
        return 1

    done = reps[False] + reps.get(True, [])
    env = done[0]["env"]
    print("environment " + json.dumps(env, sort_keys=True))
    fits = [f for r in done for f in r["fits"]]
    print(
        f"repetitions untraced={len(reps[False])} traced={len(reps.get(True, []))} "
        f"accuracy_mean={statistics.mean(f['accuracy'] for f in fits):.4f} "
        f"reference_accuracy_mean={statistics.mean(f['ref_accuracy'] for f in fits):.4f}"
    )
    metrics = per_layer(reps[True], reps[False]) if args.trace else end_to_end(reps[False])
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
