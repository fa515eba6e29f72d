"""One repetition of one workload, in a fresh process.

Usage: python3 child.py '<json job>' (started by run.py and record_reference.py).

The job names the workload, seed, work directory, whether to trace and
whether to return raw labels (reference recording). The process caps its
own address space, builds the inputs, times the harness call and every
adapt.fit call inside it, checks each fit against the reference, and prints
one JSON line. A MemoryError or a typed package error ends the repetition
early and is reported, not raised; the fits it prevented count as failed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

# Address-space cap of every repetition: a runaway allocation then raises
# MemoryError in this process instead of exhausting the machine. Every
# workload runs well inside it.
ADDRESS_CAP_MB = 3072


def _environment(threads: int, nproc: int, pinned: list[int]) -> dict:
    import numpy
    import scipy

    def blas(mod):
        deps = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "blas_threads": threads,
        "pinned_cpus": pinned,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "cpu": cpu,
        "nproc": nproc,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": sys.version.split()[0],
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    import workloads

    workload = workloads.WORKLOADS[job["workload"]]
    cap = ADDRESS_CAP_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    # Fixed CPUs, one per BLAS thread, for the whole repetition: migrations
    # between cores made repetition times spread about twice as wide.
    available = sorted(os.sched_getaffinity(0))
    threads = int(os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    pinned = available[-threads:]
    os.sched_setaffinity(0, pinned)
    sys.path.insert(0, os.path.join(job["root"], "src"))

    from mmdadapt import harness
    from mmdadapt.errors import MmdAdaptError

    config = workloads.prepare(workload, job["seed"], job["workdir"])
    ready = time.monotonic()
    reference = None if job["record"] else workloads.load_reference(workload, job["seed"])

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    fits = []
    inner_fit = harness.fit

    def timed_fit(pair, adapt_config):
        t0 = time.perf_counter()
        result = inner_fit(pair, adapt_config)
        seconds = time.perf_counter() - t0
        rep = result.report
        fits.append((rep.algorithm, seconds, rep.final_accuracy, result.pseudo_labels))
        return result

    # Installed over the tracer's wrapper, so a traced fit is timed whole.
    harness.fit = timed_fit

    error = None
    t0 = time.perf_counter()
    try:
        workloads.execute(workload, config)
    except (MemoryError, MmdAdaptError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    harness.fit = inner_fit

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checked after the timed region so the comparison costs no measured time.
    checked = []
    for i, (algorithm, seconds, accuracy, labels) in enumerate(fits):
        entry = {"algorithm": algorithm, "seconds": seconds, "accuracy": accuracy}
        if reference is None:
            entry["labels"] = workloads.encode_labels(labels)
        elif i < len(reference):
            entry.update(workloads.check_fit(reference[i], algorithm, accuracy, labels))
        else:
            entry["ok"] = False
        checked.append(entry)

    out = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "fits": checked,
        "error": error,
        "env": _environment(threads, len(available), pinned),
    }
    if tracer is not None:
        tracer.uninstall()
        from tracer import layer_metrics

        out["layers"] = layer_metrics(tracer.spans)
        if job["spans_path"]:
            tracer.dump(job["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
