"""Workload definitions, their inputs, and the output check.

Each workload is shaped like one of the paper's experiment families (see
README.md for why each was chosen) and is driven through the harness's
public API (`harness.run`, `harness.sweep`), the code path behind the CLI.
Inputs come from the portable synthetic generator, seeded from the
benchmark seed; the program sees only the generated data (or the CSV files
written from it).

This module imports numpy and mmdadapt lazily so the parent process
(run.py) can load the definitions without starting BLAS.
"""

from __future__ import annotations

import base64
import json
import os
import zlib
from dataclasses import dataclass, replace

ALGORITHMS = ("tca", "jda", "bda", "jp", "jpda")
SWEEP_SEEDS = 2

# Reference outputs are recorded for data seeds 0..REFERENCE_SEEDS-1; a
# benchmark seed maps onto that family, so every run has a reference to
# check against.
REFERENCE_SEEDS = 32
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Output check per fit. Roundoff can flip near-tie 1-NN labels, so a fit
# fails only on a gross mismatch with the reference recorded at the commit
# that defined the benchmark.
MIN_LABEL_AGREEMENT = 0.95
MAX_ACCURACY_DRIFT = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    dim: int
    n_per_class: int
    p: int
    iters: int
    kernel: str = "primal"
    lam: float = 0.1
    # Write the generated pair to CSV during setup and run from the files.
    files: bool = False
    # After the run, sweep jpda over these mu values and SWEEP_SEEDS seeds.
    sweep_mu: tuple[float, ...] = ()

    @property
    def fit_count(self) -> int:
        return len(ALGORITHMS) + SWEEP_SEEDS * len(self.sweep_mu)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="digits-primal",
            classes=10,
            dim=256,
            n_per_class=60,
            p=10,
            iters=3,
        ),
        Workload(
            name="office-linear-sweep",
            classes=10,
            dim=800,
            n_per_class=20,
            p=10,
            iters=3,
            kernel="linear",
            lam=1.0,
            files=True,
            sweep_mu=(0.01, 0.1, 1.0),
        ),
        Workload(
            name="pie-manyclass",
            classes=68,
            dim=256,
            n_per_class=6,
            p=67,
            iters=3,
        ),
    )
}


def data_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def prepare(workload: Workload, seed: int, workdir: str):
    """Build the workload's inputs and return the ExperimentConfig that runs it."""
    from mmdadapt import harness
    from mmdadapt.datagen import ShiftSpec

    ds = data_seed(seed)
    spec = ShiftSpec(
        kind="rotation",
        magnitude=15.0,
        n_per_class=workload.n_per_class,
        class_count=workload.classes,
        dim=workload.dim,
        seed=ds,
    )
    common = dict(
        algorithms=list(ALGORITHMS),
        p=workload.p,
        iters=workload.iters,
        lam=workload.lam,
        kernel=workload.kernel,
        seed=ds,
        out=os.path.join(workdir, "out"),
        jobs=1,
    )
    if not workload.files:
        return harness.ExperimentConfig(synth=spec, **common)
    gen = harness.ExperimentConfig(synth=spec, out=os.path.join(workdir, "data"))
    source, target = harness.datagen_cmd(gen)
    return harness.ExperimentConfig(source=source, target=target, **common)


def execute(workload: Workload, config) -> None:
    """The measured harness calls."""
    from mmdadapt import harness

    harness.run(config)
    if workload.sweep_mu:
        sweep_config = replace(config, algorithms=["jpda"])
        seeds = [config.seed + i for i in range(SWEEP_SEEDS)]
        harness.sweep(sweep_config, "mu", list(workload.sweep_mu), seeds)


def encode_labels(labels) -> str:
    import numpy as np

    return base64.b64encode(zlib.compress(np.asarray(labels, dtype=np.uint8).tobytes(), 9)).decode()


def decode_labels(text: str):
    import numpy as np

    return np.frombuffer(zlib.decompress(base64.b64decode(text)), dtype=np.uint8)


def load_reference(workload: Workload, seed: int) -> list[dict]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload.name][str(data_seed(seed))]


def check_fit(ref: dict, algorithm: str, accuracy: float, labels) -> dict:
    """Compare one fit with its reference; ok is False on a gross mismatch."""
    import numpy as np

    ref_labels = decode_labels(ref["labels"])
    labels = np.asarray(labels)
    matched = int(np.sum(labels == ref_labels)) if labels.shape == ref_labels.shape else 0
    total = int(ref_labels.size)
    ok = (
        algorithm == ref["algorithm"]
        and matched >= MIN_LABEL_AGREEMENT * total
        and abs(accuracy - ref["accuracy"]) <= MAX_ACCURACY_DRIFT
    )
    return {
        "ok": bool(ok),
        "matched": matched,
        "total": total,
        "accuracy": float(accuracy),
        "ref_accuracy": float(ref["accuracy"]),
    }
