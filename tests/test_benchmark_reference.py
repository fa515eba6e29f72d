"""Each benchmark workload's data seed 0 against its recorded reference.

Runs the workload in this process as benchmarks/child.py does, through
workloads.prepare and workloads.execute with harness.fit wrapped to record
every fit, and checks each fit with workloads.check_fit, the benchmark's
own gate. It reads benchmarks/ and writes only under tmp_path.
"""

import os
import sys

import pytest

from mmdadapt import harness

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")
sys.path.insert(0, BENCHMARKS)
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_fits_match_the_reference(tmp_path, monkeypatch, name):
    workload = workloads.WORKLOADS[name]
    config = workloads.prepare(workload, 0, str(tmp_path))
    fits = []
    inner = harness.fit

    def recorded(pair, adapt_config):
        result = inner(pair, adapt_config)
        rep = result.report
        fits.append((rep.algorithm, rep.final_accuracy, result.pseudo_labels))
        return result

    monkeypatch.setattr(harness, "fit", recorded)
    workloads.execute(workload, config)
    reference = workloads.load_reference(workload, 0)
    assert len(fits) == len(reference) == workload.fit_count
    for ref, (algorithm, accuracy, labels) in zip(reference, fits):
        checked = workloads.check_fit(ref, algorithm, accuracy, labels)
        assert checked["ok"], (algorithm, checked)
