"""Self-tests of the benchmark: tracer arithmetic, wrapper transparency,
seeded inputs and agreement with BENCHMARK.json.

Run from the repository root: python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _ticking(values):
    it = iter(values)
    return lambda: next(it)


def test_self_time_arithmetic_on_nested_call_tree():
    # top -> (mid -> (leaf, leaf), leaf); the clock is read at span start and end.
    t = Tracer(clock=_ticking([0, 2, 3, 7, 8, 9, 10, 11, 20, 30]), peak_rss_kb=_ticking(range(0, 100, 10)))
    leaf = t.wrap(lambda: None, "m.leaf", "m")

    def mid_body():
        leaf()
        leaf()

    mid = t.wrap(mid_body, "m.mid", "m")

    def top_body():
        mid()
        leaf()

    t.wrap(top_body, "t.top", "t")()
    names = [s.name for s in t.spans]
    assert names == ["t.top", "m.mid", "m.leaf", "m.leaf", "m.leaf"]
    assert [s.parent for s in t.spans] == [None, 0, 1, 1, 0]
    self_s, rise = self_times(t.spans)
    assert self_s == [30 - 8 - 9, 8 - 4 - 1, 4, 1, 9]
    assert sum(self_s) == t.spans[0].end - t.spans[0].start
    # Peak RSS is read at start then end: top 0/90, mid 10/60, leaves 20/30, 40/50, 70/80.
    assert rise == [90 - 50 - 10, 50 - 10 - 10, 10, 10, 10]


def _span(name, parent, start, end, attrs=None):
    return Span(name, name.split(".")[0], start, end, parent, 0, 0, attrs or {})


def test_same_module_callees_fold_into_the_reported_caller():
    spans = [
        _span("harness.run", None, 0.0, 10.0),
        _span("adapt.fit", 0, 1.0, 9.0, {"key": "a", "pairs_used": 2}),
        _span("adapt.jpda_fit", 1, 1.5, 8.5),
        _span("adapt.centering_matrix", 2, 2.0, 2.5),
        _span("mmd.build_rmin", 2, 3.0, 5.0, {"out_bytes": 800}),
    ]
    m = layer_metrics(spans)
    assert m["adapt.fit.self_s"] == pytest.approx((8.0 - 7.0) + (7.0 - 0.5 - 2.0))
    assert m["adapt.centering_matrix.self_s"] == pytest.approx(0.5)
    assert m["adapt.self_s"] == pytest.approx(8.0 - 2.0)
    assert m["adapt.calls"] == 3
    assert m["mmd.build_rmin.self_s"] == pytest.approx(2.0)
    assert m["mmd.out_bytes"] == 800
    assert m["harness.self_s"] == pytest.approx(2.0)
    assert m["harness.sweep.distinct_fraction"] == 1.0


def test_distinct_fraction_counts_identical_sweep_cells_once():
    spans = [_span("harness.sweep", None, 0.0, 10.0)]
    for i, key in enumerate("aabbcc"):
        spans.append(_span("adapt.fit", 0, float(i), i + 0.5, {"key": key, "pairs_used": 1}))
    assert layer_metrics(spans)["harness.sweep.distinct_fraction"] == pytest.approx(0.5)


def test_wrapper_passes_values_and_exceptions_through():
    t = Tracer()
    payload = object()
    same = t.wrap(lambda x: x, "m.same", "m")
    assert same(payload) is payload

    err = ValueError("boom")

    def fail():
        raise err

    wrapped = t.wrap(fail, "m.fail", "m")
    with pytest.raises(ValueError) as info:
        wrapped()
    assert info.value is err
    assert t.spans[-1].end >= t.spans[-1].start
    assert t._stack == []


def _tiny_pair():
    from mmdadapt.datagen import ShiftSpec, generate_pair

    return generate_pair(ShiftSpec(n_per_class=20, class_count=3, dim=6, seed=3)).pair


def test_install_wraps_public_functions_only_and_uninstall_restores():
    import mmdadapt
    from mmdadapt import adapt, data, harness, mmd
    from mmdadapt.adapt import _fit_loop

    originals = (harness.fit, adapt.fit, mmd.build_rmin, harness.load_dataset, mmdadapt.fit)
    t = Tracer()
    t.install()
    try:
        for fn in (harness.fit, adapt.fit, mmdadapt.fit, mmd.build_rmin, harness.load_dataset):
            assert hasattr(fn, "__wrapped__")
        assert harness.fit is adapt.fit
        assert adapt._fit_loop is _fit_loop
        assert isinstance(data.LabeledDataset, type)
        pair = _tiny_pair()
        # validate_pair takes a LabeledDataset through an isinstance check.
        rebuilt = data.validate_pair(pair.source, pair.target)
        assert rebuilt.target is pair.target
    finally:
        t.uninstall()
    assert (harness.fit, adapt.fit, mmd.build_rmin, harness.load_dataset, mmdadapt.fit) == originals
    assert not hasattr(harness.fit, "__wrapped__")


def test_traced_fit_matches_untraced_fit():
    from mmdadapt import harness
    from mmdadapt.data import AdaptConfig

    pair = _tiny_pair()
    config = AdaptConfig(algorithm="jda", p=2, iters=3)
    plain = harness.fit(pair, config)
    t = Tracer()
    t.install()
    try:
        traced = harness.fit(pair, config)
    finally:
        t.uninstall()
    np.testing.assert_array_equal(plain.pseudo_labels, traced.pseudo_labels)
    np.testing.assert_array_equal(plain.projection.matrix, traced.projection.matrix)
    m = layer_metrics(t.spans)
    assert m["adapt.calls"] == 3  # fit -> weighted_fit -> centering_matrix
    assert m["classify.knn1_predict.calls"] == 4  # initial labels + one per iteration
    # 60 source and 60 target samples: raw d=6 once, then p=2 per iteration.
    assert m["classify.knn1_predict.dist_evals"] == 60 * 60 * 6 + 3 * 60 * 60 * 2
    assert m["eigensolve.pencil_m"] == 6
    assert m["eigensolve.used_fraction"] == pytest.approx(2 / 6)


def _input_digest(name: str, seed: int, workdir: str) -> str:
    from mmdadapt import harness

    config = workloads.prepare(workloads.WORKLOADS[name], seed, workdir)
    digest = hashlib.sha256()
    if config.source is not None:
        for path in (config.source, config.target):
            with open(path, "rb") as fh:
                digest.update(fh.read())
    else:
        pair = harness.resolve_pair(config)
        for arr in (pair.source.X, pair.source.y, pair.target.X, pair.target.y):
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_workload_inputs(name, tmp_path):
    first = _input_digest(name, 5, str(tmp_path / "a"))
    again = _input_digest(name, 5, str(tmp_path / "b"))
    other = _input_digest(name, 6, str(tmp_path / "c"))
    wrapped = _input_digest(name, 5 + workloads.REFERENCE_SEEDS, str(tmp_path / "d"))
    assert first == again
    assert first != other
    # Seeds map onto the family of instances that have recorded references.
    assert wrapped == first


def test_metric_names_and_units_match_benchmark_json():
    spec = _benchmark_json()
    assert set(spec["workloads"][i]["name"] for i in range(len(spec["workloads"]))) == set(
        workloads.WORKLOADS
    )
    fit = {"algorithm": "jpda", "seconds": 1.0, "accuracy": 0.5, "ref_accuracy": 0.5, "matched": 3, "total": 4}
    rep = {"wall_s": 2.0, "setup_s": 0.5, "peak_rss_mb": 100.0, "fits": [fit]}
    e2e = run.end_to_end([rep])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}

    traced = dict(rep, layers=layer_metrics([]))
    layer = run.per_layer([traced], [rep])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    assert all(tracer.unit_of(k) == u for k, (_, u) in layer.items())


def test_reference_covers_every_workload_and_seed():
    with open(workloads.REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)
    for name, workload in workloads.WORKLOADS.items():
        seeds = reference[name]
        assert sorted(map(int, seeds)) == list(range(workloads.REFERENCE_SEEDS))
        for fits in seeds.values():
            assert len(fits) == workload.fit_count
            jpda = [f["accuracy"] for f in fits if f["algorithm"] == "jpda"]
            # The check can only catch a wrong answer if jpda beats chance clearly.
            assert min(jpda) > 1.5 / workload.classes
