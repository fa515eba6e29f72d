"""Span tracer for the mmdadapt layers.

Every public function defined in a layer module is wrapped at each place the
package binds it: the defining module's own namespace, every other layer
module that imported it, and the package namespace. A call through any of
those names opens a span (name, layer, start, end, parent) and records the
process peak RSS at both ends. Spans stay in memory; `Tracer.dump` writes
them out and `layer_metrics` derives the per-layer numbers from them.

Only plain functions are wrapped, never classes, so isinstance checks and
dataclass construction behave exactly as without tracing. A wrapper returns
what the function returned and lets its exceptions propagate unchanged.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import resource
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field, fields, is_dataclass

# Layers are the package's modules. cli only parses arguments and is not
# measured; errors holds exception classes only.
LAYERS = ("harness", "datagen", "data", "kernels", "mmd", "eigensolve", "classify", "adapt")

# Functions with their own self-time metric. A span of a function not listed
# here, called from the same module, folds its self time into its caller's
# metric: adapt.fit thereby covers jpda_fit, weighted_fit and the private
# _fit_loop, i.e. all loop glue the adapt module runs itself.
FUNCTION_SELF = (
    "classify.knn1_predict",
    "mmd.conditional_mmd_matrices",
    "mmd.build_rmin",
    "mmd.build_rmax",
    "mmd.build_joint_prob_factors",
    "mmd.marginal_mmd_matrix",
    "mmd.projected_discrepancy",
    "mmd.bda_weight",
    "eigensolve.assemble_pencil",
    "eigensolve.solve_trailing",
    "kernels.gram",
    "kernels.resolve_bandwidth",
    "harness.load_dataset",
    "harness.write_run_outputs",
    "datagen.generate_pair",
    "data.one_hot_encode",
    "adapt.centering_matrix",
    "adapt.fit",
)
FUNCTION_CALLS = ("classify.knn1_predict", "harness.load_dataset")
RSS_LAYERS = ("mmd", "eigensolve", "classify", "adapt", "kernels")


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    rss_start_kb: int
    rss_end_kb: int
    attrs: dict = field(default_factory=dict)


def _nbytes(obj) -> int:
    """Total nbytes of the arrays in a returned value (arrays, sequences, dataclasses)."""
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(v) for v in obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return sum(_nbytes(getattr(obj, f.name)) for f in fields(obj))
    return 0


def _knn_attrs(args: dict, _result) -> dict:
    train, test = args["train_X"], args["test_X"]
    return {"dist_evals": int(train.shape[1]) * int(test.shape[1]) * int(train.shape[0])}


def _out_bytes_attrs(_args: dict, result) -> dict:
    return {"out_bytes": _nbytes(result)}


def _solve_attrs(args: dict, _result) -> dict:
    # scipy.linalg.eigh computes the full spectrum of the pencil whatever p is.
    return {"m": int(args["pencil"].size)}


def _fit_attrs(args: dict, result) -> dict:
    pair, config = args["pair"], args["config"]
    digest = hashlib.sha1()
    for arr in (pair.source.X, pair.source.y, pair.target.X):
        digest.update(arr.tobytes())
    settings = asdict(config)
    # The solver never reads AdaptConfig.seed; two cells that differ only in
    # it are the same fit.
    settings.pop("seed", None)
    digest.update(repr(sorted(settings.items())).encode())
    rep = result.report
    return {"key": digest.hexdigest(), "pairs_used": rep.p_used * len(rep.iterations)}


# Counts recorded on a span from the call's bound arguments and its result.
ATTR_HOOKS = {
    "classify.knn1_predict": _knn_attrs,
    "eigensolve.solve_trailing": _solve_attrs,
    "adapt.fit": _fit_attrs,
}


class Tracer:
    """Collects nested spans from wrapped package functions."""

    def __init__(self, clock=time.perf_counter, peak_rss_kb=_peak_rss_kb):
        self.clock = clock
        self.peak_rss_kb = peak_rss_kb
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, layer: str, hook=None):
        """Return a wrapper that records a span around each call of fn."""
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, layer, 0.0, 0.0, parent, self.peak_rss_kb(), 0)
            self.spans.append(span)
            self._stack.append(index)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                span.rss_end_kb = self.peak_rss_kb()
                self._stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = hook(bound.arguments, result)
            return result

        return traced

    def install(self, package: str = "mmdadapt") -> None:
        """Wrap every public function of every layer where the package binds it."""
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for fname, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not fname.startswith("_")
                ):
                    name = f"{layer}.{fname}"
                    hook = ATTR_HOOKS.get(name)
                    if hook is None and layer == "mmd":
                        hook = _out_bytes_attrs
                    wrappers[obj] = self.wrap(obj, name, layer, hook)
        namespaces = [importlib.import_module(package), *modules.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(ns, attr, wrappers[obj])
                    self._restore.append((ns, attr, obj))

    def uninstall(self) -> None:
        """Put every original binding back."""
        for ns, attr, obj in reversed(self._restore):
            setattr(ns, attr, obj)
        self._restore.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans: list[Span]) -> tuple[list[float], list[int]]:
    """Per span: duration minus its children's durations, and the same for peak-RSS rise.

    Spans nest strictly (one thread, stack discipline), so the part of a
    span's interval its children cover is the sum of their durations.
    """
    self_s = [s.end - s.start for s in spans]
    rise = [s.rss_end_kb - s.rss_start_kb for s in spans]
    for s in spans:
        if s.parent is not None:
            self_s[s.parent] -= s.end - s.start
            rise[s.parent] -= s.rss_end_kb - s.rss_start_kb
    return self_s, rise


def _owner(spans: list[Span], i: int) -> str:
    """The function metric a span's self time counts towards (see FUNCTION_SELF)."""
    span = spans[i]
    while span.name not in FUNCTION_SELF and span.parent is not None:
        parent = spans[span.parent]
        if parent.layer != span.layer:
            break
        span = parent
    return span.name


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers named as in the benchmark's per_layer list (without trace.overhead_s)."""
    self_s, rise = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for name in FUNCTION_SELF:
        out[f"{name}.self_s"] = 0.0
    for name in FUNCTION_CALLS:
        out[f"{name}.calls"] = 0
    rss_kb = defaultdict(int)
    sums = defaultdict(float)
    sweep_keys: list[str] = []
    for i, s in enumerate(spans):
        out[f"{s.layer}.self_s"] += self_s[i]
        out[f"{s.layer}.calls"] += 1
        rss_kb[s.layer] += rise[i]
        owner = _owner(spans, i)
        if owner in FUNCTION_SELF:
            out[f"{owner}.self_s"] += self_s[i]
        if s.name in FUNCTION_CALLS:
            out[f"{s.name}.calls"] += 1
        for key, value in s.attrs.items():
            if key != "key":
                sums[f"{s.name}.{key}"] += value
        if s.name == "adapt.fit" and _inside(spans, i, "harness.sweep"):
            sweep_keys.append(s.attrs["key"])
    for layer in RSS_LAYERS:
        out[f"{layer}.rss_rise_mb"] = rss_kb[layer] / 1024.0
    out["classify.knn1_predict.dist_evals"] = sums["classify.knn1_predict.dist_evals"]
    out["mmd.out_bytes"] = sum(v for k, v in sums.items() if k.endswith(".out_bytes"))
    solves = sum(1 for s in spans if s.name == "eigensolve.solve_trailing")
    computed = sums["eigensolve.solve_trailing.m"]
    out["eigensolve.pencil_m"] = computed / solves if solves else 0.0
    # With nothing computed or no sweep cell fitted, nothing was wasted.
    out["eigensolve.used_fraction"] = sums["adapt.fit.pairs_used"] / computed if computed else 1.0
    out["harness.sweep.distinct_fraction"] = (
        len(set(sweep_keys)) / len(sweep_keys) if sweep_keys else 1.0
    )
    return out


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_fraction"):
        return "ratio"
    return "count"


def _inside(spans: list[Span], i: int, name: str) -> bool:
    parent = spans[i].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
