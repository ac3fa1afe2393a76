"""Per-layer spans recorded from outside the library.

The traced run patches the module or class attribute each layer's
call site resolves (``repro.linalg.allpairs.thresholded_gram_matrix``,
``repro.cluster.mlrmcl.build_hierarchy``, ...) with a wrapper that
records a span: name, start, end, parent and thread. The wrapper also
snapshots the ambient :class:`repro.obs.MetricsRegistry` around the
call, so the library's own counters (candidate pairs, R-MCL
iterations, ...) are attributed to the span that incremented them.
Nothing is added to the library itself.

Spans live in memory and are reduced to the per-layer metrics of
``BENCHMARK.json`` by :func:`layer_metrics` when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import threading
import time
from typing import Any, Callable

from repro.obs.metrics import current_metrics

# (span name, import path of the owner, attribute, result summary).
# Class attributes are patched on the class the call site looks the
# method up on, so every instance (including ones built by name inside
# the engine or the service) goes through the wrapper.
LAYER_ENTRY_POINTS: list[tuple[str, str, str, str | None]] = [
    ("graph.io.read", "repro.graph.io", "read_edge_list", "graph"),
    (
        "symmetrize.apply",
        "repro.symmetrize.degree_discounted:DegreeDiscountedSymmetrization",
        "apply",
        "ugraph",
    ),
    (
        "symmetrize.threshold.choose",
        "repro.symmetrize.pruning",
        "choose_threshold_for_degree",
        "value",
    ),
    (
        "symmetrize.pruned",
        "repro.symmetrize.degree_discounted:DegreeDiscountedSymmetrization",
        "apply_pruned",
        "ugraph",
    ),
    (
        "symmetrize.factors",
        "repro.symmetrize.degree_discounted:DegreeDiscountedSymmetrization",
        "pruning_factors",
        None,
    ),
    (
        "linalg.allpairs.gram",
        "repro.linalg.allpairs",
        "thresholded_gram_matrix",
        None,
    ),
    (
        "pipeline.run",
        "repro.pipeline.pipeline:SymmetrizeClusterPipeline",
        "run",
        None,
    ),
    ("cluster.mlrmcl", "repro.cluster.mlrmcl:MLRMCL", "cluster", "clustering"),
    ("cluster.coarsen", "repro.cluster.mlrmcl", "build_hierarchy", "hierarchy"),
    (
        "cluster.metis",
        "repro.cluster.metis:MetisClusterer",
        "cluster",
        "clustering",
    ),
    ("eval.avg_f", "repro.engine.stages", "average_f_score", None),
]

_MISSING = object()


def _resolve(path: str) -> Any:
    module, _, attr = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, attr) if attr else owner


def _summarize(kind: str | None, result: Any) -> dict[str, Any]:
    if kind == "graph":
        return {"edges": int(result.n_edges)}
    if kind == "ugraph":
        return {"nnz": int(result.adjacency.nnz)}
    if kind == "value":
        return {"value": float(result)}
    if kind == "clustering":
        sizes = result.sizes
        n = int(sizes.sum())
        return {
            "n_clusters": int(result.n_clusters),
            "largest_frac": float(sizes.max()) / n if n else 0.0,
        }
    if kind == "hierarchy":
        return {"levels": len(result.graphs)}
    return {}


class SpanRecorder:
    """Thread-aware in-memory span recorder with attribute patching."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []

    def _parents(self) -> list[int]:
        stack = getattr(self._stack, "ids", None)
        if stack is None:
            stack = self._stack.ids = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        """Record one span; yields its mutable attribute dict."""
        parents = self._parents()
        record = {
            "name": name,
            "parent": parents[-1] if parents else None,
            "thread": threading.get_ident(),
            "attrs": dict(attrs),
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        parents.append(record["id"])
        registry = current_metrics()
        before = registry.flat() if registry is not None else None
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            parents.pop()
            if registry is not None:
                after = registry.flat()
                record["counters"] = {
                    key: value - before.get(key, 0.0)
                    for key, value in after.items()
                    if key in registry.counters
                    and value != before.get(key, 0.0)
                }
                record["gauges"] = dict(registry.gauges)

    def merge(self, spans: list[dict[str, Any]]) -> None:
        """Append spans recorded by another process (ids renumbered)."""
        with self._lock:
            offset = len(self.spans)
            for span in spans:
                parent = span["parent"]
                self.spans.append({
                    **span,
                    "id": span["id"] + offset,
                    "parent": None if parent is None else parent + offset,
                })

    def wrap(
        self, name: str, func: Callable, kind: str | None
    ) -> Callable:
        recorder = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            with recorder.span(name) as attrs:
                if "threshold" in kwargs:
                    attrs["threshold"] = float(kwargs["threshold"])
                result = func(*args, **kwargs)
                attrs.update(_summarize(kind, result))
                return result

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        return traced

    def install(self) -> "SpanRecorder":
        """Patch every entry point in :data:`LAYER_ENTRY_POINTS`."""
        for name, owner_path, attr, kind in LAYER_ENTRY_POINTS:
            owner = _resolve(owner_path)
            own = owner.__dict__.get(attr, _MISSING)
            func = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, func, kind))
            self._patched.append((owner, attr, own))
        return self

    def uninstall(self) -> None:
        for owner, attr, own in reversed(self._patched):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patched.clear()


def wrapper_cost_s(samples: int = 2000) -> float:
    """Seconds one traced call adds over a bare call, measured here.

    Times ``samples`` calls of a no-op through a recorder wrapper
    (with an ambient metrics registry, as in a traced run) against the
    bare no-op, and returns the per-call difference.
    """
    from repro.obs.metrics import MetricsRegistry, metrics_active

    def noop() -> None:
        return None

    recorder = SpanRecorder()
    wrapped = recorder.wrap("calibrate", noop, None)
    registry = MetricsRegistry()
    for name in ("allpairs_candidate_pairs_total", "mcl_iterations"):
        registry.inc(name)
    registry.set("symmetrize_nnz_out", 1.0)
    with metrics_active(registry):
        start = time.perf_counter()
        for _ in range(samples):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(samples):
            wrapped()
        traced = time.perf_counter() - start
    return max(traced - bare, 0.0) / samples


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics


def _duration(span: dict[str, Any]) -> float:
    return span["end"] - span["start"]


def _children(spans: list[dict[str, Any]]) -> dict[int, list[dict]]:
    out: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            out.setdefault(span["parent"], []).append(span)
    return out


def _total(spans: list[dict[str, Any]], name: str) -> float:
    return sum(_duration(s) for s in spans if s["name"] == name)


def _child_total(
    spans: list[dict[str, Any]],
    children: dict[int, list[dict]],
    parent: str,
    child_names: tuple[str, ...],
) -> float:
    total = 0.0
    for span in spans:
        if span["name"] != parent:
            continue
        for child in children.get(span["id"], []):
            if child["name"] in child_names:
                total += _duration(child)
    return total


def _counter(spans: list[dict[str, Any]], name: str, key: str) -> float:
    return sum(
        s.get("counters", {}).get(key, 0.0)
        for s in spans
        if s["name"] == name
    )


def _last(spans: list[dict[str, Any]], name: str, key: str) -> float:
    for span in reversed(spans):
        if span["name"] == name and key in span["attrs"]:
            return float(span["attrs"][key])
    return 0.0


def _last_gauge(spans: list[dict[str, Any]], name: str, key: str) -> float:
    for span in reversed(spans):
        if span["name"] == name and key in span.get("gauges", {}):
            return float(span["gauges"][key])
    return 0.0


def layer_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Reduce recorded spans to the library-layer per-layer metrics.

    Times and counts are summed over every span of a layer (the
    service runs many jobs per operation); self times subtract the
    named child layers. Layers a workload never enters report 0.
    """
    children = _children(spans)
    # Only the unthresholded apply is the §5.3.1 full materialization;
    # the service's stage 1 calls apply(threshold=t) instead.
    full_applies = [
        s for s in spans
        if s["name"] == "symmetrize.apply"
        and not s["attrs"].get("threshold")
    ]
    pruned = _total(spans, "symmetrize.pruned")
    factors = _child_total(
        spans, children, "symmetrize.pruned", ("symmetrize.factors",)
    )
    gram_in_pruned = _child_total(
        spans, children, "symmetrize.pruned", ("linalg.allpairs.gram",)
    )
    candidates = _counter(
        spans, "linalg.allpairs.gram", "allpairs_candidate_pairs_total"
    )
    gram_pruned = _counter(
        spans, "linalg.allpairs.gram", "allpairs_pairs_pruned_total"
    )
    kept_in_verify = sum(
        s["attrs"].get("nnz", 0) // 2
        for s in spans
        if s["name"] == "symmetrize.pruned"
    )
    verify_pruned = _counter(
        spans, "symmetrize.pruned", "edges_pruned_total"
    )
    mlrmcl = _total(spans, "cluster.mlrmcl")
    coarsen_in_mlrmcl = _child_total(
        spans, children, "cluster.mlrmcl", ("cluster.coarsen",)
    )
    pipeline = _total(spans, "pipeline.run")
    pipeline_children = _child_total(
        spans,
        children,
        "pipeline.run",
        tuple(name for name, *_ in LAYER_ENTRY_POINTS),
    )
    clusterings = [
        s for s in spans if s["name"] in ("cluster.mlrmcl", "cluster.metis")
    ]
    return {
        "graph.io.read_s": _total(spans, "graph.io.read"),
        "graph.io.edges": float(
            sum(s["attrs"].get("edges", 0) for s in spans
                if s["name"] == "graph.io.read")
        ),
        "symmetrize.threshold.apply_s": sum(
            _duration(s) for s in full_applies
        ),
        "symmetrize.threshold.entries": float(
            sum(s["attrs"].get("nnz", 0) for s in full_applies)
        ),
        "symmetrize.threshold.choose_s": _total(
            spans, "symmetrize.threshold.choose"
        ),
        "symmetrize.threshold.value": _last(
            spans, "symmetrize.threshold.choose", "value"
        ),
        "symmetrize.pruned_s": pruned,
        "symmetrize.factors_s": factors,
        "symmetrize.verify_s": pruned - factors - gram_in_pruned,
        "symmetrize.verify.candidates": float(
            kept_in_verify + verify_pruned
        ),
        "symmetrize.verify.kept": float(kept_in_verify),
        "symmetrize.edges_out": float(kept_in_verify),
        "linalg.allpairs.gram_s": _total(spans, "linalg.allpairs.gram"),
        "linalg.allpairs.calls": float(
            sum(1 for s in spans if s["name"] == "linalg.allpairs.gram")
        ),
        "linalg.allpairs.candidate_pairs": candidates,
        "linalg.allpairs.kept_pairs": candidates - gram_pruned,
        "linalg.allpairs.kept_per_candidate": (
            (candidates - gram_pruned) / candidates if candidates else 0.0
        ),
        "cluster.coarsen_s": _total(spans, "cluster.coarsen"),
        "cluster.coarsen.levels": float(
            sum(s["attrs"].get("levels", 0) for s in spans
                if s["name"] == "cluster.coarsen")
        ),
        "cluster.mlrmcl_s": mlrmcl,
        "cluster.rmcl_s": mlrmcl - coarsen_in_mlrmcl,
        "cluster.mlrmcl.iterations": _counter(
            spans, "cluster.mlrmcl", "mcl_iterations"
        ),
        "cluster.mlrmcl.final_flow_nnz": _last_gauge(
            spans, "cluster.mlrmcl", "mcl_final_flow_nnz"
        ),
        "cluster.mlrmcl.prune_fraction": _last_gauge(
            spans, "cluster.mlrmcl", "mcl_prune_fraction"
        ),
        "cluster.n_clusters": (
            statistics.median(s["attrs"]["n_clusters"] for s in clusterings)
            if clusterings else 0.0
        ),
        "cluster.largest_frac": (
            statistics.median(s["attrs"]["largest_frac"] for s in clusterings)
            if clusterings else 0.0
        ),
        "cluster.metis_s": _total(spans, "cluster.metis"),
        "eval.avg_f_s": _total(spans, "eval.avg_f"),
        "engine.overhead_s": pipeline - pipeline_children,
    }


def coverage(spans: list[dict[str, Any]], root: str) -> float:
    """Share of the ``root`` spans' wall covered by their child layers."""
    children = _children(spans)
    wall = covered = 0.0
    for span in spans:
        if span["name"] != root:
            continue
        wall += _duration(span)
        covered += sum(_duration(c) for c in children.get(span["id"], []))
    return covered / wall if wall else 0.0
