"""The ``repro bench`` harness: stage-level perf on synthetic graphs.

Runs the degree-discounted symmetrize + cluster pipeline on synthetic
power-law digraphs across sizes, prune thresholds and all-pairs
backends, and emits a machine-readable ``BENCH_allpairs.json`` so the
perf trajectory is visible across PRs:

- **symmetrize runs** time
  :meth:`~repro.symmetrize.DegreeDiscountedSymmetrization.apply_pruned`
  per backend and capture the engine metrics (candidate pairs,
  pruned pairs, edges pruned) from the :mod:`repro.obs` metrics
  registry;
- **cluster runs** time MLR-MCL on the vectorized backend's output
  and record its convergence metrics (iteration count, final prune
  fraction) from the :mod:`repro.obs` metrics registry;
- the **regression block** encodes the thresholds future PRs are held
  to (minimum vectorized-over-python speedup at the largest benched
  size) together with whether this run passed them.

``smoke=True`` shrinks the sweep to a single 2 000-node graph at
threshold 0.5 so the whole harness runs in seconds — that mode is
wired into the test suite (``tests/test_perf.py``) to keep the JSON
schema and the backend ordering honest on every run.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Any, Sequence

import numpy as np
import scipy

from repro.exceptions import ReproError
from repro.obs.metrics import MetricsRegistry, metrics_active

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_SIZES",
    "DEFAULT_THRESHOLDS",
    "SMOKE_SIZES",
    "SMOKE_THRESHOLDS",
    "REQUIRED_RUN_KEYS",
    "run_bench",
    "write_bench",
    "bench_manifest",
    "format_summary",
]

#: Schema identifier embedded in the JSON for forward compatibility.
#: v2 added the per-run ``"metrics"`` key (observability registry
#: snapshot: MCL iteration counts, prune fractions, engine totals).
#: v3 added the top-level ``"cache"`` block (cold-vs-warm artifact
#: cache sweep: seconds, speedup, hit/miss counters).
#: v4 dropped the per-run ``"counters"`` key, which repeated
#: ``"metrics"`` (e.g. ``allpairs_candidate_pairs_total``).
BENCH_SCHEMA = "repro-bench-allpairs/v4"

#: Full-sweep defaults: sizes bracket the regime where the pure-Python
#: engine is still tolerable; thresholds bracket the Table-3 operating
#: range (dense, medium, heavily-pruned).
DEFAULT_SIZES = (1_000, 3_000, 10_000)
DEFAULT_THRESHOLDS = (0.1, 0.25, 0.5)

#: Smoke-mode sweep: one size/threshold pair, runs in seconds.
SMOKE_SIZES = (2_000,)
SMOKE_THRESHOLDS = (0.5,)

#: Keys every entry of ``results["runs"]`` must carry (asserted by the
#: smoke test so downstream consumers can rely on them).
REQUIRED_RUN_KEYS = frozenset(
    {
        "kind",
        "backend",
        "n_nodes",
        "n_edges",
        "threshold",
        "seconds",
        "edges_out",
        "metrics",
    }
)

#: Vectorized-over-python speedup floor at the largest benched size.
FULL_MIN_SPEEDUP = 5.0
SMOKE_MIN_SPEEDUP = 1.0


def _bench_graph(n_nodes: int, seed: int):
    from repro.graph.generators import power_law_digraph

    rng = np.random.default_rng(seed)
    return power_law_digraph(n_nodes, rng)


def _symmetrize_run(
    sym, graph, threshold: float, backend: str, n_jobs: int | None
) -> tuple[dict[str, Any], Any]:
    registry = MetricsRegistry()
    with metrics_active(registry):
        t0 = time.perf_counter()
        result = sym.apply_pruned(
            graph, threshold, backend=backend, n_jobs=n_jobs
        )
        seconds = time.perf_counter() - t0
    return {
        "kind": "symmetrize",
        "backend": backend,
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "threshold": threshold,
        "seconds": seconds,
        "edges_out": result.n_edges,
        "metrics": registry.flat(),
    }, result


def _cluster_run(graph, symmetrized, threshold: float) -> dict[str, Any]:
    from repro.cluster.mlrmcl import MLRMCL

    registry = MetricsRegistry()
    with metrics_active(registry):
        t0 = time.perf_counter()
        clustering = MLRMCL().cluster(symmetrized)
        seconds = time.perf_counter() - t0
    return {
        "kind": "cluster",
        "backend": "mlrmcl",
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "threshold": threshold,
        "seconds": seconds,
        "edges_out": int(clustering.n_clusters),
        "metrics": registry.flat(),
    }


def _cache_sweep_block(
    n_nodes: int, thresholds: Sequence[float], seed: int
) -> dict[str, Any]:
    """Cold-vs-warm ``sweep_threshold`` through one artifact cache.

    The cold pass computes and stores the shared symmetrization
    artifact plus one pruned artifact per threshold; the warm pass is
    served entirely from the cache, so its wall-clock isolates the
    clusterer. The block records both timings, the hit/miss counters
    and whether the two passes produced identical sweeps — the
    engine-cache acceptance criteria, measured where perf trends are
    tracked.
    """
    from repro.engine.cache import ArtifactCache
    from repro.pipeline.sweep import sweep_threshold

    graph = _bench_graph(int(n_nodes), seed)
    cache = ArtifactCache()
    passes = []
    points = []
    for _ in range(2):
        t0 = time.perf_counter()
        points.append(
            sweep_threshold(
                graph,
                thresholds=[float(t) for t in thresholds],
                clusterer="mlrmcl",
                n_clusters=20,
                cache=cache,
            )
        )
        passes.append(time.perf_counter() - t0)
    cold, warm = points
    identical = len(cold) == len(warm) and all(
        a.n_edges == b.n_edges and a.n_clusters == b.n_clusters
        for a, b in zip(cold, warm)
    )
    return {
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "thresholds": [float(t) for t in thresholds],
        "cold_seconds": passes[0],
        "warm_seconds": passes[1],
        "speedup": passes[0] / max(passes[1], 1e-12),
        "hits": cache.hits,
        "misses": cache.misses,
        "warm_all_hits": all(bool(p.cache_hit) for p in warm),
        "identical": identical,
    }


def run_bench(
    sizes: Sequence[int] | None = None,
    thresholds: Sequence[float] | None = None,
    backends: Sequence[str] = ("python", "vectorized"),
    n_jobs: int | None = None,
    seed: int = 0,
    smoke: bool = False,
    with_cluster: bool = True,
    with_cache_sweep: bool = True,
) -> dict[str, Any]:
    """Run the symmetrize + cluster sweep; returns the results dict.

    Parameters
    ----------
    sizes, thresholds:
        Node counts and prune thresholds to sweep (defaults depend on
        ``smoke``).
    backends:
        All-pairs backends to time; ``"python"`` must be present for
        speedups to be reported.
    n_jobs:
        Forwarded to the vectorized engine's block fan-out.
    seed:
        Graph-generation seed (one graph per size, shared across
        thresholds and backends).
    smoke:
        Use the seconds-scale smoke sweep and the lenient regression
        floor (vectorized merely must not be slower than python).
    with_cluster:
        Also time MLR-MCL on the vectorized backend's output.
    with_cache_sweep:
        Also run the cold-vs-warm artifact-cache sweep (the ``"cache"``
        block) at the largest benched size.
    """
    from repro.symmetrize.degree_discounted import (
        DegreeDiscountedSymmetrization,
    )

    if sizes is None:
        sizes = SMOKE_SIZES if smoke else DEFAULT_SIZES
    if thresholds is None:
        thresholds = SMOKE_THRESHOLDS if smoke else DEFAULT_THRESHOLDS
    if not sizes or not thresholds or not backends:
        raise ReproError("bench needs at least one size/threshold/backend")
    sym = DegreeDiscountedSymmetrization()
    min_speedup = SMOKE_MIN_SPEEDUP if smoke else FULL_MIN_SPEEDUP

    runs: list[dict[str, Any]] = []
    speedups: dict[str, float] = {}
    for n_nodes in sizes:
        graph = _bench_graph(int(n_nodes), seed)
        for threshold in thresholds:
            by_backend: dict[str, float] = {}
            vec_output = None
            for backend in backends:
                run, symmetrized = _symmetrize_run(
                    sym, graph, float(threshold), backend, n_jobs
                )
                runs.append(run)
                by_backend[backend] = run["seconds"]
                if backend == "vectorized":
                    vec_output = symmetrized
            if "python" in by_backend and "vectorized" in by_backend:
                key = f"{int(n_nodes)}@{float(threshold):g}"
                speedups[key] = by_backend["python"] / max(
                    by_backend["vectorized"], 1e-12
                )
            if with_cluster and vec_output is not None:
                if vec_output.n_edges > 0:
                    runs.append(
                        _cluster_run(graph, vec_output, float(threshold))
                    )

    regression = _regression_block(
        speedups, sizes, thresholds, min_speedup
    )
    cache_block = (
        _cache_sweep_block(int(max(sizes)), thresholds, seed)
        if with_cache_sweep
        else None
    )
    return {
        "schema": BENCH_SCHEMA,
        "config": {
            "sizes": [int(s) for s in sizes],
            "thresholds": [float(t) for t in thresholds],
            "backends": list(backends),
            "n_jobs": n_jobs,
            "seed": seed,
            "smoke": smoke,
            "with_cluster": with_cluster,
            "with_cache_sweep": with_cache_sweep,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
        "runs": runs,
        "speedups": speedups,
        "cache": cache_block,
        "regression": regression,
    }


def _regression_block(
    speedups: dict[str, float],
    sizes: Sequence[int],
    thresholds: Sequence[float],
    min_speedup: float,
) -> dict[str, Any]:
    """Pass/fail against the perf floor at the largest benched size.

    The floor binds at the largest size and highest threshold of the
    sweep — the regime the prefix filter is built for — so smaller,
    noisier configurations don't flap the verdict.
    """
    at = f"{int(max(sizes))}@{float(max(thresholds)):g}"
    observed = speedups.get(at)
    passed = observed is None or observed >= min_speedup
    failures = []
    if not passed:
        failures.append(
            f"vectorized speedup {observed:.2f}x at {at} is below the "
            f"{min_speedup:.2f}x floor"
        )
    return {
        "thresholds": {
            "min_speedup_vectorized": min_speedup,
            "at": at,
        },
        "observed_speedup": observed,
        "passed": passed,
        "failures": failures,
    }


def write_bench(results: dict[str, Any], path: str | Path) -> Path:
    """Serialize ``results`` to ``path`` (pretty-printed JSON)."""
    out = Path(path)
    out.write_text(json.dumps(results, indent=2, sort_keys=False) + "\n")
    return out


def bench_manifest(results: dict[str, Any]):
    """Condense a bench ``results`` dict into a :class:`RunManifest`.

    The manifest carries the sweep config, the aggregated per-kind
    metrics (summed counters, last-write gauges across runs) and one
    timing entry per run, so ``repro runs diff`` can compare two bench
    invocations the same way it compares two pipeline runs.
    """
    from repro.obs.manifest import RunManifest, collect_environment

    metrics: dict[str, float] = {}
    timings: dict[str, float] = {}
    for i, run in enumerate(results["runs"]):
        tag = f"{run['kind']}:{run['backend']}@{run['n_nodes']}"
        timings[f"{tag}#{i}_seconds"] = float(run["seconds"])
        for name, value in run.get("metrics", {}).items():
            metrics[f"{run['kind']}.{name}"] = float(value)
    reg = results["regression"]
    metrics["regression_passed"] = float(bool(reg["passed"]))
    if reg["observed_speedup"] is not None:
        metrics["observed_speedup"] = float(reg["observed_speedup"])
    cache_block = results.get("cache")
    cache_section: dict[str, Any] = {"enabled": cache_block is not None}
    if cache_block is not None:
        cache_section.update(
            hits=int(cache_block["hits"]),
            misses=int(cache_block["misses"]),
        )
        timings["cache_sweep_cold_seconds"] = float(
            cache_block["cold_seconds"]
        )
        timings["cache_sweep_warm_seconds"] = float(
            cache_block["warm_seconds"]
        )
        metrics["cache_sweep_speedup"] = float(cache_block["speedup"])
    return RunManifest(
        kind="bench",
        name="bench-allpairs",
        config=dict(results["config"]),
        dataset={
            "sizes": list(results["config"]["sizes"]),
            "generator": "power_law_digraph",
        },
        environment=collect_environment(),
        seed=results["config"].get("seed"),
        metrics=metrics,
        cache=cache_section,
        timings=timings,
    )


def format_summary(results: dict[str, Any]) -> str:
    """Human-readable table of the benched runs and speedups."""
    lines = [
        f"{'kind':<11} {'backend':<11} {'nodes':>7} {'thr':>5} "
        f"{'seconds':>9} {'edges_out':>10}"
    ]
    for run in results["runs"]:
        lines.append(
            f"{run['kind']:<11} {run['backend']:<11} "
            f"{run['n_nodes']:>7} {run['threshold']:>5g} "
            f"{run['seconds']:>9.3f} {run['edges_out']:>10}"
        )
        if run["kind"] == "cluster":
            m = run.get("metrics", {})
            if "mcl_iterations" in m:
                lines.append(
                    f"{'':<11}   iterations={m['mcl_iterations']:g} "
                    f"prune_fraction={m.get('mcl_prune_fraction', 0.0):.3f}"
                )
    if results["speedups"]:
        lines.append("")
        for key, value in results["speedups"].items():
            lines.append(f"speedup[{key}] = {value:.2f}x (python/vectorized)")
    cache = results.get("cache")
    if cache is not None:
        lines.append("")
        lines.append(
            f"cache sweep @{cache['n_nodes']} nodes: "
            f"cold {cache['cold_seconds']:.3f}s -> "
            f"warm {cache['warm_seconds']:.3f}s "
            f"({cache['speedup']:.2f}x, hits={cache['hits']}, "
            f"misses={cache['misses']}, "
            f"identical={'yes' if cache['identical'] else 'NO'})"
        )
    reg = results["regression"]
    verdict = "PASS" if reg["passed"] else "FAIL"
    floor = reg["thresholds"]["min_speedup_vectorized"]
    lines.append(
        f"regression: {verdict} "
        f"(floor {floor:g}x at {reg['thresholds']['at']})"
    )
    for failure in reg["failures"]:
        lines.append(f"  - {failure}")
    return "\n".join(lines)
