"""Tests for the instrumentation the library emits through
:mod:`repro.obs` (span attributes and metric names the benchmarks read)
and the ``repro bench`` harness (smoke mode, wired into CI per §3.6's
scalability claims)."""

import importlib
import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cli import main
from repro.cluster.mlrmcl import MLRMCL
from repro.exceptions import ReproError
from repro.graph.generators import power_law_digraph
from repro.linalg.allpairs import thresholded_gram_matrix
from repro.linalg.sparse_utils import TIE_RTOL
from repro.obs.metrics import MetricsRegistry, metrics_active
from repro.obs.trace import Span, tracing
from repro.perf.bench import (
    BENCH_SCHEMA,
    REQUIRED_RUN_KEYS,
    format_summary,
    run_bench,
    write_bench,
)
from repro.pipeline.pipeline import SymmetrizeClusterPipeline
from repro.symmetrize.degree_discounted import (
    DegreeDiscountedSymmetrization,
)


def _spans(trace: dict) -> list[Span]:
    """Every span of a ``PipelineResult.trace`` snapshot."""
    return [
        node
        for root in trace["spans"]
        for node in Span.from_dict(root).walk()
    ]


class TestInstrumentationHooks:
    def test_pipeline_reports_stages(self, rng):
        """A traced run's stage spans carry the per-stage sizes."""
        g = power_law_digraph(80, rng)
        pipe = SymmetrizeClusterPipeline(
            "degree_discounted", "mlrmcl", threshold=0.05
        )
        result = pipe.run(g, trace=True)
        by_name = {s.name: s for s in _spans(result.trace)}
        sym = by_name["symmetrize:degree_discounted"].attributes
        for key in ("n_nodes", "nnz_in", "nnz_raw", "nnz_out"):
            assert key in sym, key
        assert sym["n_nodes"] == 80
        assert sym["nnz_out"] == result.symmetrized.adjacency.nnz
        cluster = by_name["cluster:mlrmcl"].attributes
        assert cluster["n_clusters"] == result.clustering.n_clusters > 0

    def test_pipeline_uses_ambient_recorder(self, rng):
        """An ambient metrics registry collects an untraced run and
        is the run's metrics snapshot."""
        g = power_law_digraph(60, rng)
        pipe = SymmetrizeClusterPipeline("naive", "mlrmcl")
        registry = MetricsRegistry()
        with metrics_active(registry):
            result = pipe.run(g)
        assert registry.counters["mcl_iterations"] >= 1
        assert result.metrics == registry.as_dict()

    def test_allpairs_counters_flow_to_recorder(self, rng):
        """Per-call pair counts land on the ``allpairs:*`` span."""
        rows = sp.random_array(
            (30, 10), density=0.4, rng=rng, format="csr"
        )
        registry = MetricsRegistry()
        with tracing() as tracer, metrics_active(registry):
            thresholded_gram_matrix(rows, 0.2, backend="vectorized")
        attrs = tracer.find("allpairs:vectorized").attributes
        assert attrs["rows"] == 30
        assert attrs["candidate_pairs"] >= attrs["kept_pairs"]
        assert (
            registry.counters["allpairs_pairs_pruned_total"]
            == attrs["candidate_pairs"] - attrs["kept_pairs"]
        )

    def test_apply_counts_pruned_pairs_unordered(self):
        """``edges_pruned_total`` counts unordered off-diagonal pairs,
        the same unit ``apply_pruned`` counts in."""
        g = power_law_digraph(500, np.random.default_rng(0))
        sym = DegreeDiscountedSymmetrization()
        threshold = 0.05
        upper = sp.triu(sym.compute_matrix(g), k=1)
        expected = int(
            np.count_nonzero(upper.data < threshold * (1.0 - TIE_RTOL))
        )
        registry = MetricsRegistry()
        with metrics_active(registry):
            sym.apply(g, threshold=threshold)
        assert expected > 0
        assert registry.counters["edges_pruned_total"] == expected


class TestPerfbenchContract:
    """The names ``perfbench`` reads, pinned so a rename fails here
    and not only in the benchmark."""

    def test_metric_names_and_entry_points(self):
        from perfbench.layers import LAYER_ENTRY_POINTS

        g = power_law_digraph(200, np.random.default_rng(0))
        registry = MetricsRegistry()
        with tracing(), metrics_active(registry):
            ugraph = DegreeDiscountedSymmetrization().apply_pruned(
                g, 0.05
            )
            MLRMCL().cluster(ugraph)
        for name in (
            "allpairs_candidate_pairs_total",
            "allpairs_pairs_pruned_total",
            "edges_pruned_total",
            "mcl_iterations",
        ):
            assert name in registry.counters, name
        for name in ("mcl_final_flow_nnz", "mcl_prune_fraction"):
            assert name in registry.gauges, name
        for _, owner_path, attr, _ in LAYER_ENTRY_POINTS:
            module, _, cls = owner_path.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            assert callable(getattr(owner, attr)), (owner_path, attr)


class TestBenchSmoke:
    @pytest.fixture(scope="class")
    def smoke_results(self):
        # One 2k-node power-law graph at threshold 0.5 — the CI-grade
        # configuration the ISSUE pins: seconds-scale, both backends.
        return run_bench(smoke=True)

    def test_schema(self, smoke_results):
        assert smoke_results["schema"] == BENCH_SCHEMA
        for key in (
            "config",
            "environment",
            "runs",
            "speedups",
            "regression",
        ):
            assert key in smoke_results, key
        assert smoke_results["config"]["smoke"] is True
        for run in smoke_results["runs"]:
            assert REQUIRED_RUN_KEYS <= set(run), run
        kinds = {r["kind"] for r in smoke_results["runs"]}
        assert "symmetrize" in kinds
        reg = smoke_results["regression"]
        assert "min_speedup_vectorized" in reg["thresholds"]
        json.dumps(smoke_results)  # must be serializable

    def test_vectorized_not_slower_than_python(self, smoke_results):
        by_backend = {
            r["backend"]: r["seconds"]
            for r in smoke_results["runs"]
            if r["kind"] == "symmetrize" and r["n_nodes"] == 2000
        }
        assert by_backend["vectorized"] <= by_backend["python"]
        assert smoke_results["regression"]["passed"] is True
        assert smoke_results["speedups"]["2000@0.5"] >= 1.0

    def test_cluster_runs_carry_mcl_metrics(self, smoke_results):
        # The bench records MLR-MCL convergence behaviour per run via
        # the metrics registry (schema v2): iteration count and the
        # finest-level prune fraction.
        cluster_runs = [
            r for r in smoke_results["runs"] if r["kind"] == "cluster"
        ]
        assert cluster_runs
        for run in cluster_runs:
            assert run["metrics"]["mcl_iterations"] >= 1
            assert 0.0 <= run["metrics"]["mcl_prune_fraction"] <= 1.0
            assert run["metrics"]["mcl_final_flow_nnz"] > 0

    def test_symmetrize_runs_carry_engine_metrics(self, smoke_results):
        sym_runs = [
            r for r in smoke_results["runs"] if r["kind"] == "symmetrize"
        ]
        for run in sym_runs:
            assert "edges_pruned_total" in run["metrics"]
            assert "symmetrize_nnz_out" in run["metrics"]

    def test_backends_produce_same_edges(self, smoke_results):
        edges = {
            r["backend"]: r["edges_out"]
            for r in smoke_results["runs"]
            if r["kind"] == "symmetrize"
        }
        assert edges["python"] == edges["vectorized"]

    def test_write_and_summary(self, smoke_results, tmp_path):
        path = write_bench(smoke_results, tmp_path / "bench.json")
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == BENCH_SCHEMA
        text = format_summary(smoke_results)
        assert "speedup" in text
        assert "regression: PASS" in text

    def test_rejects_empty_sweep(self):
        with pytest.raises(ReproError, match="at least one"):
            run_bench(sizes=[])


class TestBenchCli:
    def test_bench_subcommand(self, tmp_path, capsys):
        out = tmp_path / "BENCH_allpairs.json"
        code = main(
            [
                "bench",
                "--smoke",
                "--sizes",
                "400",
                "-t",
                "0.3",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        results = json.loads(out.read_text())
        assert results["schema"] == BENCH_SCHEMA
        assert results["config"]["sizes"] == [400]
        captured = capsys.readouterr().out
        assert "results written to" in captured
        assert "regression: PASS" in captured

    def test_bench_runlog_manifest(self, tmp_path, capsys):
        from repro.obs.manifest import read_manifests

        out = tmp_path / "bench.json"
        log = tmp_path / "bench_runs.jsonl"
        code = main(
            [
                "bench",
                "--smoke",
                "--sizes",
                "400",
                "-t",
                "0.3",
                "-o",
                str(out),
                "--runlog",
                str(log),
            ]
        )
        assert code == 0
        manifests = read_manifests(log)
        assert len(manifests) == 1
        manifest = manifests[0]
        assert manifest.kind == "bench"
        assert manifest.metrics["regression_passed"] == 1.0
        assert any(
            name.startswith("cluster.mcl_iterations")
            for name in manifest.metrics
        )
        assert manifest.timings  # one entry per benched run
