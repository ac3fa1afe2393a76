"""Tests for the instrumentation the library emits through
:mod:`repro.obs`: the span attributes and metric names ``perfbench``
reads."""

import importlib
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cluster.mlrmcl import MLRMCL
from repro.graph.generators import power_law_digraph
from repro.linalg.allpairs import thresholded_gram_matrix
from repro.linalg.sparse_utils import TIE_RTOL
from repro.obs.metrics import MetricsRegistry, metrics_active
from repro.obs.trace import Span, tracing
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
    """The seconds-scale symmetrize → cluster smoke: one 2k-node
    power-law graph at threshold 0.5 through ``apply_pruned`` on both
    all-pairs backends, then MLR-MCL on the vectorized output, each
    run under its own metrics registry."""

    @pytest.fixture(scope="class")
    def smoke_runs(self):
        g = power_law_digraph(2000, np.random.default_rng(0))
        sym = DegreeDiscountedSymmetrization()
        runs, outputs = {}, {}
        for backend in ("python", "vectorized"):
            registry = MetricsRegistry()
            with metrics_active(registry):
                t0 = time.perf_counter()
                outputs[backend] = sym.apply_pruned(
                    g, 0.5, backend=backend
                )
                seconds = time.perf_counter() - t0
            runs[backend] = {
                "seconds": seconds,
                "edges_out": outputs[backend].n_edges,
                "metrics": registry.flat(),
            }
        registry = MetricsRegistry()
        with metrics_active(registry):
            MLRMCL().cluster(outputs["vectorized"])
        runs["mlrmcl"] = {"metrics": registry.flat()}
        return runs

    def test_vectorized_not_slower_than_python(self, smoke_runs):
        python = smoke_runs["python"]["seconds"]
        vectorized = smoke_runs["vectorized"]["seconds"]
        assert vectorized <= python, (vectorized, python)

    def test_cluster_runs_carry_mcl_metrics(self, smoke_runs):
        metrics = smoke_runs["mlrmcl"]["metrics"]
        assert metrics["mcl_iterations"] >= 1
        assert 0.0 <= metrics["mcl_prune_fraction"] <= 1.0
        assert metrics["mcl_final_flow_nnz"] > 0

    def test_symmetrize_runs_carry_engine_metrics(self, smoke_runs):
        for backend in ("python", "vectorized"):
            metrics = smoke_runs[backend]["metrics"]
            assert "edges_pruned_total" in metrics, backend
            assert "symmetrize_nnz_out" in metrics, backend

    def test_backends_produce_same_edges(self, smoke_runs):
        assert smoke_runs["python"]["edges_out"] > 0
        assert (
            smoke_runs["python"]["edges_out"]
            == smoke_runs["vectorized"]["edges_out"]
        )
