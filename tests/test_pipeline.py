"""Unit tests for :mod:`repro.pipeline` (pipeline, sweeps, report)."""

import json

import numpy as np
import pytest

from repro.cluster import MetisClusterer
from repro.engine.stages import SymmetrizeStage
from repro.exceptions import ClusteringError, PipelineError
from repro.graph.generators import power_law_digraph
from repro.linalg.allpairs import DEFAULT_BLOCK_SIZE
from repro.obs.manifest import MANIFEST_SCHEMA
from repro.obs.trace import tracing
from repro.pipeline import (
    SymmetrizeClusterPipeline,
    format_series,
    format_table,
    sweep_alpha_beta,
    sweep_n_clusters,
    sweep_threshold,
)
from repro.symmetrize import NaiveSymmetrization


class TestPipeline:
    def test_end_to_end(self, cora_small):
        pipe = SymmetrizeClusterPipeline("degree_discounted", "metis")
        result = pipe.run(
            cora_small.graph,
            n_clusters=12,
            ground_truth=cora_small.ground_truth,
        )
        assert result.clustering.n_clusters == 12
        assert result.average_f is not None
        assert result.average_f > 20.0
        assert result.symmetrize_seconds > 0
        assert result.cluster_seconds > 0
        assert result.total_seconds == pytest.approx(
            result.symmetrize_seconds + result.cluster_seconds
        )

    def test_instances_accepted(self, cora_small):
        pipe = SymmetrizeClusterPipeline(
            NaiveSymmetrization(), MetisClusterer()
        )
        result = pipe.run(cora_small.graph, n_clusters=5)
        assert result.clustering.n_clusters == 5
        assert result.average_f is None

    def test_precomputed_symmetrization_reused(self, cora_small):
        pipe = SymmetrizeClusterPipeline("naive", "metis")
        undirected = pipe.symmetrize(cora_small.graph)
        result = pipe.run(
            cora_small.graph, n_clusters=4, symmetrized=undirected
        )
        assert result.symmetrize_seconds == 0.0
        assert result.symmetrized is undirected

    def test_threshold_applied(self, cora_small):
        dense = SymmetrizeClusterPipeline(
            "degree_discounted", "metis"
        ).symmetrize(cora_small.graph)
        sparse = SymmetrizeClusterPipeline(
            "degree_discounted", "metis", threshold=0.05
        ).symmetrize(cora_small.graph)
        assert sparse.n_edges < dense.n_edges

    def test_rejects_bad_components(self):
        with pytest.raises(ClusteringError):
            SymmetrizeClusterPipeline(42, "metis")
        with pytest.raises(ClusteringError):
            SymmetrizeClusterPipeline("naive", 42)

    def test_unknown_tuning_string_rejected(self):
        with pytest.raises(PipelineError):
            SymmetrizeClusterPipeline(
                "degree_discounted", "mlrmcl", tuning="aggressive"
            )

    def test_tuning_auto_matches_untuned(self):
        graph = power_law_digraph(400, np.random.default_rng(3))
        untuned = SymmetrizeClusterPipeline(
            "degree_discounted", "mlrmcl", threshold=0.25
        ).run(graph, n_clusters=8)
        with tracing() as tracer:
            tuned = SymmetrizeClusterPipeline(
                "degree_discounted",
                "mlrmcl",
                threshold=0.25,
                tuning="auto",
            ).run(graph, n_clusters=8)
        # auto ran the pruned kernel, yet labels are unchanged.
        assert tracer.find("symmetrize:degree_discounted_pruned")
        np.testing.assert_array_equal(
            untuned.clustering.labels, tuned.clustering.labels
        )

    def test_manifest_v4_tuning_section(self, tmp_path):
        graph = power_law_digraph(400, np.random.default_rng(3))
        log = tmp_path / "runs.jsonl"
        untuned = SymmetrizeClusterPipeline(
            "degree_discounted", "mlrmcl", threshold=0.25
        ).run(graph, n_clusters=8)
        tuned = SymmetrizeClusterPipeline(
            "degree_discounted", "mlrmcl", threshold=0.25, tuning="auto"
        ).run(graph, n_clusters=8, manifest_path=log)
        assert untuned.tuning == {"enabled": False}
        assert tuned.tuning == {
            "enabled": True,
            "chosen": {"block_size": DEFAULT_BLOCK_SIZE, "n_jobs": None},
        }
        payload = json.loads(log.read_text().splitlines()[0])
        assert payload["schema"] == MANIFEST_SCHEMA
        assert payload["tuning"] == tuned.tuning

    def test_pruned_knobs_boundaries(self, monkeypatch):
        knobs = SymmetrizeStage.pruned_knobs
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        assert knobs(49_999, 0)["block_size"] == DEFAULT_BLOCK_SIZE
        assert knobs(50_000, 0)["block_size"] == 2048
        assert knobs(10, 1_999_999)["n_jobs"] is None
        assert knobs(10, 2_000_000)["n_jobs"] == 4
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert knobs(10, 2_000_000)["n_jobs"] == 2
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        assert knobs(10, 2_000_000)["n_jobs"] is None

    def test_pruned_flag_keeps_fingerprint(self):
        plain = SymmetrizeStage("degree_discounted", threshold=0.05)
        pruned = SymmetrizeStage(
            "degree_discounted", threshold=0.05, pruned=True
        )
        # Pinned so artifact keys and service job ids written by
        # earlier versions still resolve.
        assert plain.fingerprint() == pruned.fingerprint() == (
            "55452163967d4178b9a2e08a706bfbeffffa1ae48280dab80e8b3e1eb4a7fed6"
        )

    def test_repr(self):
        pipe = SymmetrizeClusterPipeline("naive", "metis", threshold=0.5)
        assert "0.5" in repr(pipe)


class TestSweeps:
    def test_sweep_n_clusters(self, cora_small):
        points = sweep_n_clusters(
            cora_small.graph,
            "naive",
            "metis",
            cluster_counts=[4, 8],
            ground_truth=cora_small.ground_truth,
        )
        assert len(points) == 2
        assert points[0].parameter == 4
        assert points[0].n_clusters == 4
        assert points[1].n_clusters == 8
        assert all(p.average_f is not None for p in points)
        assert all(p.cluster_seconds > 0 for p in points)

    def test_sweep_without_ground_truth(self, cora_small):
        points = sweep_n_clusters(
            cora_small.graph, "naive", "metis", cluster_counts=[4]
        )
        assert points[0].average_f is None

    def test_sweep_threshold_edges_decrease(self, cora_small):
        points = sweep_threshold(
            cora_small.graph,
            thresholds=[0.0, 0.03, 0.08],
            clusterer="metis",
            n_clusters=8,
            ground_truth=cora_small.ground_truth,
        )
        edges = [p.n_edges for p in points]
        assert edges == sorted(edges, reverse=True)

    def test_sweep_alpha_beta(self, cora_small):
        points = sweep_alpha_beta(
            cora_small.graph,
            configurations=[(0.5, 0.5), (0.0, 0.0), ("log", "log")],
            clusterer="metis",
            n_clusters=8,
            ground_truth=cora_small.ground_truth,
            threshold=0.01,
        )
        assert len(points) == 3
        assert points[0].parameter == (0.5, 0.5)
        assert all(p.average_f is not None for p in points)


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(
            ["name", "value"],
            [["a", 1.0], ["longer", 23.456]],
            title="Table X",
        )
        lines = out.splitlines()
        assert lines[0] == "Table X"
        assert "name" in lines[1]
        assert "23.46" in lines[-1]

    def test_format_table_empty_rows(self):
        out = format_table(["h1"], [])
        assert "h1" in out

    def test_format_series(self):
        out = format_series("dd", [10, 20], [1.5, 2.5], "k", "F")
        assert "dd" in out
        assert "10:1.50" in out
        assert "[k -> F]" in out
