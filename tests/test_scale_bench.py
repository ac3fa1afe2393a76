"""Tests of the out-of-core symmetrize → prune path at miniature
scale: mmap-backed power-law graphs of a few thousand nodes pruned
through the sharded fan-out, with the fan-out's gauges checked on each
run. The ~50k-node configuration under a memory ceiling is the opt-in
``scale_smoke`` test in ``tests/test_linalg_mmcsr.py``."""

import numpy as np
import pytest

from repro.graph.generators import power_law_mmcsr
from repro.obs.metrics import MetricsRegistry, metrics_active
from repro.symmetrize.degree_discounted import (
    DegreeDiscountedSymmetrization,
)


class TestScaleBenchMini:
    @pytest.fixture(scope="class")
    def mini_points(self, tmp_path_factory):
        # Two tiny sizes, two shard workers, small blocks: enough to
        # exercise the mmap store and the sharded fan-out.
        workdir = tmp_path_factory.mktemp("scale")
        sym = DegreeDiscountedSymmetrization()
        points = []
        for n_nodes in (1500, 3000):
            graph = power_law_mmcsr(
                n_nodes,
                workdir / f"graph-{n_nodes}.mmcsr",
                np.random.default_rng(0),
                d_max=100,
            )
            registry = MetricsRegistry()
            with metrics_active(registry):
                pruned = sym.apply_pruned(
                    graph, 0.5, block_size=256, n_jobs=2
                )
            points.append(
                {
                    "n_nodes": graph.n_nodes,
                    "edges_out": pruned.n_edges,
                    "metrics": registry.flat(),
                }
            )
        return points

    def test_points_carry_shard_metrics(self, mini_points):
        assert [p["n_nodes"] for p in mini_points] == [1500, 3000]
        for point in mini_points:
            assert point["metrics"]["shard_count"] >= 1
            assert point["metrics"]["peak_rss_bytes"] > 0
            assert "shard_bytes_spilled" in point["metrics"]
