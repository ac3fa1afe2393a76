"""The full-matrix ``Symmetrization.apply`` path: pinned arrays and memory.

``apply`` prunes (§3.5), drops the diagonal and averages ``U`` with its
transpose. The golden file pins the exact CSR arrays (sha256 of the
``indptr``/``indices``/``data`` bytes plus their dtypes) and the
symmetrize metrics for every built-in method × threshold {0, median
entry, 98th-percentile entry} × ``drop_self_loops`` on three graphs, so
any rewrite of that tail must be array-identical, not just
edge-equivalent.

Regenerate ``tests/data/symmetrize_apply_golden.json`` only for an
intended output change::

    PYTHONPATH=src python tests/test_symmetrize_apply.py
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import make_cora_like, make_wikipedia_like
from repro.graph.generators import power_law_digraph
from repro.obs.metrics import metrics_active
from repro.symmetrize import (
    DegreeDiscountedSymmetrization,
    get_symmetrization,
)

GOLDEN = Path(__file__).parent / "data" / "symmetrize_apply_golden.json"

METHODS = ("naive", "random_walk", "bibliometric", "degree_discounted")
THRESHOLDS = ("zero", "median", "p98")
GRAPHS = {
    "cora": lambda: make_cora_like(3000, seed=0).graph,
    "wiki": lambda: make_wikipedia_like(1000, seed=0).graph,
    "powerlaw": lambda: power_law_digraph(
        3000, np.random.default_rng(1), d_max=60
    ),
}
METRICS = ("edges_pruned_total", "symmetrize_nnz_raw", "symmetrize_nnz_out")


def _digest(array: np.ndarray) -> dict[str, str]:
    return {
        "dtype": str(array.dtype),
        "sha256": hashlib.sha256(array.tobytes()).hexdigest(),
    }


def _thresholds(sym, graph) -> dict[str, float]:
    values = sym.compute_matrix(graph).data
    return {
        "zero": 0.0,
        "median": float(np.median(values)),
        "p98": float(np.percentile(values, 98)),
    }


def _record(graph_key: str) -> dict[str, dict[str, object]]:
    """Arrays and metrics of every case on one graph, keyed by case."""
    graph = GRAPHS[graph_key]()
    out: dict[str, dict[str, object]] = {}
    for method in METHODS:
        sym = get_symmetrization(method)
        thresholds = _thresholds(sym, graph)
        for label in THRESHOLDS:
            for drop in (True, False):
                with metrics_active() as reg:
                    adj = sym.apply(
                        graph,
                        threshold=thresholds[label],
                        drop_self_loops=drop,
                    ).adjacency
                flat = reg.flat()
                out[f"{method}/{label}/drop={drop}"] = {
                    "threshold": thresholds[label],
                    "nnz": int(adj.nnz),
                    "indptr": _digest(adj.indptr),
                    "indices": _digest(adj.indices),
                    "data": _digest(adj.data),
                    "metrics": {name: flat.get(name) for name in METRICS},
                }
    return out


class TestApplyFullPath:
    @pytest.mark.parametrize("graph_key", sorted(GRAPHS))
    def test_golden_arrays(self, graph_key):
        golden = json.loads(GOLDEN.read_text())[graph_key]
        got = _record(graph_key)
        assert sorted(got) == sorted(golden)
        for case, expected in golden.items():
            assert got[case] == expected, case

    def test_peak_memory_bound(self):
        # The whole apply, not just compute_matrix: a per-entry Python
        # object round trip (LIL) or an extra full-size copy in the
        # prune/diagonal/averaging tail pushes the peak past 7x.
        graph = make_cora_like(3000, seed=0).graph
        sym = DegreeDiscountedSymmetrization()
        tracemalloc.start()
        try:
            adj = sym.apply(graph).adjacency
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out_bytes = adj.indptr.nbytes + adj.indices.nbytes + adj.data.nbytes
        assert peak <= 7 * out_bytes, (peak, out_bytes, peak / out_bytes)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({key: _record(key) for key in sorted(GRAPHS)}, indent=1)
        + "\n"
    )
