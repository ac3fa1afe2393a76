"""Pruning symmetrized graphs and choosing prune thresholds (§3.5, §5.3.1).

For big real-world graphs the full similarity matrix has far too many
non-zeros to cluster, so entries below a *prune threshold* are dropped.
The paper observes that choosing a workable threshold is easy for the
degree-discounted matrix (hub entries no longer dominate) and nearly
impossible for the raw bibliometric matrix (sparse-enough thresholds
strand ~50% of the nodes as singletons — §5.3, Table 2).

Threshold selection follows §5.3.1: compute the similarities for a
small random sample of nodes and pick the threshold whose resulting
average degree on the sample approximates the average degree the user
wants (50–150 is typical, matching natural cluster sizes [15]).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SymmetrizationError
from repro.graph.ugraph import UndirectedGraph
from repro.linalg.sparse_utils import prune_matrix, sample_rows_similarity

__all__ = ["prune_graph", "choose_threshold_for_degree", "singleton_fraction"]


def prune_graph(
    graph: UndirectedGraph, threshold: float
) -> UndirectedGraph:
    """Drop edges with weight strictly below ``threshold``."""
    pruned = prune_matrix(graph.adjacency, threshold)
    return UndirectedGraph(
        pruned, node_names=graph.node_names, validate=False
    )


def choose_threshold_for_degree(
    graph: UndirectedGraph,
    target_avg_degree: float,
    n_samples: int = 200,
    rng: np.random.Generator | None = None,
) -> float:
    """Pick a prune threshold giving roughly ``target_avg_degree``.

    Implements the §5.3.1 recipe: sample ``n_samples`` rows of the
    similarity matrix, pool their non-zero values, and return the value
    such that keeping entries above it leaves each sampled node with
    ``target_avg_degree`` neighbours on average.

    Returns 0.0 when the graph is already at or below the target
    density (no pruning needed).
    """
    if target_avg_degree <= 0:
        raise SymmetrizationError("target_avg_degree must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    csr = graph.adjacency.tocsr()
    n = csr.shape[0]
    if n == 0 or csr.nnz == 0:
        return 0.0
    n_samples = min(max(1, n_samples), n)
    values = sample_rows_similarity(csr, n_samples, rng)
    if values.size == 0:
        return 0.0
    avg_degree = values.size / n_samples
    if avg_degree <= target_avg_degree:
        return 0.0
    # Keep the top (target * n_samples) values among the sampled entries.
    n_keep = int(round(target_avg_degree * n_samples))
    n_keep = min(max(n_keep, 1), values.size)
    # Threshold at the n_keep-th largest sampled value.
    return float(np.partition(values, -n_keep)[-n_keep])


def singleton_fraction(graph: UndirectedGraph) -> float:
    """Fraction of nodes with no incident edges after pruning.

    The §5.3 failure metric for Bibliometric symmetrization: at an edge
    budget matched to Degree-discounted (~80M edges on Wikipedia), the
    pruned bibliometric graph strands nearly 50% of nodes as singletons
    while the degree-discounted graph strands almost none.
    """
    if graph.n_nodes == 0:
        return 0.0
    return graph.isolated_nodes().size / graph.n_nodes
