"""Multi-Level Regularized Markov CLustering (MLR-MCL).

A from-scratch implementation of Satuluri & Parthasarathy's KDD'09
algorithm — the primary stage-2 clusterer of the paper (it produced the
best peak F-scores on both Cora and Wikipedia, Figures 5–8).

R-MCL iterates a column-stochastic *flow matrix* ``M`` (column ``j`` is
node ``j``'s out-flow distribution), initialized to the canonical
transition matrix ``M_G`` of the graph (with self-loops added for
stability):

1. **Regularize**: ``M := M @ M_G`` — each node's new flow is the
   average of its neighbours' current flows, weighted by ``M_G``. This
   replaces plain MCL's expansion ``M := M**2`` and prevents the
   massive-cluster / fragmentation pathologies of MCL.
2. **Inflate**: raise entries to the power ``r`` column-wise and
   re-normalize, strengthening strong flows. Larger ``r`` yields more,
   smaller clusters — which is why the paper can only *indirectly*
   control MLR-MCL's cluster count (§4.2).
3. **Prune**: drop tiny entries per column to retain sparsity.

Steps 1–3 run over blocks of ``M_G``'s columns, each pruned before the
next is expanded, so the unpruned product is never held whole.

At convergence each column is (nearly) concentrated on one *attractor*
row; nodes sharing an attractor (transitively) form a cluster.

The multi-level wrapper coarsens the graph by heavy-edge matching,
runs R-MCL on the coarsest graph, and projects the flow values to each
finer level as the initialization for further R-MCL iterations there —
which is both faster and better-quality than flat R-MCL.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.cluster.coarsen import build_hierarchy
from repro.cluster.common import (
    Clustering,
    GraphClusterer,
    register_clusterer,
)
from repro.exceptions import ClusteringError
from repro.graph.ugraph import UndirectedGraph
from repro.linalg.sparse_utils import product_row_spans
from repro.obs.metrics import metric_inc, metric_set
from repro.obs.trace import span

__all__ = ["MLRMCL"]

#: Ceiling, in entries, on the estimated fill of one column block of
#: the expansion ``flow @ m_g`` (about the all-pairs kernel's
#: candidate ceiling). Each block is inflated and pruned before the
#: next one is computed, so the unpruned product, an order of
#: magnitude larger than the pruned flow at paper density, is never
#: materialized whole.
_MAX_EXPAND_ENTRIES = 4_000_000


def _column_scale(matrix: sp.csc_array, factors: np.ndarray) -> None:
    """In-place multiply each column's data by ``factors[col]``."""
    counts = np.diff(matrix.indptr)
    matrix.data *= np.repeat(factors, counts)


def _column_normalize(matrix: sp.csc_array) -> sp.csc_array:
    """Make every non-empty column sum to 1 (in place; returns input)."""
    sums = np.asarray(matrix.sum(axis=0)).ravel()
    inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums != 0)
    _column_scale(matrix, inv)
    return matrix


def _column_max(matrix: sp.csc_array) -> np.ndarray:
    """Per-column maximum entry (0 for empty columns)."""
    n = matrix.shape[1]
    out = np.zeros(n)
    counts = np.diff(matrix.indptr)
    nonempty = np.flatnonzero(counts)
    if nonempty.size == 0:
        return out
    out[nonempty] = np.maximum.reduceat(
        matrix.data, matrix.indptr[nonempty]
    )
    return out


def _prune_columns(
    matrix: sp.csc_array, keep_fraction: float
) -> sp.csc_array:
    """Drop entries below ``keep_fraction`` of their column maximum.

    Assembles the pruned CSC directly from the kept entries — they
    stay in column-major, row-sorted order, so no COO round-trip (and
    its re-sort) is needed.
    """
    if matrix.nnz == 0:
        return matrix
    col_max = _column_max(matrix)
    n_cols = matrix.shape[1]
    counts = np.diff(matrix.indptr)
    thresholds = np.repeat(col_max * keep_fraction, counts)
    keep = matrix.data >= thresholds
    if keep.all():
        return matrix
    kept_counts = np.bincount(
        np.repeat(np.arange(n_cols), counts)[keep], minlength=n_cols
    )
    indptr = np.concatenate(([0], np.cumsum(kept_counts)))
    return sp.csc_array(
        (matrix.data[keep], matrix.indices[keep], indptr),
        shape=matrix.shape,
    )


def _canonical_flow(
    adjacency: sp.csr_array, self_loop: float
) -> sp.csc_array:
    """Column-stochastic transition matrix ``M_G`` with self-loops.

    The self-loop of each node is ``self_loop`` times its maximum
    incident edge weight (at least a small epsilon for isolated
    nodes), keeping flow retention scale-invariant under edge-weight
    scaling.
    """
    adj = adjacency.tocsr()
    row_max = np.zeros(adj.shape[0])
    counts = np.diff(adj.indptr)
    nonempty = np.flatnonzero(counts)
    if nonempty.size:
        row_max[nonempty] = np.maximum.reduceat(
            adj.data, adj.indptr[nonempty]
        )
    loops = self_loop * np.maximum(row_max, 1e-12)
    with_loops = (adj + sp.diags_array(loops)).tocsc()
    return _column_normalize(with_loops)


def _attractor_labels(matrix: sp.csc_array) -> np.ndarray:
    """Cluster labels from a converged flow matrix.

    Node ``j`` is attached to its attractor ``argmax_i M[i, j]``; the
    clusters are the weakly connected components of the resulting
    attachment graph (so chains of attractors merge, the standard MCL
    interpretation).
    """
    n = matrix.shape[1]
    attractor = np.arange(n, dtype=np.int64)
    counts = np.diff(matrix.indptr)
    nonempty = np.flatnonzero(counts)
    if nonempty.size:
        # Segmented argmax, matching np.argmax's first-max tie rule:
        # flag every in-column maximum, then take the first flagged
        # position at or after each column start.
        starts = matrix.indptr[nonempty]
        col_max = np.maximum.reduceat(matrix.data, starts)
        at_max = matrix.data == np.repeat(col_max, counts[nonempty])
        max_positions = np.flatnonzero(at_max)
        firsts = max_positions[
            np.searchsorted(max_positions, starts)
        ]
        attractor[nonempty] = matrix.indices[firsts]
    attach = sp.coo_array(
        (np.ones(n), (np.arange(n), attractor)), shape=(n, n)
    )
    _, labels = sp.csgraph.connected_components(
        attach, directed=True, connection="weak"
    )
    return labels


def _rmcl_iterations(
    flow: sp.csc_array,
    m_g: sp.csc_array,
    inflation: float,
    n_iter: int,
    prune_fraction: float,
    stop_at_k: int | None = None,
) -> sp.csc_array:
    """Run up to ``n_iter`` R-MCL iterations.

    The regularized flow coarsens monotonically as it iterates (each
    round merges attractor basins), so iteration count doubles as a
    granularity knob. Iterations stop early when

    - the attractor labelling is stable across two rounds (the flow's
      natural plateau — structure boundaries the walk cannot cross), or
    - ``stop_at_k`` is given and the attractor count has decayed to at
      most that many clusters (*curtailed* R-MCL: the caller wants
      that granularity, so further coarsening only loses clusters).
    """
    prev_labels = None
    performed = 0
    entries_seen = 0
    entries_pruned = 0
    n_blocks = 0
    block_entries_max = 0
    for _ in range(n_iter):
        # Column j of flow @ m_g is built from column j of m_g alone,
        # and inflation, pruning and normalization all work per
        # column, so expanding over blocks of m_g's columns gives the
        # whole-matrix result bit for bit. Rows of m_g.T are columns
        # of m_g, and flow's column counts bound each block's fill.
        spans = product_row_spans(
            m_g.T, np.diff(flow.indptr), _MAX_EXPAND_ENTRIES
        )
        parts = []
        for a, b in spans:
            part = (flow @ m_g[:, a:b]).tocsc()  # regularize
            nnz_pre_prune = part.nnz
            block_entries_max = max(block_entries_max, nnz_pre_prune)
            part.data **= inflation  # inflate
            part = _prune_columns(_column_normalize(part), prune_fraction)
            entries_seen += nnz_pre_prune
            entries_pruned += nnz_pre_prune - part.nnz
            parts.append(_column_normalize(part))
        n_blocks += len(spans)
        flow = sp.hstack(parts, format="csc")
        performed += 1
        labels = _attractor_labels(flow)
        if stop_at_k is not None:
            n_clusters = np.unique(labels).size
            if n_clusters <= stop_at_k:
                break
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels
    metric_inc("mcl_iterations", performed)
    metric_inc("mcl_expand_blocks", n_blocks)
    metric_inc("mcl_entries_pruned_total", entries_pruned)
    metric_set("mcl_final_flow_nnz", flow.nnz)
    # Gauge semantics (last write wins) make these the *finest-level*
    # largest expansion block and prune fraction once the multi-level
    # wrapper finishes — the figures that explain per-iteration memory
    # and cost in a benchmark's trace.
    metric_set("mcl_expand_block_entries_max", block_entries_max)
    metric_set(
        "mcl_prune_fraction",
        entries_pruned / entries_seen if entries_seen else 0.0,
    )
    return flow


@register_clusterer("mlrmcl")
class MLRMCL(GraphClusterer):
    """Multi-Level Regularized Markov CLustering.

    Parameters
    ----------
    inflation:
        Inflation exponent ``r``; larger gives more, smaller clusters.
        The paper's experiments sweep this to vary the cluster count.
    coarsen_to:
        Coarsen the graph to at most this many nodes before running
        R-MCL at the coarsest level.
    iterations_coarse:
        R-MCL iterations at the coarsest level.
    iterations_per_level:
        R-MCL iterations at each intermediate level while uncoarsening.
    iterations_finest:
        Iteration budget at the finest (input) level.
    prune_fraction:
        Per-column pruning: entries below this fraction of the column
        maximum are dropped each iteration.
    self_loop:
        Self-loop strength in the canonical transition matrix.
    seed:
        Seed of the coarsening random generator.

    Notes
    -----
    Cluster-count control: the regularized flow coarsens monotonically
    as it iterates, so when ``cluster()`` is called *with* a target
    ``n_clusters``, iterations are curtailed once the attractor count
    decays to the target — the granularity remains only indirectly
    controlled (the result can overshoot in either direction, §4.2 of
    the paper), but lands near the request on graphs with real
    structure. Without a target, iterations run to the flow's natural
    plateau.
    """

    def __init__(
        self,
        inflation: float = 2.0,
        coarsen_to: int = 1000,
        iterations_coarse: int = 30,
        iterations_per_level: int = 5,
        iterations_finest: int = 40,
        prune_fraction: float = 0.01,
        self_loop: float = 1.0,
        seed: int = 0,
    ) -> None:
        # NaN fails every comparison, so a bare ``inflation <= 1``
        # would let it through.
        if not (np.isfinite(inflation) and inflation > 1.0):
            raise ClusteringError("inflation must be finite and > 1")
        if not 0 <= prune_fraction < 1:
            raise ClusteringError("prune_fraction must lie in [0, 1)")
        if not (np.isfinite(self_loop) and self_loop >= 0):
            raise ClusteringError("self_loop must be finite and >= 0")
        if coarsen_to < 1:
            raise ClusteringError("coarsen_to must be >= 1")
        for name, value in (
            ("iterations_coarse", iterations_coarse),
            ("iterations_per_level", iterations_per_level),
            ("iterations_finest", iterations_finest),
        ):
            if value < 0:
                raise ClusteringError(f"{name} must be >= 0")
        self.inflation = float(inflation)
        self.coarsen_to = int(coarsen_to)
        self.iterations_coarse = int(iterations_coarse)
        self.iterations_per_level = int(iterations_per_level)
        self.iterations_finest = int(iterations_finest)
        self.prune_fraction = float(prune_fraction)
        self.self_loop = float(self_loop)
        self.seed = int(seed)

    def _cluster(
        self, graph: UndirectedGraph, n_clusters: int | None
    ) -> Clustering:
        rng = np.random.default_rng(self.seed)
        adj = graph.adjacency.tocsr()
        with span("coarsen") as sp_:
            hierarchy = build_hierarchy(
                adj, rng, min_nodes=self.coarsen_to
            )
            sp_.set(levels=len(hierarchy.graphs))
        # Coarsest level: start from the canonical flow itself. The
        # coarse run is curtailed well above the target granularity so
        # the fine levels keep room to refine *and* coarsen.
        coarse_stop = None if n_clusters is None else 4 * n_clusters
        m_g = _canonical_flow(hierarchy.graphs[-1], self.self_loop)
        with span("rmcl:coarsest") as sp_:
            flow = _rmcl_iterations(
                m_g.copy(),
                m_g,
                self.inflation,
                self.iterations_coarse,
                self.prune_fraction,
                stop_at_k=coarse_stop,
            )
            sp_.set(n_nodes=m_g.shape[0], flow_nnz=flow.nnz)
        for level in range(len(hierarchy.mappings) - 1, -1, -1):
            mapping = hierarchy.mappings[level]
            n_fine = mapping.size
            # Project flow: fine node inherits its super-node's column
            # and rows expand to all fine members of each coarse row.
            S = sp.csr_array(
                (
                    np.ones(n_fine),
                    (np.arange(n_fine), mapping),
                ),
                shape=(n_fine, flow.shape[0]),
            )
            flow = (S @ flow @ S.T).tocsc()
            flow = _column_normalize(flow)
            m_g = _canonical_flow(hierarchy.graphs[level], self.self_loop)
            n_iter = (
                self.iterations_finest
                if level == 0
                else self.iterations_per_level
            )
            stop = n_clusters if level == 0 else coarse_stop
            with span(f"rmcl:level[{level}]") as sp_:
                flow = _rmcl_iterations(
                    flow,
                    m_g,
                    self.inflation,
                    n_iter,
                    self.prune_fraction,
                    stop_at_k=stop,
                )
                sp_.set(n_nodes=n_fine, flow_nnz=flow.nnz)
        return Clustering(_attractor_labels(flow))

    def __repr__(self) -> str:
        return f"MLRMCL(inflation={self.inflation})"
