"""Random directed-graph generators.

These primitives are composed by :mod:`repro.datasets.synthetic` into
stand-ins for the paper's four datasets (Wikipedia, Cora, Flickr,
LiveJournal). Each generator produces phenomena the paper's analysis
depends on:

- :func:`directed_sbm` — planted cluster structure via direct links
  (the signal `A + Aᵀ` symmetrization can see).
- :func:`shared_neighbor_clusters` — clusters whose members share in-
  and out-neighbours *without linking to each other* (the Figure-1 /
  Guzmania signal that only similarity-based symmetrizations see).
- :func:`power_law_digraph` — heavy-tailed in/out degrees.
- :func:`add_global_hubs` — "Area"/"Population density"-style hub nodes
  that poison the Bibliometric symmetrization (§3.5, Table 5).
- :func:`kronecker_digraph` — the stochastic Kronecker model the paper
  cites [14] as a realistic directed generator (without ground truth).
- :func:`reciprocate_edges` — controls the percentage of symmetric
  links (Table 1's reciprocity column).

All generators take a ``numpy.random.Generator`` for reproducibility.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import DatasetError
from repro.graph.digraph import DirectedGraph

__all__ = [
    "directed_sbm",
    "power_law_digraph",
    "power_law_edge_chunks",
    "power_law_mmcsr",
    "shared_neighbor_clusters",
    "add_global_hubs",
    "add_link_farm",
    "reciprocate_edges",
    "kronecker_digraph",
    "sample_power_law_degrees",
    "figure1_graph",
    "combine",
]


def _sample_block_edges(
    rng: np.random.Generator,
    row_nodes: np.ndarray,
    col_nodes: np.ndarray,
    p: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample edges of an Erdős–Rényi block with density ``p``.

    Samples ``Binomial(|rows|*|cols|, p)`` endpoint pairs with
    replacement; duplicates are merged by the sparse-matrix sum later,
    which slightly thins very dense blocks — irrelevant at the densities
    used here and standard for sparse SBM samplers.
    """
    n_pairs = row_nodes.size * col_nodes.size
    if n_pairs == 0 or p <= 0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    m = rng.binomial(n_pairs, min(p, 1.0))
    if m == 0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    rows = row_nodes[rng.integers(0, row_nodes.size, size=m)]
    cols = col_nodes[rng.integers(0, col_nodes.size, size=m)]
    return rows, cols


def directed_sbm(
    sizes: list[int],
    p_in: float,
    p_out: float,
    rng: np.random.Generator,
    p_matrix: np.ndarray | None = None,
) -> tuple[DirectedGraph, np.ndarray]:
    """Directed stochastic block model.

    Parameters
    ----------
    sizes:
        Number of nodes per block.
    p_in, p_out:
        Edge probability within a block / between blocks. Ignored when
        ``p_matrix`` is given.
    p_matrix:
        Optional explicit ``k x k`` matrix of block-to-block densities.
    rng:
        Random generator.

    Returns
    -------
    (graph, labels):
        The sampled directed graph (self-loops removed, duplicate edges
        merged to weight 1) and the block label of each node.
    """
    if not sizes or min(sizes) <= 0:
        raise DatasetError("sizes must be a non-empty list of positive ints")
    k = len(sizes)
    if p_matrix is None:
        p_matrix = np.full((k, k), p_out, dtype=np.float64)
        np.fill_diagonal(p_matrix, p_in)
    else:
        p_matrix = np.asarray(p_matrix, dtype=np.float64)
        if p_matrix.shape != (k, k):
            raise DatasetError(
                f"p_matrix must be {k}x{k}, got {p_matrix.shape}"
            )
    if p_matrix.min() < 0 or p_matrix.max() > 1:
        raise DatasetError("block densities must lie in [0, 1]")

    n = int(sum(sizes))
    labels = np.repeat(np.arange(k), sizes)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    blocks = [np.arange(offsets[b], offsets[b + 1]) for b in range(k)]

    all_rows: list[np.ndarray] = []
    all_cols: list[np.ndarray] = []
    for bi in range(k):
        for bj in range(k):
            rows, cols = _sample_block_edges(
                rng, blocks[bi], blocks[bj], p_matrix[bi, bj]
            )
            all_rows.append(rows)
            all_cols.append(cols)
    rows = np.concatenate(all_rows) if all_rows else np.array([], dtype=int)
    cols = np.concatenate(all_cols) if all_cols else np.array([], dtype=int)
    keep = rows != cols  # no self-loops
    rows, cols = rows[keep], cols[keep]
    adj = sp.coo_array(
        (np.ones(rows.size), (rows, cols)), shape=(n, n)
    ).tocsr()
    adj.data[:] = 1.0  # merge duplicates to unweighted edges
    return DirectedGraph(adj), labels


def sample_power_law_degrees(
    n: int,
    gamma: float,
    d_min: int,
    d_max: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample ``n`` integer degrees from a truncated power law.

    Uses inverse-transform sampling of the continuous Pareto density
    ``p(d) ~ d^-gamma`` on ``[d_min, d_max]`` and floors to integers —
    the standard way to get heavy-tailed degree sequences.
    """
    if gamma <= 1.0:
        raise DatasetError("power-law exponent gamma must be > 1")
    if not (1 <= d_min <= d_max):
        raise DatasetError("need 1 <= d_min <= d_max")
    u = rng.random(n)
    a = 1.0 - gamma
    lo, hi = float(d_min) ** a, float(d_max + 1) ** a
    degrees = (lo + u * (hi - lo)) ** (1.0 / a)
    return np.minimum(np.floor(degrees).astype(np.int64), d_max)


def power_law_digraph(
    n: int,
    rng: np.random.Generator,
    gamma_out: float = 2.2,
    gamma_in: float = 2.1,
    d_min: int = 2,
    d_max: int | None = None,
) -> DirectedGraph:
    """A directed graph with power-law out- and in-degrees.

    Out-degrees are sampled from a truncated power law; each node's
    targets are drawn (without self-loops) with probability proportional
    to per-node attractiveness weights that are themselves power-law
    distributed, yielding a heavy-tailed in-degree sequence. This is a
    directed "fitness model" — the simplest generator with independently
    tunable in/out tails.
    """
    if n < 2:
        raise DatasetError("power_law_digraph needs n >= 2")
    if d_max is None:
        d_max = max(d_min, int(np.sqrt(n) * 4))
    out_degrees = sample_power_law_degrees(n, gamma_out, d_min, d_max, rng)
    # In-degree attractiveness: Pareto weights with tail index gamma_in-1.
    attractiveness = rng.pareto(gamma_in - 1.0, size=n) + 1.0
    prob = attractiveness / attractiveness.sum()
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    total = int(out_degrees.sum())
    targets = rng.choice(n, size=total, p=prob)
    sources = np.repeat(np.arange(n), out_degrees)
    keep = sources != targets
    rows.append(sources[keep])
    cols.append(targets[keep])
    adj = sp.coo_array(
        (np.ones(keep.sum()), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    adj.data[:] = 1.0
    return DirectedGraph(adj)


def power_law_edge_chunks(
    n: int,
    rng: np.random.Generator,
    gamma_out: float = 2.2,
    gamma_in: float = 2.1,
    d_min: int = 2,
    d_max: int | None = None,
    chunk_edges: int = 1 << 20,
):
    """Yield the edges of a power-law digraph in bounded chunks.

    The same fitness model as :func:`power_law_digraph`, but emitted
    as ``(rows, cols, vals)`` chunks of at most ``chunk_edges`` edges
    so paper-scale graphs (fig. 8–9 run to millions of nodes) can be
    streamed straight into an out-of-core
    :class:`~repro.linalg.mmcsr.MmapCSRBuilder` without ever holding
    the full edge list in RAM — resident state is O(n) degree/weight
    arrays plus one chunk. Self-loops are dropped; duplicate target
    draws survive here and are merged downstream (the builder sums
    them, and :func:`power_law_mmcsr` re-binarizes).

    Unlike :func:`power_law_digraph`, ``d_max`` caps *both* tails:
    out-degrees through the sampled degree sequence, and in-degrees
    by ceiling the target-sampling weights so no node's expected
    in-degree exceeds ``d_max``. The raw Pareto weights (tail index
    ``gamma_in - 1``) concentrate a constant *fraction* of all edges
    on the top target as ``n`` grows, which makes any quantity driven
    by ``sum(d_in^2)`` — notably the all-pairs candidate count —
    scale with hub size rather than ``n``.
    """
    if n < 2:
        raise DatasetError("power_law_edge_chunks needs n >= 2")
    if chunk_edges < 1:
        raise DatasetError("chunk_edges must be >= 1")
    if d_max is None:
        d_max = max(d_min, int(np.sqrt(n) * 4))
    out_degrees = sample_power_law_degrees(n, gamma_out, d_min, d_max, rng)
    n_draws = int(out_degrees.sum())
    attractiveness = rng.pareto(gamma_in - 1.0, size=n) + 1.0
    prob = attractiveness / attractiveness.sum()
    # Ceiling the in-degree tail at d_max expected edges per target.
    # Clipping mass and renormalizing can push other entries over the
    # cap, so iterate; a feasible fixed point always exists because
    # the uniform distribution satisfies n * cap >= 1 (total draws
    # never exceed n * d_max).
    cap = d_max / max(n_draws, 1)
    for _ in range(8):
        over = prob > cap
        if not over.any():
            break
        prob = np.minimum(prob, cap)
        prob /= prob.sum()
    cdf = np.cumsum(prob)
    cdf /= cdf[-1]
    # cum_deg[i] = number of edges emitted by sources < i+1; the
    # source of global edge e is the first i with cum_deg[i] > e.
    cum_deg = np.cumsum(out_degrees)
    total = int(cum_deg[-1])
    for lo in range(0, total, chunk_edges):
        hi = min(lo + chunk_edges, total)
        edge_ids = np.arange(lo, hi, dtype=np.int64)
        sources = np.searchsorted(cum_deg, edge_ids, side="right")
        targets = np.searchsorted(cdf, rng.random(hi - lo))
        keep = sources != targets
        yield (
            sources[keep],
            targets[keep],
            np.ones(int(keep.sum())),
        )


def power_law_mmcsr(
    n: int,
    directory,
    rng: np.random.Generator,
    gamma_out: float = 2.2,
    gamma_in: float = 2.1,
    d_min: int = 2,
    d_max: int | None = None,
    chunk_edges: int = 1 << 20,
) -> DirectedGraph:
    """A power-law digraph built out-of-core under ``directory``.

    Streams :func:`power_law_edge_chunks` into an
    :class:`~repro.linalg.mmcsr.MmapCSRBuilder` and wraps the
    finished store with :meth:`DirectedGraph.from_mmcsr`, so peak
    resident memory stays O(n + chunk) however many edges are drawn
    — the generator behind the 50k-node scale smoke. Edges are
    unweighted: duplicate draws merged by the builder are clamped
    back to weight 1, matching :func:`power_law_digraph`.
    """
    from repro.linalg.mmcsr import MmapCSRBuilder

    with MmapCSRBuilder(directory, n_rows=n, n_cols=n) as builder:
        for rows, cols, vals in power_law_edge_chunks(
            n,
            rng,
            gamma_out=gamma_out,
            gamma_in=gamma_in,
            d_min=d_min,
            d_max=d_max,
            chunk_edges=chunk_edges,
        ):
            builder.add_chunk(rows, cols, vals)
        store = builder.finalize()
    if builder.n_duplicates:
        data = np.load(store.directory / "data.npy", mmap_mode="r+")
        np.minimum(data, 1.0, out=data)
        data.flush()
        del data
    return DirectedGraph.from_mmcsr(store, validate="none")


def shared_neighbor_clusters(
    n_clusters: int,
    members_per_cluster: int,
    shared_out_per_cluster: int,
    shared_in_per_cluster: int,
    rng: np.random.Generator,
    p_member_to_out: float = 0.9,
    p_in_to_member: float = 0.9,
    p_intra_member: float = 0.0,
) -> tuple[DirectedGraph, np.ndarray]:
    """Clusters held together only by shared in/out-neighbours.

    Each cluster consists of *member* nodes plus dedicated *shared-out*
    nodes (which members point to) and *shared-in* nodes (which point to
    members). With the default ``p_intra_member = 0`` the members never
    link to one another — the exact Figure-1 / Guzmania pattern that
    `A + Aᵀ` symmetrization cannot cluster but Bibliometric and
    Degree-discounted can.

    Returns
    -------
    (graph, labels):
        ``labels[v]`` is the cluster of node ``v`` for member nodes and
        ``-1`` for the shared-neighbour scaffolding nodes (which belong
        to no ground-truth cluster, like the pages "Poales" or "Ecuador"
        in the paper's Guzmania example).
    """
    if min(n_clusters, members_per_cluster) <= 0:
        raise DatasetError("need at least one cluster and one member")
    if min(shared_out_per_cluster, shared_in_per_cluster) < 0:
        raise DatasetError("shared neighbour counts must be >= 0")
    per = members_per_cluster + shared_out_per_cluster + shared_in_per_cluster
    n = n_clusters * per
    labels = np.full(n, -1, dtype=np.int64)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for c in range(n_clusters):
        base = c * per
        members = np.arange(base, base + members_per_cluster)
        out_nodes = np.arange(
            base + members_per_cluster,
            base + members_per_cluster + shared_out_per_cluster,
        )
        in_nodes = np.arange(
            base + members_per_cluster + shared_out_per_cluster, base + per
        )
        labels[members] = c
        r, co = _sample_block_edges(rng, members, out_nodes, p_member_to_out)
        rows.append(r)
        cols.append(co)
        r, co = _sample_block_edges(rng, in_nodes, members, p_in_to_member)
        rows.append(r)
        cols.append(co)
        if p_intra_member > 0:
            r, co = _sample_block_edges(rng, members, members, p_intra_member)
            keep = r != co
            rows.append(r[keep])
            cols.append(co[keep])
    row_arr = np.concatenate(rows) if rows else np.array([], dtype=int)
    col_arr = np.concatenate(cols) if cols else np.array([], dtype=int)
    adj = sp.coo_array(
        (np.ones(row_arr.size), (row_arr, col_arr)), shape=(n, n)
    ).tocsr()
    adj.data[:] = 1.0
    return DirectedGraph(adj), labels


def add_global_hubs(
    graph: DirectedGraph,
    n_hubs: int,
    rng: np.random.Generator,
    p_point_to_hub: float = 0.5,
    p_hub_points_out: float = 0.0,
) -> tuple[DirectedGraph, np.ndarray]:
    """Append hub nodes that the whole graph points to.

    Models the "Area" / "Population density" pages of Wikipedia: pages
    across every category point to them, so in ``AAᵀ`` every pair of
    pages sharing such a hub gains spurious similarity. Returns the new
    graph and the indices of the hub nodes.
    """
    if n_hubs < 0:
        raise DatasetError("n_hubs must be >= 0")
    n = graph.n_nodes
    if n_hubs == 0:
        return graph, np.array([], dtype=np.int64)
    total = n + n_hubs
    hub_ids = np.arange(n, total)
    old = graph.adjacency.tocoo()
    rows = [old.row.astype(np.int64)]
    cols = [old.col.astype(np.int64)]
    vals = [old.data.astype(np.float64)]
    originals = np.arange(n)
    for h in hub_ids:
        pointers = originals[rng.random(n) < p_point_to_hub]
        rows.append(pointers)
        cols.append(np.full(pointers.size, h))
        vals.append(np.ones(pointers.size))
        if p_hub_points_out > 0:
            targets = originals[rng.random(n) < p_hub_points_out]
            rows.append(np.full(targets.size, h))
            cols.append(targets)
            vals.append(np.ones(targets.size))
    adj = sp.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(total, total),
    ).tocsr()
    adj.data[:] = np.minimum(adj.data, 1.0)
    names = graph.node_names
    if names is not None:
        names = names + [f"hub_{i}" for i in range(n_hubs)]
    return DirectedGraph(adj, node_names=names), hub_ids


def reciprocate_edges(
    graph: DirectedGraph,
    target_percent: float,
    rng: np.random.Generator,
) -> DirectedGraph:
    """Add reverse edges until roughly ``target_percent`` of links are
    symmetric.

    Matches the Table-1 reciprocity column (7.7% for Cora up to 73.4%
    for LiveJournal). If the graph already meets the target, it is
    returned unchanged; reciprocity can only be raised, not lowered.
    """
    if not 0 <= target_percent <= 100:
        raise DatasetError("target_percent must be in [0, 100]")
    adj = graph.adjacency
    if adj.nnz == 0:
        return graph
    pattern = adj.copy()
    pattern.data[:] = 1.0
    sym = pattern.multiply(pattern.T)
    target_frac = target_percent / 100.0
    # Solve for the probability q of reversing each one-way edge:
    # after reversal, a one-way edge becomes two symmetric edges.
    one_way = pattern.nnz - sym.nnz
    if one_way <= 0:
        return graph
    # symmetric_after = sym + 2*q*one_way; total_after = nnz + q*one_way
    # target = symmetric_after / total_after  ->  solve for q.
    s, t = float(sym.nnz), float(pattern.nnz)
    denom = one_way * (2.0 - target_frac)
    q = (target_frac * t - s) / denom if denom > 0 else 0.0
    q = float(np.clip(q, 0.0, 1.0))
    if q == 0.0:
        return graph
    coo = (pattern - sym).tocoo()  # strictly one-way edges
    mask = rng.random(coo.nnz) < q
    new_rows = coo.col[mask]
    new_cols = coo.row[mask]
    old = adj.tocoo()
    adj2 = sp.coo_array(
        (
            np.concatenate([old.data, np.ones(new_rows.size)]),
            (
                np.concatenate([old.row, new_rows]),
                np.concatenate([old.col, new_cols]),
            ),
        ),
        shape=adj.shape,
    ).tocsr()
    return DirectedGraph(adj2, node_names=graph.node_names, validate=False)


def kronecker_digraph(
    initiator: np.ndarray,
    n_iterations: int,
    rng: np.random.Generator,
    edge_factor: float = 1.0,
) -> DirectedGraph:
    """Stochastic Kronecker graph (Leskovec et al., JMLR 2010).

    The paper's conclusion cites this as the available realistic
    directed generator — *without* ground-truth clusters, which is why
    the library also provides the planted-cluster generators above.

    Parameters
    ----------
    initiator:
        A small square probability matrix (typically 2x2), entries in
        [0, 1].
    n_iterations:
        Number of Kronecker powers; the result has ``m**n_iterations``
        nodes for an ``m x m`` initiator.
    edge_factor:
        Multiplier on the expected edge count
        ``(sum(initiator))**n_iterations``.
    """
    init = np.asarray(initiator, dtype=np.float64)
    if init.ndim != 2 or init.shape[0] != init.shape[1]:
        raise DatasetError("initiator must be square")
    if init.min() < 0 or init.max() > 1:
        raise DatasetError("initiator entries must lie in [0, 1]")
    if n_iterations < 1:
        raise DatasetError("n_iterations must be >= 1")
    m = init.shape[0]
    n = m**n_iterations
    expected_edges = int(round(edge_factor * init.sum() ** n_iterations))
    # Ball-dropping sampler: place each edge by descending the Kronecker
    # recursion, choosing a cell of the initiator at each level.
    flat = init.ravel() / init.sum()
    cells = rng.choice(m * m, size=(expected_edges, n_iterations), p=flat)
    cell_rows, cell_cols = cells // m, cells % m
    powers = m ** np.arange(n_iterations - 1, -1, -1)
    rows = (cell_rows * powers).sum(axis=1)
    cols = (cell_cols * powers).sum(axis=1)
    keep = rows != cols
    adj = sp.coo_array(
        (np.ones(keep.sum()), (rows[keep], cols[keep])), shape=(n, n)
    ).tocsr()
    adj.data[:] = 1.0
    return DirectedGraph(adj)


def figure1_graph() -> tuple[DirectedGraph, dict[str, list[int]]]:
    """The idealized Figure-1 graph of the paper.

    Nodes 4 and 5 do not link to each other but point to the same nodes
    (6, 7, 8) and are pointed to by the same nodes (1, 2, 3), so they
    form a natural cluster that directed-Ncut methods and `A + Aᵀ`
    symmetrization miss.

    Returns the graph and a dict naming the node roles:
    ``{"sources": [1,2,3], "pair": [4,5], "sinks": [6,7,8]}``
    (0-indexed as built, with node 0 unused in the paper's numbering
    dropped — here sources are 0..2, the pair is 3..4, sinks are 5..7).
    """
    sources = [0, 1, 2]
    pair = [3, 4]
    sinks = [5, 6, 7]
    edges = [(s, p) for s in sources for p in pair]
    edges += [(p, t) for p in pair for t in sinks]
    # Light interconnection among sources and among sinks so they form
    # their own communities, as drawn in the figure.
    edges += [(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (7, 5)]
    graph = DirectedGraph.from_edges(edges, n_nodes=8)
    return graph, {"sources": sources, "pair": pair, "sinks": sinks}


def add_link_farm(
    graph: DirectedGraph,
    n_spam: int,
    rng: np.random.Generator,
    boosted_targets: np.ndarray | list[int] | None = None,
    p_intra_farm: float = 0.8,
    n_camouflage_links: int = 2,
) -> tuple[DirectedGraph, np.ndarray]:
    """Append a link farm (the §6 "spam and link fraud" scenario).

    A link farm is a set of spam pages that densely interlink and all
    point at a small set of *boosted targets* to inflate their link
    authority; each spam page also emits a few camouflage links to
    random legitimate pages. The paper names web spam as the key open
    robustness question for its symmetrizations — this generator plus
    the spam ablation benchmark implement that study: because farm
    pages share essentially all their links with each other and with
    nothing else, similarity-based symmetrizations quarantine the farm
    into its own cluster, while in ``A + Aᵀ`` the boost edges directly
    attach the farm to its targets' cluster.

    Parameters
    ----------
    graph:
        The legitimate host graph.
    n_spam:
        Number of spam nodes to append.
    rng:
        Random generator.
    boosted_targets:
        Legitimate node indices the farm boosts; defaults to one
        random node.
    p_intra_farm:
        Density of the farm's internal link mesh.
    n_camouflage_links:
        Outgoing links from each spam page to random legitimate pages.

    Returns
    -------
    (graph, spam_ids):
        The expanded graph and the indices of the spam nodes.
    """
    if n_spam < 1:
        raise DatasetError("n_spam must be >= 1")
    if not 0 <= p_intra_farm <= 1:
        raise DatasetError("p_intra_farm must lie in [0, 1]")
    n = graph.n_nodes
    if boosted_targets is None:
        boosted_targets = np.array([int(rng.integers(n))])
    targets = np.asarray(boosted_targets, dtype=np.int64)
    if targets.size and (targets.min() < 0 or targets.max() >= n):
        raise DatasetError("boosted target index out of range")
    total = n + n_spam
    spam_ids = np.arange(n, total)
    old = graph.adjacency.tocoo()
    rows = [old.row.astype(np.int64)]
    cols = [old.col.astype(np.int64)]
    # Dense intra-farm mesh.
    r, c = _sample_block_edges(rng, spam_ids, spam_ids, p_intra_farm)
    keep = r != c
    rows.append(r[keep])
    cols.append(c[keep])
    # Boost links: every spam page points at every boosted target.
    for t in targets:
        rows.append(spam_ids)
        cols.append(np.full(n_spam, t))
    # Camouflage links to random legitimate pages.
    if n_camouflage_links > 0 and n > 0:
        cam_targets = rng.integers(0, n, size=n_spam * n_camouflage_links)
        rows.append(np.repeat(spam_ids, n_camouflage_links))
        cols.append(cam_targets)
    adj = sp.coo_array(
        (
            np.ones(sum(r.size for r in rows)),
            (np.concatenate(rows), np.concatenate(cols)),
        ),
        shape=(total, total),
    ).tocsr()
    adj.data[:] = np.minimum(adj.data, 1.0)
    names = graph.node_names
    if names is not None:
        names = names + [f"spam_{i}" for i in range(n_spam)]
    return DirectedGraph(adj, node_names=names), spam_ids


def combine(*graphs: DirectedGraph) -> DirectedGraph:
    """Union of edge sets of graphs over the same node set.

    All graphs must have the same number of nodes; overlapping edges
    keep weight 1 (edge presence is OR-ed, not summed).
    """
    if not graphs:
        raise DatasetError("combine() needs at least one graph")
    n = graphs[0].n_nodes
    for g in graphs[1:]:
        if g.n_nodes != n:
            raise DatasetError("all graphs must have the same node count")
    total = graphs[0].adjacency.copy()
    for g in graphs[1:]:
        total = total + g.adjacency
    total = total.tocsr()
    total.data[:] = 1.0
    return DirectedGraph(total, node_names=graphs[0].node_names)
