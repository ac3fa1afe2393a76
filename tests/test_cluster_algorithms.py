"""Behavioural tests for the four clustering algorithms.

Each algorithm must (a) recover planted structure, (b) respect its
cluster-count contract, (c) behave sensibly on degenerate inputs.
"""

import hashlib

import numpy as np
import pytest

import repro.cluster.mlrmcl as mlrmcl
from repro.cluster import (
    GraclusClusterer,
    MetisClusterer,
    MLRMCL,
    SpectralClusterer,
)
from repro.datasets import make_cora_like, make_wikipedia_like
from repro.exceptions import ClusteringError
from repro.graph import UndirectedGraph
from repro.obs.metrics import metrics_active
from repro.symmetrize import get_symmetrization
from repro.symmetrize.pruning import (
    choose_threshold_for_degree,
    prune_graph,
)
from tests.conftest import planted_two_cluster_ugraph


def _ring_of_cliques(n_cliques=4, clique_size=8, seed=0):
    """Cliques joined in a ring by single light edges."""
    edges = []
    n = n_cliques * clique_size
    for c in range(n_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j, 1.0))
        nxt = ((c + 1) % n_cliques) * clique_size
        edges.append((base, nxt, 0.1))
    return UndirectedGraph.from_edges(edges, n_nodes=n)


def _planted_labels_match(labels, n_cliques, clique_size):
    """Every clique is uniform and cliques are pairwise distinct."""
    for c in range(n_cliques):
        block = labels[c * clique_size: (c + 1) * clique_size]
        if len(set(block.tolist())) != 1:
            return False
    firsts = [labels[c * clique_size] for c in range(n_cliques)]
    return len(set(firsts)) == n_cliques


_GENERATORS = {"cora": make_cora_like, "wiki": make_wikipedia_like}


@pytest.fixture(scope="module")
def paper_density_graphs():
    """400-node, 8-category generator graphs, degree-discounted and
    pruned at the §5.3.1 threshold for mean degree 20."""
    graphs = {}
    for name, make in _GENERATORS.items():
        full = get_symmetrization("degree_discounted").apply(
            make(400, 8).graph
        )
        graphs[name] = prune_graph(
            full, choose_threshold_for_degree(full, 20.0)
        )
    return graphs


def _labels_sha256(labels):
    return hashlib.sha256(
        np.ascontiguousarray(labels, dtype=np.int64).tobytes()
    ).hexdigest()


class TestMetis:
    def test_two_blobs(self, two_blob_ugraph):
        c = MetisClusterer().cluster(two_blob_ugraph, 2)
        assert c.n_clusters == 2
        assert _planted_labels_match(c.labels, 2, 20)

    def test_ring_of_cliques(self):
        g = _ring_of_cliques()
        c = MetisClusterer().cluster(g, 4)
        assert _planted_labels_match(c.labels, 4, 8)

    def test_exact_cluster_count(self):
        g = _ring_of_cliques(6, 6)
        c = MetisClusterer().cluster(g, 6)
        assert c.n_clusters == 6

    def test_balance(self):
        g = _ring_of_cliques(4, 10)
        c = MetisClusterer(imbalance=1.05).cluster(g, 4)
        assert c.sizes.max() <= 1.3 * c.sizes.min()

    def test_k_one(self, two_blob_ugraph):
        c = MetisClusterer().cluster(two_blob_ugraph, 1)
        assert c.n_clusters == 1

    def test_k_equals_n(self):
        g = _ring_of_cliques(2, 3)
        c = MetisClusterer().cluster(g, 6)
        assert c.n_clusters == 6

    def test_odd_k(self):
        g = _ring_of_cliques(6, 6)
        c = MetisClusterer().cluster(g, 3)
        assert c.n_clusters == 3

    def test_disconnected_graph(self):
        g = UndirectedGraph.from_edges(
            [(0, 1), (2, 3)], n_nodes=4
        )
        c = MetisClusterer().cluster(g, 2)
        assert c.n_clusters == 2

    def test_deterministic_given_seed(self, two_blob_ugraph):
        c1 = MetisClusterer(seed=7).cluster(two_blob_ugraph, 2)
        c2 = MetisClusterer(seed=7).cluster(two_blob_ugraph, 2)
        assert c1 == c2

    def test_rejects_bad_imbalance(self):
        with pytest.raises(ClusteringError):
            MetisClusterer(imbalance=0.9)

    def test_requires_n_clusters(self, two_blob_ugraph):
        with pytest.raises(ClusteringError, match="n_clusters"):
            MetisClusterer().cluster(two_blob_ugraph, None)


class TestGraclus:
    def test_two_blobs(self, two_blob_ugraph):
        c = GraclusClusterer().cluster(two_blob_ugraph, 2)
        assert _planted_labels_match(c.labels, 2, 20)

    def test_ring_of_cliques(self):
        g = _ring_of_cliques()
        c = GraclusClusterer().cluster(g, 4)
        assert _planted_labels_match(c.labels, 4, 8)

    def test_improves_ncut_over_random(self):
        from repro.directed.objectives import clustering_ncut

        g = _ring_of_cliques(4, 8)
        c = GraclusClusterer().cluster(g, 4)
        rng = np.random.default_rng(0)
        random_labels = rng.integers(0, 4, size=g.n_nodes)
        assert clustering_ncut(g, c.labels) < clustering_ncut(
            g, random_labels
        )

    def test_k_one(self, two_blob_ugraph):
        c = GraclusClusterer().cluster(two_blob_ugraph, 1)
        assert c.n_clusters == 1

    def test_handles_isolated_nodes(self):
        g = UndirectedGraph.from_edges([(0, 1), (1, 2)], n_nodes=5)
        c = GraclusClusterer().cluster(g, 2)
        assert c.n_nodes == 5

    def test_rejects_bad_coarsen_factor(self):
        with pytest.raises(ClusteringError):
            GraclusClusterer(coarsen_factor=0)

    def test_requires_n_clusters(self, two_blob_ugraph):
        with pytest.raises(ClusteringError, match="n_clusters"):
            GraclusClusterer().cluster(two_blob_ugraph, None)


class TestSpectral:
    def test_two_blobs(self, two_blob_ugraph):
        c = SpectralClusterer().cluster(two_blob_ugraph, 2)
        assert _planted_labels_match(c.labels, 2, 20)

    def test_ring_of_cliques(self):
        g = _ring_of_cliques()
        c = SpectralClusterer().cluster(g, 4)
        assert _planted_labels_match(c.labels, 4, 8)

    def test_k_one(self, two_blob_ugraph):
        c = SpectralClusterer().cluster(two_blob_ugraph, 1)
        assert c.n_clusters == 1

    def test_sparse_path_used_above_cutoff(self):
        g = planted_two_cluster_ugraph(n_per_side=30)
        c = SpectralClusterer(dense_cutoff=10).cluster(g, 2)
        assert _planted_labels_match(c.labels, 2, 30)


class TestMLRMCL:
    def test_two_blobs_autodetects_k(self, two_blob_ugraph):
        c = MLRMCL(inflation=2.0).cluster(two_blob_ugraph)
        assert c.n_clusters == 2
        assert _planted_labels_match(c.labels, 2, 20)

    def test_ring_of_cliques(self):
        g = _ring_of_cliques()
        c = MLRMCL(inflation=2.0).cluster(g)
        assert c.n_clusters == 4
        assert _planted_labels_match(c.labels, 4, 8)

    def test_higher_inflation_more_clusters(self):
        g = _ring_of_cliques(8, 6)
        low = MLRMCL(inflation=1.3).cluster(g)
        high = MLRMCL(inflation=5.0).cluster(g)
        assert high.n_clusters >= low.n_clusters

    def test_k_target_curtailment(self):
        g = _ring_of_cliques(8, 6)
        c = MLRMCL(inflation=1.5).cluster(g, 8)
        assert 4 <= c.n_clusters <= 16  # indirect control, close-ish

    def test_isolated_nodes_are_singletons(self):
        g = UndirectedGraph.from_edges([(0, 1)], n_nodes=4)
        c = MLRMCL().cluster(g)
        assert c.labels[0] == c.labels[1]
        assert c.labels[2] != c.labels[3]

    def test_multilevel_path_used_on_larger_graph(self):
        g = _ring_of_cliques(10, 12)  # 120 nodes
        c = MLRMCL(inflation=2.0, coarsen_to=30).cluster(g)
        assert c.n_clusters == 10

    @pytest.mark.parametrize(
        "name, value",
        [
            ("inflation", 1.0),
            ("inflation", 0.5),
            ("inflation", float("nan")),
            ("inflation", float("inf")),
            ("prune_fraction", 1.5),
            ("prune_fraction", -0.1),
            ("prune_fraction", float("nan")),
            ("self_loop", -1.0),
            ("self_loop", float("nan")),
            ("iterations_coarse", -1),
            ("iterations_per_level", -1),
            ("iterations_finest", -1),
            ("coarsen_to", 0),
        ],
    )
    def test_rejects_bad_arguments(self, name, value):
        with pytest.raises(ClusteringError, match=name):
            MLRMCL(**{name: value})

    # Recorded before R-MCL expanded in column blocks; the blocked
    # expansion must reproduce the whole-matrix labels exactly.
    # coarsen_to=1000 runs R-MCL on the input graph alone, 100 runs
    # the multi-level path.
    GOLDEN_LABELS = {
        ("cora", 1000, 8): "3d00db0ab9f76ad2931d4480163d7485"
        "0b5bd271b7cf49aced08ecef1dc25a3b",
        ("cora", 1000, None): "aa67b66b63526bae6e1d1d305dc1bdd0"
        "f7f052af48a4f817e2bab8a178b0e393",
        ("cora", 100, 8): "44c8531fd0d8749790b60563c39ca445"
        "28fc11c1b4b5204c8a74523aff5a5029",
        ("cora", 100, None): "2c8b84f6b624896a8d24f48ab771057c"
        "92e566e8c9840632a0b6ecbe487a87bf",
        ("wiki", 1000, 8): "7d29e518c2d838688075d561106de3d9"
        "9751f540e7e759617c9cd5c186ae3588",
        ("wiki", 1000, None): "bf32a5a80d8841af9d6c3f6d0ac78af7"
        "74021cc72b527ddeca379ac46397aee5",
        ("wiki", 100, 8): "a2b3c78a3688ab282d083921747cf1b3"
        "3e262ae3313699ef4c3962c2657e2764",
        ("wiki", 100, None): "dfd831b0ad4536ae50a1727f2ec0cb40"
        "3e1ef467b24587b79fce838141d368dd",
    }

    @pytest.mark.parametrize(
        "key",
        sorted(GOLDEN_LABELS, key=str),
        ids=lambda key: "{}-coarsen_to={}-k={}".format(*key),
    )
    def test_golden_labels(self, paper_density_graphs, key):
        name, coarsen_to, k = key
        c = MLRMCL(coarsen_to=coarsen_to).cluster(
            paper_density_graphs[name], k
        )
        assert _labels_sha256(c.labels) == self.GOLDEN_LABELS[key]

    @pytest.mark.parametrize("name", sorted(_GENERATORS))
    def test_blocked_expansion_matches_single_block(
        self, paper_density_graphs, monkeypatch, name
    ):
        graph = paper_density_graphs[name]
        m_g = mlrmcl._canonical_flow(graph.adjacency, 1.0)
        blocks_per_iteration = []
        spans = mlrmcl.product_row_spans

        def counting_spans(*args):
            out = spans(*args)
            blocks_per_iteration.append(len(out))
            return out

        def run():
            blocks_per_iteration.clear()
            with metrics_active() as reg:
                flow = mlrmcl._rmcl_iterations(
                    m_g.copy(), m_g, 2.0, 30, 0.01
                )
            with metrics_active() as cluster_reg:
                labels = MLRMCL().cluster(graph).labels
            return flow, labels, reg, cluster_reg

        monkeypatch.setattr(mlrmcl, "product_row_spans", counting_spans)
        flow_1, labels_1, reg_1, cluster_1 = run()
        assert set(blocks_per_iteration) == {1}
        monkeypatch.setattr(mlrmcl, "_MAX_EXPAND_ENTRIES", 2000)
        flow_n, labels_n, reg_n, cluster_n = run()
        assert min(blocks_per_iteration) >= 3

        assert flow_n.data.tobytes() == flow_1.data.tobytes()
        assert np.array_equal(flow_n.indices, flow_1.indices)
        assert np.array_equal(flow_n.indptr, flow_1.indptr)
        assert np.array_equal(labels_n, labels_1)
        assert sum(blocks_per_iteration) == (
            reg_n.counters["mcl_expand_blocks"]
            + cluster_n.counters["mcl_expand_blocks"]
        )
        for single, blocked in ((reg_1, reg_n), (cluster_1, cluster_n)):
            assert single.counters.pop("mcl_expand_blocks") == (
                single.counters["mcl_iterations"]
            )
            assert blocked.counters.pop("mcl_expand_blocks") >= (
                3 * blocked.counters["mcl_iterations"]
            )
            largest_single = single.gauges.pop(
                "mcl_expand_block_entries_max"
            )
            largest_blocked = blocked.gauges.pop(
                "mcl_expand_block_entries_max"
            )
            assert 0 < largest_blocked < largest_single / 3
            assert blocked.counters == single.counters
            assert blocked.gauges == single.gauges

    def test_repr(self):
        assert "2.0" in repr(MLRMCL(inflation=2.0))
