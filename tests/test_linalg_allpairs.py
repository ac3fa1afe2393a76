"""Unit tests for :mod:`repro.linalg.allpairs` (§3.6) and the
``apply_pruned`` fast path of the degree-discounted symmetrization.

The vectorized backend is held to the oracle standard: on every
corpus matrix its sparsity pattern must be *bit-identical* to the
pure-Python reference engine's, with or without the block fan-out.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SymmetrizationError
from repro.graph.generators import power_law_digraph
from repro.linalg.allpairs import BACKENDS, thresholded_gram_matrix
from repro.linalg.sparse_utils import prune_matrix
from repro.symmetrize import DegreeDiscountedSymmetrization

#: (backend, n_jobs) configurations every correctness test runs under.
ENGINES = [
    ("python", None),
    ("vectorized", None),
    ("vectorized", 2),
]


def _dense_reference(rows, threshold):
    full = (rows @ rows.T).tocsr()
    lil = full.tolil()
    lil.setdiag(0.0)
    return prune_matrix(lil.tocsr(), threshold)


def _assert_same_pattern(a, b):
    """Bit-identical CSR sparsity patterns (and matching values)."""
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.allclose(a.data, b.data, rtol=1e-12, atol=1e-14)


class TestThresholdedGram:
    @pytest.mark.parametrize("backend,n_jobs", ENGINES)
    def test_matches_dense_product(self, rng, backend, n_jobs):
        rows = sp.random_array(
            (30, 15), density=0.3, rng=rng, format="csr"
        )
        result = thresholded_gram_matrix(
            rows, 0.2, backend=backend, n_jobs=n_jobs
        )
        expected = _dense_reference(rows, 0.2)
        assert abs(result - expected).max() < 1e-12 if (
            (result - expected).nnz
        ) else True
        assert result.nnz == expected.nnz

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_high_threshold_empty(self, rng, backend):
        rows = sp.random_array(
            (10, 5), density=0.3, rng=rng, format="csr"
        )
        result = thresholded_gram_matrix(rows, 1e6, backend=backend)
        assert result.nnz == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_symmetric_output(self, rng, backend):
        rows = sp.random_array(
            (20, 10), density=0.4, rng=rng, format="csr"
        )
        result = thresholded_gram_matrix(rows, 0.1, backend=backend)
        assert abs(result - result.T).nnz == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_diagonal_excluded_by_default(self, backend):
        rows = sp.csr_array(np.eye(3))
        result = thresholded_gram_matrix(rows, 0.5, backend=backend)
        assert result.diagonal().sum() == 0.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_include_diagonal(self, backend):
        rows = sp.csr_array(np.array([[2.0, 0.0], [0.0, 1.0]]))
        result = thresholded_gram_matrix(
            rows, 0.5, include_diagonal=True, backend=backend
        )
        assert result[[0], [0]] == 4.0
        assert result[[1], [1]] == 1.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exact_pair_value(self, backend):
        rows = sp.csr_array(
            np.array([[1.0, 2.0, 0.0], [3.0, 0.0, 1.0]])
        )
        result = thresholded_gram_matrix(rows, 1.0, backend=backend)
        assert result[[0], [1]] == 3.0

    def test_rejects_zero_threshold(self):
        with pytest.raises(SymmetrizationError, match="positive"):
            thresholded_gram_matrix(sp.csr_array((2, 2)), 0.0)

    def test_rejects_negative_values(self):
        with pytest.raises(SymmetrizationError, match="non-negative"):
            thresholded_gram_matrix(
                sp.csr_array(np.array([[-1.0]])), 0.5
            )

    def test_rejects_unknown_backend(self):
        with pytest.raises(SymmetrizationError, match="backend"):
            thresholded_gram_matrix(
                sp.csr_array((2, 2)), 0.5, backend="cuda"
            )

    def test_rejects_bad_block_size(self):
        with pytest.raises(SymmetrizationError, match="block_size"):
            thresholded_gram_matrix(
                sp.csr_array((2, 2)), 0.5, block_size=0
            )

    @pytest.mark.parametrize("backend,n_jobs", ENGINES)
    @pytest.mark.parametrize(
        "empty_rows",
        [
            (),  # no empty rows
            (0, 1),  # leading empties
            (5, 9),  # trailing empty
            (0, 3, 4, 9),  # mixed, including a full empty block
        ],
    )
    def test_empty_row_edge_cases(self, rng, backend, n_jobs, empty_rows):
        dense = rng.random((10, 6)) * (rng.random((10, 6)) < 0.5)
        dense[list(empty_rows), :] = 0.0
        rows = sp.csr_array(dense)
        result = thresholded_gram_matrix(
            rows, 0.3, backend=backend, block_size=3, n_jobs=n_jobs
        )
        _assert_same_pattern(result, _dense_reference(rows, 0.3))

    @pytest.mark.parametrize("backend,n_jobs", ENGINES)
    def test_all_rows_prunable(self, backend, n_jobs):
        # Every row's total possible contribution stays below the
        # threshold, so nothing is ever indexed and the result is
        # empty — the prefix filter's degenerate extreme.
        rows = sp.csr_array(np.full((8, 4), 0.01))
        result = thresholded_gram_matrix(
            rows, 10.0, backend=backend, block_size=2, n_jobs=n_jobs
        )
        assert result.nnz == 0

    def test_all_empty_matrix(self):
        for backend in BACKENDS:
            result = thresholded_gram_matrix(
                sp.csr_array((6, 4)), 0.5, backend=backend
            )
            assert result.shape == (6, 6)
            assert result.nnz == 0

    @pytest.mark.parametrize("block_size", [1, 3, 64, 512])
    def test_block_size_invariance(self, rng, block_size):
        rows = sp.random_array(
            (40, 12), density=0.35, rng=rng, format="csr"
        )
        reference = thresholded_gram_matrix(rows, 0.25, backend="python")
        result = thresholded_gram_matrix(
            rows, 0.25, backend="vectorized", block_size=block_size
        )
        _assert_same_pattern(result, reference)

    def test_n_jobs_merges_exactly(self, rng):
        rows = sp.random_array(
            (60, 20), density=0.3, rng=rng, format="csr"
        )
        serial = thresholded_gram_matrix(
            rows, 0.2, backend="vectorized", block_size=8
        )
        parallel = thresholded_gram_matrix(
            rows, 0.2, backend="vectorized", block_size=8, n_jobs=3
        )
        _assert_same_pattern(serial, parallel)

    @given(st.integers(0, 1_000_000), st.floats(0.05, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_property_matches_dense(self, seed, threshold):
        rng = np.random.default_rng(seed)
        rows = sp.random_array(
            (15, 8), density=0.4, rng=rng, format="csr"
        )
        oracle = thresholded_gram_matrix(
            rows, threshold, backend="python"
        )
        expected = _dense_reference(rows, threshold)
        diff = (oracle - expected).tocsr()
        diff.eliminate_zeros()
        assert abs(diff).max() < 1e-9 if diff.nnz else True
        assert oracle.nnz == expected.nnz
        # The production engine must reproduce the oracle's sparsity
        # pattern bit for bit, serial and fanned out.
        for n_jobs in (None, 2):
            vectorized = thresholded_gram_matrix(
                rows,
                threshold,
                backend="vectorized",
                block_size=4,
                n_jobs=n_jobs,
            )
            _assert_same_pattern(vectorized, oracle)

    @given(st.integers(0, 1_000_000))
    @settings(max_examples=15, deadline=None)
    def test_property_diagonal_parity(self, seed):
        rng = np.random.default_rng(seed)
        rows = sp.random_array(
            (12, 6), density=0.5, rng=rng, format="csr"
        )
        oracle = thresholded_gram_matrix(
            rows, 0.3, include_diagonal=True, backend="python"
        )
        vectorized = thresholded_gram_matrix(
            rows,
            0.3,
            include_diagonal=True,
            backend="vectorized",
            block_size=5,
        )
        _assert_same_pattern(vectorized, oracle)


class TestCandidateBudget:
    """The per-span candidate cap must not change any output byte."""

    @staticmethod
    def _hub_matrix(rng):
        # A few dense "hub" columns shared by most rows make the
        # candidate count per block explode, forcing span splits.
        base = sp.random_array(
            (300, 40), density=0.05, rng=rng, format="csr"
        )
        hubs = sp.random_array(
            (300, 3), density=0.9, rng=rng, format="csr"
        )
        rows = sp.hstack([base, hubs]).tocsr()
        rows.sum_duplicates()
        rows.sort_indices()
        rows.data = np.abs(rows.data) + 0.01
        return rows

    @pytest.mark.parametrize("n_jobs", [None, 3])
    def test_tiny_cap_is_byte_identical(self, rng, monkeypatch, n_jobs):
        import repro.linalg.allpairs as allpairs

        rows = self._hub_matrix(rng)
        reference = thresholded_gram_matrix(
            rows, 0.2, backend="vectorized", block_size=64
        )
        monkeypatch.setattr(allpairs, "_MAX_BLOCK_CANDIDATES", 64)
        capped = thresholded_gram_matrix(
            rows, 0.2, backend="vectorized", block_size=64, n_jobs=n_jobs
        )
        assert capped.indptr.tobytes() == reference.indptr.tobytes()
        assert capped.indices.tobytes() == reference.indices.tobytes()
        assert capped.data.tobytes() == reference.data.tobytes()

    def test_row_spans_respect_budget_and_progress(self, rng):
        from repro.linalg.allpairs import _suffix_column_counts
        from repro.linalg.sparse_utils import product_row_spans

        rows = self._hub_matrix(rng)
        colcount = _suffix_column_counts(rows)
        spans = product_row_spans(rows, colcount, cap=500)
        # Spans partition [0, n_rows) in order.
        assert spans[0][0] == 0
        assert spans[-1][1] == rows.shape[0]
        for (_, b_prev), (a_next, _) in zip(spans, spans[1:]):
            assert b_prev == a_next
        # Each multi-row span stays under the estimate budget.
        entry_cum = np.concatenate(
            ([0], np.cumsum(colcount[rows.indices], dtype=np.int64))
        )
        row_cum = entry_cum[rows.indptr]
        for a, b in spans:
            if b - a > 1:
                assert row_cum[b] - row_cum[a] <= 500


class TestApplyPruned:
    def test_matches_apply(self, rng):
        g = power_law_digraph(120, rng)
        sym = DegreeDiscountedSymmetrization()
        for threshold in (0.05, 0.15):
            ref = sym.apply(g, threshold=threshold)
            fast = sym.apply_pruned(g, threshold=threshold)
            # Agreement is exact up to float summation order: entries
            # present in both match to ~1 ULP, and the edge sets may
            # differ only by pairs whose value ties the threshold.
            ref_pattern = ref.adjacency.astype(bool)
            fast_pattern = fast.adjacency.astype(bool)
            shared = ref_pattern.multiply(fast_pattern)
            diff = abs(
                ref.adjacency.multiply(shared)
                - fast.adjacency.multiply(shared)
            ).tocsr()
            assert (diff.max() if diff.nnz else 0.0) < 1e-12
            disagreement = (ref_pattern != fast_pattern).tocoo()
            for i, j in zip(disagreement.row, disagreement.col):
                value = max(
                    ref.edge_weight(int(i), int(j)),
                    fast.edge_weight(int(i), int(j)),
                )
                assert abs(value - threshold) < 1e-9 * max(
                    threshold, 1.0
                ), (i, j, value)

    @pytest.mark.parametrize("backend,n_jobs", ENGINES)
    def test_backends_agree(self, rng, backend, n_jobs):
        g = power_law_digraph(100, rng)
        sym = DegreeDiscountedSymmetrization()
        reference = sym.apply_pruned(g, 0.1, backend="python")
        other = sym.apply_pruned(
            g, 0.1, backend=backend, n_jobs=n_jobs
        )
        diff = abs(reference.adjacency - other.adjacency).tocsr()
        assert (diff.max() if diff.nnz else 0.0) < 1e-12

    def test_coupling_only_variant(self, rng):
        g = power_law_digraph(80, rng)
        sym = DegreeDiscountedSymmetrization(include_cocitation=False)
        ref = sym.apply(g, threshold=0.1)
        fast = sym.apply_pruned(g, threshold=0.1)
        diff = abs(ref.adjacency - fast.adjacency).tocsr()
        assert (diff.max() if diff.nnz else 0.0) < 1e-12

    def test_pruning_factors_square(self, rng):
        # Y Yᵀ + Z Zᵀ must reproduce the full similarity matrix.
        g = power_law_digraph(60, rng)
        sym = DegreeDiscountedSymmetrization()
        factors = sym.pruning_factors(g)
        assert len(factors) == 2
        total = sum((Y @ Y.T).toarray() for Y in factors)
        expected = sym.compute_matrix(g).toarray()
        assert np.allclose(total, expected, atol=1e-12)

    def test_rejects_zero_threshold(self, triangle_digraph):
        with pytest.raises(SymmetrizationError, match="positive"):
            DegreeDiscountedSymmetrization().apply_pruned(
                triangle_digraph, 0.0
            )

    def test_rejects_log_discount(self, triangle_digraph):
        with pytest.raises(SymmetrizationError, match="numeric"):
            DegreeDiscountedSymmetrization(alpha="log").apply_pruned(
                triangle_digraph, 0.1
            )

    def test_preserves_node_names(self):
        from repro.graph import DirectedGraph

        g = DirectedGraph.from_edges(
            [(0, 2), (1, 2)], n_nodes=3, node_names=["a", "b", "c"]
        )
        out = DegreeDiscountedSymmetrization().apply_pruned(g, 0.1)
        assert out.node_names == ["a", "b", "c"]

    def test_no_self_loops(self, rng):
        g = power_law_digraph(60, rng)
        out = DegreeDiscountedSymmetrization().apply_pruned(g, 0.05)
        assert out.adjacency.diagonal().sum() == 0.0


class TestShardDescriptors:
    """The process fan-out must hand workers shard *descriptors*
    (store paths plus a chunk index), never pickled matrices."""

    class _CapturingPool:
        """Duck-typed WorkerPool that records each payload's pickled
        size and runs the worker function in-process."""

        def __init__(self):
            self.payload_bytes = []

        def run(self, fn, payloads, fallback=None):
            import pickle

            results = []
            for payload in payloads:
                self.payload_bytes.append(len(pickle.dumps(payload)))
                results.append(fn(payload))
            return results

        def close(self):
            pass

    def test_worker_payloads_under_1kb(self, rng):
        from repro.engine.pool import worker_pool

        g = power_law_digraph(400, rng)
        factor = DegreeDiscountedSymmetrization().pruning_factors(g)[0]
        serial = thresholded_gram_matrix(
            factor, 0.2, block_size=32, n_jobs=None
        )
        pool = self._CapturingPool()
        with worker_pool(4, pool=pool):
            sharded = thresholded_gram_matrix(
                factor, 0.2, block_size=32, n_jobs=4
            )
        assert pool.payload_bytes, "fan-out never reached the pool"
        assert max(pool.payload_bytes) < 1024
        _assert_same_pattern(serial, sharded)
