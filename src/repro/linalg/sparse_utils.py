"""CSR matrix utilities: normalization, scaling, pruning, top-k.

These operations are the building blocks of the symmetrizations:
degree scaling implements the ``D^-alpha`` factors of Eq. 6–8, the
one-pass entry mask (:func:`filter_entries`) implements §3.5 pruning
and self-loop removal, and top-k extraction regenerates Table 5 (the
top-weighted edges of each symmetrized Wikipedia graph).
:func:`product_row_spans` bounds the memory of a sparse product
computed a row span at a time (all-pairs candidates, R-MCL expansion).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError, SymmetrizationError

__all__ = [
    "TIE_RTOL",
    "row_normalize",
    "degree_scale",
    "degree_power",
    "filter_entries",
    "prune_matrix",
    "symmetric_average",
    "top_k_entries",
    "sample_rows_similarity",
    "product_row_spans",
]

#: Relative tolerance for threshold comparisons: a value within
#: ``threshold * TIE_RTOL`` below the threshold counts as a tie and is
#: kept. Differently-ordered computations of the same mathematical
#: similarity drift by a few ULPs; without the tolerance the exact and
#: pruned all-pairs paths can disagree on edges that tie the threshold.
TIE_RTOL = 1e-12


def row_normalize(matrix: sp.csr_array) -> sp.csr_array:
    """Scale each row to sum to 1 (zero rows stay zero)."""
    csr = matrix.tocsr()
    sums = np.asarray(csr.sum(axis=1)).ravel()
    inv = np.divide(
        1.0, sums, out=np.zeros_like(sums), where=sums != 0
    )
    return (sp.diags_array(inv) @ csr).tocsr()


def degree_power(degrees: np.ndarray, exponent: float) -> np.ndarray:
    """Element-wise ``degrees ** -exponent`` with 0 ** -x defined as 0.

    This is the convention the degree-discounted symmetrization needs:
    a node with zero out-degree contributes nothing to out-link
    similarity, so its scaling factor is immaterial and set to zero to
    avoid division by zero.

    An ``exponent`` of 0 returns an indicator of non-zero degree (nodes
    with no links still must not contribute).
    """
    deg = np.asarray(degrees, dtype=np.float64)
    if np.any(deg < 0):
        raise SymmetrizationError("degrees must be non-negative")
    out = np.zeros_like(deg)
    nz = deg > 0
    out[nz] = deg[nz] ** (-exponent)
    return out


def degree_scale(
    matrix: sp.csr_array,
    row_factors: np.ndarray | None = None,
    col_factors: np.ndarray | None = None,
) -> sp.csr_array:
    """Compute ``diag(row_factors) @ M @ diag(col_factors)`` sparsely."""
    csr = matrix.tocsr()
    if row_factors is not None:
        row_factors = np.asarray(row_factors, dtype=np.float64)
        if row_factors.size != csr.shape[0]:
            raise GraphError("row_factors length mismatch")
        csr = sp.diags_array(row_factors).tocsr() @ csr
    if col_factors is not None:
        col_factors = np.asarray(col_factors, dtype=np.float64)
        if col_factors.size != csr.shape[1]:
            raise GraphError("col_factors length mismatch")
        csr = csr @ sp.diags_array(col_factors).tocsr()
    return csr.tocsr()


def filter_entries(
    matrix: sp.csr_array,
    threshold: float = 0.0,
    drop_diagonal: bool = False,
    keep_diagonal: bool = False,
) -> sp.csr_array:
    """The entries of ``matrix`` that pass one boolean mask, as new CSR.

    An entry is kept when it is non-zero, when it is at or above
    ``threshold`` (ties within :data:`TIE_RTOL` count as above; a
    threshold of 0 or less cuts nothing), and, with ``drop_diagonal``,
    when it lies off the diagonal. With ``keep_diagonal`` diagonal
    entries are exempt from the threshold.

    The mask is taken over the canonical form (sorted indices,
    duplicates summed); a non-canonical ``matrix`` is canonicalized on
    a copy, so ``matrix`` itself is never modified. The index arrays
    keep ``matrix``'s dtype, except that dropping the diagonal narrows
    them to int32 whenever that fits: the diagonal-free output of
    :meth:`~repro.symmetrize.Symmetrization.apply` is int32-indexed.
    """
    csr = matrix.tocsr()
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    n_rows = csr.shape[0]
    row_nnz = np.diff(csr.indptr)
    keep = csr.data != 0
    if drop_diagonal or keep_diagonal:
        row_dtype = np.int32 if n_rows <= np.iinfo(np.int32).max else np.int64
        rows = np.repeat(np.arange(n_rows, dtype=row_dtype), row_nnz)
        on_diagonal = csr.indices == rows
        del rows
    if threshold > 0:
        above = csr.data >= threshold * (1.0 - TIE_RTOL)
        if keep_diagonal:
            above |= on_diagonal
        keep &= above
        del above
    if drop_diagonal:
        keep &= ~on_diagonal
    # Kept entries per row, summed over the non-empty rows' segments
    # (reduceat cannot express an empty segment).
    kept_per_row = np.zeros(n_rows, dtype=np.int64)
    nonempty = np.flatnonzero(row_nnz)
    if nonempty.size:
        kept_per_row[nonempty] = np.add.reduceat(
            keep, csr.indptr[nonempty], dtype=np.int64
        )
    nnz = int(kept_per_row.sum())
    index_dtype = csr.indices.dtype
    if drop_diagonal and max(csr.shape[1], nnz) <= np.iinfo(np.int32).max:
        index_dtype = np.dtype(np.int32)
    indptr = np.zeros(n_rows + 1, dtype=index_dtype)
    np.cumsum(kept_per_row, out=indptr[1:])
    indices = np.compress(
        keep, csr.indices, out=np.empty(nnz, dtype=index_dtype)
    )
    return sp.csr_array(
        (csr.data[keep], indices, indptr), shape=csr.shape
    )


def prune_matrix(
    matrix: sp.csr_array,
    threshold: float,
    keep_diagonal: bool = False,
) -> sp.csr_array:
    """Drop entries with value strictly below ``threshold`` (§3.5).

    Values within a relative tolerance of :data:`TIE_RTOL` below the
    threshold count as ties and are kept, so float drift between
    differently-ordered computations of the same similarity cannot
    flip a keep/drop decision (the exact and §3.6 pruned paths must
    agree edge-for-edge).

    A threshold of 0 only removes explicit zeros. With
    ``keep_diagonal=True`` diagonal entries survive regardless of value
    (useful when self-similarities carry bookkeeping information).
    The result is a new canonical CSR matrix (:func:`filter_entries`).
    """
    if threshold < 0:
        raise SymmetrizationError("prune threshold must be >= 0")
    return filter_entries(matrix, threshold, keep_diagonal=keep_diagonal)


def symmetric_average(matrix: sp.csr_array) -> sp.csr_array:
    """``(M + Mᵀ) / 2``, the sum scaled in place rather than copied.

    Symmetrizations average their output with its transpose to clean
    the tiny asymmetries floating-point products leave. Halving the
    sum's data in place gives the same bits as ``(M + M.T) * 0.5``
    without a third full-size array.
    """
    total = (matrix + matrix.T).tocsr()
    total.data *= 0.5
    return total


def top_k_entries(
    matrix: sp.csr_array,
    k: int,
    upper_triangle_only: bool = True,
    exclude_diagonal: bool = True,
) -> list[tuple[int, int, float]]:
    """The ``k`` largest entries of a sparse matrix as ``(i, j, value)``.

    With the defaults, symmetric matrices report each undirected edge
    once and self-similarities are skipped — the form of Table 5.
    Entries are returned in descending value order.
    """
    if k < 0:
        raise GraphError("k must be >= 0")
    coo = matrix.tocoo()
    mask = np.ones(coo.nnz, dtype=bool)
    if exclude_diagonal:
        mask &= coo.row != coo.col
    if upper_triangle_only:
        mask &= coo.row <= coo.col
    rows, cols, vals = coo.row[mask], coo.col[mask], coo.data[mask]
    if vals.size == 0 or k == 0:
        return []
    k = min(k, vals.size)
    top = np.argpartition(vals, -k)[-k:]
    order = top[np.argsort(vals[top])[::-1]]
    return [
        (int(rows[t]), int(cols[t]), float(vals[t])) for t in order
    ]


def sample_rows_similarity(
    matrix: sp.csr_array,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Nonzero values from a random sample of rows of a matrix.

    This is the §5.3.1 threshold-selection primitive: "compute all the
    similarities corresponding to a small random sample of the nodes,
    and choose a prune threshold such that the average degree when this
    threshold is applied to the random sample approximates the final
    average degree that the user desires." The returned values are the
    sampled similarities; threshold selection on them lives in
    :func:`repro.symmetrize.pruning.choose_threshold_for_degree`.
    """
    csr = matrix.tocsr()
    n = csr.shape[0]
    if n == 0:
        return np.array([], dtype=np.float64)
    n_samples = min(max(1, n_samples), n)
    sample = rng.choice(n, size=n_samples, replace=False)
    return np.concatenate(
        [csr.data[csr.indptr[i]: csr.indptr[i + 1]] for i in sample]
    )


def product_row_spans(
    left: sp.csr_array, right_row_nnz: np.ndarray, cap: int
) -> list[tuple[int, int]]:
    """Split ``left``'s rows into spans of bounded ``left @ right`` fill.

    ``right_row_nnz[k]`` is the entry count of row ``k`` of ``right``,
    so ``sum(right_row_nnz[features of row r])`` upper-bounds row
    ``r``'s share of the product's nnz. Greedy accumulation keeps each
    span's estimate under ``cap`` (single rows may exceed it — a row
    of the product cannot be subdivided). Spans cover ``left``'s rows
    exactly once, in order.
    """
    n_rows = left.shape[0]
    entry_cum = np.concatenate(
        ([0], np.cumsum(right_row_nnz[left.indices], dtype=np.int64))
    )
    # Cumulative estimate by row boundary: row_cum[i] covers rows < i.
    row_cum = entry_cum[left.indptr]
    spans: list[tuple[int, int]] = []
    a = 0
    while a < n_rows:
        b = int(
            np.searchsorted(row_cum, row_cum[a] + cap, side="right") - 1
        )
        b = max(b, a + 1)
        spans.append((a, min(b, n_rows)))
        a = b
    return spans
