"""Output checks that every benchmark run applies to its results.

Each check returns a list of failure messages (empty when the output
is correct). They test properties any correct implementation keeps,
so they hold under legitimate optimisations of the measured layers:

- the pruned graph holds *exactly* the pairs whose degree-discounted
  similarity reaches the threshold, on a seeded sample of rows,
  recomputed independently from ``pruning_factors`` (ties within
  ``TIE_RTOL`` may fall either way);
- the pruned graph is symmetric, non-negative, loop-free, and its mean
  degree is within 2x of the §5.3.1 target;
- a clustering labels every node, and the reported Avg-F is the Avg-F
  of the returned labels;
- the service gives one labels hash per request spec, equal to an
  in-process run of the same spec.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.sparse as sp

from repro.cluster.common import Clustering
from repro.eval.fmeasure import average_f_score
from repro.linalg.sparse_utils import TIE_RTOL
from repro.symmetrize.degree_discounted import (
    DegreeDiscountedSymmetrization,
)

#: Rows of the pruned graph recomputed exactly per check.
SAMPLE_ROWS = 64

#: Agreement required between a kept entry and its recomputed value.
VALUE_RTOL = 1e-9


def sample_rows(n_nodes: int, seed: int) -> np.ndarray:
    """The seeded row sample the exactness check recomputes."""
    rng = np.random.default_rng([seed, 1])
    size = min(SAMPLE_ROWS, n_nodes)
    return np.sort(rng.choice(n_nodes, size=size, replace=False))


def labels_sha(labels: np.ndarray) -> str:
    """Content hash of a labels vector, as the service reports it."""
    return hashlib.sha256(
        np.ascontiguousarray(labels, dtype=np.int64).tobytes()
    ).hexdigest()[:16]


def check_pruned_graph(
    graph, pruned, threshold: float, target_degree: float, seed: int
) -> list[str]:
    """Checks on a degree-discounted graph pruned at ``threshold``."""
    failures: list[str] = []
    adj = sp.csr_array(pruned.adjacency)
    n = adj.shape[0]
    if n != graph.n_nodes:
        return [f"pruned graph has {n} nodes, input has {graph.n_nodes}"]
    if adj.nnz and not np.all(np.isfinite(adj.data)):
        failures.append("pruned graph has non-finite weights")
    if adj.nnz and adj.data.min() < 0:
        failures.append("pruned graph has negative weights")
    if np.count_nonzero(adj.diagonal()):
        failures.append("pruned graph has self-loops")
    asym = abs(adj - adj.T)
    if asym.nnz and asym.max() > VALUE_RTOL * max(abs(adj).max(), 1.0):
        failures.append("pruned graph is not symmetric")
    mean_degree = adj.nnz / n if n else 0.0
    if not target_degree / 2 <= mean_degree <= target_degree * 2:
        failures.append(
            f"mean degree {mean_degree:.2f} is not within 2x of the "
            f"target {target_degree:g}"
        )
    failures.extend(_check_sampled_rows(graph, adj, threshold, seed))
    return failures


def _check_sampled_rows(
    graph, adj: sp.csr_array, threshold: float, seed: int
) -> list[str]:
    rows = sample_rows(adj.shape[0], seed)
    factors = DegreeDiscountedSymmetrization().pruning_factors(graph)
    exact = None
    for factor in factors:
        factor = sp.csr_array(factor)
        part = factor[rows] @ factor.T
        exact = part if exact is None else exact + part
    exact = sp.csr_array(exact).toarray()
    exact[np.arange(rows.size), rows] = 0.0
    kept = adj[rows].toarray()
    must_keep = exact >= threshold * (1.0 + TIE_RTOL)
    must_drop = exact < threshold * (1.0 - 2.0 * TIE_RTOL)
    failures = []
    missing = must_keep & (kept == 0)
    extra = must_drop & (kept != 0)
    if missing.any():
        i, j = np.argwhere(missing)[0]
        failures.append(
            f"{int(missing.sum())} pair(s) above the threshold missing "
            f"from sampled rows, e.g. ({rows[i]}, {j}) with similarity "
            f"{exact[i, j]:.6g} >= {threshold:.6g}"
        )
    if extra.any():
        i, j = np.argwhere(extra)[0]
        failures.append(
            f"{int(extra.sum())} pair(s) below the threshold kept in "
            f"sampled rows, e.g. ({rows[i]}, {j}) with similarity "
            f"{exact[i, j]:.6g} < {threshold:.6g}"
        )
    present = kept != 0
    wrong = present & ~np.isclose(kept, exact, rtol=VALUE_RTOL, atol=0.0)
    if wrong.any():
        failures.append(
            f"{int(wrong.sum())} kept weight(s) differ from the exact "
            "similarity in sampled rows"
        )
    return failures


def check_labels(
    labels: np.ndarray,
    n_nodes: int,
    ground_truth=None,
    reported_avg_f: float | None = None,
) -> list[str]:
    """A clustering labels every node; its Avg-F is the one reported."""
    labels = np.asarray(labels)
    if labels.shape != (n_nodes,):
        return [f"labels cover {labels.size} of {n_nodes} nodes"]
    if labels.size and (labels.min() < 0 or not np.issubdtype(
        labels.dtype, np.integer
    )):
        return ["labels are not non-negative integers"]
    if ground_truth is not None and reported_avg_f is not None:
        recomputed = average_f_score(Clustering(labels), ground_truth)
        if not np.isclose(recomputed, reported_avg_f, rtol=1e-9, atol=0):
            return [
                f"reported Avg-F {reported_avg_f:.6g} is not the Avg-F "
                f"of the returned labels ({recomputed:.6g})"
            ]
    return []


def check_service_results(
    results: list[dict], n_nodes: int
) -> tuple[list[str], set[tuple]]:
    """One labels hash per spec, matching the labels it came with.

    ``results`` holds one ``{"spec", "labels_sha256", "labels"}`` per
    completed request. Returns the failures and the specs they hit.
    """
    failures: list[str] = []
    bad: set[tuple] = set()
    by_spec: dict[tuple, set[str]] = {}
    for item in results:
        spec = item["spec"]
        labels = np.asarray(item["labels"], dtype=np.int64)
        problems = check_labels(labels, n_nodes)
        if labels_sha(labels) != item["labels_sha256"]:
            problems.append("labels do not hash to the reported sha")
        if problems:
            bad.add(spec)
            failures.extend(f"{spec}: {p}" for p in problems)
        by_spec.setdefault(spec, set()).add(item["labels_sha256"])
    for spec, hashes in by_spec.items():
        if len(hashes) != 1:
            bad.add(spec)
            failures.append(f"{spec}: {len(hashes)} distinct labels hashes")
    return failures, bad
