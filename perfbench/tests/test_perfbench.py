"""Tests of the benchmark itself, on its ``tiny`` inputs (seconds).

Run from the repository root::

    python -m pytest -q perfbench/tests

They run every workload's code path through the real command, check
that it prints every metric of ``BENCHMARK.json`` with its unit, and
plant defects (a dropped pruned edge, a relabelled node) that the
output checks must catch.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import checks
from repro.graph.ugraph import UndirectedGraph
from workloads import WORKLOADS, Context, CoraMLRMCL, ServeMixed

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$"


def run_bench(*args: str, env: dict | None = None, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_contract_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.match(NAME, n) for n in names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    done = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--size", "tiny",
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True
    assert report["attempted"] >= 1 and report["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in report["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in report["metrics"].values())
    else:
        assert report["metrics"]["trace.wall_s"]["value"] > 0
        if workload != "serve-mixed":
            # Layer spans account for the operation's wall clock.
            assert report["metrics"]["trace.coverage"]["value"] >= 0.9
    # Every metric is also printed by name for a human reader.
    for name in report["metrics"]:
        assert name in done.stdout


def test_outside_a_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        PERFBENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    done = run_bench("--workload", "cora-mlrmcl", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ---------------------------------------------------------------------------
# Planted defects


def _tiny_cora(tmp_path, seed=5):
    ctx = Context(workdir=tmp_path, seed=seed, size="tiny")
    workload = CoraMLRMCL(ctx)
    inputs = workload.setup(0)
    outcome = workload.run(inputs)
    assert workload.check(inputs, outcome) == []
    return workload, inputs, outcome


def _without_edge(graph: UndirectedGraph, i: int, j: int) -> UndirectedGraph:
    adj = sp.lil_array(graph.adjacency)
    adj[i, j] = 0.0
    adj[j, i] = 0.0
    csr = sp.csr_array(adj)
    csr.eliminate_zeros()
    return UndirectedGraph(csr, validate=False)


def test_dropping_one_pruned_edge_fails_the_checks(tmp_path):
    workload, inputs, outcome = _tiny_cora(tmp_path)
    pruned = outcome.output["result"].symmetrized
    adj = sp.csr_array(pruned.adjacency)
    row = int(checks.sample_rows(adj.shape[0], workload.ctx.seed)[0])
    col = int(adj.indices[adj.indptr[row]])
    failures = checks.check_pruned_graph(
        inputs["dataset"].graph, _without_edge(pruned, row, col),
        outcome.output["threshold"], 20.0, workload.ctx.seed,
    )
    assert any("missing" in f for f in failures), failures


def test_keeping_one_edge_below_threshold_fails_the_checks(tmp_path):
    workload, inputs, outcome = _tiny_cora(tmp_path)
    pruned = outcome.output["result"].symmetrized
    adj = sp.lil_array(pruned.adjacency)
    row = int(checks.sample_rows(adj.shape[0], workload.ctx.seed)[0])
    col = next(j for j in range(adj.shape[0])
               if j != row and adj[row, j] == 0)
    adj[row, col] = adj[col, row] = 1e-6
    failures = checks.check_pruned_graph(
        inputs["dataset"].graph,
        UndirectedGraph(sp.csr_array(adj), validate=False),
        outcome.output["threshold"], 20.0, workload.ctx.seed,
    )
    assert any("below the threshold" in f for f in failures), failures


def test_relabelling_one_node_fails_the_label_check(tmp_path):
    _, inputs, outcome = _tiny_cora(tmp_path)
    result = outcome.output["result"]
    truth = inputs["dataset"].ground_truth
    labels = result.clustering.labels.copy()
    # A labelled node of the largest cluster moves to a cluster of
    # its own: the reported Avg-F no longer describes the labels.
    largest = np.bincount(labels).argmax()
    labelled = np.asarray(truth.membership.sum(axis=1)).ravel() > 0
    node = np.flatnonzero((labels == largest) & labelled)[0]
    labels[node] = labels.max() + 1
    failures = checks.check_labels(
        labels, labels.size, truth, result.average_f
    )
    assert failures and "Avg-F" in failures[0]
    assert checks.check_labels(labels[:-1], labels.size) != []


def test_relabelled_service_result_fails_the_service_checks(tmp_path):
    ctx = Context(workdir=tmp_path, seed=2, size="tiny")
    workload = ServeMixed(ctx)
    inputs = workload.setup(0)
    try:
        outcome = workload.run(inputs)
        records = outcome.output["records"]
        n = inputs["dataset"].graph.n_nodes
        assert checks.check_service_results(records, n) == ([], set())
        # The node's label changes but the reported hash does not.
        tampered = [dict(r) for r in records]
        tampered[0]["labels"] = list(tampered[0]["labels"])
        tampered[0]["labels"][0] += 1
        failures, bad = checks.check_service_results(tampered, n)
        assert bad == {tampered[0]["spec"]} and failures
        # A consistent but wrong result (hash recomputed) for every
        # request is caught by the in-process re-run.
        for record in outcome.output["records"]:
            labels = np.asarray(record["labels"])
            labels[0] = labels.max() + 1
            record["labels"] = labels.tolist()
            record["labels_sha256"] = checks.labels_sha(labels)
        failures = workload.check(inputs, outcome)
        assert any("in-process" in f for f in failures), failures
        # Every request of a re-run spec counts as failed.
        specs = {r["spec"] for r in records}
        rerun = {min(s for s in specs if s[0] == c) for c in ("mlrmcl", "metis")}
        assert outcome.failed == sum(r["spec"] in rerun for r in records)
    finally:
        workload.teardown(inputs)


def test_program_defect_makes_the_command_fail(tmp_path):
    """A defect planted in the library (apply_pruned drops one edge of
    a checked row) makes the command report it and exit nonzero."""
    (tmp_path / "sitecustomize.py").write_text(textwrap.dedent("""
        import numpy as np
        import scipy.sparse as sp
        from repro.graph.ugraph import UndirectedGraph
        from repro.symmetrize.degree_discounted import (
            DegreeDiscountedSymmetrization as DD,
        )
        import checks

        original = DD.apply_pruned

        def apply_pruned(self, graph, threshold, **kwargs):
            adj = sp.lil_array(original(self, graph, threshold, **kwargs)
                               .adjacency)
            row = int(checks.sample_rows(adj.shape[0], 7)[0])
            col = int(adj.rows[row][0])
            adj[row, col] = adj[col, row] = 0.0
            csr = sp.csr_array(adj)
            csr.eliminate_zeros()
            return UndirectedGraph(csr, validate=False)

        DD.apply_pruned = apply_pruned
    """))
    paths = [str(ROOT / "src"), str(PERFBENCH), str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = run_bench("--workload", "powerlaw-100k", "--seed", "7",
                     "--seconds", "0", "--trace", "0", "--size", "tiny",
                     env=env)
    assert done.returncode == 1
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["correct"] is False and report["failed"] == 1
    assert "CHECK FAILED" in done.stderr


def test_killed_worker_counts_as_failed_and_leaves_no_daemon(tmp_path):
    """The worker is SIGKILLed (as by the OOM killer) mid-run: the
    harness reports a failed operation, exits 1 and stops the daemon
    the worker had started."""
    (tmp_path / "sitecustomize.py").write_text(textwrap.dedent("""
        import os
        import signal

        from repro.service.client import ServiceClient

        def submit(self, **spec):
            os.kill(os.getpid(), signal.SIGKILL)

        ServiceClient.submit = submit
    """))
    paths = [str(ROOT / "src"), str(PERFBENCH), str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = run_bench("--workload", "serve-mixed", "--seed", "1",
                     "--seconds", "0", "--trace", "0", "--size", "tiny",
                     env=env)
    assert done.returncode == 1
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["correct"] is False and report["failed"] >= 1
    scratch = str(ROOT / ".perfbench" / "serve-mixed-")
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            assert scratch not in cmdline.read_text()
        except OSError:
            continue
