"""The benchmark's workloads: inputs from a seed, one timed operation,
and the output checks.

Every workload runs the library through its public entry points, the
way a user of the paper's pipeline would: ingest → §5.3.1 threshold
for a target mean degree → degree-discounted symmetrize + prune →
cluster → Avg-F, or the same pipeline behind ``repro serve``. Each
has a ``full`` size (the one the benchmark measures, sized for a
2-core, 7 GiB machine) and a ``tiny`` size that runs the same code
paths in seconds, for the benchmark's own tests.

Calls into the library go through the module or class attribute that
:mod:`layers` patches in a traced run (``pruning.choose_threshold_for
_degree``, ``gio.read_edge_list``, methods looked up on their class),
so the traced and untraced runs execute the same code.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import checks
import repro
from repro.cluster.common import Clustering
from repro.datasets import make_cora_like, make_wikipedia_like
from repro.eval.fmeasure import average_f_score
from repro.exceptions import ReproError
from repro.graph import io as gio
from repro.graph.generators import power_law_edge_chunks
from repro.pipeline.pipeline import SymmetrizeClusterPipeline
from repro.symmetrize import pruning
from repro.symmetrize.degree_discounted import (
    DegreeDiscountedSymmetrization,
)

#: §5.3.1 target mean degree of the pruned graph (ROADMAP item 1).
TARGET_DEGREE = 20.0

#: Seed of every input graph generator and of the §5.3.1 row sample.
#: The pipeline inputs are fixed so that a run's figures move with the
#: code, not with the input: MLR-MCL's run time on ``cora-mlrmcl``
#: swings by a third when the sampled threshold moves by 1%, and its
#: collapse into one cluster comes and goes with the generator seed.
#: ``--seed`` picks the rows the output checks recompute and the
#: service's request order.
INPUT_SEED = 0

PERFBENCH = Path(__file__).resolve().parent
SRC = Path(repro.__file__).resolve().parent.parent


@dataclass
class Context:
    """What a workload needs to know about the run it is part of."""

    workdir: Path
    seed: int
    size: str = "full"
    #: The traced run's recorder; daemon spans are merged into it.
    recorder: Any = None


@dataclass
class Outcome:
    """Result of one timed operation."""

    attempted: int
    failed: int = 0
    #: Output the checks inspect, outside the timed region.
    output: dict[str, Any] = field(default_factory=dict)
    #: Reported metrics that are not timings of the whole operation.
    extras: dict[str, float] = field(default_factory=dict)
    #: CPU seconds spent in processes that were not waited for yet.
    child_cpu_s: float = 0.0
    errors: list[str] = field(default_factory=list)


def choose_threshold(graph) -> float:
    """§5.3.1: materialize the similarities, pick t for the target degree.

    The full ``apply`` is what ROADMAP item 1 names as the obstacle to
    the recipe at scale; the benchmark times it as the seed runs it.
    """
    full = DegreeDiscountedSymmetrization().apply(graph)
    threshold = pruning.choose_threshold_for_degree(
        full, TARGET_DEGREE, rng=np.random.default_rng(INPUT_SEED)
    )
    del full
    return threshold


class Workload:
    name = ""
    sizes: dict[str, dict[str, Any]] = {}

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.p = self.sizes[ctx.size]

    def setup(self, index: int) -> dict[str, Any]:
        raise NotImplementedError

    def run(self, inputs: dict[str, Any]) -> Outcome:
        raise NotImplementedError

    def check(self, inputs: dict[str, Any], outcome: Outcome) -> list[str]:
        raise NotImplementedError

    def teardown(self, inputs: dict[str, Any]) -> None:
        """Release what ``setup`` or ``run`` left behind."""


class PipelineWorkload(Workload):
    """Generator → threshold → ``SymmetrizeClusterPipeline`` → Avg-F."""

    def generate(self):
        raise NotImplementedError

    def setup(self, index: int) -> dict[str, Any]:
        return {"dataset": self.generate()}

    def run(self, inputs: dict[str, Any]) -> Outcome:
        ds = inputs["dataset"]
        threshold = choose_threshold(ds.graph)
        # tuning="auto" routes stage 1 through apply_pruned (serially
        # at these sizes), the fast path the paper's §3.6 describes.
        pipe = SymmetrizeClusterPipeline(
            "degree_discounted",
            "mlrmcl",
            threshold=threshold,
            tuning="auto",
        )
        result = pipe.run(
            ds.graph,
            n_clusters=self.p["k"],
            ground_truth=ds.ground_truth,
        )
        return Outcome(
            attempted=1,
            output={"threshold": threshold, "result": result},
        )

    def check(self, inputs: dict[str, Any], outcome: Outcome) -> list[str]:
        ds = inputs["dataset"]
        result = outcome.output["result"]
        pruned = result.symmetrized
        outcome.extras.update(
            avg_f=float(result.average_f),
            singleton_frac=pruning.singleton_fraction(pruned),
        )
        return checks.check_pruned_graph(
            ds.graph,
            pruned,
            outcome.output["threshold"],
            TARGET_DEGREE,
            self.ctx.seed,
        ) + checks.check_labels(
            result.clustering.labels,
            ds.graph.n_nodes,
            ds.ground_truth,
            result.average_f,
        )


class CoraMLRMCL(PipelineWorkload):
    name = "cora-mlrmcl"
    sizes = {
        "full": {"n": 17_604, "categories": 70, "k": 70},
        "tiny": {"n": 400, "categories": 8, "k": 8},
    }

    def generate(self):
        return make_cora_like(
            n_nodes=self.p["n"],
            n_categories=self.p["categories"],
            seed=INPUT_SEED,
        )


class WikiHubs(PipelineWorkload):
    name = "wiki-hubs"
    sizes = {
        "full": {"n": 5_000, "categories": 60, "k": 60},
        "tiny": {"n": 400, "categories": 8, "k": 8},
    }

    def generate(self):
        return make_wikipedia_like(
            n_nodes=self.p["n"],
            n_categories=self.p["categories"],
            seed=INPUT_SEED,
        )


class PowerLaw100k(Workload):
    """Streaming ingest → threshold → ``apply_pruned``; no clusterer.

    MLR-MCL is OOM-killed at this density today and Metis takes about
    a minute, so clustering would hide the symmetrize layers.
    """

    name = "powerlaw-100k"
    sizes = {
        "full": {"n": 100_000, "d_max": 100},
        "tiny": {"n": 3_000, "d_max": 40},
    }

    def setup(self, index: int) -> dict[str, Any]:
        n = self.p["n"]
        keys = []
        for rows, cols, _ in power_law_edge_chunks(
            n, np.random.default_rng(INPUT_SEED), d_max=self.p["d_max"]
        ):
            keys.append(rows.astype(np.int64) * n + cols)
        # Duplicate draws collapse to one unweighted edge, as in
        # power_law_mmcsr, so ingest sees a clean edge list.
        keys = np.unique(np.concatenate(keys))
        path = self.ctx.workdir / f"powerlaw-{index}.tsv"
        with open(path, "w") as f:
            f.write(f"# power-law digraph, n={n}\n")
            np.savetxt(f, np.column_stack((keys // n, keys % n)), fmt="%d")
        return {"path": path, "store": path.with_suffix(".mmcsr")}

    def run(self, inputs: dict[str, Any]) -> Outcome:
        shutil.rmtree(inputs["store"], ignore_errors=True)
        graph = gio.read_edge_list(
            inputs["path"],
            streaming=True,
            n_nodes=self.p["n"],
            store_dir=inputs["store"],
        )
        threshold = choose_threshold(graph)
        pruned = DegreeDiscountedSymmetrization().apply_pruned(
            graph, threshold
        )
        return Outcome(
            attempted=1,
            output={"graph": graph, "threshold": threshold, "pruned": pruned},
        )

    def check(self, inputs: dict[str, Any], outcome: Outcome) -> list[str]:
        out = outcome.output
        outcome.extras["singleton_frac"] = pruning.singleton_fraction(
            out["pruned"]
        )
        return checks.check_pruned_graph(
            out["graph"], out["pruned"], out["threshold"], TARGET_DEGREE,
            self.ctx.seed,
        )

    def teardown(self, inputs: dict[str, Any]) -> None:
        shutil.rmtree(inputs["store"], ignore_errors=True)
        inputs["path"].unlink(missing_ok=True)


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process (Linux ``/proc``)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


class ServeMixed(Workload):
    """A closed loop of cluster requests against ``repro serve``.

    Two client threads each wait for their result before sending the
    next request. Requests follow a seeded Zipf law over a fixed set of
    distinct specs (clusterer x cluster count) on one registered graph
    and one §5.3.1 threshold, so every spec shares the stage-1 artifact
    and repeats are deduplicated. Every spec is requested at least
    once, so each run executes the same set of jobs and only their
    order and the repeats vary with the seed.
    """

    name = "serve-mixed"
    sizes = {
        "full": {
            "n": 3_000,
            "ks": (10, 15, 20, 25, 30, 35, 40, 45),
            "requests": 100,
        },
        "tiny": {"n": 300, "ks": (4, 6), "requests": 12},
    }
    clusterers = ("mlrmcl", "metis")
    clients = 2
    zipf_exponent = 1.0

    def request_order(self) -> list[tuple[str, int]]:
        specs = [(c, k) for c in self.clusterers for k in self.p["ks"]]
        rng = np.random.default_rng([self.ctx.seed, 2])
        ranked = [specs[i] for i in rng.permutation(len(specs))]
        weights = 1.0 / np.arange(1, len(specs) + 1) ** self.zipf_exponent
        draws = rng.choice(
            len(specs),
            size=self.p["requests"] - len(specs),
            p=weights / weights.sum(),
        )
        order = ranked + [ranked[i] for i in draws]
        return [order[i] for i in rng.permutation(len(order))]

    def _boot(self, index: int) -> dict[str, Any]:
        workdir = self.ctx.workdir
        data_dir = workdir / f"service-{index}"
        serve = [
            "serve", "--port", "0", "--workers", str(self.clients),
            "--data-dir", str(data_dir),
        ]
        spans_path = workdir / f"daemon-spans-{index}.json"
        if self.ctx.recorder is not None:
            cmd = [
                sys.executable, str(PERFBENCH / "tracedaemon.py"),
                "--spans-out", str(spans_path), *serve,
            ]
        else:
            cmd = [sys.executable, "-m", "repro", *serve]
        log_path = workdir / f"daemon-{index}.log"
        log = open(log_path, "w")
        # The daemon imports the same library sources as this process.
        paths = [str(SRC), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.Popen(
            cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
            cwd=str(workdir),
        )
        inputs = {
            "proc": proc, "log": log, "log_path": log_path,
            "data_dir": data_dir, "spans_path": spans_path,
        }
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            match = re.search(
                r"listening on http://[\d.]+:(\d+)", log_path.read_text()
            )
            if match:
                inputs["port"] = int(match.group(1))
                return inputs
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        self.teardown(inputs)
        raise RuntimeError(
            "service daemon did not start:\n" + log_path.read_text()
        )

    def setup(self, index: int) -> dict[str, Any]:
        from repro.service import ServiceClient

        inputs = self._boot(index)
        try:
            ds = make_cora_like(n_nodes=self.p["n"], seed=INPUT_SEED)
            ServiceClient("127.0.0.1", inputs["port"]).register_graph(
                "cora", ds.graph
            )
            inputs["dataset"] = ds
            inputs["threshold"] = choose_threshold(ds.graph)
        except BaseException:
            self.teardown(inputs)
            raise
        return inputs

    def run(self, inputs: dict[str, Any]) -> Outcome:
        from repro.service import ServiceClient

        port, threshold = inputs["port"], inputs["threshold"]
        pending = list(reversed(self.request_order()))
        lock = threading.Lock()
        records: list[dict[str, Any]] = []
        errors: list[str] = []

        def client_loop(index: int) -> None:
            client = ServiceClient(
                "127.0.0.1", port, client=f"bench-{index}", timeout=120.0
            )
            while True:
                with lock:
                    if not pending:
                        return
                    spec = pending.pop()
                start = time.perf_counter()
                try:
                    job = client.submit(
                        kind="cluster", graph="cora",
                        method="degree_discounted", clusterer=spec[0],
                        threshold=threshold, n_clusters=spec[1],
                    )
                    result = client.result(job["job_id"], timeout=120.0)
                except (ReproError, OSError) as exc:
                    with lock:
                        errors.append(f"{spec}: {type(exc).__name__}: {exc}")
                    continue
                latency = time.perf_counter() - start
                with lock:
                    records.append({
                        "spec": spec,
                        "job_id": job["job_id"],
                        "deduped": bool(job.get("deduped")),
                        "latency_s": latency,
                        "labels": result["labels"],
                        "labels_sha256": result["labels_sha256"],
                    })

        cpu_before = _proc_cpu_s(inputs["proc"].pid)
        start = time.perf_counter()
        threads = [
            threading.Thread(target=client_loop, args=(i,))
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        child_cpu = _proc_cpu_s(inputs["proc"].pid) - cpu_before
        latencies = [r["latency_s"] for r in records]
        # A request without a recorded result failed, also when its
        # client thread died on an unexpected error.
        unanswered = self.p["requests"] - len(records)
        if unanswered > len(errors):
            errors.append(f"{unanswered} request(s) got no result")
        return Outcome(
            attempted=self.p["requests"],
            failed=unanswered,
            errors=errors,
            child_cpu_s=child_cpu,
            output={"records": records},
            extras={
                "jobs_per_s": len(records) / wall,
                "job_p50_s": _percentile(latencies, 50),
                "job_p90_s": _percentile(latencies, 90),
                "job.samples": float(len(latencies)),
            },
        )

    def _service_layers(self, inputs: dict[str, Any], records) -> dict:
        """Queue wait and run time from job records, dedup and cache
        hit shares from ``/stats``."""
        from repro.service import ServiceClient

        client = ServiceClient("127.0.0.1", inputs["port"])
        waits, runs = [], []
        for job_id in sorted({r["job_id"] for r in records}):
            job = client.job(job_id)
            started = next(
                (e["created_unix"] for e in client.events(job_id)
                 if e.get("type") == "run_start"),
                None,
            )
            if started is not None:
                waits.append(started - job["created_unix"])
            if job.get("seconds") is not None:
                runs.append(job["seconds"])
        stats = client.stats()
        counters = stats["metrics"]["counters"]
        cache = stats["cache"]
        lookups = cache["hits"] + cache["misses"]
        return {
            "service.queue_wait_p50_s": _percentile(waits, 50),
            "service.queue_wait_p90_s": _percentile(waits, 90),
            "service.run_p50_s": _percentile(runs, 50),
            "service.run_p90_s": _percentile(runs, 90),
            "service.dedup_frac": (
                counters.get("service_dedup_hits_total", 0.0)
                / max(len(records), 1)
            ),
            "engine.cache.hit_frac": cache["hits"] / lookups if lookups else 0.0,
        }

    def check(self, inputs: dict[str, Any], outcome: Outcome) -> list[str]:
        ds = inputs["dataset"]
        records = outcome.output["records"]
        failures, bad = checks.check_service_results(records, ds.graph.n_nodes)
        # Two specs re-run in-process must give the service's labels.
        by_spec = {r["spec"]: r["labels_sha256"] for r in records}
        for clusterer in self.clusterers:
            served = sorted(s for s in by_spec if s[0] == clusterer)
            if not served:
                failures.append(f"no {clusterer} request completed")
                continue
            spec = served[0]
            local = SymmetrizeClusterPipeline(
                "degree_discounted", clusterer, threshold=inputs["threshold"]
            ).run(ds.graph, n_clusters=spec[1])
            sha = checks.labels_sha(local.clustering.labels)
            if sha != by_spec[spec]:
                bad.add(spec)
                failures.append(
                    f"{spec}: service labels {by_spec[spec]} differ from "
                    f"the in-process pipeline's {sha}"
                )
        outcome.failed += sum(1 for r in records if r["spec"] in bad)
        scores = [
            average_f_score(
                Clustering(np.asarray(labels)), ds.ground_truth
            )
            for labels in {
                r["spec"]: r["labels"] for r in records
            }.values()
        ]
        outcome.extras["avg_f"] = statistics.mean(scores) if scores else 0.0
        outcome.extras.update(self._service_layers(inputs, records))
        return failures

    def teardown(self, inputs: dict[str, Any]) -> None:
        from repro.service import ServiceClient

        proc = inputs["proc"]
        if proc.poll() is None and "port" in inputs:
            try:
                ServiceClient("127.0.0.1", inputs["port"], timeout=30.0).shutdown()
            except (ReproError, OSError):
                pass
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        inputs["log"].close()
        if self.ctx.recorder is not None and inputs["spans_path"].exists():
            self.ctx.recorder.merge(
                json.loads(inputs["spans_path"].read_text())
            )
        shutil.rmtree(inputs["data_dir"], ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (CoraMLRMCL, PowerLaw100k, WikiHubs, ServeMixed)
}
