"""Run one workload in this process and write its measurements as JSON.

Started by ``run.py`` as a subprocess per workload, so an exception or
an OOM kill here costs one workload's result, never the harness::

    PYTHONPATH=src python perfbench/worker.py --workload cora-mlrmcl \
        --seed 0 --seconds 1 --trace 0 --workdir scratch --out result.json

Set-up runs several times (the reported ``setup_s`` is the median);
every timed operation gets freshly set-up inputs, and
operations repeat until ``--seconds`` of timed wall clock have passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
from repro.obs.metrics import MetricsRegistry, metrics_active
from workloads import WORKLOADS, Context

#: Set-up runs at least SETUP_REPEATS times, and keeps repeating (up to
#: SETUP_MAX_REPEATS) until SETUP_MIN_S seconds of set-up are sampled,
#: so that a set-up of a few milliseconds still yields a steady median.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_MIN_S = 1.0


def _cpu_s() -> float:
    """User + system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, size: str,
    workdir: Path,
) -> dict:
    recorder = layers.SpanRecorder() if trace else None
    ctx = Context(workdir=workdir, seed=seed, size=size, recorder=recorder)
    workload = WORKLOADS[name](ctx)
    setups: list[float] = []

    def fresh(index: int) -> dict:
        start = time.perf_counter()
        inputs = workload.setup(index)
        setups.append(time.perf_counter() - start)
        return inputs

    # The last set-up sample is taken with the first operation's inputs.
    while len(setups) < SETUP_REPEATS - 1 or (
        sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS - 1
    ):
        workload.teardown(fresh(len(setups)))

    walls: list[float] = []
    cpus: list[float] = []
    extras: dict[str, list[float]] = {}
    failures: list[str] = []
    attempted = failed = 0
    span_cost = layers.wrapper_cost_s() if recorder is not None else 0.0
    while True:
        inputs = fresh(len(setups))
        mark = len(recorder.spans) if recorder is not None else 0
        try:
            with contextlib.ExitStack() as stack:
                if recorder is not None:
                    recorder.install()
                    stack.callback(recorder.uninstall)
                    stack.enter_context(metrics_active(MetricsRegistry()))
                    stack.enter_context(recorder.span("op"))
                cpu = _cpu_s()
                start = time.perf_counter()
                outcome = workload.run(inputs)
                walls.append(time.perf_counter() - start)
                cpus.append(_cpu_s() - cpu + outcome.child_cpu_s)
            problems = outcome.errors + workload.check(inputs, outcome)
        except Exception:  # noqa: BLE001 - one failed operation
            traceback.print_exc()
            attempted += workload.p.get("requests", 1)
            failed += workload.p.get("requests", 1)
            failures.append(f"{name}: operation raised (see stderr)")
            break
        finally:
            workload.teardown(inputs)
        attempted += outcome.attempted
        failed += max(outcome.failed, 1 if problems else 0)
        failures.extend(problems)
        if recorder is not None:
            # Daemon spans are merged at teardown, so the slice holds
            # every span of this operation.
            spans = [s for s in recorder.spans[mark:] if "end" in s]
            outcome.extras.update(layers.layer_metrics(spans))
            outcome.extras["trace.coverage"] = layers.coverage(spans, "op")
            outcome.extras["trace.overhead_s"] = span_cost * len(spans)
        for key, value in outcome.extras.items():
            extras.setdefault(key, []).append(value)
        if sum(walls) >= seconds:
            break

    metrics = {
        "setup_s": statistics.median(setups),
        **{key: statistics.median(v) for key, v in extras.items()},
    }
    if walls:
        wall_key = "trace.wall_s" if recorder is not None else "wall_s"
        metrics[wall_key] = statistics.median(walls)
        metrics["cpu_s"] = statistics.median(cpus)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "failures": failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        report = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.size, args.workdir,
        )
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
