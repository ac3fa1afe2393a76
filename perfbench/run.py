"""End-to-end benchmark of the symmetrize → prune → cluster pipeline.

Run from the root of a checkout (the metric definitions come from
``BENCHMARK.json`` there)::

    python3 perfbench/run.py --workload cora-mlrmcl --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                # every workload, then a table
    python3 perfbench/run.py --trace 1      # also the traced runs

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the ``end_to_end``
metrics of ``BENCHMARK.json`` with ``--trace 0``, its ``per_layer``
metrics with ``--trace 1``. Each workload runs in its own subprocess
(``worker.py``), so an exception or an OOM kill counts as a failed
operation instead of killing the harness. The exit code is nonzero when
an output check fails or the workload does not finish.

``--size tiny`` runs the same code paths on inputs that take seconds;
the benchmark's own tests use it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run must end within this many seconds; the worker gets the rest.
RUN_DEADLINE_S = 175.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(args: argparse.Namespace, spec: dict) -> dict:
    """Run one workload in a worker subprocess and shape its report."""
    started = time.monotonic()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tag = f"{args.workload}-{os.getpid()}"
    out = scratch / f"{tag}.json"
    out.unlink(missing_ok=True)
    paths = [str(ROOT / "src"), str(HERE), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--workdir", str(scratch / tag), "--out", str(out),
    ]
    # The worker's own output goes to stderr: stdout ends with the
    # report line. Its own session lets a kill reach the daemon too.
    proc = subprocess.Popen(
        cmd, stdout=sys.stderr, env=env, cwd=str(ROOT),
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=RUN_DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        code = "timeout"
    finally:
        if proc.returncode != 0:
            # Whatever a crashed, stuck or interrupted worker left
            # running goes with it.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            shutil.rmtree(scratch / tag, ignore_errors=True)
    peak = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    report = json.loads(out.read_text()) if code == 0 and out.exists() else None
    out.unlink(missing_ok=True)
    with contextlib.suppress(OSError):
        scratch.rmdir()  # only when no other run is using it
    if report is None:
        print(f"{args.workload}: worker ended with {code}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    report["metrics"]["peak_rss_mib"] = peak / 1024.0  # Linux: KiB
    for failure in report.pop("failures"):
        print(f"CHECK FAILED {args.workload}: {failure}", file=sys.stderr)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = report["metrics"]
    printed = {}
    for metric in wanted:
        name = metric["name"]
        # A per-layer metric of a layer this workload never enters is 0.
        value = measured.get(name, None if not args.trace else 0.0)
        if value is None or not math.isfinite(value):
            report["correct"] = False
            continue
        printed[name] = {"value": value, "unit": metric["unit"]}
    report["metrics"] = printed
    for name, extra in sorted(measured.items()):
        if name not in printed:
            report.setdefault("extras", {})[name] = extra
    return report


def print_human(workload: str, report: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, metric in report["metrics"].items():
        print(f"{workload:14s} {name:36s} {metric['value']:>14.6g} "
              f"{metric['unit']}")
    for name, value in sorted(report.get("extras", {}).items()):
        print(f"{workload:14s} {name:36s} {value:>14.6g} "
              f"{units.get(name, '')}")
    attempted = max(report["attempted"], 1)
    print(f"{workload:14s} {'fail_frac':36s} "
          f"{report['failed'] / attempted:>14.6g} fraction "
          f"({report['failed']}/{report['attempted']})")


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload, each through its own ``--workload`` invocation."""
    status = 0
    rows = []
    for workload in spec["workloads"]:
        walls = {}
        for trace in ([0, 1] if args.trace else [0]):
            cmd = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--size", args.size,
            ]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            report = json.loads(lines[-1]) if lines else {"correct": False}
            status = status or done.returncode or (not report["correct"])
            metrics = report.get("metrics", {})
            walls[trace] = metrics.get(
                "trace.wall_s" if trace else "wall_s", {}
            ).get("value")
            rows.append((workload["name"], trace, report))
        if args.trace and None not in walls.values():
            print(f"{workload['name']:14s} {'trace overhead (traced - untraced)':36s}"
                  f" {walls[1] - walls[0]:>14.6g} s")
    print("\nsummary")
    for name, trace, report in rows:
        verdict = "ok" if report.get("correct") else "FAILED"
        print(f"  {name:14s} trace={trace} {verdict}")
    return 1 if status else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0], allow_abbrev=False
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    report = run_one(args, spec)
    print_human(args.workload, report, spec)
    report.pop("extras", None)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
