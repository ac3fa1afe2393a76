"""The ``repro bench`` harnesses.

- :mod:`~repro.perf.bench` — the ``repro bench`` harness: a
  symmetrize + cluster sweep over synthetic power-law graphs across
  sizes and backends that emits ``BENCH_allpairs.json`` with
  per-backend timings and regression thresholds.
- :mod:`~repro.perf.scale_bench` — the ``repro bench --scale``
  harness: mmap-backed 100k/1M-node graphs through the out-of-core
  sharded symmetrize → prune path, emitting ``BENCH_scale.json``
  with timing points, peak-RSS high-water marks and a
  shard-vs-monolithic identity check.

Both read their per-run observations (candidate pairs, pruned pairs,
MLR-MCL iterations, ...) from :mod:`repro.obs` spans and metrics, the
library's only instrumentation path.
"""
