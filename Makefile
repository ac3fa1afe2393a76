# Local mirror of the CI pipeline (.github/workflows/ci.yml).
# Every CI job has a target here so failures reproduce locally:
#
#   make test          tier-1 suite (the hard gate)
#   make lint          ruff check (blocking in CI)
#   make format-check  ruff format --check (advisory in CI)
#   make fault-smoke   fault-injection marker subset
#   make chaos-smoke   chaos-harness recovery subset (retries, budgets)
#   make bench-smoke   Table 1/2 subset + all-pairs/MLR-MCL/apply tests
#   make scale-smoke   out-of-core 50k-node smoke under wall/mem budget
#   make cache-smoke   cache identity + SIGKILL/resume smoke
#   make serve-smoke   service daemon boot/dedup/drain smoke
#   make serve-chaos   SIGKILL/restart durability smoke (--state-dir)
#   make perfbench-smoke  end-to-end benchmark's own tests (tiny inputs)
#   make coverage      pytest-cov gate (falls back to the stdlib tool)
#   make ci            everything the PR gate runs
#
# The repo is used uninstalled via PYTHONPATH=src, matching ROADMAP.md.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint format-check fault-smoke chaos-smoke bench-smoke \
	scale-smoke cache-smoke serve-smoke serve-chaos perfbench-smoke \
	coverage ci clean

test:
	$(PYTHON) -m pytest -x -q

lint:
	ruff check src tests benchmarks tools

format-check:
	ruff format --check src tests benchmarks tools

fault-smoke:
	$(PYTHON) -m pytest -m fault_smoke -q

chaos-smoke:
	$(PYTHON) -m pytest -m chaos_smoke -q

bench-smoke:
	REPRO_BENCH_SCALE=0.25 $(PYTHON) -m pytest -q \
		benchmarks/test_table1_datasets.py \
		benchmarks/test_table2_edges.py
	$(PYTHON) -m pytest -q tests/test_linalg_allpairs.py \
		tests/test_perf.py::TestBenchSmoke \
		tests/test_cluster_algorithms.py::TestMLRMCL \
		tests/test_symmetrize_apply.py

scale-smoke:
	REPRO_SCALE_SMOKE=1 $(PYTHON) -m pytest -m scale_smoke -q
	$(PYTHON) -m pytest -q tests/test_linalg_mmcsr.py \
		tests/test_scale_bench.py

cache-smoke:
	$(PYTHON) tools/cache_smoke.py

serve-smoke:
	$(PYTHON) tools/serve_smoke.py --deadline 60

serve-chaos:
	$(PYTHON) tools/serve_smoke.py --chaos --deadline 90

perfbench-smoke:
	$(PYTHON) -m pytest -q perfbench/tests

coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest -q --cov=repro --cov-report=term; \
	else \
		echo "pytest-cov not installed; using stdlib tracer"; \
		$(PYTHON) tools/measure_coverage.py; \
	fi

ci: lint test fault-smoke chaos-smoke bench-smoke scale-smoke cache-smoke \
	serve-smoke serve-chaos perfbench-smoke

clean:
	rm -rf .pytest_cache .ruff_cache coverage.xml .coverage
