# Developer entry points.  Everything here is also runnable by hand —
# the Makefile only pins the incantations (PYTHONPATH, addopts
# overrides, bench env vars) so they are one word each.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint clean bench bench-islands stress

# Sweep compiled bytecode before the suite: a stale __pycache__ can
# shadow a deleted or renamed module (an orphaned cli.cpython-*.pyc
# resolves `import repro.cli` long after the source moved) and make
# tests pass against code that no longer exists.
test: clean
	$(PYTHON) -m pytest -x -q

lint:
	ruff check src tests benchmarks

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	find . -name '*.pyc' -delete
	rm -rf .pytest_cache .ruff_cache .coverage

# Full-size benches; pass JSON=path/to/results.json for the
# machine-readable artifact.
JSON ?=
_JSON_FLAG = $(if $(JSON),--json $(JSON),)

bench:
	$(PYTHON) -m pytest -q -o addopts="" $(_JSON_FLAG) \
	    benchmarks/bench_evaluation.py benchmarks/bench_store.py \
	    benchmarks/bench_telemetry.py benchmarks/bench_islands.py \
	    benchmarks/bench_micro_metrics.py

bench-islands:
	$(PYTHON) -m pytest -q -s -o addopts="" $(_JSON_FLAG) \
	    benchmarks/bench_islands.py

stress:
	$(PYTHON) -m pytest -q -m stress
