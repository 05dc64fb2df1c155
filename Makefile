# Convenience targets for the repro toolchain.

.PHONY: install test test-fast bench bench-runtime bench-fastpath bench-net bench-kernels bench-multiedge bench-serve bench-workload bench-compare experiments experiments-full examples lint clean

install:
	pip install -e . --no-build-isolation

# The tier-1 invocation — identical to what CI runs.
test:
	PYTHONPATH=src python -m pytest -x -q

# Inner-loop subset: skip the seconds-scale simulator suites.
test-fast:
	PYTHONPATH=src python -m pytest -x -q -m "not slow and not des"

bench:
	pytest benchmarks/ --benchmark-only

bench-runtime:
	PYTHONPATH=src python benchmarks/bench_runtime.py

bench-fastpath:
	PYTHONPATH=src python benchmarks/bench_fastpath.py

bench-net:
	PYTHONPATH=src python benchmarks/bench_net.py

bench-kernels:
	PYTHONPATH=src python benchmarks/bench_kernels.py

bench-multiedge:
	PYTHONPATH=src python benchmarks/bench_multiedge.py

bench-serve:
	PYTHONPATH=src python benchmarks/bench_serve.py

bench-workload:
	PYTHONPATH=src python benchmarks/bench_workload.py

# Compare fresh quick-mode benchmarks against the committed baselines
# (exit non-zero on regression). OLD/NEW are overridable:
#   make bench-compare OLD=BENCH_net.json NEW=out/bench_net.json
OLD ?= BENCH_net.json
NEW ?= BENCH_net.json
bench-compare:
	PYTHONPATH=src python -m repro.obs.bench compare $(OLD) $(NEW) --tolerance 0.5

experiments:
	python -m repro.experiments

experiments-full:
	python -m repro.experiments --full

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		python $$script || exit 1; \
	done

# Each package is also imported first in a fresh interpreter, so an import
# cycle between packages fails here whatever order the tests import in.
IMPORT_FIRST = repro repro.core repro.core.estimation repro.simulation \
	repro.net repro.serve repro.workload repro.experiments

lint:
	python -m compileall -q src tests benchmarks examples
	PYTHONPATH=src python -m pytest --collect-only -q > /dev/null
	@for module in $(IMPORT_FIRST); do \
		PYTHONPATH=src python -c "import $$module" || exit 1; \
	done

clean:
	rm -rf .pytest_cache .hypothesis build dist *.egg-info src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
