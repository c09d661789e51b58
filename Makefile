# Convenience targets for logp-collectives.

PY ?= python3

.PHONY: install test lint check run-smoke bench figures sweeps examples all clean

install:
	$(PY) -m pip install -e . --no-build-isolation

test:
	$(PY) -m pytest tests/

# Static gates: the codebase checkers (REPRO001 hot-loop gate and the
# rest, via `repro check`), then a lint smoke over every builder the
# collective registry knows (the list is generated, not hand-maintained)
# and a chunked lint of P=10^6 implicit plans (both builders, both tree
# families); ruff and mypy run when installed, else are skipped loudly —
# CI installs both, so nothing is skipped there.
lint:
	PYTHONPATH=src $(PY) -m repro.cli check src/repro
	@for b in $$(PYTHONPATH=src $(PY) -m repro.cli builders --names); do \
		echo "== lint --builder $$b"; \
		PYTHONPATH=src $(PY) -m repro.cli lint --builder $$b || exit 1; \
	done
	@for b in broadcast reduction; do \
		for f in optimal binomial; do \
			echo "== lint --builder $$b --implicit --family $$f"; \
			PYTHONPATH=src $(PY) -m repro.cli lint --builder $$b --implicit \
				-P 1000000 -L 4 --o 1 --g 2 --family $$f || exit 1; \
		done; \
	done
	@out=$$(mktemp) || exit 1; trap 'rm -f "$$out"' EXIT; \
	for f in tests/data/lint_corpus/*.json; do \
		case $$f in */expected.json) continue;; esac; \
		echo "== opt canonicalize $$f"; \
		PYTHONPATH=src $(PY) -m repro.cli opt $$f --pipeline canonicalize \
			--verify-each --fail-on never --out "$$out" || exit 1; \
		cmp "$$out" $$f || exit 1; \
	done
	@if $(PY) -m ruff --version >/dev/null 2>&1; then \
		$(PY) -m ruff check src tests benchmarks/harness.py || exit 1; \
	else \
		echo "SKIP: ruff not installed (CI runs it)"; \
	fi
	@if $(PY) -m mypy --version >/dev/null 2>&1; then \
		$(PY) -m mypy || exit 1; \
	else \
		echo "SKIP: mypy not installed (CI runs it)"; \
	fi

# Codebase checkers (REPRO001, REPRO003-REPRO008) over the whole package; fails
# on any warning.  Skips loudly when the package sources are absent
# (e.g. a docs-only checkout) — CI always runs it for real.
check:
	@if [ -d src/repro ]; then \
		PYTHONPATH=src $(PY) -m repro.cli check src/repro || exit 1; \
	else \
		echo "SKIP: src/repro not present"; \
	fi

# Real-transport execution smoke (S37): every registered collective is
# lowered to per-rank programs, executed on the inproc and mp
# transports, and byte-verified against the simulator's delivered
# multiset; then the P=256 broadcast on both transports, the P=256
# all-to-all on mp, whose jobs and batches span several pipe buffers,
# and the closed-form allreduce at P=200 on mp (277 ranks, 3878 sends).
run-smoke:
	@for t in inproc mp; do \
		for b in $$(PYTHONPATH=src $(PY) -m repro.cli builders --names); do \
			echo "== run --builder $$b --transport $$t"; \
			PYTHONPATH=src $(PY) -m repro.cli run --builder $$b \
				--transport $$t --verify || exit 1; \
		done; \
	done
	@for t in inproc mp; do \
		echo "== run --builder bcast -P 256 --transport $$t"; \
		PYTHONPATH=src $(PY) -m repro.cli run --builder bcast \
			-P 256 -L 4 --o 1 --g 2 --transport $$t --verify || exit 1; \
	done
	@echo "== run --builder all-to-all -P 256 --transport mp"
	@PYTHONPATH=src $(PY) -m repro.cli run --builder all-to-all \
		-P 256 -L 4 --o 1 --g 2 --transport mp --verify
	@echo "== run --builder allreduce -P 200 -L 3 --transport mp"
	@PYTHONPATH=src $(PY) -m repro.cli run --builder allreduce \
		-P 200 -L 3 --transport mp --verify

bench:
	PYTHONPATH=src $(PY) benchmarks/harness.py --out BENCH.json
	PYTHONPATH=src $(PY) -m pytest -m perf benchmarks/test_perf_regression.py

bench-micro:
	$(PY) -m pytest benchmarks/ --benchmark-only

figures:
	$(PY) -m repro.cli figures

sweeps:
	$(PY) -m repro.cli sweeps

# Every example is a self-checking script: each asserts its headline
# claims and exits non-zero on failure, so this target doubles as a
# smoke suite (CI runs it in the `examples` job).
examples:
	@for ex in examples/*.py; do \
		echo "== $$ex"; PYTHONPATH=src $(PY) $$ex || exit 1; \
	done

all: test bench

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .hypothesis src/*.egg-info
