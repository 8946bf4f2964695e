# Developer entry points. Everything runs from the repo root and uses
# PYTHONPATH=src so no install step is required.

PYTHON      ?= python
PYTHONPATH  := src
export PYTHONPATH

.PHONY: loc durations baseline-diff test bench bench-scaling benchmark-smoke bench-service perf-pairs perf-smoke lint verify sweep trace-smoke chaos-smoke chaos-harness-smoke serve-smoke stream-smoke profile obs-smoke all

# Knob for `make profile` (self-profiler scheduler).
PROFILE_SCHEDULER ?= chronus

# Knobs for `make sweep` (scenario library + parallel experiment engine).
SCENARIO ?= burst
WORKERS  ?= 4
SCALE    ?= small

# Workdir for `make trace-smoke` (trace ingestion end-to-end check).
TRACE_DIR ?= .trace-smoke

## The three Python line counts the ROADMAP "HEAD baseline" line quotes.
loc:
	@for dir in src tests benchmarks; do \
		printf '%-11s %s\n' $$dir/ "$$(find $$dir -name '*.py' | xargs wc -l | tail -1 | awk '{print $$1}')"; \
	done
	@for pkg in src/repro/*/; do \
		case $$pkg in */__pycache__/) continue;; esac; \
		printf '  %-21s %s\n' $${pkg#src/} "$$(find $$pkg -name '*.py' -exec cat {} + | wc -l)"; \
	done

## Tier-1 verify: the full unit suite + every benchmark at reduced scale.
verify:
	$(PYTHON) -m pytest -x -q

## Tier-1 with its fifteen slowest tests listed (the suite's budget is
## 120 s on the reference box; this is where to look when it is spent).
durations:
	$(PYTHON) -m pytest -q --durations=15

## Unit/integration tests only (fast).
test:
	$(PYTHON) -m pytest tests -q

## Paper-artifact benchmarks + the scheduling-core scaling benchmark.
bench:
	$(PYTHON) -m pytest benchmarks -q -s

## Just the scaling benchmark (legacy-vs-optimized engine comparison).
bench-scaling:
	$(PYTHON) -m pytest benchmarks/test_bench_scaling.py -q -s

## The placement benchmark as a hard gate (the CI obs-smoke job runs it
## with REPRO_BENCH_PLACEMENT_TOLERANCE=0.05): fails when the measured
## speedup ratio regresses >20% vs the checked-in reference.
perf-smoke:
	REPRO_BENCH_STRICT=1 $(PYTHON) -m pytest benchmarks/test_bench_scaling.py -q -s -k placement

## The repo's benchmark end to end at smoke sizes, every workload that
## BENCHMARK.json declares: the harness that judges perf PRs must itself
## run, check its outputs and fail no operation.  The verdict is the JSON
## object on the last line.
benchmark-smoke:
	@set -e; for w in $$($(PYTHON) -c "import json; print(*[w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']])"); do \
		echo "benchmark-smoke: $$w"; \
		$(PYTHON) benchmarks/perf/run.py --workload $$w --smoke | tail -n 1 \
			| grep '"correct": true' | grep -q '"failed": 0' \
			|| { echo "benchmark-smoke: $$w failed"; exit 1; }; \
	done

## Seed-paired runs of the repo's benchmark in a checkout of the parent
## commit and in this tree, alternating order, ten seeds per workload
## (~40 min): digests must match, and per end-to-end metric the medians,
## quartiles, wins and the driver's two rules are printed.
##   git clone . /tmp/parent && git -C /tmp/parent checkout <parent>
##   make perf-pairs PARENT=/tmp/parent [PAIRS_ARGS="--workloads gfs_replay --seeds 1 2 3"]
perf-pairs:
	@test -n "$(PARENT)" || { echo "usage: make perf-pairs PARENT=<checkout of the parent commit>"; exit 2; }
	$(PYTHON) tools/perf_pairs.py --parent $(PARENT) $(PAIRS_ARGS)

## YARN-CS / FGD / Lyra / PTS / GFS on 75 eviction-heavy cells (5 families
## x 5 scenarios x 3 seeds, ~75 s) in a checkout of the parent commit and
## in this tree: every cell's metrics must have the same content key.
baseline-diff:
	@test -n "$(PARENT)" || { echo "usage: make baseline-diff PARENT=<checkout of the parent commit>"; exit 2; }
	$(PYTHON) tools/baseline_differential.py --parent $(PARENT)

## The service workload of the repo's benchmark at full size with the
## per-layer trace (~30 s): where a client iteration goes — fork,
## snapshot, store save, policy code (docs/performance.md, "Service
## state-copy path").
bench-service:
	$(PYTHON) benchmarks/perf/run.py --workload service_session --seed 11 --trace 1

## Scenario sweep through the parallel experiment engine, e.g.
##   make sweep SCENARIO=spot_heavy WORKERS=8 SCALE=medium
sweep:
	$(PYTHON) -m repro.experiments.cli sweep --scenario $(SCENARIO) \
		--scale $(SCALE) --workers $(WORKERS) --cache-dir .repro-cache

## Trace-ingest smoke: convert a fixture trace, validate it, inspect it,
## then run one simulation cell on it through the engine (cached).
trace-smoke:
	$(PYTHON) -m repro.experiments.cli trace convert \
		tests/fixtures/philly_small.csv $(TRACE_DIR)/philly.json.gz \
		--fleet-model A100
	$(PYTHON) -m repro.experiments.cli trace validate $(TRACE_DIR)/philly.json.gz
	$(PYTHON) -m repro.experiments.cli trace stats $(TRACE_DIR)/philly.json.gz
	$(PYTHON) -m repro.experiments.cli sweep \
		--scenario trace:$(TRACE_DIR)/philly.json.gz \
		--schedulers GFS --workers 1 --cache-dir $(TRACE_DIR)/cache

## Chaos smoke: one fast node_churn sweep covering every scheduler
## family (Chronus/YARN-CS/FGD/Lyra/PTS/GFS) through the parallel
## engine, plus the dynamics overhead/determinism benchmark.
chaos-smoke:
	$(PYTHON) -m repro.experiments.cli sweep --scenario node_churn \
		--scale small --workers 2 --spot-scale 2.0
	$(PYTHON) -m pytest benchmarks/test_bench_dynamics.py tests/test_chaos_scenarios.py -q

## Fault-tolerance smoke: the crash-safety suites — SIGINT drain,
## kill -9 + journal resume, seeded worker chaos, durable service
## restart, each asserting byte-identity with an uninterrupted reference.
chaos-harness-smoke:
	$(PYTHON) -m pytest tests/test_runtime.py tests/test_resume.py \
		tests/test_chaos_harness.py tests/test_service_durability.py -q

## Self-profiler: wall-clock phase breakdown (event dispatch vs placement
## search vs tick hook vs metric accrual) of a placement-bound Chronus
## cell (512 nodes, 56 h, seed 11), with the instrumentation-off baseline and
## metric-parity check.  E.g.
##   make profile PROFILE_SCHEDULER=gfs
profile:
	$(PYTHON) -m repro.experiments.cli profile --scheduler $(PROFILE_SCHEDULER) \
		--nodes 512 --hours 56 --seed 11 --check-overhead

## Observability smoke for CI: profile (Chronus, then GFS with its
## policy tick hook) on the 256-node placement bench cell + trace export.
## The /metrics scrape and per-session stats run in tier-1.
obs-smoke:
	$(PYTHON) -m repro.experiments.cli profile --scheduler chronus \
		--nodes 256 --hours 24 --seed 11 --check-overhead
	$(PYTHON) -m repro.experiments.cli profile --scheduler gfs \
		--nodes 256 --hours 24 --seed 11 --check-overhead
	$(PYTHON) -m repro.experiments.cli trace-viz --scenario node_churn \
		--nodes 16 --hours 4.0 --trace-out .obs-smoke-trace.json

## Live-telemetry smoke: SSE subscribe + mid-stream disconnect +
## Last-Event-ID resume against a real server (byte-for-byte lossless
## vs an uninterrupted witness), the /dashboard page, then a --progress
## sweep whose JSONL telemetry capture is validated against the
## documented schema (see docs/observability.md).
stream-smoke:
	$(PYTHON) -m pytest tests/test_stream.py tests/test_telemetry.py -q

## Service smoke: boot the streaming scheduler server in-process, drive
## one full session lifecycle over HTTP on both client transports (create,
## stream submissions, advance, occupancy/quota/what-if queries,
## snapshot/restore, /metrics scrape, shutdown), plus the durable store:
## restart recovery (in-process and a real `cli serve` killed with -9),
## quarantine, a failed persist, idempotent retries and deadlines.
serve-smoke:
	$(PYTHON) -m pytest tests/test_service.py tests/test_service_durability.py -q

## Lint: ruff when available, otherwise a byte-compile syntax sweep.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples tools; \
	else \
		echo "ruff not installed; falling back to compileall"; \
		$(PYTHON) -m compileall -q src tests benchmarks examples tools; \
	fi

all: lint test bench
