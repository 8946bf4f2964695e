"""The benchmark harness, exercised at smoke size (collected by tier-1).

Runs every workload in-process, plain and traced, and checks what later
perf PRs rely on: the emitted names are exactly the names in
``BENCHMARK.json``, the correctness gate passes, spans nest, the timing
proxies neither change results nor outlive the run, and the workloads
really have different phase mixes.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import perf_harness as harness  # noqa: E402
import run as perf_run  # noqa: E402
from perf_tracing import Tracer, layer_proxies, span_self_times  # noqa: E402
from perf_workloads import WORKLOADS  # noqa: E402

CATALOG = harness.load_catalog()
END_TO_END = {m["name"] for m in CATALOG["end_to_end"]}
PER_LAYER = {m["name"] for m in CATALOG["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def runs():
    """Every workload once plain and once traced, at smoke size."""
    return {
        (name, traced): workload(harness.DEFAULT_SEED, 0.0, smoke=True, traced=traced)
        for name, workload in WORKLOADS.items()
        for traced in (False, True)
    }


# ----------------------------------------------------------------------
# BENCHMARK.json and the names the workloads emit
# ----------------------------------------------------------------------
def test_catalog_is_well_formed():
    assert set(CATALOG) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in CATALOG["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in CATALOG[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in CATALOG["end_to_end"] + CATALOG["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in CATALOG["end_to_end"])
    setup = next(m for m in CATALOG["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert len(CATALOG["per_layer"]) <= 128


def test_plain_runs_emit_exactly_the_end_to_end_names(runs):
    for name in WORKLOADS:
        metrics = runs[name, False].metrics
        assert set(metrics) == END_TO_END, name
        assert all(math.isfinite(v) and v > 0 for v in metrics.values()), (name, metrics)


def test_traced_runs_emit_only_declared_layer_names(runs):
    emitted = set()
    for name in WORKLOADS:
        metrics = runs[name, True].metrics
        assert set(metrics) <= PER_LAYER, (name, sorted(set(metrics) - PER_LAYER))
        assert all(math.isfinite(v) and v >= 0 for v in metrics.values()), name
        emitted |= set(metrics)
    # every declared per-layer metric is produced by at least one workload
    assert emitted == PER_LAYER


def test_command_prints_the_result_as_its_last_line(capsys):
    args = argparse.Namespace(workload="baseline_lineup", seed=3, seconds=None, trace=0, smoke=True)
    assert perf_run.run_workload(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in CATALOG["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_refuses_to_measure_under_debug_or_legacy_bench_knobs():
    # judged on the mapping it is handed, so the test holds under CI's own
    # REPRO_BENCH_STRICT=0
    for knob in ("REPRO_VALIDATE_AGGREGATES", "REPRO_BENCH_RECORD", "REPRO_BENCH_STRICT"):
        with pytest.raises(SystemExit):
            perf_run._refuse_hostile_env({"PATH": "/usr/bin", knob: "0"})
    perf_run._refuse_hostile_env({"PATH": "/usr/bin", "PYTHONHASHSEED": "0", "REPRO_CACHE_DIR": "x"})


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def test_refused_request_is_a_failed_operation_not_a_crash(monkeypatch):
    import perf_workloads

    script = perf_workloads._session_script

    def broken_script(size, seed):
        steps = script(size, seed)
        steps[-1][0][0]["gpus_per_pod"] = -1.0  # the server answers 400
        return steps

    monkeypatch.setattr(perf_workloads, "_session_script", broken_script)
    result = WORKLOADS["service_session"](harness.DEFAULT_SEED, 0.0, smoke=True, traced=False)
    assert result.checks.failed == 1 and "HTTP 400" in result.checks.notes[0]
    assert 1 <= result.checks.failed <= result.checks.attempted
    assert result.metrics == {}  # the command line still prints its result line, correct: false


def test_no_operation_fails(runs):
    for key, result in runs.items():
        assert result.checks.failed == 0, (key, result.checks.notes)
        assert result.checks.attempted >= 1


def test_tracing_does_not_change_results(runs):
    # The traced repetitions are checked against the same reference digest
    # inside the workload (a lost ``ctx`` parameter or a changed result is a
    # failed operation); across the two runs the digests must agree too.
    for name in WORKLOADS:
        assert runs[name, True].digests == runs[name, False].digests, name


def test_proxied_try_schedule_keeps_its_ctx_parameter():
    from repro.cluster import Cluster
    from repro.cluster.simulator import ClusterSimulator
    from repro.core.gfs import GFSScheduler
    from repro.schedulers.chronus import ChronusScheduler

    with layer_proxies(Tracer()):
        for scheduler in (GFSScheduler(), ChronusScheduler()):
            sim = ClusterSimulator(Cluster.homogeneous(2), scheduler)
            assert sim._scheduler_takes_ctx is True


def test_proxies_are_removed_after_a_traced_run(runs):
    from repro.core.gde import GPUDemandEstimator
    from repro.experiments import engine
    from repro.schedulers.chronus import ChronusScheduler

    assert not hasattr(GPUDemandEstimator.peak_demand, "__wrapped__")
    assert not hasattr(engine.execute_job, "__wrapped__")
    assert "sort_queue" not in vars(ChronusScheduler)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_spans_nest_and_self_times_add_up(runs):
    for name in WORKLOADS:
        trace = runs[name, True].trace
        spans = trace["spans"]
        assert spans and not trace["truncated"], name
        self_times = span_self_times(spans)
        subtree = list(self_times)
        for index in range(len(spans) - 1, -1, -1):  # children come after their parent
            _, start, end, parent, _ = spans[index]
            assert end >= start
            assert self_times[index] >= -1e-9, (name, spans[index])
            if parent >= 0:
                assert parent < index
                assert spans[parent][1] <= start and end <= spans[parent][2], (name, spans[index])
                subtree[parent] += subtree[index]
        roots = [i for i, span in enumerate(spans) if span[3] < 0]
        assert any(spans[i][0] == "bench.repetition" for i in roots)
        for i in roots:
            duration = spans[i][2] - spans[i][1]
            assert subtree[i] == pytest.approx(duration, rel=0.01), (name, spans[i])


def test_service_spans_attach_to_the_request_that_caused_them(runs):
    spans = runs["service_session", True].trace["spans"]
    saves = [span for span in spans if span[0] == "service.store.save"]
    assert saves
    assert {spans[span[3]][0] for span in saves} <= {
        "service.create", "service.submit", "service.advance"
    }


# ----------------------------------------------------------------------
# The workloads stress different layers
# ----------------------------------------------------------------------
def test_phase_mixes_differ(runs):
    gfs = runs["gfs_replay", True].metrics
    assert gfs["core.gde.forecast_calls"] > 0
    assert gfs["core.gfs.policy_share"] >= 0.7
    for name in ("baseline_lineup", "sweep_small_cells"):
        metrics = runs[name, True].metrics
        assert metrics["core.gde.forecast_calls"] == 0, name
        assert metrics["core.sqa.quota_updates"] == 0, name
        assert metrics["core.pts.schedule_calls"] > 0, name
        assert metrics["schedulers.chronus.try_schedule_calls"] > 0, name
    sweep = runs["sweep_small_cells", True].metrics
    assert sweep["experiments.engine.execute_job_s"] > 0
    assert sweep["runtime.journal.record_done_us"] > 0
    service = runs["service_session", True].metrics
    assert service["service.requests"] > 0 and service["service.non_2xx"] == 0
    assert service["service.store.save_p50_ms"] > 0
    assert service["cluster.simulator.fork_p50_ms"] > 0
    assert service["core.gde.forecast_calls"] > 0


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
def test_floors_take_the_fastest_observation_of_each_segment():
    floors = harness.segment_floors([[1.0, 5.0, 2.0, 9.0], [3.0, 1.0, 2.5, 7.0]])
    assert floors == [1.0, 1.0, 2.0, 7.0]
    # segments 1 and 2 form step 0, segment 3 is step 1, segment 0 is set-up
    assert harness.step_floors(floors, [-1, 0, 0, 1]) == [3.0, 7.0]
    with pytest.raises(ValueError):
        harness.segment_floors([[1.0], [1.0, 2.0]])


def test_percentiles():
    values = list(range(1, 102))
    assert harness.percentile(values, 50.0) == 51
    assert harness.percentile(values, 90.0) == pytest.approx(91.0)
    assert harness.p90_or_zero(values) == pytest.approx(91.0)
    assert harness.p90_or_zero(values[:99]) == 0.0  # fewer than ten samples beyond it


def test_aa_gate_is_two_sided_and_caps_the_spread():
    metric = {"name": "sim_tasks_per_s", "unit": "tasks/s", "better": "higher", "bound": 0.2}
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]
    row, problems = perf_run.aa_row("w", metric, steady, [v * 1.01 for v in steady])
    assert problems == []
    assert row["second_worse_by"] == pytest.approx(-0.01)
    assert row["same_seed_noise"] == pytest.approx(0.01)
    # a second set that is much *faster* is as much a disagreement as a slower one
    for factor in (0.7, 1.3):
        _, problems = perf_run.aa_row("w", metric, steady, [v * factor for v in steady])
        assert len(problems) == 1 and "medians differ" in problems[0]
    # a spread beyond 0.10 fails even though the bound is wider
    wide = [100.0 + 4.0 * i for i in range(10)]
    row, problems = perf_run.aa_row("w", metric, wide, wide)
    assert row["set_a"]["spread"] > perf_run.SPREAD_LIMIT
    assert len(problems) == 1 and "spread" in problems[0]


def test_repeat_honours_the_minimum_and_the_budget():
    calls = []
    assert harness.repeat(lambda i: calls.append(i) or i, seconds=0.0, min_reps=3) == [0, 1, 2]
