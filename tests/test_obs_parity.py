"""Observability parity suite: instrumentation must not perturb runs.

The whole layer rests on one contract — attaching a live
:class:`~repro.obs.Recorder` observes a simulation without steering it.
This file pins that down as bit-identity of the final
:class:`SimulationMetrics` (NaN-aware, field by field) between an
instrumented and an uninstrumented run of the same seed, across:

* every scheduler family in the registry (baselines, PTS, GFS and a
  GFS ablation),
* a chaos scenario with cluster dynamics (evictions, kills, repairs),
* a snapshot taken mid-run from an *instrumented* simulator, restored
  and drained — the snapshot itself must not leak recorder state.

Everything runs under ``REPRO_VALIDATE_AGGREGATES=1`` so any divergence
trips the cluster's internal self-checks, not just the final compare.
"""

from __future__ import annotations

import pickle

import pytest

from tests.conftest import assert_metrics_identical
from tests.test_stepping_determinism import DURATION_HOURS, SCHEDULERS, build_sim
from repro.cluster.simulator import ClusterSimulator
from repro.obs import NULL_RECORDER, Recorder, SimEventLog


@pytest.fixture(autouse=True)
def _validate_aggregates(monkeypatch):
    """Divergence should explode inside the run, not only at the end."""
    monkeypatch.setenv("REPRO_VALIDATE_AGGREGATES", "1")


def _run(scheduler_kind: str, scenario: str, recorder=None):
    sim = build_sim(scheduler_kind, scenario)
    if recorder is not None:
        sim.obs = recorder
    return sim.run()


# ----------------------------------------------------------------------
# Instrumented == uninstrumented, across the registry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheduler_kind", SCHEDULERS)
def test_instrumented_run_is_bit_identical(scheduler_kind):
    baseline = _run(scheduler_kind, "default")
    recorder = Recorder()
    recorder.sim_listener = log = SimEventLog()
    observed = _run(scheduler_kind, "default", recorder)
    assert_metrics_identical(observed, baseline, f"obs-parity/{scheduler_kind}")
    # The recorder must actually have observed the run, or this test
    # proves nothing.
    assert recorder.counter_value("sim.passes") > 0
    assert sum(
        v for (name, _), v in recorder.counters.items() if name == "sim.events"
    ) > 0
    # The listener saw every pass and tick the aggregates counted.
    passes = [fields for event, fields in log if event == "pass"]
    assert len(passes) == recorder.counter_value("sim.passes")
    assert sum(f["searches"] for f in passes) == recorder.counter_value("sim.pass.searches")
    assert any(event == "tick" for event, _ in log)
    # The scheduler's tick hook (GDE forecast + SQA quota under GFS) is
    # timed once per quota tick, so the profiler can attribute it.
    ticks = recorder.counter_value("sim.events", {"kind": "QUOTA_TICK"})
    assert recorder.histograms["sim.scheduler_tick_s"].count == ticks > 0


@pytest.mark.parametrize("scheduler_kind", ["gfs", "chronus"])
def test_instrumented_chaos_run_is_bit_identical(scheduler_kind):
    """Dynamics events (failures, drains, evictions) under observation."""
    baseline = _run(scheduler_kind, "node_churn")
    recorder = Recorder()
    observed = _run(scheduler_kind, "node_churn", recorder)
    assert_metrics_identical(observed, baseline, f"obs-parity-chaos/{scheduler_kind}")
    assert recorder.counter_value("sim.events", {"kind": "NODE_FAIL"}) > 0


# ----------------------------------------------------------------------
# Snapshot/restore from an instrumented simulator
# ----------------------------------------------------------------------
def test_snapshot_from_instrumented_sim_restores_clean_and_identical():
    baseline = build_sim("gfs", "node_churn").run()

    sim = build_sim("gfs", "node_churn")
    sim.obs = Recorder()
    sim.advance(until=DURATION_HOURS * 1800.0)  # halfway
    blob = sim.snapshot()

    restored = ClusterSimulator.restore(blob)
    # The recorder is host-local: it must not ride inside snapshots.
    assert restored.obs is NULL_RECORDER
    restored.advance()
    assert_metrics_identical(restored.finalize(), baseline, "obs-snapshot-restore")


def test_snapshot_bytes_unaffected_by_attached_recorder():
    """An instrumented sim and a clean twin pickle to the same bytes."""
    clean = build_sim("gfs")
    clean.advance(until=3600.0)

    observed = build_sim("gfs")
    observed.obs = Recorder()
    observed.advance(until=3600.0)

    assert pickle.dumps(clean) == pickle.dumps(observed)


def test_restored_sim_accepts_reattached_recorder():
    """The service reattaches its session recorder after restore; the
    continuation must still match the uninterrupted run."""
    baseline = build_sim("gfs").run()

    sim = build_sim("gfs")
    sim.obs = Recorder()
    sim.advance(until=DURATION_HOURS * 1800.0)
    blob = sim.snapshot()

    restored = ClusterSimulator.restore(blob)
    reattached = Recorder()
    restored.obs = reattached
    restored.advance()
    assert_metrics_identical(restored.finalize(), baseline, "obs-reattach")
    assert reattached.counter_value("sim.passes") > 0
