"""Determinism suite for the incremental-stepping API (streaming mode).

The streaming service is only trustworthy if stepping is *invisible* to
the simulation: for any sequence of ``advance(until)`` boundaries, any
``max_events`` chunking and any mid-flight submission pattern that a
batch replay could also express, the processed events — and therefore
every metric — must be bit-identical to a single uninterrupted
``run()``.  This file is that contract:

* chunked vs batch identity across every registry scheduler family and
  a scenario cross-section (static, chaos/dynamics, ingested trace);
* a hypothesis property drawing *random* chunk boundaries and
  ``max_events`` throttles;
* the mid-flight submission regression: a streamed task timestamped
  exactly equal to an already-heaped event must land where a batch
  replay of the merged trace puts it (arrival tie-break on task id).
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import assert_metrics_identical, build_task
from repro.cluster import reset_task_counter
from repro.cluster.simulator import ClusterSimulator, SimulationError, SimulatorConfig
from repro.cluster.task import TaskType
from repro.experiments import ExperimentScale
from repro.experiments.engine import SchedulerSpec, SimulationJob, WorkloadSpec, build_simulation

FIXTURES = Path(__file__).parent / "fixtures"

#: every scheduler family in the registry (ablations share the GFS code
#: paths; gfs-p adds the PTS placement stage on top)
SCHEDULERS = ("yarn-cs", "chronus", "lyra", "fgd", "pts", "gfs", "gfs-p")

#: static, chaotic (cluster dynamics) and ingested-trace scenarios
SCENARIOS = ("default", "burst", "hetero", "node_churn", f"trace:{FIXTURES / 'philly_small.csv'}")

NUM_NODES = 10
DURATION_HOURS = 6.0
SPOT_SCALE = 2.0
SEED = 3


def build_sim(
    scheduler_kind: str,
    scenario_name: str = "default",
    *,
    num_nodes: int = NUM_NODES,
    duration_hours: float = DURATION_HOURS,
    max_time: float = None,
    submit: bool = True,
) -> ClusterSimulator:
    """One streaming-capable simulator, deterministic in its arguments.

    Built by ``experiments.engine.build_simulation`` — the same path
    ``execute_job`` and service sessions take (task-counter reset, the
    scenario's own dynamics seeded from ``SEED``) — so batch and stepped
    runs built by successive calls are comparisons of identical inputs.
    """
    job = SimulationJob(
        key="stepping",
        scale=ExperimentScale(
            name="stepping", num_nodes=num_nodes, duration_hours=duration_hours, seed=SEED
        ),
        scheduler=SchedulerSpec(kind=scheduler_kind),
        workload=WorkloadSpec(scenario=scenario_name, spot_scale=SPOT_SCALE),
    )
    sim, trace = build_simulation(job, SimulatorConfig(max_time=max_time))
    if submit:
        sim.submit_all(trace.sorted_tasks())
    return sim


def run_chunked(sim: ClusterSimulator, boundaries, max_events=None):
    """Advance through ``boundaries`` then drain; returns metrics."""
    for until in boundaries:
        sim.advance(until=until, max_events=max_events)
        if max_events is not None:
            # A throttled call may stop short of the boundary: drain it.
            while sim.advance(until=until, max_events=max_events):
                pass
    sim.advance()
    return sim.finalize()


# ----------------------------------------------------------------------
# Chunked == batch across the registry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scenario_name", SCENARIOS)
@pytest.mark.parametrize("scheduler_kind", SCHEDULERS)
def test_chunked_advance_matches_batch(scheduler_kind, scenario_name):
    batch = build_sim(scheduler_kind, scenario_name).run()
    sim = build_sim(scheduler_kind, scenario_name)
    horizon = DURATION_HOURS * 3600.0
    boundaries = [horizon * f for f in (0.1, 0.25, 0.5, 0.75, 1.0, 1.5)]
    chunked = run_chunked(sim, boundaries)
    assert_metrics_identical(chunked, batch, f"{scheduler_kind}/{scenario_name}")


def test_single_event_stepping_matches_batch():
    """The most adversarial chunking: one event per advance() call."""
    batch = build_sim("gfs").run()
    sim = build_sim("gfs")
    while sim.advance(max_events=1):
        pass
    assert_metrics_identical(sim.finalize(), batch, "max_events=1")


def test_max_time_cap_is_chunk_invariant():
    cap = DURATION_HOURS * 1800.0  # half the trace span
    batch = build_sim("fgd", max_time=cap).run()
    sim = build_sim("fgd", max_time=cap)
    chunked = run_chunked(sim, [cap * f for f in (0.3, 0.6, 0.9, 2.0)])
    assert_metrics_identical(chunked, batch, "max_time cap")
    assert sim.done


def test_mid_run_finalize_does_not_perturb_final_metrics():
    """Live metric queries must be free of observer effects."""
    batch = build_sim("gfs").run()
    sim = build_sim("gfs")
    horizon = DURATION_HOURS * 3600.0
    for fraction in (0.2, 0.5, 0.8):
        sim.advance(until=horizon * fraction)
        sim.finalize()  # live query, result intentionally discarded
    sim.advance()
    assert_metrics_identical(sim.finalize(), batch, "mid-run finalize")


@pytest.mark.parametrize("step_s", (333.3, 1234.567))
def test_mid_run_finalize_is_a_read(step_s):
    """``finalize()`` changes no simulator attribute, so a run queried every
    third step ends bit-identical to an unqueried one — under fleet-size
    changes too, where folding the paid-capacity integral at each query
    once moved ``paid_gpu_hours`` and ``goodput_fraction`` in the last bits."""
    quiet, queried = build_sim("yarn-cs", "node_churn"), build_sim("yarn-cs", "node_churn")
    until, steps = 0.0, 0
    while not queried.done:
        until += step_s
        steps += 1
        quiet.advance(until=until)
        queried.advance(until=until)
        if steps % 3 == 0:
            before = queried.snapshot()
            queried.finalize()
            assert queried.snapshot() == before, f"finalize() wrote state at t={until}"
    assert_metrics_identical(queried.finalize(), quiet.finalize(), f"queried every 3rd {step_s} s step")


def test_run_still_rejects_empty_simulator():
    with pytest.raises(SimulationError):
        build_sim("gfs", submit=False).run()


def test_advance_on_empty_streaming_session_is_lawful():
    """A session awaiting its first submission advances without work."""
    sim = build_sim("gfs", submit=False)
    # Start arms one quota tick; with no work anywhere the chain dies there.
    assert sim.advance(until=3600.0) <= 1
    assert sim.started and sim.done
    task = build_task(duration=1800.0, submit_time=0.0, gpus_per_pod=4.0)
    sim.submit(task)
    assert not sim.done
    sim.advance()
    assert task.finish_time is not None


# ----------------------------------------------------------------------
# Hypothesis: random chunk boundaries and throttles (satellite property)
# ----------------------------------------------------------------------
_BATCH_CACHE = {}


def _batch_metrics(kind: str):
    if kind not in _BATCH_CACHE:
        _BATCH_CACHE[kind] = build_sim(kind, duration_hours=3.0).run()
    return _BATCH_CACHE[kind]


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(("gfs", "fgd", "chronus")),
    fractions=st.lists(st.floats(min_value=0.0, max_value=2.0), max_size=8),
    max_events=st.one_of(st.none(), st.integers(min_value=1, max_value=97)),
)
def test_random_chunk_boundaries_match_batch(kind, fractions, max_events):
    """Any boundary sequence — unsorted, duplicated, past-the-end, zero —
    and any per-call event throttle reproduce the batch run exactly."""
    sim = build_sim(kind, duration_hours=3.0)
    boundaries = [3.0 * 3600.0 * f for f in fractions]
    chunked = run_chunked(sim, boundaries, max_events=max_events)
    assert_metrics_identical(chunked, _batch_metrics(kind), f"random chunks {kind}")


# ----------------------------------------------------------------------
# Mid-flight submission: heap order == merged-trace order (regression)
# ----------------------------------------------------------------------
def _streaming_tasks(split_time: float):
    """A base load plus a second wave timestamped *exactly* at events the
    first wave already put on the heap (arrival and finish ties)."""
    reset_task_counter()
    base = [
        build_task(duration=1800.0, submit_time=i * 600.0, gpus_per_pod=4.0, num_pods=2)
        for i in range(8)
    ]
    late = [
        # Equal to a heaped arrival time (i=6 submits at 3600.0) and to
        # the split itself; ids sort before/after base ids to exercise
        # both directions of the tie.
        build_task(duration=900.0, submit_time=3600.0, gpus_per_pod=2.0, task_id="aaa-early-id"),
        build_task(duration=900.0, submit_time=3600.0, gpus_per_pod=2.0, task_id="zzz-late-id"),
        build_task(duration=900.0, submit_time=split_time, gpus_per_pod=8.0,
                   task_type=TaskType.HP, task_id="hp-at-split"),
    ]
    return base, late


def test_mid_flight_submit_matches_merged_batch():
    """Streamed submissions == batch replay of the merged trace.

    The regression this pins: a submission timestamped equal to an
    already-heaped event used to sort purely by push sequence, diverging
    from ``Trace.sorted_tasks()``'s ``(submit_time, task_id)`` order.
    """
    split = 3600.0

    base, late = _streaming_tasks(split)
    batch_sim = build_sim("gfs", submit=False)
    batch_sim.submit_all(sorted(base + late, key=lambda t: (t.submit_time, t.task_id)))
    batch = batch_sim.run()

    base, late = _streaming_tasks(split)
    stream_sim = build_sim("gfs", submit=False)
    stream_sim.submit_all(base)
    # Stop strictly before the tie timestamp: the late wave must race the
    # heaped-but-unprocessed events at t=3600, not arrive after them.
    stream_sim.advance(until=split - 600.0)
    stream_sim.submit_all(late)  # arrives mid-flight, timestamped at ties
    stream_sim.advance()
    assert_metrics_identical(stream_sim.finalize(), batch, "mid-flight ties")


def test_arrival_tie_breaks_on_task_id_not_push_order():
    """The heap must agree with ``Trace.sorted_tasks()`` on equal stamps.

    Two unplaceable tasks share one submit time; the one with the
    lexically-smaller id is streamed in *later* (larger push sequence).
    It must still be processed first — pending-queue insertion order is
    the observable — because arrivals tie-break on task id, not on the
    order they reached the heap.  Without the tie-break field this
    asserts the exact inversion the bug produced.
    """
    sim = build_sim("yarn-cs", submit=False)
    giant = dict(duration=3600.0, gpus_per_pod=8.0, num_pods=60)  # > fleet, stays pending
    sim.submit(build_task(submit_time=3600.0, task_id="mmm-heaped-first", **giant))
    sim.advance(until=3000.0)
    sim.submit(build_task(submit_time=3600.0, task_id="aaa-streamed-later", **giant))
    sim.advance(until=3600.0)
    assert [t.task_id for t in sim.pending] == ["aaa-streamed-later", "mmm-heaped-first"]


def test_past_timestamped_submission_is_clamped_to_now():
    sim = build_sim("gfs", submit=False)
    base, _ = _streaming_tasks(3600.0)
    sim.submit_all(base)
    sim.advance(until=3600.0)
    stale = build_task(duration=600.0, submit_time=0.0, gpus_per_pod=1.0, task_id="stale-task")
    sim.submit(stale)
    assert sim._events[0][0] >= sim.now  # the clock never runs backwards
    sim.advance()
    assert stale.finish_time is not None
    assert stale.first_start_time >= 3600.0


def test_submission_revives_drained_session():
    """A drained streaming session must come back to life on submit —
    including its periodic tick chain (allocation sampling resumes)."""
    sim = build_sim("gfs", submit=False)
    first = build_task(duration=1200.0, submit_time=0.0, gpus_per_pod=4.0)
    sim.submit(first)
    sim.advance()
    assert sim.done and first.finish_time is not None
    samples_before = len(sim.allocation_samples)
    second = build_task(duration=1200.0, submit_time=sim.now, gpus_per_pod=4.0)
    sim.submit(second)
    sim.advance()
    assert second.finish_time is not None
    assert len(sim.allocation_samples) > samples_before  # tick chain revived


def test_mid_flight_inject_matches_scheduled_dynamics():
    """inject() at time T == the same action pre-scheduled at T."""
    from repro.cluster.events import DynamicsAction, EventKind

    down = DynamicsAction(node_id="a100-sim-0003", cause="failure", graceful=False, online=False)
    up = DynamicsAction(node_id="a100-sim-0003", cause="failure", graceful=False, online=True)

    pre = build_sim("gfs")
    pre.inject(down, time=3600.0, kind=EventKind.NODE_FAIL)
    pre.inject(up, time=7200.0, kind=EventKind.NODE_REPAIR)
    batch = pre.run()

    live = build_sim("gfs")
    live.advance(until=1800.0)
    live.inject(down, time=3600.0, kind=EventKind.NODE_FAIL)
    live.inject(up, time=7200.0, kind=EventKind.NODE_REPAIR)
    live.advance()
    assert_metrics_identical(live.finalize(), batch, "mid-flight inject")
    assert batch.reliability.node_failures == 1
