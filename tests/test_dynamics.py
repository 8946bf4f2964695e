"""Tests for the cluster-dynamics subsystem (specs, injector, simulator).

Covers the determinism contract (a fault schedule is a pure function of
``(spec, seed, node ids)`` and is part of the engine cache key), the
cluster's node activation/deactivation mutations staying consistent with
the capacity index and cached aggregates, the simulator's kill/requeue
semantics for abrupt and graceful outages, and the schedule-then-fail
edge cases mirroring the PR 1 schedule-then-preempt task-loss bug.
"""

import dataclasses

import pytest

from repro.cluster import (
    Cluster,
    ClusterSimulator,
    EventKind,
    GPUModel,
    SchedulingDecision,
    SimulatorConfig,
    TaskState,
    TaskType,
    make_nodes,
    run_simulation,
)
from repro.cluster.events import DynamicsAction
from repro.dynamics import (
    DynamicsSchedule,
    DynamicsSpec,
    FaultInjector,
    NodeOutage,
    dynamics_names,
    get_dynamics,
)
from repro.schedulers.base import Scheduler
from repro.schedulers.placement import PlacementContext
from tests.conftest import build_task


class FirstFitScheduler(Scheduler):
    name = "first-fit"

    def try_schedule(self, task, cluster, now, ctx=None):
        placements = (ctx or PlacementContext(cluster)).find_placement(task)
        if placements is None:
            return None
        return SchedulingDecision(placements=placements)


def make_injector(**spec_kwargs) -> FaultInjector:
    seed = spec_kwargs.pop("seed", 0)
    return FaultInjector(DynamicsSpec(**spec_kwargs), seed=seed)


class StaticSchedule:
    """Injector stub replaying an explicit event list (test control)."""

    def __init__(self, events, initial_offline=()):
        self._schedule = DynamicsSchedule(
            initial_offline=tuple(initial_offline),
            events=tuple(events),
            outages=(),
        )

    def schedule(self, cluster):
        return self._schedule


def down(node_id, cause="failure", graceful=False):
    return DynamicsAction(node_id=node_id, cause=cause, graceful=graceful, online=False)


def up(node_id, cause="failure"):
    return DynamicsAction(node_id=node_id, cause=cause, graceful=False, online=True)


# ----------------------------------------------------------------------
# Spec validation and registry
# ----------------------------------------------------------------------
class TestSpec:
    def test_rejects_bad_fractions_and_negatives(self):
        with pytest.raises(ValueError):
            DynamicsSpec(drain_fraction=1.5)
        with pytest.raises(ValueError):
            DynamicsSpec(node_mtbf_hours=-1.0)
        with pytest.raises(ValueError):
            DynamicsSpec(offline_at_start_fraction=0.7, shrink_fraction=0.5)

    def test_empty_spec_generates_nothing(self):
        assert DynamicsSpec().is_empty()
        schedule = make_injector().schedule(Cluster.homogeneous(4))
        assert schedule.events == ()
        assert schedule.initial_offline == ()

    def test_presets_registered(self):
        assert {
            "node_churn",
            "maintenance_wave",
            "spot_reclaim_storm",
            "elastic_fleet",
        } <= set(dynamics_names())
        assert get_dynamics("node-churn").name == "node_churn"
        with pytest.raises(KeyError):
            get_dynamics("meteor_strike")


# ----------------------------------------------------------------------
# Schedule determinism (satellite: reproducible from (seed, cluster spec))
# ----------------------------------------------------------------------
class TestScheduleDeterminism:
    def test_schedule_is_pure_function_of_seed_and_nodes(self):
        spec = dict(node_mtbf_hours=20.0, drain_period_hours=6.0, drain_fraction=0.25,
                    reclaim_period_hours=9.0, reclaim_fraction=0.25)
        first = make_injector(seed=3, **spec).schedule(Cluster.homogeneous(8))
        second = make_injector(seed=3, **spec).schedule(Cluster.homogeneous(8))
        assert first == second
        assert first.fingerprint() == second.fingerprint()

    def test_seed_and_spec_change_the_schedule(self):
        cluster = Cluster.homogeneous(8)
        base = make_injector(seed=3, node_mtbf_hours=20.0).schedule(cluster)
        reseeded = make_injector(seed=4, node_mtbf_hours=20.0).schedule(cluster)
        retuned = make_injector(seed=3, node_mtbf_hours=21.0).schedule(cluster)
        assert base.fingerprint() != reseeded.fingerprint()
        assert base.fingerprint() != retuned.fingerprint()

    def test_events_sorted_and_windows_disjoint_per_node(self):
        schedule = make_injector(
            seed=11, node_mtbf_hours=5.0, repair_hours=3.0,
            drain_period_hours=4.0, drain_fraction=0.5, drain_duration_hours=2.0,
            horizon_hours=48.0,
        ).schedule(Cluster.homogeneous(6))
        times = [t for t, _, _ in schedule.events]
        assert times == sorted(times)
        by_node = {}
        for outage in schedule.outages:
            by_node.setdefault(outage.node_id, []).append(outage)
        for windows in by_node.values():
            windows.sort(key=lambda w: w.start)
            for before, after in zip(windows, windows[1:]):
                assert before.end < after.start  # merged => strictly disjoint

    def test_merge_keeps_first_cause(self):
        merged = FaultInjector._merge(
            [
                NodeOutage("n0", 100.0, 200.0, "drain"),
                NodeOutage("n0", 150.0, 400.0, "failure"),
                NodeOutage("n0", 500.0, 600.0, "failure"),
            ]
        )
        assert len(merged) == 2
        assert merged[0] == NodeOutage("n0", 100.0, 400.0, "drain")
        assert merged[0].graceful  # the planned drain's semantics win

    def test_elastic_tranches(self):
        schedule = make_injector(
            offline_at_start_fraction=0.25, grow_at_hours=2.0,
            shrink_at_hours=4.0, shrink_fraction=0.25,
        ).schedule(Cluster.homogeneous(8))
        assert len(schedule.initial_offline) == 2
        kinds = {kind for _, kind, _ in schedule.events}
        assert kinds == {EventKind.CAPACITY_CHANGE}
        # 2 growth joins + 2 permanent shrink departures
        online = [a for _, _, a in schedule.events if a.online]
        offline = [a for _, _, a in schedule.events if not a.online]
        assert len(online) == 2 and len(offline) == 2
        assert all(a.graceful for a in offline)
        # shrink tranche sits just ahead of the growth tranche, no overlap
        assert {a.node_id for a in offline}.isdisjoint(set(schedule.initial_offline))


# ----------------------------------------------------------------------
# Cache keying (satellite: dynamics must be in Scenario.cache_descriptor)
# ----------------------------------------------------------------------
class TestCacheDescriptor:
    def test_scenario_descriptor_includes_dynamics(self):
        from repro.workloads import get_scenario

        churn = get_scenario("node_churn")
        descriptor = churn.cache_descriptor(seed=7)
        assert descriptor["dynamics"] == get_dynamics("node_churn").descriptor()
        assert "dynamics" not in get_scenario("default").cache_descriptor(seed=7)

    def test_engine_cache_key_changes_with_dynamics(self):
        from repro.experiments.artifacts import content_key
        from repro.experiments.config import ExperimentScale
        from repro.experiments.engine import (
            SchedulerSpec,
            SimulationJob,
            WorkloadSpec,
            cache_payload,
        )

        scale = ExperimentScale(name="t", num_nodes=4, duration_hours=4.0)

        def key(scenario, dynamics=""):
            job = SimulationJob(
                key="k",
                scale=scale,
                scheduler=SchedulerSpec(kind="chronus"),
                workload=WorkloadSpec(scenario=scenario, dynamics=dynamics),
            )
            return content_key(cache_payload(job))

        assert key("default") != key("node_churn")
        assert key("default") != key("default", dynamics="node_churn")
        # distinct presets attached to the same workload are distinct cells
        assert key("default", dynamics="node_churn") != key(
            "default", dynamics="maintenance_wave"
        )


# ----------------------------------------------------------------------
# Cluster activation mutations
# ----------------------------------------------------------------------
class TestClusterActivation:
    def _cluster(self):
        return Cluster(make_nodes(4, GPUModel.A100, 8, "dyn"), validate_aggregates=True)

    def test_deactivate_drops_capacity_and_candidates(self):
        cluster = self._cluster()
        node = cluster.nodes[1]
        assert cluster.total_gpus() == 32.0
        cluster.deactivate_node(node.node_id)
        assert not node.available
        assert cluster.total_gpus() == 24.0
        assert cluster.idle_gpus() == 24.0
        candidates = cluster.capacity_index.node_fit_candidates(None, 8.0)
        assert node.node_id not in {n.node_id for n in candidates}
        with pytest.raises(ValueError):
            node.allocate_pod(build_task(gpus_per_pod=1.0))

    def test_activate_restores_canonical_order(self):
        cluster = self._cluster()
        cluster.deactivate_node(cluster.nodes[1].node_id)
        cluster.activate_node(cluster.nodes[1].node_id)
        candidates = cluster.capacity_index.node_fit_candidates(None, 8.0)
        assert [n.node_id for n in candidates] == [n.node_id for n in cluster.nodes]
        assert cluster.total_gpus() == 32.0

    def test_deactivate_requires_empty_node(self):
        cluster = self._cluster()
        task = build_task(gpus_per_pod=8.0)
        node = cluster.nodes[0]
        node.allocate_pod(task)
        with pytest.raises(ValueError):
            cluster.deactivate_node(node.node_id)
        node.release_task(task.task_id)
        cluster.deactivate_node(node.node_id)
        with pytest.raises(ValueError):
            cluster.deactivate_node(node.node_id)

    def test_whole_model_can_go_offline(self):
        nodes = make_nodes(1, GPUModel.A100, 8, "dyn") + make_nodes(1, GPUModel.H800, 8, "dyn")
        cluster = Cluster(nodes, validate_aggregates=True)
        cluster.deactivate_node(nodes[1].node_id)
        assert cluster.total_gpus(GPUModel.H800) == 0.0
        assert cluster.capacity_index.node_fit_candidates(GPUModel.H800, 1.0) == []
        cluster.activate_node(nodes[1].node_id)
        assert cluster.total_gpus(GPUModel.H800) == 8.0


# ----------------------------------------------------------------------
# Simulator kill semantics
# ----------------------------------------------------------------------
class TestSimulatorKills:
    def _sim(self, events, tasks, num_nodes=2, initial_offline=()):
        cluster = Cluster(
            make_nodes(num_nodes, GPUModel.A100, 8, "dyn"), validate_aggregates=True
        )
        sim = ClusterSimulator(
            cluster,
            FirstFitScheduler(),
            SimulatorConfig(restart_overhead=0.0, tick_interval=300.0),
            dynamics=StaticSchedule(events, initial_offline),
        )
        sim.submit_all(tasks)
        return sim

    def test_abrupt_kill_rolls_back_to_checkpoint(self):
        task = build_task(
            TaskType.HP, gpus_per_pod=8.0, duration=4000.0, submit_time=0.0,
            checkpoint_interval=1000.0,
        )
        sim = self._sim(
            [(2500.0, EventKind.NODE_FAIL, down("a100-dyn-0000")),
             (3000.0, EventKind.NODE_REPAIR, up("a100-dyn-0000"))],
            [task],
            num_nodes=1,
        )
        metrics = sim.run()
        assert task.state is TaskState.COMPLETED
        assert task.dynamics_kill_count == 1
        assert task.run_logs[0].killed and not task.run_logs[1].killed
        # 2500s of progress rolled back to the 2000s checkpoint: 500s * 8 GPUs
        assert task.lost_gpu_seconds == pytest.approx(500.0 * 8.0)
        # finish = repair(3000) + remaining work (4000 - 2000)
        assert task.finish_time == pytest.approx(5000.0)
        assert metrics.reliability.tasks_killed == 1
        assert metrics.reliability.hp_tasks_killed == 1
        assert metrics.reliability.node_failures == 1
        assert metrics.reliability.node_repairs == 1
        assert metrics.reliability.lost_gpu_hours == pytest.approx(500.0 * 8.0 / 3600.0)

    def test_graceful_drain_preserves_progress(self):
        task = build_task(
            TaskType.SPOT, gpus_per_pod=8.0, duration=4000.0, submit_time=0.0,
            checkpoint_interval=1000.0,
        )
        sim = self._sim(
            [(2500.0, EventKind.NODE_DRAIN, down("a100-dyn-0000", "drain", graceful=True)),
             (3000.0, EventKind.NODE_REPAIR, up("a100-dyn-0000", "drain"))],
            [task],
            num_nodes=1,
        )
        metrics = sim.run()
        assert task.state is TaskState.COMPLETED
        assert task.lost_gpu_seconds == 0.0
        # finish = repair(3000) + remaining work (4000 - 2500)
        assert task.finish_time == pytest.approx(4500.0)
        assert metrics.reliability.node_drains == 1
        assert metrics.reliability.lost_gpu_hours == 0.0
        # dynamics kills are infrastructure faults, not scheduler evictions
        assert task.eviction_count == 0
        assert metrics.spot.eviction_rate == 0.0

    def test_gang_task_dies_whole_when_one_node_fails(self):
        gang = build_task(
            TaskType.HP, num_pods=2, gpus_per_pod=8.0, duration=3000.0,
            submit_time=0.0, checkpoint_interval=500.0, gang=True,
        )
        sim = self._sim(
            [(1200.0, EventKind.NODE_FAIL, down("a100-dyn-0000")),
             (2000.0, EventKind.NODE_REPAIR, up("a100-dyn-0000"))],
            [gang],
            num_nodes=2,
        )
        sim.run()
        assert gang.state is TaskState.COMPLETED
        assert gang.dynamics_kill_count == 1
        # Both nodes' GPUs were released at the kill: the surviving node
        # holds nothing between the kill and the restart.
        assert all(not n.task_shares or gang.state for n in sim.cluster.nodes)

    def test_restart_pays_overhead_after_kill(self):
        task = build_task(
            TaskType.HP, gpus_per_pod=8.0, duration=2000.0, submit_time=0.0,
            checkpoint_interval=10_000.0,  # no checkpoint: full rollback
        )
        cluster = Cluster(make_nodes(1, GPUModel.A100, 8, "dyn"))
        sim = ClusterSimulator(
            cluster,
            FirstFitScheduler(),
            SimulatorConfig(restart_overhead=300.0),
            dynamics=StaticSchedule(
                [(1000.0, EventKind.NODE_FAIL, down("a100-dyn-0000")),
                 (1500.0, EventKind.NODE_REPAIR, up("a100-dyn-0000"))]
            ),
        )
        sim.submit_all([task])
        sim.run()
        # restart at 1500 pays the 300s overhead and redoes all 2000s
        assert task.finish_time == pytest.approx(1500.0 + 300.0 + 2000.0)
        assert task.lost_gpu_seconds == pytest.approx(1000.0 * 8.0)

    def test_graceful_kill_does_not_credit_restart_overhead_as_progress(self):
        """A graceful drain during the restart-overhead window of a
        restarted run must bank zero new progress: the overhead seconds
        are setup/checkpoint-reload wall time, not work."""
        task = build_task(
            TaskType.HP, gpus_per_pod=8.0, duration=2000.0, submit_time=0.0,
            checkpoint_interval=10_000.0,  # no checkpoints: progress is explicit
        )
        cluster = Cluster(make_nodes(1, GPUModel.A100, 8, "dyn"), validate_aggregates=True)
        sim = ClusterSimulator(
            cluster,
            FirstFitScheduler(),
            SimulatorConfig(restart_overhead=300.0),
            dynamics=StaticSchedule(
                [(1000.0, EventKind.NODE_FAIL, down("a100-dyn-0000")),
                 (1100.0, EventKind.NODE_REPAIR, up("a100-dyn-0000")),
                 # drain 200s into the restarted run — still inside the
                 # 300s overhead window, so zero real work happened
                 (1300.0, EventKind.NODE_DRAIN, down("a100-dyn-0000", "drain", graceful=True)),
                 (1400.0, EventKind.NODE_REPAIR, up("a100-dyn-0000", "drain"))]
            ),
        )
        sim.submit_all([task])
        sim.run()
        assert task.state is TaskState.COMPLETED
        assert task.completed_work == pytest.approx(2000.0)
        # restart at 1400 pays the overhead again and redoes all 2000s
        assert task.finish_time == pytest.approx(1400.0 + 300.0 + 2000.0)

    def test_paid_gpu_hours_integrates_outages(self):
        task = build_task(TaskType.HP, gpus_per_pod=8.0, duration=1000.0, submit_time=0.0)
        sim = self._sim(
            [(500.0, EventKind.NODE_FAIL, down("a100-dyn-0001")),
             (900.0, EventKind.NODE_REPAIR, up("a100-dyn-0001"))],
            [task],
            num_nodes=2,
        )
        metrics = sim.run()
        # Full capacity (16 GPUs) over the whole run — which extends to
        # the final idle tick, i.e. the makespan — except 8 GPUs were
        # offline during the [500, 900) outage.
        expected = (16.0 * metrics.makespan - 8.0 * 400.0) / 3600.0
        assert metrics.reliability.paid_gpu_hours == pytest.approx(expected)
        assert metrics.reliability.goodput_gpu_hours == pytest.approx(
            1000.0 * 8.0 / 3600.0
        )

    def test_initial_offline_fleet_grows_later(self):
        # Two tasks, one node online: the second waits for the growth event.
        tasks = [
            build_task(TaskType.HP, gpus_per_pod=8.0, duration=1000.0, submit_time=0.0),
            build_task(TaskType.HP, gpus_per_pod=8.0, duration=1000.0, submit_time=0.0),
        ]
        sim = self._sim(
            [(600.0, EventKind.CAPACITY_CHANGE, up("a100-dyn-0001", "elastic"))],
            tasks,
            num_nodes=2,
            initial_offline=["a100-dyn-0001"],
        )
        metrics = sim.run()
        assert metrics.unfinished_tasks == 0
        finish_times = sorted(t.finish_time for t in tasks)
        assert finish_times == [pytest.approx(1000.0), pytest.approx(1600.0)]

    def test_trailing_dynamics_events_do_not_stretch_the_run(self):
        task = build_task(TaskType.HP, gpus_per_pod=8.0, duration=1000.0, submit_time=0.0)
        sim = self._sim(
            [(50_000.0, EventKind.NODE_FAIL, down("a100-dyn-0001")),
             (60_000.0, EventKind.NODE_REPAIR, up("a100-dyn-0001"))],
            [task],
            num_nodes=2,
        )
        metrics = sim.run()
        # The run ends with the drained trace, not the 60ks repair event.
        assert metrics.makespan < 10_000.0

    def test_repair_revives_a_stuck_queue(self):
        # The only node the task fits on fails before the task arrives; the
        # tick chain dies (stuck queue), and the repair must revive it.
        task = build_task(TaskType.HP, gpus_per_pod=8.0, duration=500.0, submit_time=100.0)
        sim = self._sim(
            [(50.0, EventKind.NODE_FAIL, down("a100-dyn-0000")),
             (5000.0, EventKind.NODE_REPAIR, up("a100-dyn-0000"))],
            [task],
            num_nodes=1,
        )
        metrics = sim.run()
        assert metrics.unfinished_tasks == 0
        assert task.finish_time == pytest.approx(5500.0)


# ----------------------------------------------------------------------
# Schedule-then-fail edge cases (mirror of the PR 1 task-loss bug)
# ----------------------------------------------------------------------
class TestScheduleThenFailEdgeCases:
    def _conservation(self, sim, tasks):
        metrics = sim.run()
        assert metrics.unfinished_tasks == 0
        for task in tasks:
            assert task.state is TaskState.COMPLETED
            assert task.finish_time is not None
            # terminated exactly once: exactly one run ended un-interrupted
            clean_ends = [
                r for r in task.run_logs if not r.evicted and not r.killed
            ]
            assert len(clean_ends) == 1
            assert task not in sim.pending
        return metrics

    def test_task_scheduled_in_the_pass_its_node_fails(self):
        """Arrival and NODE_FAIL at the same timestamp: the arrival pass
        places the task on the doomed node, the fail event (processed
        after, by event-kind order) kills it — it must be requeued, not
        silently dropped, and still terminate exactly once."""
        cluster = Cluster(make_nodes(2, GPUModel.A100, 8, "dyn"), validate_aggregates=True)
        task = build_task(TaskType.HP, gpus_per_pod=8.0, duration=1000.0, submit_time=500.0)
        sim = ClusterSimulator(
            cluster,
            FirstFitScheduler(),
            SimulatorConfig(restart_overhead=0.0),
            dynamics=StaticSchedule(
                [(500.0, EventKind.NODE_FAIL, down("a100-dyn-0000")),
                 (9000.0, EventKind.NODE_REPAIR, up("a100-dyn-0000"))]
            ),
        )
        sim.submit_all([task])
        metrics = self._conservation(sim, [task])
        assert task.dynamics_kill_count == 1
        # first-fit put it on node 0 at t=500, the kill moved it to node 1
        # in the same instant, so no queuing time accrued beyond zero
        assert task.finish_time == pytest.approx(1500.0)
        assert metrics.reliability.tasks_killed == 1

    def test_stale_finish_event_after_kill_is_ignored(self):
        """The finish event of a killed run must not complete the task
        while it waits (state check) or after it restarted (epoch check)."""
        cluster = Cluster(make_nodes(1, GPUModel.A100, 8, "dyn"), validate_aggregates=True)
        task = build_task(
            TaskType.HP, gpus_per_pod=8.0, duration=2000.0, submit_time=0.0,
            checkpoint_interval=10_000.0,
        )
        sim = ClusterSimulator(
            cluster,
            FirstFitScheduler(),
            SimulatorConfig(restart_overhead=0.0),
            dynamics=StaticSchedule(
                # kill at 1900, repair at 1950: the stale finish (t=2000)
                # fires *while the restarted run is in flight*
                [(1900.0, EventKind.NODE_FAIL, down("a100-dyn-0000")),
                 (1950.0, EventKind.NODE_REPAIR, up("a100-dyn-0000"))]
            ),
        )
        sim.submit_all([task])
        self._conservation(sim, [task])
        # full rollback (no checkpoint): restart at 1950 redoes everything
        assert task.finish_time == pytest.approx(1950.0 + 2000.0)

    def test_start_delayed_task_killed_before_it_begins(self):
        """A task placed with a preemption grace delay holds GPUs before
        its run starts; a failure in that window must not corrupt its
        progress accounting (negative elapsed)."""
        from repro.cluster import PodPlacement

        cluster = Cluster(make_nodes(1, GPUModel.A100, 8, "dyn"), validate_aggregates=True)
        spot = build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=5000.0, submit_time=0.0)
        hp = build_task(TaskType.HP, gpus_per_pod=8.0, duration=1000.0, submit_time=100.0)

        class PreemptForHP(FirstFitScheduler):
            def try_schedule(self, task, cluster, now, ctx=None):
                decision = super().try_schedule(task, cluster, now, ctx)
                if decision is not None or not task.is_hp:
                    return decision
                victims = [t.task_id for t in cluster.running_tasks.values() if t.is_spot]
                if not victims:
                    return None
                placement = PodPlacement(
                    node_id=cluster.nodes[0].node_id, gpu_indices=(), fraction=task.gpus_per_pod
                )
                return SchedulingDecision(placements=[placement], preempted_task_ids=victims)

        # HP preempts spot at t=100 and starts at 130 (grace); the node
        # fails at 120, inside the grace window.
        sim = ClusterSimulator(
            cluster,
            PreemptForHP(),
            SimulatorConfig(restart_overhead=0.0, preemption_grace_period=30.0),
            dynamics=StaticSchedule(
                [(120.0, EventKind.NODE_FAIL, down("a100-dyn-0000")),
                 (200.0, EventKind.NODE_REPAIR, up("a100-dyn-0000"))]
            ),
        )
        sim.submit_all([spot, hp])
        self._conservation(sim, [spot, hp])
        assert spot.lost_gpu_seconds >= 0.0
        assert all(t.completed_work <= t.duration for t in (spot, hp))

    def test_finish_and_fail_at_same_timestamp(self):
        """TASK_FINISH sorts before NODE_FAIL at equal times: the task
        completes against the pre-outage cluster and the fail handler must
        find an empty node, not double-kill a finished task."""
        cluster = Cluster(make_nodes(1, GPUModel.A100, 8, "dyn"), validate_aggregates=True)
        task = build_task(TaskType.HP, gpus_per_pod=8.0, duration=1000.0, submit_time=0.0)
        # A second arrival keeps task work alive past the failure so the
        # trailing dynamics events are processed, not abandoned.
        late = build_task(TaskType.HP, gpus_per_pod=8.0, duration=500.0, submit_time=1050.0)
        sim = ClusterSimulator(
            cluster,
            FirstFitScheduler(),
            SimulatorConfig(restart_overhead=0.0),
            dynamics=StaticSchedule(
                [(1000.0, EventKind.NODE_FAIL, down("a100-dyn-0000")),
                 (1100.0, EventKind.NODE_REPAIR, up("a100-dyn-0000"))]
            ),
        )
        sim.submit_all([task, late])
        metrics = self._conservation(sim, [task, late])
        assert task.dynamics_kill_count == 0
        assert task.finish_time == pytest.approx(1000.0)
        # the late task waited out the outage on the failed node
        assert late.finish_time == pytest.approx(1600.0)
        assert metrics.reliability.node_failures == 1
        assert metrics.reliability.tasks_killed == 0


# ----------------------------------------------------------------------
# Scheduler hooks
# ----------------------------------------------------------------------
class TestDynamicsHooks:
    def test_hooks_fire_in_order(self):
        calls = []

        class Recorder(FirstFitScheduler):
            def on_node_down(self, node, cluster, now):
                calls.append(("down", node.node_id, now))

            def on_node_up(self, node, cluster, now):
                calls.append(("up", node.node_id, now))

            def on_task_killed(self, task, cluster, now):
                calls.append(("killed", task.task_id, now))

        cluster = Cluster(make_nodes(1, GPUModel.A100, 8, "dyn"))
        task = build_task(TaskType.HP, gpus_per_pod=8.0, duration=2000.0, submit_time=0.0)
        sim = ClusterSimulator(
            cluster,
            Recorder(),
            SimulatorConfig(restart_overhead=0.0),
            dynamics=StaticSchedule(
                [(500.0, EventKind.NODE_FAIL, down("a100-dyn-0000")),
                 (700.0, EventKind.NODE_REPAIR, up("a100-dyn-0000"))]
            ),
        )
        sim.submit_all([task])
        sim.run()
        assert calls[0] == ("killed", task.task_id, 500.0)
        assert calls[1] == ("down", "a100-dyn-0000", 500.0)
        assert calls[2] == ("up", "a100-dyn-0000", 700.0)
