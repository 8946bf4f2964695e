"""Tests for the indexed pending queue and the cached cluster aggregates.

Covers the invariants introduced by the fast-path scheduling refactor:
queue ordering semantics (including evicted-task re-queueing), O(1)
membership behaviour, stale-epoch finish events, the ``max_time`` cutoff
interacting with a non-empty queue, and the per-model aggregate caches
staying consistent with full scans through place/evict/finish cycles.
"""

import pytest

from repro.cluster import (
    AggregateConsistencyError,
    Cluster,
    ClusterSimulator,
    GPUModel,
    PendingQueue,
    PodPlacement,
    SchedulingDecision,
    SimulatorConfig,
    TaskState,
    TaskType,
    make_nodes,
    run_simulation,
)
from repro.schedulers.base import Scheduler
from repro.schedulers.placement import PlacementContext
from tests.conftest import build_task


class FirstFitScheduler(Scheduler):
    name = "first-fit"

    def try_schedule(self, task, cluster, now):
        placements = PlacementContext(cluster).find_placement(task)
        if placements is None:
            return None
        return SchedulingDecision(placements=placements)


# ----------------------------------------------------------------------
# PendingQueue unit behaviour
# ----------------------------------------------------------------------
class TestPendingQueue:
    def test_preserves_insertion_order(self):
        queue = PendingQueue()
        tasks = [build_task(submit_time=float(i)) for i in range(5)]
        for task in tasks:
            queue.append(task)
        assert queue.snapshot() == tasks
        assert [t.task_id for t in queue] == [t.task_id for t in tasks]

    def test_membership_and_removal(self):
        queue = PendingQueue()
        first, second = build_task(), build_task()
        queue.append(first)
        queue.append(second)
        assert first in queue and second in queue
        queue.remove(first)
        assert first not in queue
        assert len(queue) == 1
        with pytest.raises(KeyError):
            queue.remove(first)
        assert queue.discard(first) is False
        assert queue.discard(second) is True
        assert not queue

    def test_readd_goes_to_tail(self):
        queue = PendingQueue()
        a, b = build_task(), build_task()
        queue.append(a)
        queue.append(b)
        queue.remove(a)
        queue.append(a)  # like list.remove + list.append
        assert [t.task_id for t in queue] == [b.task_id, a.task_id]

    def test_reappend_while_queued_moves_to_tail(self):
        """Re-appending a still-queued task moves it behind later arrivals
        (the same-pass schedule-then-evict path relies on this)."""
        queue = PendingQueue()
        a, b = build_task(), build_task()
        queue.append(a)
        queue.append(b)
        queue.append(a)
        assert [t.task_id for t in queue] == [b.task_id, a.task_id]
        assert len(queue) == 2

    def test_duplicate_task_id_rejected(self):
        queue = PendingQueue()
        task = build_task()
        queue.append(task)
        queue.append(task)  # idempotent for the same object
        assert len(queue) == 1
        impostor = build_task()
        impostor.task_id = task.task_id
        with pytest.raises(ValueError):
            queue.append(impostor)

    def test_snapshot_is_decoupled(self):
        queue = PendingQueue()
        task = build_task()
        queue.append(task)
        snap = queue.snapshot()
        snap.clear()
        assert task in queue and len(queue) == 1


# ----------------------------------------------------------------------
# Eviction / re-queue ordering
# ----------------------------------------------------------------------
class PreemptAllScheduler(FirstFitScheduler):
    """HP tasks evict every running spot task when they do not fit."""

    name = "preempt-all"

    def try_schedule(self, task, cluster, now):
        decision = super().try_schedule(task, cluster, now)
        if decision is not None or task.is_spot:
            return decision
        victims = [t.task_id for t in cluster.running_spot_tasks()]
        if not victims:
            return None
        placements = [
            PodPlacement(node_id=cluster.nodes[0].node_id, gpu_indices=(), fraction=task.gpus_per_pod)
            for _ in range(task.num_pods)
        ]
        return SchedulingDecision(placements=placements, preempted_task_ids=victims)


class TestEvictionRequeueOrdering:
    def test_evicted_task_requeues_at_tail(self):
        """An evicted task re-enters the pending queue behind waiting tasks."""
        cluster = Cluster.homogeneous(1, 8, GPUModel.A100)
        running_spot = build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=5000.0, submit_time=0.0)
        waiting_spot = build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=500.0, submit_time=10.0)
        hp = build_task(TaskType.HP, gpus_per_pod=8.0, duration=1000.0, submit_time=600.0)
        sim = ClusterSimulator(cluster, PreemptAllScheduler(), SimulatorConfig(restart_overhead=0.0))
        sim.submit_all([running_spot, waiting_spot, hp])

        observed = {}
        original_evict = sim._evict

        def recording_evict(task):
            original_evict(task)
            observed["order"] = [t.task_id for t in sim.pending]

        sim._evict = recording_evict
        sim.run()
        # At eviction time the queue held waiting_spot and the (not yet
        # dequeued) preemptor; the evicted task must have joined at the
        # tail, not at its original position.
        assert observed["order"] == [waiting_spot.task_id, hp.task_id, running_spot.task_id]
        assert running_spot.state is TaskState.COMPLETED
        assert waiting_spot.state is TaskState.COMPLETED
        assert hp.state is TaskState.COMPLETED

    def test_task_scheduled_then_evicted_in_same_pass_survives(self):
        """A task placed and immediately preempted within one scheduling pass
        must stay in the pending queue (the naive list implementation
        silently dropped it)."""

        class SpotFirstPreemptScheduler(PreemptAllScheduler):
            name = "spot-first"

            def sort_queue(self, pending, now):
                # Offer spot tasks before HP so an HP task later in the same
                # pass can preempt a spot task scheduled moments earlier.
                return sorted(pending, key=lambda t: (t.is_hp, t.submit_time, t.task_id))

        cluster = Cluster.homogeneous(1, 8, GPUModel.A100)
        blocker = build_task(TaskType.HP, gpus_per_pod=8.0, duration=1000.0, submit_time=0.0)
        spot = build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=800.0, submit_time=10.0)
        hp = build_task(TaskType.HP, gpus_per_pod=8.0, duration=600.0, submit_time=20.0)
        config = SimulatorConfig(restart_overhead=0.0, preemption_grace_period=0.0)
        metrics = run_simulation(cluster, SpotFirstPreemptScheduler(), [blocker, spot, hp], config)
        # When `blocker` finishes, one pass offers [spot, hp]: spot is placed
        # first, then hp preempts it.  The spot task must survive the pass,
        # stay queued and eventually complete.
        assert spot.eviction_count >= 1
        assert spot.state is TaskState.COMPLETED
        assert hp.state is TaskState.COMPLETED
        assert metrics.unfinished_tasks == 0


# ----------------------------------------------------------------------
# Stale epochs and max_time
# ----------------------------------------------------------------------
class TestStaleEpochsAndCutoff:
    def test_stale_finish_event_ignored_after_eviction(self):
        """The finish event of a preempted run must not complete the task."""
        cluster = Cluster.homogeneous(1, 8, GPUModel.A100)
        spot = build_task(
            TaskType.SPOT, gpus_per_pod=8.0, duration=2000.0, submit_time=0.0,
            checkpoint_interval=500.0,
        )
        hp = build_task(TaskType.HP, gpus_per_pod=8.0, duration=1000.0, submit_time=100.0)
        config = SimulatorConfig(restart_overhead=0.0)
        run_simulation(cluster, PreemptAllScheduler(), [spot, hp], config)
        assert spot.eviction_count == 1
        assert spot.state is TaskState.COMPLETED
        # The stale first-run finish event (at t=2000) must not have marked
        # the task complete while it was re-queued: its actual finish time
        # reflects the lost progress after the t=100 eviction.
        assert spot.finish_time > 2000.0
        assert len(spot.run_logs) == 2
        assert spot.run_logs[0].evicted and not spot.run_logs[1].evicted

    def test_max_time_leaves_pending_tasks_unfinished(self):
        cluster = Cluster.homogeneous(1, 8, GPUModel.A100)
        running = build_task(TaskType.HP, gpus_per_pod=8.0, duration=10_000.0, submit_time=0.0)
        queued = [
            build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=100.0, submit_time=float(i))
            for i in range(1, 4)
        ]
        sim = ClusterSimulator(cluster, FirstFitScheduler(), SimulatorConfig(max_time=500.0))
        sim.submit_all([running] + queued)
        metrics = sim.run()
        # The cutoff fired with the queue still indexed and intact.
        assert metrics.unfinished_tasks == 4
        assert len(sim.pending) == 3
        assert all(t in sim.pending for t in queued)
        assert all(t.state is TaskState.PENDING for t in queued)

    def test_tick_counter_tracks_heap_after_cutoff_and_stale_events(self):
        """The per-kind event counters match the heap through evictions."""
        cluster = Cluster.homogeneous(1, 8, GPUModel.A100)
        spot = build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=2000.0, submit_time=0.0)
        hp = build_task(TaskType.HP, gpus_per_pod=8.0, duration=1000.0, submit_time=100.0)
        sim = ClusterSimulator(cluster, PreemptAllScheduler(), SimulatorConfig(restart_overhead=0.0))
        sim.submit_all([spot, hp])
        sim.run()
        from repro.cluster.events import DYNAMICS_EVENT_KINDS, EventKind

        kinds = [kind for _, kind, *_ in sim._events]
        task_events = sum(
            1 for k in kinds if k is not EventKind.QUOTA_TICK and k not in DYNAMICS_EVENT_KINDS
        )
        ticks = sum(1 for k in kinds if k is EventKind.QUOTA_TICK)
        dynamics = sum(1 for k in kinds if k in DYNAMICS_EVENT_KINDS)
        assert sim._event_counts.task_events == task_events
        assert sim._event_counts.tick_events == ticks
        assert sim._event_counts.dynamics_events == dynamics
        assert sim._event_counts.task_events == 0  # drained trace leaves no work behind


# ----------------------------------------------------------------------
# Cached aggregates
# ----------------------------------------------------------------------
class TestAggregateConsistency:
    def _hetero_cluster(self, validate=True):
        nodes = make_nodes(2, GPUModel.A100, 8, "agg") + make_nodes(
            3, GPUModel.H800, 8, "agg"
        )
        return Cluster(nodes, validate_aggregates=validate)

    def test_validation_passes_through_full_simulation(self):
        cluster = Cluster(make_nodes(2, GPUModel.A100, 8, "sim"), validate_aggregates=True)
        spot = build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=2000.0, submit_time=0.0)
        hp = build_task(TaskType.HP, gpus_per_pod=8.0, duration=1000.0, submit_time=100.0)
        filler = build_task(TaskType.SPOT, gpus_per_pod=4.0, duration=500.0, submit_time=50.0)
        metrics = run_simulation(cluster, PreemptAllScheduler(), [spot, hp, filler])
        assert metrics.unfinished_tasks == 0

    def test_per_model_aggregates_and_stats(self):
        cluster = self._hetero_cluster()
        a100 = build_task(TaskType.HP, gpus_per_pod=8.0, gpu_model=GPUModel.A100)
        anywhere = build_task(TaskType.SPOT, gpus_per_pod=2.0)  # no model constraint
        cluster.place_task(a100, [PodPlacement(node_id=cluster.nodes[0].node_id, gpu_indices=())])
        cluster.place_task(anywhere, [PodPlacement(node_id=cluster.nodes[2].node_id, gpu_indices=())])
        assert cluster.idle_gpus(GPUModel.A100) == 8.0
        assert cluster.idle_gpus(GPUModel.H800) == 22.0
        assert cluster.hp_gpus() == 8.0
        assert cluster.spot_gpus() == 2.0
        stats_a100 = cluster.stats(GPUModel.A100)
        # Model-agnostic running tasks count toward every model's view.
        assert stats_a100.running_hp_tasks == 1
        assert stats_a100.running_spot_tasks == 1
        stats_h800 = cluster.stats(GPUModel.H800)
        assert stats_h800.running_hp_tasks == 0
        assert stats_h800.running_spot_tasks == 1
        assert cluster.stats().running_hp_tasks == 1
        cluster.remove_task(a100)
        cluster.remove_task(anywhere)
        assert cluster.idle_gpus() == cluster.total_gpus() == 40.0
        assert cluster.stats().running_spot_tasks == 0

    def test_direct_node_mutation_keeps_aggregates_fresh(self):
        """Tests and placement helpers allocate on nodes directly; the
        listener must keep cluster aggregates in sync anyway."""
        cluster = self._hetero_cluster()
        task = build_task(TaskType.HP, gpus_per_pod=5.0)
        cluster.nodes[0].allocate_pod(task)
        assert cluster.idle_gpus(GPUModel.A100) == 11.0
        assert cluster.hp_gpus(GPUModel.A100) == 5.0
        cluster.validate_aggregates()  # would raise on drift
        cluster.nodes[0].release_task(task.task_id)
        assert cluster.idle_gpus(GPUModel.A100) == 16.0

    def test_node_cannot_join_two_clusters(self):
        """Claiming an already-owned node must fail fast instead of silently
        freezing the first cluster's cached aggregates."""
        nodes = make_nodes(2, GPUModel.A100, 8, "owned")
        first = Cluster(nodes)
        with pytest.raises(ValueError, match="already belongs to a cluster"):
            Cluster(nodes)
        # Detaching frees the node for a new owner.
        for node in nodes:
            node.register_capacity_listener(None)
        second = Cluster(nodes)
        assert second.idle_gpus() == 16.0
        assert first.idle_gpus() == 16.0  # still consistent, just detached

    def test_failed_construction_unwinds_listeners(self):
        """A construction that fails part-way must release the nodes it
        already claimed, so a corrected retry succeeds."""
        fresh = make_nodes(2, GPUModel.A100, 8, "fresh")
        owned = make_nodes(1, GPUModel.A100, 8, "owned")
        Cluster(owned)
        with pytest.raises(ValueError):
            Cluster(fresh + owned)
        retry = Cluster(fresh)  # fresh nodes were unwound, not leaked
        assert retry.idle_gpus() == 16.0

    def test_tampering_is_caught_in_debug_mode(self):
        cluster = self._hetero_cluster()
        node = cluster.nodes[0]
        node.register_capacity_listener(None)  # sever the maintenance hook
        task = build_task(TaskType.SPOT, gpus_per_pod=4.0)
        node.allocate_pod(task)
        with pytest.raises(AggregateConsistencyError):
            cluster.validate_aggregates()

    def test_index_figure_drift_is_caught_in_debug_mode(self):
        """The capacity index's per-model GPU figures are the cluster's one
        ledger: a drifted free figure fails the debug check although every
        bucket and node set still matches the nodes."""
        cluster = self._hetero_cluster(validate=False)
        cluster.validate_aggregates()
        cluster.capacity_index._models[GPUModel.H800].free_capacity -= 1.0
        with pytest.raises(AggregateConsistencyError, match="free_capacity for H800"):
            cluster.validate_aggregates()

    def test_spot_gpus_with_guarantee_uses_spot_index(self):
        cluster = self._hetero_cluster()
        committed = build_task(TaskType.SPOT, gpus_per_pod=4.0)
        casual = build_task(TaskType.SPOT, gpus_per_pod=2.0)
        cluster.place_task(committed, [PodPlacement(node_id=cluster.nodes[0].node_id, gpu_indices=())])
        cluster.place_task(casual, [PodPlacement(node_id=cluster.nodes[1].node_id, gpu_indices=())])
        committed.guaranteed_hours = 2.0
        casual.guaranteed_hours = 0.5
        assert cluster.spot_gpus_with_guarantee(1.0, now=0.0) == 4.0
        assert cluster.spot_gpus_with_guarantee(0.25, now=0.0) == 6.0
        assert [t.task_id for t in cluster.running_spot_tasks()] == [
            committed.task_id,
            casual.task_id,
        ]
