"""Unit and integration tests for the discrete-event simulator."""

import heapq
from dataclasses import dataclass, field
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Cluster,
    ClusterSimulator,
    GPUModel,
    PodPlacement,
    SchedulingDecision,
    SimulationError,
    SimulatorConfig,
    TaskState,
    TaskType,
    run_simulation,
)
from repro.cluster.events import EventKind
from repro.schedulers import YarnCSScheduler
from repro.schedulers.base import Scheduler
from repro.schedulers.placement import PlacementContext
from tests.conftest import build_task


class FirstFitScheduler(Scheduler):
    """Minimal scheduler used to exercise the simulator in isolation."""

    name = "first-fit"

    def try_schedule(self, task, cluster, now):
        placements = PlacementContext(cluster).find_placement(task)
        if placements is None:
            return None
        return SchedulingDecision(placements=placements)


class PreemptEverythingScheduler(FirstFitScheduler):
    """HP tasks evict every running spot task when they do not fit."""

    name = "preempt-everything"

    def try_schedule(self, task, cluster, now):
        decision = super().try_schedule(task, cluster, now)
        if decision is not None or task.is_spot:
            return decision
        victims = [t.task_id for t in cluster.running_spot_tasks()]
        if not victims:
            return None
        # The simulator applies evictions before materialising the placement,
        # so placing on the first node is valid once the victims are gone.
        placements = [
            PodPlacement(node_id=cluster.nodes[0].node_id, gpu_indices=(), fraction=task.gpus_per_pod)
            for _ in range(task.num_pods)
        ]
        return SchedulingDecision(placements=placements, preempted_task_ids=victims)


def simple_cluster(nodes=2):
    return Cluster.homogeneous(nodes, 8, GPUModel.A100)


class TestBasicExecution:
    def test_single_task_runs_to_completion(self):
        cluster = simple_cluster()
        task = build_task(TaskType.HP, gpus_per_pod=4.0, duration=1000.0, submit_time=0.0)
        metrics = run_simulation(cluster, FirstFitScheduler(), [task])
        assert task.state is TaskState.COMPLETED
        assert task.finish_time == pytest.approx(1000.0)
        assert metrics.hp.count == 1
        assert metrics.hp.jqt_mean == pytest.approx(0.0)

    def test_queued_task_waits_for_capacity(self):
        cluster = simple_cluster(nodes=1)
        first = build_task(TaskType.HP, gpus_per_pod=8.0, duration=1000.0, submit_time=0.0)
        second = build_task(TaskType.HP, gpus_per_pod=8.0, duration=500.0, submit_time=10.0)
        run_simulation(cluster, FirstFitScheduler(), [first, second])
        assert second.first_start_time == pytest.approx(1000.0)
        assert second.total_queue_time == pytest.approx(990.0)
        assert second.finish_time == pytest.approx(1500.0)

    def test_reused_task_list_is_refused(self):
        # ROADMAP 7(c): Task objects carry their run state, so handing one
        # trace.sorted_tasks() to two runs used to return plausible garbage
        # for the second (Chronus at 2.8% allocation instead of 13.3%).
        tasks = [
            build_task(TaskType.HP, gpus_per_pod=4.0, duration=600.0, submit_time=60.0 * i)
            for i in range(4)
        ]
        run_simulation(simple_cluster(), FirstFitScheduler(), tasks)
        with pytest.raises(SimulationError, match=f"task {tasks[0].task_id!r} is not in its initial state"):
            run_simulation(simple_cluster(), FirstFitScheduler(), tasks)
        # ... including one a capped run left unfinished.
        started = build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=5000.0)
        run_simulation(simple_cluster(), FirstFitScheduler(), [started], SimulatorConfig(max_time=50.0))
        assert started.state is TaskState.RUNNING
        with pytest.raises(SimulationError, match="not in its initial state"):
            ClusterSimulator(simple_cluster(), FirstFitScheduler()).submit(started)

    def test_empty_submission_raises(self):
        simulator = ClusterSimulator(simple_cluster(), FirstFitScheduler())
        with pytest.raises(SimulationError):
            simulator.run()

    def test_max_time_stops_early(self):
        cluster = simple_cluster()
        task = build_task(TaskType.HP, gpus_per_pod=1.0, duration=10_000.0)
        config = SimulatorConfig(max_time=500.0)
        metrics = run_simulation(cluster, FirstFitScheduler(), [task], config)
        assert metrics.unfinished_tasks == 1

    def test_allocation_samples_collected(self):
        cluster = simple_cluster()
        task = build_task(TaskType.HP, gpus_per_pod=8.0, duration=2000.0)
        config = SimulatorConfig(tick_interval=300.0)
        simulator = ClusterSimulator(cluster, FirstFitScheduler(), config)
        simulator.submit(task)
        simulator.run()
        assert len(simulator.allocation_samples) > 0
        assert max(simulator.allocation_samples) <= 1.0


class TestPreemptionMechanics:
    def test_preempted_spot_requeues_and_finishes(self):
        cluster = simple_cluster(nodes=1)
        spot = build_task(
            TaskType.SPOT, gpus_per_pod=8.0, duration=2000.0, submit_time=0.0,
            checkpoint_interval=600.0,
        )
        hp = build_task(TaskType.HP, gpus_per_pod=8.0, duration=1000.0, submit_time=900.0)
        config = SimulatorConfig(preemption_grace_period=30.0, restart_overhead=0.0)
        metrics = run_simulation(cluster, PreemptEverythingScheduler(), [spot, hp], config)
        assert hp.state is TaskState.COMPLETED
        assert spot.state is TaskState.COMPLETED
        assert spot.eviction_count == 1
        # Progress rolled back to the 600s checkpoint: total work re-done.
        assert spot.finish_time > 2000.0
        assert metrics.spot.eviction_rate == pytest.approx(0.5)

    def test_hp_tasks_are_never_evicted(self):
        cluster = simple_cluster(nodes=1)
        hp_running = build_task(TaskType.HP, gpus_per_pod=8.0, duration=2000.0, submit_time=0.0)
        hp_new = build_task(TaskType.HP, gpus_per_pod=8.0, duration=500.0, submit_time=100.0)

        class BadScheduler(FirstFitScheduler):
            def try_schedule(self, task, cluster, now):
                if task is hp_new:
                    from repro.cluster import PodPlacement

                    return SchedulingDecision(
                        placements=[
                            PodPlacement(node_id=cluster.nodes[0].node_id, gpu_indices=())
                        ],
                        preempted_task_ids=[hp_running.task_id],
                    )
                return super().try_schedule(task, cluster, now)

        with pytest.raises(SimulationError):
            run_simulation(cluster, BadScheduler(), [hp_running, hp_new])

    def test_grace_period_delays_preemptor_start(self):
        cluster = simple_cluster(nodes=1)
        spot = build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=3000.0, submit_time=0.0)
        hp = build_task(TaskType.HP, gpus_per_pod=8.0, duration=500.0, submit_time=600.0)
        config = SimulatorConfig(preemption_grace_period=120.0, restart_overhead=0.0)
        run_simulation(cluster, PreemptEverythingScheduler(), [spot, hp], config)
        assert hp.first_start_time == pytest.approx(600.0 + 120.0)

    def test_eviction_recorded_on_node_history(self):
        cluster = simple_cluster(nodes=1)
        spot = build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=3000.0, submit_time=0.0)
        hp = build_task(TaskType.HP, gpus_per_pod=8.0, duration=500.0, submit_time=600.0)
        run_simulation(cluster, PreemptEverythingScheduler(), [spot, hp])
        assert cluster.nodes[0].eviction_count_since(1e9, 1e9) == 1
        assert cluster.evicted_spot_runs == 1


class TestInvariants:
    def test_capacity_never_exceeded_with_real_scheduler(self, tiny_trace):
        cluster = Cluster.homogeneous(16, 8, GPUModel.A100)
        config = SimulatorConfig(tick_interval=300.0)
        simulator = ClusterSimulator(cluster, YarnCSScheduler(), config)

        original_tick = simulator._handle_tick

        def checked_tick():
            original_tick()
            for node in cluster.nodes:
                assert node.allocated_gpus <= node.total_gpus + 1e-6

        simulator._handle_tick = checked_tick
        simulator.submit_all(tiny_trace.sorted_tasks()[:150])
        metrics = simulator.run()
        assert metrics.unfinished_tasks == 0

    def test_all_tasks_eventually_finish(self, tiny_trace):
        cluster = Cluster.homogeneous(16, 8, GPUModel.A100)
        metrics = run_simulation(cluster, YarnCSScheduler(), tiny_trace.sorted_tasks()[:200])
        assert metrics.unfinished_tasks == 0
        assert metrics.hp.jct_mean > 0


class _Policy:
    """A helper object a custom scheduler might hang its state on."""

    def __init__(self, rank):
        self.rank = rank


class TestUnpicklableScheduler:
    """fork() and snapshot() both copy through pickle, so a scheduler that
    cannot be pickled must fail with an error its author can act on."""

    @staticmethod
    def _sim(scheduler):
        sim = ClusterSimulator(simple_cluster(), scheduler)
        sim.submit(build_task(duration=600.0))
        sim.advance(until=60.0)
        return sim

    @pytest.mark.parametrize("copy_method", ["fork", "snapshot"])
    def test_lambda_attribute_is_named(self, copy_method):
        scheduler = FirstFitScheduler()
        scheduler.tie_break = lambda task: task.task_id
        with pytest.raises(SimulationError, match=r"FirstFitScheduler.*'scheduler\.tie_break'"):
            getattr(self._sim(scheduler), copy_method)()

    @pytest.mark.parametrize("copy_method", ["fork", "snapshot"])
    def test_nested_closure_and_open_handle_are_named(self, copy_method, tmp_path):
        offset = 3
        scheduler = FirstFitScheduler()
        scheduler.policy = _Policy(rank=lambda task: task.num_pods + offset)
        with pytest.raises(SimulationError, match=r"'scheduler\.policy\.rank'") as info:
            getattr(self._sim(scheduler), copy_method)()
        assert info.value.__cause__ is not None  # pickle's own error stays attached

        with open(tmp_path / "decisions.log", "w") as handle:
            scheduler.policy = _Policy(rank=1)
            scheduler.log = handle
            with pytest.raises(SimulationError, match=r"'scheduler\.log'"):
                getattr(self._sim(scheduler), copy_method)()

    def test_picklable_custom_scheduler_still_forks(self):
        scheduler = FirstFitScheduler()
        scheduler.policy = _Policy(rank=1)
        sim = self._sim(scheduler)
        fork = sim.fork()
        fork.advance()
        assert fork.finalize().unfinished_tasks == 0
        assert sim.finalize().unfinished_tasks == 1
        assert fork.scheduler.policy is not scheduler.policy


# ----------------------------------------------------------------------
# The event heap: tuple keys pop in the order the dataclass ordering did
# ----------------------------------------------------------------------
@dataclass(order=True)
class _OrderedEvent:
    """``Event`` when it ordered the heap itself (frozen verbatim)."""

    time: float
    kind: EventKind
    tiebreak: str = ""
    seq: int = 0
    task: Optional[object] = field(default=None, compare=False)
    epoch: int = field(default=0, compare=False)
    payload: Optional[object] = field(default=None, compare=False)


_push = st.tuples(
    st.sampled_from([0.0, 1.0, 2.5, 3600.0]),  # few times: heavy ties
    st.sampled_from(list(EventKind)),
    st.sampled_from(["", "a", "b", "task-00001"]),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(st.one_of(_push, st.just("pop")), max_size=80))
def test_heap_pop_order_matches_the_ordered_dataclass_heap(ops):
    sim = ClusterSimulator(Cluster.homogeneous(1, 8, GPUModel.A100), FirstFitScheduler())
    frozen, seq = [], 0
    popped_new, popped_old = [], []
    for op in ops + ["pop"] * len(ops):
        if op != "pop":
            time, kind, tiebreak = op
            sim._push(time, kind, tiebreak=tiebreak)
            heapq.heappush(frozen, _OrderedEvent(time, kind, tiebreak, seq))
            seq += 1
        elif frozen:
            event, old = sim._pop(), heapq.heappop(frozen)
            popped_new.append((event.time, event.kind, event.tiebreak, event.seq))
            popped_old.append((old.time, old.kind, old.tiebreak, old.seq))
    assert popped_new == popped_old and not sim._events
