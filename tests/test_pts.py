"""Tests for the Preemptive Task Scheduler: scoring, Algorithms 1-3."""

import ast
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Cluster,
    ClusterSimulator,
    GPUModel,
    Node,
    PodPlacement,
    TaskState,
    TaskType,
)
from repro.cluster.gpu import EPSILON
from repro.cluster.task import RunLog
from repro.core import GFSConfig
from repro.core.pts import (
    PreemptiveTaskScheduler,
    circuit_breaker_active,
    colocation_score,
    eviction_awareness_score,
    non_preemptive_placement,
    packing_score,
    preemption_cost,
    preemptive_placement,
    score_tuple,
    weighted_eviction_rate,
)
from repro.schedulers.placement import NodeView, PlacementContext, spot_tasks_on_node
from repro.schedulers.registry import create_scheduler
from repro.workloads import generate_trace
from tests.conftest import build_task


@pytest.fixture
def cluster():
    return Cluster.homogeneous(4, 8, GPUModel.A100)


def run_on(cluster, task, node_index=0, start=0.0):
    """Place a task on one node and mark it running (helper)."""
    node = cluster.nodes[node_index]
    placements = [PodPlacement(node_id=node.node_id, gpu_indices=())] * task.num_pods
    cluster.place_task(task, placements)
    task.run_logs.append(RunLog(start=start))
    task.state = TaskState.RUNNING
    return task


class TestScoring:
    def test_packing_score_prefers_fuller_nodes(self, cluster):
        node = cluster.nodes[0]
        assert packing_score(node, idle_gpus=8) == pytest.approx(0.0)
        assert packing_score(node, idle_gpus=2) == pytest.approx(0.75)

    def test_colocation_score_by_type(self, cluster):
        node = cluster.nodes[0]
        run_on(cluster, build_task(TaskType.HP, gpus_per_pod=4.0), 0)
        hp_score = colocation_score(node, build_task(TaskType.HP))
        spot_score = colocation_score(node, build_task(TaskType.SPOT))
        assert hp_score == pytest.approx(0.5)
        assert spot_score == pytest.approx(0.0)

    def test_weighted_eviction_rate_mixes_windows(self, cluster):
        node = cluster.nodes[0]
        config = GFSConfig(gamma=0.8)
        node.record_eviction(90_000.0)          # inside the last hour
        node.record_eviction(30_000.0)          # only inside the last 24h
        rate = weighted_eviction_rate(node, now=90_100.0, config=config)
        assert rate == pytest.approx(0.8 * 1 + 0.2 * 2 / 24.0)

    def test_eviction_awareness_asymmetry(self, cluster):
        node = cluster.nodes[0]
        config = GFSConfig(penalty=3.0)
        for i in range(20):
            node.record_eviction(1000.0 + i)
        hp = eviction_awareness_score(node, build_task(TaskType.HP), 2000.0, config)
        spot = eviction_awareness_score(node, build_task(TaskType.SPOT), 2000.0, config)
        assert hp > 0.0
        assert spot < 1.0
        assert hp + spot == pytest.approx(1.0, abs=1e-6)

    def test_circuit_breaker_trips_after_many_evictions(self, cluster):
        node = cluster.nodes[0]
        config = GFSConfig(penalty=3.0)
        assert not circuit_breaker_active(node, 0.0, config)
        for i in range(50):
            node.record_eviction(1000.0 + i)
        assert circuit_breaker_active(node, 2000.0, config)

    def test_score_tuple_respects_ablation_switches(self, cluster):
        node = cluster.nodes[0]
        run_on(cluster, build_task(TaskType.HP, gpus_per_pod=4.0), 0)
        config = GFSConfig()
        full = score_tuple(node, 4, build_task(TaskType.HP), 0.0, config)
        stripped = score_tuple(
            node, 4, build_task(TaskType.HP), 0.0, config,
            use_colocation=False, use_eviction_awareness=False,
        )
        assert full[1] > 0.0
        assert stripped[1] == 0.0 and stripped[2] == 0.0


class TestNonPreemptive:
    def test_places_all_pods_or_none(self, cluster):
        config = GFSConfig()
        ok = non_preemptive_placement(build_task(TaskType.HP, num_pods=4, gpus_per_pod=8.0), PlacementContext(cluster), 0.0, config)
        assert ok is not None and len(ok) == 4
        too_big = non_preemptive_placement(build_task(TaskType.HP, num_pods=5, gpus_per_pod=8.0), PlacementContext(cluster), 0.0, config)
        assert too_big is None

    def test_colocation_prefers_same_type_node(self, cluster):
        config = GFSConfig()
        run_on(cluster, build_task(TaskType.HP, gpus_per_pod=4.0), 0)
        run_on(cluster, build_task(TaskType.SPOT, gpus_per_pod=4.0), 1)
        placements = non_preemptive_placement(build_task(TaskType.SPOT, gpus_per_pod=2.0), PlacementContext(cluster), 0.0, config)
        assert placements[0].node_id == cluster.nodes[1].node_id
        placements = non_preemptive_placement(build_task(TaskType.HP, gpus_per_pod=2.0), PlacementContext(cluster), 0.0, config)
        assert placements[0].node_id == cluster.nodes[0].node_id

    def test_circuit_breaker_excludes_node_for_spot(self, cluster):
        config = GFSConfig(penalty=3.0)
        bad_node = cluster.nodes[0]
        for i in range(50):
            bad_node.record_eviction(100.0 + i)
        run_on(cluster, build_task(TaskType.SPOT, gpus_per_pod=7.0), 0)  # most packed node
        placements = non_preemptive_placement(build_task(TaskType.SPOT, gpus_per_pod=1.0), PlacementContext(cluster), 200.0, config)
        assert placements[0].node_id != bad_node.node_id


def brute_force_placement(task, nodes, now, config, use_colocation, use_eviction_awareness):
    """Algorithm 1 spelled out: every pod re-ranks every node from scratch.

    Candidates are the nodes of the task's model with some free capacity
    (which a pod at or below EPSILON would otherwise "fit" on a full node).
    """
    views = [
        NodeView.from_node(node)
        for node in nodes
        if (task.gpu_model is None or node.gpu_model is task.gpu_model)
        and node.free_capacity > 0.0
    ]
    placements = []
    for _ in range(task.num_pods):
        feasible = [
            view
            for view in views
            if view.can_fit_pod(task.gpus_per_pod)
            and not (
                task.is_spot
                and use_eviction_awareness
                and task.gpus_per_pod >= 1.0
                and circuit_breaker_active(view.node, now, config)
            )
        ]
        if not feasible:
            return None
        chosen = max(
            feasible,
            key=lambda view: (
                score_tuple(
                    view.node,
                    view.idle_gpus if task.gpus_per_pod >= 1.0 else view.free_capacity,
                    task,
                    now,
                    config,
                    use_colocation=use_colocation,
                    use_eviction_awareness=use_eviction_awareness,
                ),
                view.node.node_id,
            ),
        )
        chosen.assign_pod(task.gpus_per_pod)
        placements.append(
            PodPlacement(node_id=chosen.node.node_id, gpu_indices=(), fraction=task.gpus_per_pod)
        )
    return placements


#: two GPU models, and tiny fractional pods: EPSILON and one below it
MODELS = (GPUModel.A100, GPUModel.H800)
TINY_PODS = (EPSILON, EPSILON / 10)


def mixed_cluster(shapes):
    """A cluster of ``(model, cards)`` nodes, in that order."""
    return Cluster(
        Node(node_id=f"n{i:02d}", gpu_model=model, num_gpus=cards)
        for i, (model, cards) in enumerate(shapes)
    )


class TestNonPreemptiveMatchesBruteForce:
    """Walking the idle buckets in Score-1 order changes no placement."""

    NOW = 200_000.0

    def _random_cluster(self, rng):
        # 8-40 nodes, so that the walk skips buckets; one or two GPU models,
        # each of 4-card nodes, 8-card nodes or both.
        sizes = {m: rng.choice([(4,), (8,), (4, 8)]) for m in MODELS[: rng.randint(1, 2)]}
        models = list(sizes)
        cluster = mixed_cluster(
            (model, rng.choice(sizes[model]))
            for model in (rng.choice(models) for _ in range(rng.randint(8, 40)))
        )
        for node in cluster.nodes:
            for _ in range(rng.randint(0, 4)):
                resident = build_task(
                    rng.choice([TaskType.HP, TaskType.SPOT]),
                    gpus_per_pod=rng.choice([0.25, 0.5, 1.0, 2.0, 4.0]),
                )
                if node.can_fit_pod(resident.gpus_per_pod):
                    cluster.place_task(resident, [PodPlacement(node_id=node.node_id, gpu_indices=())])
            # Evictions older than both windows, inside the 24 h window
            # only, and inside the last hour.
            ages = [rng.uniform(90_000.0, 150_000.0) for _ in range(rng.randint(0, 3))]
            ages += [rng.uniform(3_700.0, 86_000.0) for _ in range(rng.randint(0, 12))]
            ages += [rng.uniform(0.0, 3_600.0) for _ in range(rng.choice([0, 0, 1, 3, 8]))]
            for age in sorted(ages, reverse=True):
                node.record_eviction(self.NOW - age)
        return cluster

    @pytest.mark.parametrize("seed", range(40))
    def test_same_placements_as_per_pod_rescoring(self, seed):
        rng = random.Random(seed)
        cluster = self._random_cluster(rng)
        # A low penalty never trips the circuit breaker, a high one trips
        # it on every node with a recent eviction.
        config = GFSConfig(gamma=rng.choice([0.5, 0.8]), penalty=rng.choice([3.0, 20.0, 60.0]))
        switches = list(itertools.product([True, False], repeat=2))
        models = sorted({n.gpu_model for n in cluster.nodes})
        for _ in range(12):
            task = build_task(
                rng.choice([TaskType.HP, TaskType.SPOT]),
                num_pods=rng.randint(1, 5),
                gpus_per_pod=rng.choice((0.25, 0.5, 1.0, 2.0, 4.0, 8.0) + TINY_PODS),
                gpu_model=rng.choice([None] + models),
            )
            for use_colocation, use_eviction_awareness in switches:
                expected = brute_force_placement(
                    task, cluster.nodes, self.NOW, config, use_colocation, use_eviction_awareness
                )
                indexed = non_preemptive_placement(
                    task, PlacementContext(cluster), self.NOW, config,
                    use_colocation=use_colocation, use_eviction_awareness=use_eviction_awareness,
                )
                assert indexed == expected

    def test_scenarios_cover_breaker_gangs_and_failures(self):
        """The random scenarios must reach the cases the comparison is for."""
        tripped = multi_node_gangs = unplaceable = 0
        for seed in range(40):
            rng = random.Random(seed)
            cluster = self._random_cluster(rng)
            config = GFSConfig(penalty=60.0)
            tripped += sum(circuit_breaker_active(n, self.NOW, config) for n in cluster.nodes)
            gang = build_task(TaskType.SPOT, num_pods=4, gpus_per_pod=4.0)
            placements = non_preemptive_placement(gang, PlacementContext(cluster), self.NOW, config)
            if placements is None:
                unplaceable += 1
            elif len({p.node_id for p in placements}) > 1:
                multi_node_gangs += 1
        assert tripped > 0 and multi_node_gangs > 0 and unplaceable > 0


class TestPreemptive:
    def test_preempts_cheapest_victims(self, cluster):
        now = 10_000.0
        # Node 0 hosts a spot task far from its checkpoint (expensive waste),
        # node 1 hosts one that just checkpointed (cheap).
        expensive = run_on(cluster, build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=7200.0,
                                               checkpoint_interval=7200.0), 0, start=now - 3000.0)
        cheap = run_on(cluster, build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=7200.0,
                                           checkpoint_interval=600.0), 1, start=now - 3000.0)
        # Fill the remaining nodes with HP so preemption is required.
        run_on(cluster, build_task(TaskType.HP, gpus_per_pod=8.0), 2)
        run_on(cluster, build_task(TaskType.HP, gpus_per_pod=8.0), 3)
        result = preemptive_placement(
            build_task(TaskType.HP, gpus_per_pod=8.0), PlacementContext(cluster), cluster, now,
            beta=0.5, total_gpu_seconds=1e6,
        )
        assert result is not None
        placements, victims = result
        assert victims == [cheap.task_id]
        assert placements[0].node_id == cluster.nodes[1].node_id

    def test_returns_none_when_hp_everywhere(self, cluster):
        for i in range(4):
            run_on(cluster, build_task(TaskType.HP, gpus_per_pod=8.0), i)
        result = preemptive_placement(
            build_task(TaskType.HP, gpus_per_pod=8.0), PlacementContext(cluster), cluster, 0.0,
            beta=0.5, total_gpu_seconds=1e6,
        )
        assert result is None

    def test_spot_task_cannot_use_preemptive_path(self, cluster):
        with pytest.raises(ValueError):
            preemptive_placement(
                build_task(TaskType.SPOT), PlacementContext(cluster), cluster, 0.0, beta=0.5, total_gpu_seconds=1.0
            )

    def test_multi_pod_preemption(self, cluster):
        now = 5000.0
        for i in range(4):
            run_on(cluster, build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=7200.0), i, start=now - 1000.0)
        result = preemptive_placement(
            build_task(TaskType.HP, num_pods=2, gpus_per_pod=8.0), PlacementContext(cluster), cluster, now,
            beta=0.5, total_gpu_seconds=1e6,
        )
        assert result is not None
        placements, victims = result
        assert len(placements) == 2
        assert len(victims) == 2

    def test_preemption_cost_increases_with_waste_and_count(self, cluster):
        now = 1000.0
        light = run_on(cluster, build_task(TaskType.SPOT, gpus_per_pod=1.0, duration=7200.0,
                                           checkpoint_interval=600.0), 0, start=now - 100.0)
        heavy = run_on(cluster, build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=7200.0,
                                           checkpoint_interval=7200.0), 1, start=now - 3000.0)
        cheap = preemption_cost([light], cluster, now, beta=0.5, total_gpu_seconds=1e5)
        costly = preemption_cost([light, heavy], cluster, now, beta=0.5, total_gpu_seconds=1e5)
        assert costly > cheap


class TestPTSFacade:
    def test_algorithm3_non_preemptive_first(self, cluster):
        pts = PreemptiveTaskScheduler()
        decision = pts.schedule(build_task(TaskType.HP, gpus_per_pod=8.0), cluster, 0.0)
        assert decision is not None
        assert not decision.requires_preemption

    def test_algorithm3_falls_back_to_preemption_for_hp(self, cluster):
        pts = PreemptiveTaskScheduler()
        for i in range(4):
            run_on(cluster, build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=7200.0), i)
        hp_decision = pts.schedule(build_task(TaskType.HP, gpus_per_pod=8.0), cluster, 100.0)
        assert hp_decision is not None and hp_decision.requires_preemption
        spot_decision = pts.schedule(build_task(TaskType.SPOT, gpus_per_pod=8.0), cluster, 100.0)
        assert spot_decision is None

    def test_random_preemption_mode_still_feasible(self, cluster):
        pts = PreemptiveTaskScheduler(GFSConfig(random_preemption=True, seed=1))
        for i in range(4):
            run_on(cluster, build_task(TaskType.SPOT, gpus_per_pod=8.0, duration=7200.0), i)
        decision = pts.schedule(build_task(TaskType.HP, gpus_per_pod=8.0), cluster, 100.0)
        assert decision is not None
        assert decision.requires_preemption

    def test_queue_ordering_hp_then_large_then_fcfs(self):
        pts = PreemptiveTaskScheduler()
        small_hp = build_task(TaskType.HP, gpus_per_pod=1.0, submit_time=0.0)
        big_hp = build_task(TaskType.HP, num_pods=2, gpus_per_pod=8.0, submit_time=50.0)
        spot = build_task(TaskType.SPOT, gpus_per_pod=8.0, submit_time=0.0)
        ordered = pts.sort_queue([spot, small_hp, big_hp], 0.0)
        assert ordered[0] is big_hp
        assert ordered[1] is small_hp
        assert ordered[2] is spot


# ----------------------------------------------------------------------
# Placing without cloning == the pre-change searches (frozen here), which
# cloned every candidate view per task and probed on a clone per node
# ----------------------------------------------------------------------
def frozen_static_scores(node, task, now, config, use_colocation, use_eviction_awareness):
    s2 = colocation_score(node, task) if use_colocation else 0.0
    if not use_eviction_awareness:
        return False, s2, 0.0
    penalty = 0.01 * config.penalty * weighted_eviction_rate(node, now, config)
    s3 = min(penalty, 1.0) if task.is_hp else max(1.0 - penalty, 0.0)
    return 1.0 - penalty <= 0.0, s2, s3


def frozen_non_preemptive_placement(
    task, nodes, now, config, use_colocation=True, use_eviction_awareness=True, ctx=None
):
    if ctx is not None:
        fit = ctx.index.view_fit_candidates(task.gpu_model, task.gpus_per_pod)
        view_map = {n.node_id: ctx.base_view(n).clone() for n in fit}
    else:
        # Only nodes with free capacity are candidates (see ``brute_force_placement``).
        candidates = [
            n
            for n in (nodes or ())
            if (task.gpu_model is None or n.gpu_model is task.gpu_model) and n.free_capacity > 0.0
        ]
        view_map = {n.node_id: NodeView.from_node(n) for n in candidates}
    if not view_map:
        return None
    whole_gpu_pods = task.gpus_per_pod >= 1.0
    breaker_applies = task.is_spot and whole_gpu_pods
    static = {}
    placements = []
    for _ in range(task.num_pods):
        chosen = None
        chosen_key = None
        for node_id, view in view_map.items():
            if not view.can_fit_pod(task.gpus_per_pod):
                continue
            node = view.node
            scores = static.get(node_id)
            if scores is None:
                scores = static[node_id] = frozen_static_scores(
                    node, task, now, config, use_colocation, use_eviction_awareness
                )
            broken, s2, s3 = scores
            if broken and breaker_applies:
                continue
            s1 = packing_score(node, view.idle_gpus if whole_gpu_pods else view.free_capacity)
            key = (s1, s2, s3, node_id)
            if chosen is None or key > chosen_key:
                chosen, chosen_key = view, key
        if chosen is None:
            return None
        chosen.assign_pod(task.gpus_per_pod)
        placements.append(
            PodPlacement(node_id=chosen.node.node_id, gpu_indices=(), fraction=task.gpus_per_pod)
        )
    return placements


def frozen_node_preemption_plan(node, view, task, cluster, now, already_victims):
    if view.can_fit_pod(task.gpus_per_pod):
        return []
    victims = []
    candidates = [
        t
        for t in spot_tasks_on_node(node, cluster)
        if t.task_id not in already_victims and t.task_id not in view.preempted
    ]
    candidates.sort(key=lambda t: t.preemption_waste(now))
    probe = view.clone()
    for candidate in candidates:
        probe.virtually_preempt(candidate)
        victims.append(candidate)
        if probe.can_fit_pod(task.gpus_per_pod):
            return victims
    return None


def frozen_preemptive_placement(
    task, nodes, cluster, now, beta, total_gpu_seconds, random_selection=False, rng=None, ctx=None
):
    if ctx is not None:
        candidates = ctx.preemption_candidates(task)
        views = {n.node_id: ctx.base_view(n).clone() for n in candidates}
    else:
        candidates = [
            n for n in (nodes or ()) if task.gpu_model is None or n.gpu_model is task.gpu_model
        ]
        views = {n.node_id: NodeView.from_node(n) for n in candidates}
    if not candidates:
        return None
    rng = rng or random.Random(0)
    placements = []
    all_victims = []
    victim_ids = set()
    for _ in range(task.num_pods):
        plans = []
        for node in candidates:
            view = views[node.node_id]
            victims = frozen_node_preemption_plan(node, view, task, cluster, now, victim_ids)
            if victims is None:
                continue
            cost = preemption_cost(victims, cluster, now, beta, total_gpu_seconds)
            plans.append((node, victims, cost))
        if not plans:
            return None
        if random_selection:
            chosen = rng.choice(plans)
        else:
            chosen = min(plans, key=lambda p: (p[2], p[0].node_id))
        view = views[chosen[0].node_id]
        for victim in chosen[1]:
            for pod in victim.placements:
                victim_view = views.get(pod.node_id)
                if victim_view is not None and victim.task_id not in victim_view.preempted:
                    victim_view.virtually_preempt(victim)
            victim_ids.add(victim.task_id)
            all_victims.append(victim)
        view.assign_pod(task.gpus_per_pod)
        placements.append(
            PodPlacement(node_id=chosen[0].node_id, gpu_indices=(), fraction=task.gpus_per_pod)
        )
    return placements, [t.task_id for t in all_victims]


NOW = 200_000.0
POD_SIZES = (0.25, 0.4, 0.5, 1.0, 2.0, 4.0, 8.0)


def cluster_ops_on(last_node):
    """(node, pods, size, spot?, seconds since start, checkpoint interval) or an eviction."""
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("run"),
                st.integers(0, last_node),
                st.integers(1, 3),
                st.sampled_from(POD_SIZES[:6]),
                st.booleans(),
                st.floats(0.0, 7000.0),
                st.sampled_from([600.0, 1800.0, 7200.0]),
            ),
            st.tuples(st.just("evict"), st.integers(0, last_node)),
            # Evictions older than both windows, in the 24 h one, in the last hour.
            st.tuples(
                st.just("record"),
                st.integers(0, last_node),
                st.sampled_from([120_000.0, 40_000.0, 3_000.0, 900.0, 30.0]),
                st.integers(1, 12),
            ),
        ),
        max_size=40,
    )


cluster_ops = cluster_ops_on(5)


def start_running(cluster, task, hosts, age):
    cluster.place_task(task, [PodPlacement(node_id=n.node_id, gpu_indices=()) for n in hosts])
    task.run_logs.append(RunLog(start=NOW - age))
    task.state = TaskState.RUNNING


def apply_cluster_ops(cluster, ops, packed):
    """Random gangs, evictions and eviction records through the real cluster API.

    ``packed`` then fills what is left idle with spot tasks, so that an HP
    task has to preempt.
    """
    running = []
    for op in ops:
        node = cluster.nodes[op[1] % len(cluster.nodes)]
        if op[0] == "run":
            _, _, pods, size, spot, age, interval = op
            task = build_task(
                TaskType.SPOT if spot else TaskType.HP, num_pods=pods, gpus_per_pod=size,
                duration=7200.0, checkpoint_interval=interval,
            )
            # A gang spreads over the nodes from ``node`` on, where it fits.
            hosts = [n for n in cluster.nodes[op[1] % len(cluster.nodes):] if n.can_fit_pod(size)]
            if len(hosts) >= pods:
                start_running(cluster, task, hosts[:pods], age)
                running.append(task)
        elif op[0] == "evict" and running:
            victim = running.pop(op[1] % len(running))
            for node_id in {pod.node_id for pod in victim.placements}:
                cluster.node(node_id).record_eviction(NOW - 10.0)
            cluster.remove_task(victim)
        elif op[0] == "record":
            for k in range(op[3]):
                node.record_eviction(NOW - op[2] - k)
    if packed:
        for i, node in enumerate(cluster.nodes):
            while node.idle_gpus:
                size = float(min(node.idle_gpus, 1 + (i + node.idle_gpus) % 3))
                filler = build_task(
                    TaskType.SPOT, gpus_per_pod=size, duration=7200.0,
                    checkpoint_interval=(600.0, 1800.0, 7200.0)[node.idle_gpus % 3],
                )
                start_running(cluster, filler, [node], age=500.0 * node.idle_gpus + 37.0 * i)


@settings(max_examples=120, deadline=None)
@given(
    num_nodes=st.integers(1, 6),
    ops=cluster_ops,
    packed=st.booleans(),
    tasks=st.lists(
        st.tuples(st.booleans(), st.integers(1, 5), st.sampled_from(POD_SIZES)),
        min_size=1,
        max_size=6,
    ),
    penalty=st.sampled_from([3.0, 20.0, 60.0]),
    use_colocation=st.booleans(),
    use_eviction_awareness=st.booleans(),
    random_selection=st.booleans(),
)
def test_placing_without_cloning_equals_the_frozen_cloning_searches(
    num_nodes, ops, packed, tasks, penalty, use_colocation, use_eviction_awareness, random_selection
):
    cluster = Cluster.homogeneous(num_nodes, 8, GPUModel.A100)
    apply_cluster_ops(cluster, ops, packed)
    config = GFSConfig(penalty=penalty)
    ctx = PlacementContext(cluster)
    switches = dict(use_colocation=use_colocation, use_eviction_awareness=use_eviction_awareness)
    for spot, num_pods, size in tasks:
        task = build_task(
            TaskType.SPOT if spot else TaskType.HP, num_pods=num_pods, gpus_per_pod=size
        )
        expected = frozen_non_preemptive_placement(task, cluster.nodes, NOW, config, **switches)
        assert expected == frozen_non_preemptive_placement(task, None, NOW, config, ctx=ctx, **switches)
        assert non_preemptive_placement(task, ctx, NOW, config, **switches) == expected
        if task.is_hp:
            common = dict(beta=0.5, total_gpu_seconds=1e6, random_selection=random_selection)
            expected = frozen_preemptive_placement(
                task, cluster.nodes, cluster, NOW, rng=random.Random(7), **common
            )
            assert expected == frozen_preemptive_placement(
                task, None, cluster, NOW, rng=random.Random(7), ctx=ctx, **common
            )
            got = preemptive_placement(task, ctx, cluster, NOW, rng=random.Random(7), **common)
            assert got == expected
        for node in cluster.nodes:
            assert ctx.base_view(node) == NodeView.from_node(node)


@settings(max_examples=100, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(st.sampled_from(MODELS), st.sampled_from([4, 8])), min_size=8, max_size=40
    ),
    ops=cluster_ops_on(39),
    packed=st.booleans(),
    tasks=st.lists(
        st.tuples(
            st.booleans(),
            st.integers(1, 5),
            st.sampled_from(POD_SIZES + TINY_PODS),
            st.sampled_from((None,) + MODELS),
        ),
        min_size=1,
        max_size=6,
    ),
    penalty=st.sampled_from([3.0, 20.0, 60.0]),
    use_colocation=st.booleans(),
    use_eviction_awareness=st.booleans(),
)
def test_bucket_walk_equals_the_frozen_per_pod_argmax(
    shapes, ops, packed, tasks, penalty, use_colocation, use_eviction_awareness
):
    """Mixed 4/8-card nodes of two models, tasks of either model or none."""
    cluster = mixed_cluster(shapes)
    apply_cluster_ops(cluster, ops, packed)
    config = GFSConfig(penalty=penalty)
    ctx = PlacementContext(cluster)
    switches = dict(use_colocation=use_colocation, use_eviction_awareness=use_eviction_awareness)
    for spot, num_pods, size, model in tasks:
        task = build_task(
            TaskType.SPOT if spot else TaskType.HP, num_pods=num_pods, gpus_per_pod=size,
            gpu_model=model,
        )
        expected = frozen_non_preemptive_placement(task, cluster.nodes, NOW, config, **switches)
        via_ctx = frozen_non_preemptive_placement(task, None, NOW, config, ctx=ctx, **switches)
        assert via_ctx == expected
        assert non_preemptive_placement(task, ctx, NOW, config, **switches) == expected


def test_one_pod_scores_only_the_bucket_it_lands_in(monkeypatch):
    """63 idle nodes and one with exactly k idle cards: the walk scores
    (breaker, Score 2, Score 3) the one node and stops."""
    import repro.core.pts.nonpreemptive as algorithm1

    cluster = Cluster.homogeneous(64, 8, GPUModel.A100)
    for node in cluster.nodes:
        node.record_eviction(NOW - 1800.0)
    target = cluster.nodes[17]
    run_on(cluster, build_task(TaskType.HP, gpus_per_pod=5.0), 17)
    calls = {"s2": 0, "s3": 0}
    real_s2, real_s3 = Node.allocated_gpus_by_type, algorithm1.eviction_penalty

    def s2(node, task_type):
        calls["s2"] += 1
        return real_s2(node, task_type)

    def s3(node, now, config):
        calls["s3"] += 1
        return real_s3(node, now, config)

    monkeypatch.setattr(Node, "allocated_gpus_by_type", s2)
    monkeypatch.setattr(algorithm1, "eviction_penalty", s3)
    task = build_task(TaskType.SPOT, gpus_per_pod=3.0)
    placements = non_preemptive_placement(task, PlacementContext(cluster), NOW, GFSConfig())
    assert placements == [PodPlacement(node_id=target.node_id, gpu_indices=(), fraction=3.0)]
    assert calls == {"s2": 1, "s3": 1}


def test_algorithm1_builds_no_node_views():
    """Algorithm 1 reads nodes straight from the capacity index."""
    source = Path(__file__).resolve().parent.parent / "src/repro/core/pts/nonpreemptive.py"
    names = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert not names & {"base_view", "NodeView"}


def test_replay_clones_no_view_it_does_not_write(monkeypatch):
    """Exact counts over a smoke-size PTS replay: a search copies a view
    only to write to it, so clones are bounded by what decisions changed."""
    counts = {"clones": 0, "writes": 0, "pods": 0, "preempted_on": 0}

    def counting(name, key):
        real = getattr(NodeView, name)

        def wrapper(view, *args):
            counts[key] += 1
            return real(view, *args)

        monkeypatch.setattr(NodeView, name, wrapper)

    counting("clone", "clones")
    counting("assign_pod", "writes")
    counting("virtually_preempt", "writes")

    cluster = Cluster.homogeneous(16, 8, GPUModel.A100)
    trace = generate_trace(cluster_gpus=128.0, duration_hours=24.0, spot_scale=2.0, seed=11)
    scheduler = create_scheduler("pts")
    search = scheduler.try_schedule

    def counted(task, cluster, now, ctx=None):
        decision = search(task, cluster, now, ctx=ctx)
        if decision is not None:
            counts["pods"] += len(decision.placements)
            counts["preempted_on"] += sum(
                len({pod.node_id for pod in cluster.running_tasks[victim].placements})
                for victim in decision.preempted_task_ids
            )
        return decision

    scheduler.try_schedule = counted
    sim = ClusterSimulator(cluster, scheduler)
    sim.submit_all(trace.sorted_tasks())
    sim.run()
    assert counts["preempted_on"] > 0 and counts["pods"] > 100
    assert 0 < counts["clones"] <= counts["writes"]
    assert counts["clones"] <= counts["pods"] + counts["preempted_on"]
