"""Tests for the shared placement machinery (NodeView, PlacementContext)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSimulator, GPUModel, PodPlacement, TaskState, TaskType
from repro.cluster.task import RunLog
from repro.cluster.gpu import EPSILON, is_fractional_pod
from repro.core import GFSConfig
from repro.core.pts import non_preemptive_placement
from repro.schedulers.fgd import fgd_score
from repro.schedulers.placement import (
    NodeView,
    PlacementContext,
    _cheap_infeasibility,
    _greedy_fill,
    gpus_held_on_node,
    spot_tasks_on_node,
    virtually_preempt_task,
)
from repro.schedulers.registry import available_schedulers, create_scheduler
from repro.schedulers.yarn_cs import best_fit_score
from repro.workloads import generate_trace
from tests.conftest import build_task


@pytest.fixture
def cluster():
    return Cluster.homogeneous(3, 8, GPUModel.A100)


class TestNodeView:
    def test_view_reflects_node_state(self, cluster):
        node = cluster.nodes[0]
        node.allocate_pod(build_task(TaskType.HP, gpus_per_pod=3.0))
        view = NodeView.from_node(node)
        assert view.idle_gpus == 5
        assert view.free_capacity == pytest.approx(5.0)

    def test_assign_pod_updates_view_not_node(self, cluster):
        node = cluster.nodes[0]
        view = NodeView.from_node(node)
        view.assign_pod(4.0)
        assert view.idle_gpus == 4
        assert node.idle_gpus == 8

    def test_assign_pod_rejects_overflow(self, cluster):
        view = NodeView.from_node(cluster.nodes[0])
        view.assign_pod(8.0)
        with pytest.raises(ValueError):
            view.assign_pod(1.0)

    def test_clone_is_independent(self, cluster):
        view = NodeView.from_node(cluster.nodes[0])
        clone = view.clone()
        clone.assign_pod(8.0)
        assert view.idle_gpus == 8

    def test_virtual_preemption_restores_capacity(self, cluster):
        node = cluster.nodes[0]
        spot = build_task(TaskType.SPOT, gpus_per_pod=4.0)
        node.allocate_pod(spot)
        spot.placements = [PodPlacement(node_id=node.node_id, gpu_indices=())]
        view = NodeView.from_node(node)
        assert view.idle_gpus == 4
        view.virtually_preempt(spot)
        assert view.idle_gpus == 8
        assert spot.task_id in view.preempted
        assert node.idle_gpus == 4  # real node untouched

    def test_virtually_preempt_task_handles_multi_node(self, cluster):
        spot = build_task(TaskType.SPOT, num_pods=2, gpus_per_pod=4.0)
        for node in cluster.nodes[:2]:
            node.allocate_pod(spot)
        spot.placements = [
            PodPlacement(node_id=cluster.nodes[0].node_id, gpu_indices=()),
            PodPlacement(node_id=cluster.nodes[1].node_id, gpu_indices=()),
        ]
        bases = {n.node_id: NodeView.from_node(n) for n in cluster.nodes}
        views, owned = dict(bases), set()
        written = virtually_preempt_task(views, owned, spot)
        assert views[cluster.nodes[0].node_id].idle_gpus == 8
        assert views[cluster.nodes[1].node_id].idle_gpus == 8
        # Copy on first write: the two nodes written to are private copies,
        # the views handed in are as they were, the third is still shared.
        assert written == owned == {n.node_id for n in cluster.nodes[:2]}
        assert all(bases[n.node_id] == NodeView.from_node(n) for n in cluster.nodes)
        assert views[cluster.nodes[2].node_id] is bases[cluster.nodes[2].node_id]
        # Evicting it again writes nothing.
        assert virtually_preempt_task(views, owned, spot) == set()


class TestFindPlacement:
    def test_single_pod_placement(self, cluster):
        task = build_task(TaskType.HP, gpus_per_pod=8.0)
        placements = PlacementContext(cluster).find_placement(task)
        assert placements is not None
        assert len(placements) == 1

    def test_gang_placement_across_nodes(self, cluster):
        task = build_task(TaskType.HP, num_pods=3, gpus_per_pod=8.0)
        placements = PlacementContext(cluster).find_placement(task)
        assert placements is not None
        assert len({p.node_id for p in placements}) == 3

    def test_infeasible_returns_none(self, cluster):
        task = build_task(TaskType.HP, num_pods=4, gpus_per_pod=8.0)
        assert PlacementContext(cluster).find_placement(task) is None

    def test_default_policy_is_best_fit(self, cluster):
        cluster.nodes[1].allocate_pod(build_task(TaskType.HP, gpus_per_pod=6.0))
        task = build_task(TaskType.HP, gpus_per_pod=2.0)
        placements = PlacementContext(cluster).find_placement(task)
        assert placements[0].node_id == cluster.nodes[1].node_id

    def test_custom_score_preferred(self, cluster):
        preferred = cluster.nodes[2].node_id

        def score(node, view, task):
            return 1.0 if node.node_id == preferred else 0.0

        task = build_task(TaskType.HP, gpus_per_pod=1.0)
        placements = PlacementContext(cluster).find_placement(task, score=score)
        assert placements[0].node_id == preferred

    def test_caller_views_not_mutated(self, cluster):
        task = build_task(TaskType.HP, num_pods=2, gpus_per_pod=8.0)
        views = {n.node_id: NodeView.from_node(n) for n in cluster.nodes}
        assert _greedy_fill(task, dict(views), None) is not None
        assert all(v.idle_gpus == 8 for v in views.values())

    def test_model_filtering(self, cluster):
        task = build_task(TaskType.HP, gpus_per_pod=1.0, gpu_model=GPUModel.H800)
        ctx = PlacementContext(cluster)
        assert ctx.fit_candidates(task) == ctx.preemption_candidates(task) == []
        assert ctx.find_placement(task) is None

    def test_fractional_pod_placement(self, cluster):
        task = build_task(TaskType.SPOT, gpus_per_pod=0.5)
        placements = PlacementContext(cluster).find_placement(task)
        assert placements is not None
        assert placements[0].fraction == pytest.approx(0.5)


class TestHelpers:
    def test_spot_tasks_on_node_and_gpus_held(self, cluster):
        spot = build_task(TaskType.SPOT, gpus_per_pod=2.0)
        node = cluster.nodes[0]
        cluster.place_task(spot, [PodPlacement(node_id=node.node_id, gpu_indices=())])
        assert spot_tasks_on_node(node, cluster) == [spot]
        assert gpus_held_on_node(spot, node) == pytest.approx(2.0)
        assert gpus_held_on_node(spot, cluster.nodes[1]) == 0.0

    def test_build_views_covers_all_nodes(self, cluster):
        ctx = PlacementContext(cluster)
        views = [ctx.base_view(n) for n in cluster.nodes]
        assert len(views) == len(cluster.nodes)
        assert views == [NodeView.from_node(n) for n in cluster.nodes]


# ----------------------------------------------------------------------
# Copy-on-assign search == the pre-change clone-every-candidate search
# (frozen here), and the shared base views stay untouched
# ----------------------------------------------------------------------
def frozen_cheap_infeasibility(task, view_map):
    if sum(v.free_capacity for v in view_map.values()) + EPSILON < task.total_gpus:
        return True
    if task.gpus_per_pod >= 1.0 - EPSILON:
        whole = int(round(task.gpus_per_pod))
        if whole > 0 and sum(v.idle_gpus // whole for v in view_map.values()) < task.num_pods:
            return True
    return False


def frozen_greedy_fill(task, view_map, score):
    """Mutates the views in ``view_map``; callers pass clones."""
    placements = []
    for _ in range(task.num_pods):
        feasible = [v for v in view_map.values() if v.can_fit_pod(task.gpus_per_pod)]
        if not feasible:
            return None
        if score is None:
            chosen = min(feasible, key=lambda v: (v.free_capacity, v.node.node_id))
        else:
            chosen = max(feasible, key=lambda v: (score(v.node, v, task), v.node.node_id))
        chosen.assign_pod(task.gpus_per_pod)
        placements.append(
            PodPlacement(node_id=chosen.node.node_id, gpu_indices=(), fraction=task.gpus_per_pod)
        )
    return placements


def frozen_context_find_placement(ctx, task, score=None, candidates=None):
    if candidates is None:
        candidates = ctx.fit_candidates(task)
    if not candidates:
        return None
    view_map = {n.node_id: ctx.base_view(n).clone() for n in candidates}
    if frozen_cheap_infeasibility(task, view_map):
        return None
    return frozen_greedy_fill(task, view_map, score)


def frozen_filter_nodes(task, nodes):
    return [
        n
        for n in nodes
        if n.available and (task.gpu_model is None or n.gpu_model is task.gpu_model)
    ]


def frozen_virtually_preempt_task(views, task):
    """The pre-change helper: writes straight into the views it is given."""
    seen_nodes = set()
    for pod in task.placements:
        if pod.node_id in seen_nodes:
            continue
        seen_nodes.add(pod.node_id)
        view = views.get(pod.node_id)
        if view is not None and task.task_id not in view.preempted:
            view.virtually_preempt(task)


def frozen_find_placement(task, nodes, score=None, views=None):
    """The deleted index-free scan: linear filter, clone every candidate."""
    candidates = frozen_filter_nodes(task, nodes)
    if views is None:
        views = {n.node_id: NodeView.from_node(n) for n in candidates if n.can_fit_pod(task.gpus_per_pod)}
    view_map = {
        n.node_id: views[n.node_id].clone()
        for n in candidates
        if n.node_id in views and views[n.node_id].can_fit_pod(task.gpus_per_pod)
    }
    if not view_map or frozen_cheap_infeasibility(task, view_map):
        return None
    return frozen_greedy_fill(task, view_map, score)


def assert_base_views_intact(ctx):
    """The bases are shared by every task of every pass: nobody wrote to one."""
    for node in ctx.cluster.nodes:
        assert ctx.base_view(node) == NodeView.from_node(node), node.node_id


POD_SIZES = (0.25, 0.4, 0.5, 1.0, 2.0, 3.0, 4.0, 8.0)
SCORES = (None, best_fit_score, fgd_score, lambda node, view, task: -view.idle_gpus)

resident_ops = st.lists(
    st.tuples(st.integers(0, 5), st.sampled_from(POD_SIZES[:7]), st.booleans(), st.booleans()),
    max_size=30,
)
searches = st.lists(
    st.tuples(
        st.booleans(), st.integers(1, 4), st.sampled_from(POD_SIZES), st.integers(0, len(SCORES) - 1)
    ),
    min_size=1,
    max_size=8,
)


def populate(cluster, ops):
    """Random allocations and releases through the real cluster API."""
    live = []
    for node_index, size, spot, release in ops:
        node = cluster.nodes[node_index % len(cluster.nodes)]
        if release and live:
            cluster.remove_task(live.pop(0))
        elif node.can_fit_pod(size):
            task = build_task(TaskType.SPOT if spot else TaskType.HP, gpus_per_pod=size)
            cluster.place_task(task, [PodPlacement(node_id=node.node_id, gpu_indices=())])
            live.append(task)
    return live


@settings(max_examples=80, deadline=None)
@given(num_nodes=st.integers(1, 6), ops=resident_ops, searches=searches, subset=st.booleans())
def test_copy_on_assign_search_equals_frozen_cloning_search(num_nodes, ops, searches, subset):
    cluster = Cluster.homogeneous(num_nodes, 8, GPUModel.A100)
    populate(cluster, ops)
    ctx = PlacementContext(cluster)
    for spot, num_pods, size, score_index in searches:
        task = build_task(
            TaskType.SPOT if spot else TaskType.HP, num_pods=num_pods, gpus_per_pod=size
        )
        score = SCORES[score_index]
        candidates = ctx.fit_candidates(task)[::2] if subset else None
        expected = frozen_context_find_placement(ctx, task, score, candidates)
        assert ctx.find_placement(task, score=score, candidates=candidates, memo=False) == expected
        assert_base_views_intact(ctx)

        # The indexed search == the deleted index-free scan over the nodes.
        if not subset:
            assert expected == frozen_find_placement(task, cluster.nodes, score)

        # The eviction sweep's probe (copy-on-write victims, then the greedy
        # fill over the views that fit) == the scan over clone-everything
        # views written to in place; the sweep's views are only read.
        views, owned = {n.node_id: ctx.base_view(n) for n in cluster.nodes}, set()
        frozen_views = {n.node_id: ctx.base_view(n).clone() for n in cluster.nodes}
        for victim in list(cluster.running_tasks.values())[:2]:
            virtually_preempt_task(views, owned, victim)
            frozen_virtually_preempt_task(frozen_views, victim)
        assert views == frozen_views
        before = {node_id: view.clone() for node_id, view in views.items()}
        expected = frozen_find_placement(task, cluster.nodes, score, frozen_views)
        fitting = {k: v for k, v in views.items() if v.can_fit_pod(task.gpus_per_pod)}
        probe = None
        if fitting and not _cheap_infeasibility(task, fitting):
            probe = _greedy_fill(task, fitting, score)
        assert probe == expected
        assert views == before
        assert_base_views_intact(ctx)


def test_pod_one_ulp_under_a_whole_gpu_is_whole_everywhere(cluster):
    """One predicate (``is_fractional_pod``): fitted and scored the same way."""
    size = 1.0 - EPSILON / 2
    assert not is_fractional_pod(size) and is_fractional_pod(1.0 - 2 * EPSILON)
    # Node 0: one idle card plus five cards with 0.4 free each; node 1: two
    # idle cards and nothing else free.  Scored on free capacity (the
    # pre-change ``>= 1.0`` test) node 1 looks fuller; on idle cards node 0
    # does, and idle cards are what the pod is fitted on.
    for node, whole, partial in ((cluster.nodes[0], 2, 5), (cluster.nodes[1], 6, 0)):
        node.allocate_pod(build_task(TaskType.HP, gpus_per_pod=float(whole)))
        for _ in range(partial):
            node.allocate_pod(build_task(TaskType.HP, gpus_per_pod=0.6))
    cluster.nodes[2].allocate_pod(build_task(TaskType.HP, gpus_per_pod=8.0))
    assert [n.idle_gpus for n in cluster.nodes] == [1, 2, 0]
    assert cluster.nodes[0].free_capacity > cluster.nodes[1].free_capacity
    task = build_task(TaskType.HP, gpus_per_pod=size)
    for node in cluster.nodes:
        view = NodeView.from_node(node)
        assert node.can_fit_pod(size) == view.can_fit_pod(size) == (node.idle_gpus >= 1)
    ctx = PlacementContext(cluster)
    view_fit = ctx.index.view_fit_candidates(task.gpu_model, size)
    assert ctx.fit_candidates(task) == view_fit == cluster.nodes[:2]
    placements = non_preemptive_placement(task, ctx, 0.0, GFSConfig())
    assert [p.node_id for p in placements] == [cluster.nodes[0].node_id]
    assert len(cluster.nodes[0].allocate_pod(task)) == 1
    assert cluster.nodes[0].idle_gpus == 0


@pytest.mark.parametrize("name", sorted(set(available_schedulers()) - {"yarn_cs"}))
def test_no_search_of_any_scheduler_family_writes_to_a_base_view(name):
    """Success or failure, non-preemptive or preemptive: bases == nodes."""
    trace = generate_trace(cluster_gpus=64.0, duration_hours=12.0, spot_scale=2.0, seed=5)
    kwargs = {"org_history": trace.org_history} if name.startswith("gfs") else {}
    scheduler = create_scheduler(name, **kwargs)
    outcomes = {True: 0, False: 0}
    search = scheduler.try_schedule

    def checked(task, cluster, now, ctx=None):
        decision = search(task, cluster, now, ctx=ctx)
        assert_base_views_intact(ctx)
        outcomes[decision is not None] += 1
        return decision

    scheduler.try_schedule = checked
    sim = ClusterSimulator(Cluster.homogeneous(8, 8, GPUModel.A100), scheduler)
    sim.submit_all(trace.sorted_tasks())
    sim.run()
    assert outcomes[True] and outcomes[False]

    # Preemptive searches, forced: three nodes of spot tasks, one of HP.
    cluster = Cluster.homogeneous(4, 8, GPUModel.A100)
    for node in cluster.nodes:
        kind = TaskType.HP if node is cluster.nodes[3] else TaskType.SPOT
        for _ in range(2):
            resident = build_task(kind, gpus_per_pod=4.0)
            cluster.place_task(resident, [PodPlacement(node_id=node.node_id, gpu_indices=())])
            resident.state = TaskState.RUNNING
            resident.run_logs.append(RunLog(start=0.0))
    ctx = PlacementContext(cluster)
    impossible = checked(build_task(TaskType.HP, num_pods=4, gpus_per_pod=8.0), cluster, 60.0, ctx)
    assert impossible is None
    decision = checked(build_task(TaskType.HP, num_pods=2, gpus_per_pod=8.0), cluster, 60.0, ctx)
    if scheduler.name == "Chronus":  # never preempts
        assert decision is None
    else:
        assert len(decision.preempted_task_ids) == 4
