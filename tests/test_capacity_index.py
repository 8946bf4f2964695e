"""Tests for the capacity index and the per-pass placement context.

Covers the PR-4 satellite edge cases — fractional pods sharing nodes with
whole-GPU pods, ``virtually_preempt`` rounding at the ``EPSILON``
boundary — plus a hypothesis property pinning the core index invariant:
the indexed candidate set always equals the brute-force feasible set, in
canonical node order, under both feasibility semantics.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, GPUModel, PodPlacement, TaskType
from repro.cluster.gpu import EPSILON
from repro.schedulers.placement import NodeView, PlacementContext
from tests.conftest import build_task
from tests.test_placement import frozen_find_placement


@pytest.fixture
def cluster():
    return Cluster.homogeneous(4, 8, GPUModel.A100)


def test_one_capacity_ledger():
    """Per-model GPU figures live only in the capacity index, which is every
    node's listener; no second ledger or unread counter comes back."""
    import re
    from pathlib import Path

    import repro

    package = Path(repro.__file__).parent
    banned = re.compile(
        r"\b(_ModelAggregate|_running_counts|node_gpu_seconds|record_execution"
        r"|_on_node_capacity_change|CapacityIndexError)\b"
    )
    found = [
        (str(path.relative_to(package)), match.group())
        for path in sorted(package.rglob("*.py"))
        for match in banned.finditer(path.read_text())
    ]
    assert found == []
    cluster = Cluster.homogeneous(2, 8, GPUModel.A100)
    assert all(
        node._capacity_listener == cluster.capacity_index.on_node_change
        for node in cluster.nodes
    )


# ----------------------------------------------------------------------
# Fractional pods sharing nodes with whole-GPU pods
# ----------------------------------------------------------------------
class TestFractionalWholeSharing:
    def test_fractional_fit_uses_single_card_not_aggregate(self, cluster):
        node = cluster.nodes[0]
        node.allocate_pod(build_task(TaskType.HP, gpus_per_pod=7.0))
        node.allocate_pod(build_task(TaskType.SPOT, gpus_per_pod=0.25))
        assert node.idle_gpus == 0
        assert node.free_capacity == pytest.approx(0.75)
        assert node.max_card_free == pytest.approx(0.75)
        index = cluster.capacity_index
        # Single-card semantics: a 0.75 sliver fits, a 0.8 one does not.
        assert node in index.node_fit_candidates(GPUModel.A100, 0.75)
        assert node not in index.node_fit_candidates(GPUModel.A100, 0.8)
        # Aggregate (view) semantics agree here because one card holds all
        # the free capacity.
        assert node in index.view_fit_candidates(GPUModel.A100, 0.75)
        assert node not in index.view_fit_candidates(GPUModel.A100, 0.8)

    def test_fragmented_slivers_diverge_between_semantics(self, cluster):
        node = cluster.nodes[0]
        # Occupy 0.6 of every card: aggregate free is 3.2, but no single
        # card can host more than 0.4.
        for _ in range(8):
            node.allocate_pod(build_task(TaskType.SPOT, gpus_per_pod=0.6))
        assert node.idle_gpus == 0
        assert node.max_card_free == pytest.approx(0.4)
        index = cluster.capacity_index
        assert node not in index.node_fit_candidates(GPUModel.A100, 0.5)
        assert node in index.view_fit_candidates(GPUModel.A100, 0.5)
        # And no whole-GPU pod fits despite 3.2 free GPUs of capacity.
        assert node not in index.node_fit_candidates(GPUModel.A100, 1.0)

    def test_whole_pod_blocked_by_fractional_neighbours(self, cluster):
        # Every node keeps plenty of aggregate free capacity, but a 0.6
        # sliver on each card (too big to share a card with another) leaves
        # zero idle cards: the idle-GPU gate must reject a whole-GPU task
        # without a greedy loop (and certainly without a placement).
        for node in cluster.nodes:
            for _ in range(8):
                node.allocate_pod(build_task(TaskType.SPOT, gpus_per_pod=0.6))
        assert cluster.idle_gpus() == pytest.approx(4 * 8 * 0.4)
        assert cluster.capacity_index.max_idle_gpus(GPUModel.A100) == 0
        assert cluster.capacity_index.total_idle_gpus(GPUModel.A100) == 0
        task = build_task(TaskType.HP, num_pods=2, gpus_per_pod=1.0)
        assert PlacementContext(cluster).find_placement(task) is None

    def test_gang_gated_on_idle_aggregate_not_free_sum(self, cluster):
        # 4 nodes x 2 idle cards = 8 idle GPUs, but a 4-pod gang of
        # 4-GPU pods (16 GPUs) needs sum(idle_i // 4) >= 4 which is 0.
        for node in cluster.nodes:
            node.allocate_pod(build_task(TaskType.HP, gpus_per_pod=6.0))
        task = build_task(TaskType.HP, num_pods=4, gpus_per_pod=2.0)
        placed = PlacementContext(cluster).find_placement(task)
        assert placed is not None  # 2-GPU pods still fit, one per node
        big = build_task(TaskType.HP, num_pods=4, gpus_per_pod=4.0)
        assert PlacementContext(cluster).find_placement(big) is None


# ----------------------------------------------------------------------
# virtually_preempt rounding at the EPSILON boundary
# ----------------------------------------------------------------------
class TestVirtualPreemptEpsilonBoundary:
    def _preempt(self, cluster, gpus_held: float):
        node = cluster.nodes[0]
        victim = build_task(TaskType.SPOT, gpus_per_pod=1.0)
        node.task_shares[victim.task_id] = [(0, gpus_held)]
        view = NodeView.from_node(node)
        before_idle = view.idle_gpus
        view.virtually_preempt(victim)
        return view, before_idle

    def test_just_below_whole_boundary_frees_no_idle_card(self, cluster):
        held = 1.0 - 2 * EPSILON  # < 1.0 - EPSILON: stays fractional
        view, before_idle = self._preempt(cluster, held)
        assert view.idle_gpus == before_idle
        assert view.free_capacity == pytest.approx(8.0 + held)
        # What the eviction returns is the delta against the untouched node.
        untouched = NodeView.from_node(view.node)
        assert view.free_capacity - untouched.free_capacity == pytest.approx(held)
        assert view.idle_gpus - untouched.idle_gpus == 0

    def test_at_whole_boundary_frees_an_idle_card(self, cluster):
        held = 1.0 - EPSILON / 2  # >= 1.0 - EPSILON: rounds to one card
        view, before_idle = self._preempt(cluster, held)
        assert view.idle_gpus == before_idle + 1
        assert view.free_capacity == pytest.approx(8.0 + held)

    def test_multi_card_holding_rounds_once_on_the_sum(self, cluster):
        node = cluster.nodes[0]
        victim = build_task(TaskType.SPOT, gpus_per_pod=1.0)
        node.task_shares[victim.task_id] = [(0, 0.5), (1, 0.5 - EPSILON / 4)]
        view = NodeView.from_node(node)
        view.virtually_preempt(victim)
        # The summed holding is within EPSILON of 1.0, so one idle card is
        # reclaimed even though neither share alone crosses the boundary.
        assert view.idle_gpus == 9


# ----------------------------------------------------------------------
# Property: indexed candidates == brute-force feasible set
# ----------------------------------------------------------------------
POD_SIZES = (0.25, 0.4, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 8.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_indexed_candidates_equal_brute_force(data):
    node_counts = data.draw(
        st.tuples(st.integers(1, 5), st.integers(0, 4)), label="nodes per model"
    )
    from repro.cluster.node import make_nodes

    nodes = make_nodes(node_counts[0], GPUModel.A100, 4, "prop", prefix="a100")
    if node_counts[1]:
        nodes += make_nodes(node_counts[1], GPUModel.H800, 4, "prop", prefix="h800")
    cluster = Cluster(nodes)
    index = cluster.capacity_index

    # Random mutation trace: allocations and releases through the real
    # node API, so the index is maintained purely by the listener.
    live = []
    ops = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, len(nodes) - 1),
                st.sampled_from(POD_SIZES[:8]),
                st.booleans(),
                st.booleans(),
            ),
            max_size=40,
        ),
        label="ops",
    )
    for node_index, size, spot, release in ops:
        node = cluster.nodes[node_index]
        if release and live:
            victim_node, victim_id = live.pop(0)
            victim_node.release_task(victim_id)
            continue
        if node.can_fit_pod(size):
            task = build_task(TaskType.SPOT if spot else TaskType.HP, gpus_per_pod=size)
            node.allocate_pod(task)
            live.append((node, task.task_id))

    index.validate(cluster.nodes)
    for model in (GPUModel.A100, GPUModel.H800, None):
        for size in POD_SIZES:
            for semantics, query in (
                ("node", index.node_fit_candidates),
                ("view", index.view_fit_candidates),
            ):
                got = query(model, size)
                want = index.brute_force_candidates(cluster.nodes, model, size, semantics)
                assert got == want, (
                    f"{semantics} candidates for model={model} size={size}: "
                    f"{[n.node_id for n in got]} != {[n.node_id for n in want]}"
                )
        spot_want = [
            n
            for n in cluster.nodes
            if n.spot_gpus > 0.0 and (model is None or n.gpu_model is model)
        ]
        assert index.spot_nodes(model) == spot_want
        members = [n for n in cluster.nodes if model is None or n.gpu_model is model]
        for start in (0, 1, 3):
            size, levels = index.idle_levels(model, start)
            assert size == max((n.num_gpus for n in members), default=0)
            want = {}
            for n in members:
                if n.idle_gpus >= start:
                    want.setdefault(n.idle_gpus, set()).add(n.node_id)
            walked = {
                start + i: {node_id for bucket in buckets for node_id in bucket}
                for i, buckets in enumerate(levels)
            }
            assert {b: ids for b, ids in walked.items() if ids} == want
            assert start + len(levels) - 1 == max(want, default=start - 1)


# ----------------------------------------------------------------------
# PlacementContext behaviour
# ----------------------------------------------------------------------
class TestPlacementContext:
    def test_base_views_refresh_after_mutation(self, cluster):
        ctx = PlacementContext(cluster)
        node = cluster.nodes[0]
        view = ctx.base_view(node)
        assert view.idle_gpus == 8
        node.allocate_pod(build_task(TaskType.HP, gpus_per_pod=3.0))
        refreshed = ctx.base_view(node)
        assert refreshed.idle_gpus == 5
        # Unmutated nodes keep the cached object (no per-task rebuild).
        other = cluster.nodes[1]
        assert ctx.base_view(other) is ctx.base_view(other)

    def test_failed_shape_memo_hits_until_capacity_grows(self, cluster):
        ctx = PlacementContext(cluster)
        task = build_task(TaskType.HP, num_pods=5, gpus_per_pod=8.0)
        assert ctx.find_placement(task) is None
        assert ctx.infeasible(task, "default")
        # Same shape, different task object: still memoised.
        twin = build_task(TaskType.HP, num_pods=5, gpus_per_pod=8.0)
        assert ctx.infeasible(twin, "default")
        # Freeing capacity anywhere invalidates the memo.
        blocker = build_task(TaskType.SPOT, gpus_per_pod=1.0)
        cluster.place_task(blocker, [PodPlacement(node_id=cluster.nodes[0].node_id, gpu_indices=())])
        assert ctx.infeasible(twin, "default")  # allocation only shrank capacity
        cluster.remove_task(blocker)
        assert not ctx.infeasible(twin, "default")

    def test_spot_tracked_memo_invalidated_by_spot_placement(self, cluster):
        ctx = PlacementContext(cluster)
        task = build_task(TaskType.HP, num_pods=5, gpus_per_pod=8.0)
        ctx.note_failure(task, "preempt", track_spot=True)
        assert ctx.infeasible(task, "preempt", track_spot=True)
        # A freshly placed spot task is a new preemption victim: retry.
        spot = build_task(TaskType.SPOT, gpus_per_pod=1.0)
        cluster.place_task(spot, [PodPlacement(node_id=cluster.nodes[0].node_id, gpu_indices=())])
        assert not ctx.infeasible(task, "preempt", track_spot=True)

    def test_begin_pass_clears_memo(self, cluster):
        ctx = PlacementContext(cluster)
        task = build_task(TaskType.HP, num_pods=5, gpus_per_pod=8.0)
        ctx.note_failure(task, "default")
        ctx.begin_pass()
        assert not ctx.infeasible(task, "default")

    def test_pools_are_isolated(self, cluster):
        ctx = PlacementContext(cluster)
        task = build_task(TaskType.HP, gpus_per_pod=1.0)
        ctx.note_failure(task, "loaned")
        assert ctx.infeasible(task, "loaned")
        assert not ctx.infeasible(task, "all")

    def test_context_matches_free_function(self, cluster):
        cluster.nodes[1].allocate_pod(build_task(TaskType.HP, gpus_per_pod=6.0))
        cluster.nodes[2].allocate_pod(build_task(TaskType.SPOT, gpus_per_pod=0.5))
        ctx = PlacementContext(cluster)
        for num_pods, size in ((1, 8.0), (2, 2.0), (1, 0.5), (3, 8.0), (2, 0.25), (5, 8.0)):
            task = build_task(TaskType.HP, num_pods=num_pods, gpus_per_pod=size)
            assert ctx.find_placement(task, memo=False) == frozen_find_placement(task, cluster.nodes)

    def test_search_does_not_mutate_base_views(self, cluster):
        ctx = PlacementContext(cluster)
        task = build_task(TaskType.HP, num_pods=2, gpus_per_pod=8.0)
        assert ctx.find_placement(task) is not None
        assert all(ctx.base_view(n).idle_gpus == 8 for n in cluster.nodes)


def test_idle_levels_size_counts_nodes_busy_when_indexed():
    """The bound's node size covers a larger node that joined with cards in use."""
    from repro.cluster import Node

    busy = Node(node_id="big", gpu_model=GPUModel.A100, num_gpus=8)
    task = build_task(TaskType.HP, gpus_per_pod=6.0)
    busy.allocate_pod(task)
    cluster = Cluster([Node(node_id="small", gpu_model=GPUModel.A100, num_gpus=4), busy])
    index = cluster.capacity_index
    assert index.idle_levels(GPUModel.A100, 0)[0] == 8
    busy.release_task(task.task_id)
    size, levels = index.idle_levels(None, 5)
    assert size == 8
    assert [[list(b) for b in buckets] for buckets in levels] == [[[]], [[]], [[]], [["big"]]]
