"""Unit tests for node capacity accounting and eviction history."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, GPUModel, Node, TaskType, make_nodes
from repro.cluster.gpu import EPSILON
from tests.conftest import build_task


class TestNodeCapacity:
    def test_fresh_node_capacity(self, small_node):
        assert small_node.idle_gpus == 8
        assert small_node.free_capacity == pytest.approx(8.0)
        assert small_node.allocated_gpus == pytest.approx(0.0)
        assert small_node.allocation_rate == pytest.approx(0.0)

    def test_whole_gpu_pod_allocation(self, small_node):
        task = build_task(TaskType.HP, gpus_per_pod=4.0)
        indices = small_node.allocate_pod(task)
        assert len(indices) == 4
        assert small_node.idle_gpus == 4
        assert small_node.allocated_gpus == pytest.approx(4.0)
        assert small_node.hp_gpus == pytest.approx(4.0)
        assert small_node.spot_gpus == pytest.approx(0.0)

    def test_fractional_pod_allocation(self, small_node):
        task = build_task(TaskType.SPOT, gpus_per_pod=0.5)
        indices = small_node.allocate_pod(task)
        assert len(indices) == 1
        assert small_node.idle_gpus == 7
        assert small_node.free_capacity == pytest.approx(7.5)
        assert small_node.spot_gpus == pytest.approx(0.5)

    def test_fractional_packs_onto_partially_used_card(self, small_node):
        first = build_task(TaskType.SPOT, gpus_per_pod=0.5)
        second = build_task(TaskType.SPOT, gpus_per_pod=0.3)
        small_node.allocate_pod(first)
        small_node.allocate_pod(second)
        # Best-fit within the node packs the second task onto the same card.
        assert small_node.idle_gpus == 7

    def test_cannot_overallocate(self, small_node):
        big = build_task(TaskType.HP, gpus_per_pod=8.0)
        small_node.allocate_pod(big)
        more = build_task(TaskType.HP, gpus_per_pod=1.0)
        assert not small_node.can_fit_pod(1.0)
        with pytest.raises(ValueError):
            small_node.allocate_pod(more)

    def test_release_restores_capacity_and_type_counters(self, small_node):
        task = build_task(TaskType.SPOT, gpus_per_pod=2.0)
        small_node.allocate_pod(task)
        freed = small_node.release_task(task.task_id)
        assert freed == pytest.approx(2.0)
        assert small_node.idle_gpus == 8
        assert small_node.spot_gpus == pytest.approx(0.0)

    def test_max_pods_whole_and_fractional(self, small_node):
        assert small_node.max_pods(2.0) == 4
        assert small_node.max_pods(8.0) == 1
        assert small_node.max_pods(0.5) == 16

    def test_running_task_ids_by_type(self, small_node):
        hp = build_task(TaskType.HP, gpus_per_pod=1.0)
        spot = build_task(TaskType.SPOT, gpus_per_pod=1.0)
        small_node.allocate_pod(hp)
        small_node.allocate_pod(spot)
        assert set(small_node.running_task_ids()) == {hp.task_id, spot.task_id}
        assert small_node.running_task_ids(TaskType.HP) == [hp.task_id]
        assert small_node.running_task_ids(TaskType.SPOT) == [spot.task_id]

    def test_snapshot_contains_consistent_numbers(self, small_node):
        task = build_task(TaskType.HP, gpus_per_pod=3.0)
        small_node.allocate_pod(task)
        snap = small_node.snapshot()
        assert snap["idle_gpus"] == 5
        assert snap["hp_gpus"] == pytest.approx(3.0)
        assert snap["allocation_rate"] == pytest.approx(3.0 / 8.0)


class TestEvictionHistory:
    def test_eviction_counts_by_window(self, small_node):
        small_node.record_eviction(100.0)
        small_node.record_eviction(5000.0)
        small_node.record_eviction(9000.0)
        now = 9100.0
        # Only the 9000s eviction falls inside the trailing hour.
        assert small_node.eviction_count_since(now, 3600.0) == 1
        assert small_node.eviction_count_since(now, 2 * 3600.0) == 2
        assert small_node.eviction_count_since(now, 24 * 3600.0) == 3

    def test_no_evictions(self, small_node):
        assert small_node.eviction_count_since(1000.0, 3600.0) == 0
        assert not small_node.eviction_history

    def test_all_evictions_inside_window(self, small_node):
        for t in (8000.0, 8500.0, 9000.0):
            small_node.record_eviction(t)
        assert small_node.eviction_count_since(9100.0, 3600.0) == 3

    def test_all_evictions_outside_window(self, small_node):
        for t in (100.0, 200.0, 300.0):
            small_node.record_eviction(t)
        assert small_node.eviction_count_since(9100.0, 3600.0) == 0
        # Outside the window but well inside the retention horizon: kept.
        assert len(small_node.eviction_history) == 3

    def test_eviction_exactly_at_the_cutoff_counts(self, small_node):
        small_node.record_eviction(5499.0)
        small_node.record_eviction(5500.0)
        small_node.record_eviction(5500.0)
        small_node.record_eviction(9100.0)
        assert small_node.eviction_count_since(9100.0, 3600.0) == 3

    def test_out_of_order_evictions_are_counted(self, small_node):
        small_node.record_eviction(9000.0)
        small_node.record_eviction(100.0)
        small_node.record_eviction(5000.0)
        assert list(small_node.eviction_history) == [100.0, 5000.0, 9000.0]
        assert small_node.eviction_count_since(9100.0, 3600.0) == 1
        assert small_node.eviction_count_since(9100.0, 2 * 3600.0) == 2

    def test_entries_past_retention_are_pruned_lazily(self, small_node):
        day = 86400.0
        small_node.record_eviction(0.0)
        small_node.record_eviction(50 * day)
        small_node.record_eviction(99 * day)
        now = 100 * day
        assert small_node.eviction_count_since(now, 3600.0) == 0
        assert list(small_node.eviction_history) == [50 * day, 99 * day]
        # A window wider than the retention horizon keeps what it covers.
        assert small_node.eviction_count_since(now, 95 * day) == 2


class TestNodeValidation:
    def test_zero_gpu_node_rejected(self):
        with pytest.raises(ValueError):
            Node(node_id="bad", gpu_model=GPUModel.A10, num_gpus=0)

    def test_make_nodes_naming_and_count(self):
        nodes = make_nodes(3, GPUModel.H800, gpus_per_node=8, cluster_label="test")
        assert len(nodes) == 3
        assert len({n.node_id for n in nodes}) == 3
        assert all(n.gpu_model is GPUModel.H800 for n in nodes)


# ----------------------------------------------------------------------
# Bookkeeping: the pre-change allocate/release/refresh, frozen, run on a
# twin node next to the real one
# ----------------------------------------------------------------------
def frozen_refresh_capacity(node):
    idle = 0
    free = 0.0
    max_card = 0.0
    for g in node.gpus:
        if g.is_idle:
            idle += 1
        fraction = g.free_fraction
        free += fraction
        if fraction > max_card:
            max_card = fraction
    node._idle_cache = idle
    node._free_cache = free
    node._max_card_free_cache = max_card


def frozen_type_gpus(node, task_type):
    return max(0.0, node._type_gpus.get(task_type, 0.0))


def frozen_notify(node, free_before, hp_before, spot_before):
    node._capacity_listener(
        node,
        node._free_cache - free_before,
        frozen_type_gpus(node, TaskType.HP) - hp_before,
        frozen_type_gpus(node, TaskType.SPOT) - spot_before,
    )


def frozen_allocate_pod(node, task):
    g = task.gpus_per_pod
    before = (
        node._free_cache,
        frozen_type_gpus(node, TaskType.HP),
        frozen_type_gpus(node, TaskType.SPOT),
    )
    if g < 1.0 - EPSILON:
        candidates = [dev for dev in node.gpus if dev.can_fit(g)]
        if not candidates:
            raise ValueError("cannot fit fractional pod")
        device = min(candidates, key=lambda d: d.free_fraction)
        device.allocate(task.task_id, g)
        used = ((device.index, g),)
    else:
        whole = int(round(g))
        idle = [dev for dev in node.gpus if dev.is_idle]
        if len(idle) < whole:
            raise ValueError("not enough idle GPUs")
        chosen = idle[:whole]
        for dev in chosen:
            dev.allocate(task.task_id, 1.0)
        used = tuple((dev.index, 1.0) for dev in chosen)
    node.task_shares.setdefault(task.task_id, []).extend(used)
    node.task_types[task.task_id] = task.task_type
    node._type_gpus[task.task_type] = node._type_gpus.get(task.task_type, 0.0) + sum(
        fraction for _, fraction in used
    )
    frozen_refresh_capacity(node)
    frozen_notify(node, *before)
    return tuple(index for index, _ in used)


def frozen_release_task(node, task_id):
    before = (
        node._free_cache,
        frozen_type_gpus(node, TaskType.HP),
        frozen_type_gpus(node, TaskType.SPOT),
    )
    freed = 0.0
    for device in node.gpus:
        freed += device.release(task_id)
    node.task_shares.pop(task_id, None)
    task_type = node.task_types.pop(task_id, None)
    if task_type is not None:
        node._type_gpus[task_type] = max(0.0, node._type_gpus.get(task_type, 0.0) - freed)
    frozen_refresh_capacity(node)
    frozen_notify(node, *before)
    return freed


def figures(node):
    return (
        node.idle_gpus,
        node.free_capacity,
        node.max_card_free,
        node.hp_gpus,
        node.spot_gpus,
        node.allocated_gpus_by_type(TaskType.HP),
        dict(node.task_shares),
        [dict(g.allocations) for g in node.gpus],
        [g.used_fraction for g in node.gpus],
    )


#: non-dyadic fractions on purpose: next to one, ``free - cards`` and the
#: ordered sum over the cards round differently
NODE_POD_SIZES = (0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 1.0, 2.0, 3.0)


@settings(max_examples=120, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.booleans(), st.sampled_from(NODE_POD_SIZES), st.booleans(), st.integers(0, 7)
        ),
        max_size=40,
    )
)
def test_bookkeeping_equals_frozen_rescan_after_every_step(ops):
    """Figures, shares, cards, return values and listener deltas: all ``==``."""
    twin = Node(node_id="n", gpu_model=GPUModel.A100, num_gpus=4)
    twin_deltas = []
    twin.register_capacity_listener(lambda _n, *deltas: twin_deltas.append(deltas))

    node = Node(node_id="n", gpu_model=GPUModel.A100, num_gpus=4)
    # Every aggregate query re-verifies the caches and the index (debug mode).
    cluster = Cluster([node], validate_aggregates=True)
    deltas = []
    fold = cluster.capacity_index.on_node_change
    node.register_capacity_listener(None)
    node.register_capacity_listener(lambda n, *d: (deltas.append(d), fold(n, *d)))

    live = []
    for release, size, spot, pick in ops:
        if release:
            # Also releases of a task that is not (or no longer) on the node.
            task_id = live.pop(pick % len(live)) if live and pick else "absent"
            assert node.release_task(task_id) == frozen_release_task(twin, task_id)
        elif twin.can_fit_pod(size):
            task = build_task(TaskType.SPOT if spot else TaskType.HP, gpus_per_pod=size)
            assert node.allocate_pod(task) == frozen_allocate_pod(twin, task)
            live.append(task.task_id)
        else:
            assert not node.can_fit_pod(size)
            continue
        assert figures(node) == figures(twin)
        assert deltas == twin_deltas
        before = figures(node)
        frozen_refresh_capacity(node)  # the caches already are the full rescan
        assert figures(node) == before
        cluster.idle_gpus()


def test_whole_card_allocation_next_to_a_fractional_share_is_the_ordered_sum():
    """The case a running ``free -= cards`` gets wrong by one ulp."""
    node = Node(node_id="n", gpu_model=GPUModel.A100, num_gpus=3)
    node.allocate_pod(build_task(TaskType.SPOT, gpus_per_pod=0.3))
    free_before = node.free_capacity
    assert free_before == (0.7 + 1.0) + 1.0
    node.allocate_pod(build_task(TaskType.HP, gpus_per_pod=1.0))
    assert node.free_capacity == (0.7 + 0.0) + 1.0
    assert node.free_capacity != free_before - 1.0
