"""Unit tests for node capacity accounting and eviction history."""

import pytest

from repro.cluster import GPUModel, Node, TaskType, make_nodes
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
