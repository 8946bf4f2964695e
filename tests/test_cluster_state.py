"""Unit tests for cluster-level accounting and placement mutations."""

import pytest

from repro.cluster import Cluster, GPUModel, PodPlacement, TaskType, make_nodes
from tests.conftest import build_task


def place(cluster, task, node_ids):
    placements = [PodPlacement(node_id=n, gpu_indices=(), fraction=task.gpus_per_pod) for n in node_ids]
    cluster.place_task(task, placements)
    return placements


class TestClusterAccounting:
    def test_capacity_totals(self, small_cluster):
        assert small_cluster.total_gpus() == pytest.approx(32.0)
        assert small_cluster.idle_gpus() == pytest.approx(32.0)
        assert small_cluster.allocation_rate() == pytest.approx(0.0)

    def test_place_and_remove_task(self, small_cluster):
        task = build_task(TaskType.HP, num_pods=2, gpus_per_pod=4.0)
        nodes = [n.node_id for n in small_cluster.nodes[:2]]
        place(small_cluster, task, nodes)
        assert small_cluster.hp_gpus() == pytest.approx(8.0)
        assert task.task_id in small_cluster.running_tasks
        small_cluster.remove_task(task)
        assert small_cluster.hp_gpus() == pytest.approx(0.0)
        assert task.task_id not in small_cluster.running_tasks
        assert task.placements == []

    def test_double_placement_rejected(self, small_cluster):
        task = build_task(TaskType.SPOT, gpus_per_pod=1.0)
        place(small_cluster, task, [small_cluster.nodes[0].node_id])
        with pytest.raises(ValueError):
            place(small_cluster, task, [small_cluster.nodes[1].node_id])

    def test_failed_placement_rolls_back(self, small_cluster):
        filler = build_task(TaskType.HP, gpus_per_pod=8.0)
        place(small_cluster, filler, [small_cluster.nodes[0].node_id])
        # Second pod cannot fit on the full node; whole placement must roll back.
        task = build_task(TaskType.HP, num_pods=2, gpus_per_pod=8.0)
        with pytest.raises(ValueError):
            place(small_cluster, task, [small_cluster.nodes[1].node_id, small_cluster.nodes[0].node_id])
        assert task.task_id not in small_cluster.running_tasks
        assert small_cluster.node(small_cluster.nodes[1].node_id).idle_gpus == 8

    def test_stats_snapshot(self, small_cluster):
        hp = build_task(TaskType.HP, gpus_per_pod=4.0)
        spot = build_task(TaskType.SPOT, gpus_per_pod=2.0)
        place(small_cluster, hp, [small_cluster.nodes[0].node_id])
        place(small_cluster, spot, [small_cluster.nodes[1].node_id])
        stats = small_cluster.stats()
        assert stats.hp_gpus == pytest.approx(4.0)
        assert stats.spot_gpus == pytest.approx(2.0)
        assert stats.running_hp_tasks == 1
        assert stats.running_spot_tasks == 1
        assert stats.allocation_rate == pytest.approx(6.0 / 32.0)

    def test_spot_outcome_counters(self, small_cluster):
        small_cluster.record_spot_outcome(evicted=True)
        small_cluster.record_spot_outcome(evicted=False)
        small_cluster.record_spot_outcome(evicted=False)
        assert small_cluster.evicted_spot_runs == 1
        assert small_cluster.successful_spot_runs == 2

    def test_spot_gpus_with_guarantee(self, small_cluster):
        task = build_task(TaskType.SPOT, gpus_per_pod=2.0)
        task.guaranteed_hours = 2.0
        place(small_cluster, task, [small_cluster.nodes[0].node_id])
        assert small_cluster.spot_gpus_with_guarantee(1.0, now=0.0) == pytest.approx(2.0)
        assert small_cluster.spot_gpus_with_guarantee(4.0, now=0.0) == pytest.approx(0.0)


class TestHeterogeneousCluster:
    def test_model_filtering(self):
        nodes = make_nodes(2, GPUModel.A100) + make_nodes(3, GPUModel.A10, gpus_per_node=1)
        cluster = Cluster(nodes)
        assert cluster.total_gpus(GPUModel.A100) == pytest.approx(16.0)
        assert cluster.total_gpus(GPUModel.A10) == pytest.approx(3.0)
        assert len(cluster.nodes_for_model(GPUModel.A10)) == 3
        assert set(cluster.gpu_models) == {GPUModel.A100, GPUModel.A10}

    def test_describe_mentions_all_models(self):
        nodes = make_nodes(1, GPUModel.A100) + make_nodes(1, GPUModel.H800)
        text = Cluster(nodes).describe()
        assert "A100" in text and "H800" in text

    def test_duplicate_node_ids_rejected(self):
        nodes = make_nodes(1, GPUModel.A100)
        with pytest.raises(ValueError):
            Cluster(nodes + nodes)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster([])
