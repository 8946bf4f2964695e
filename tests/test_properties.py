"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    GPUDevice,
    GPUModel,
    Node,
    TaskType,
    generate_checkpoints,
    percentile,
)
from repro.core.gde import decompose, moving_average, normal_quantile
from repro.core.gde.training import softmax, softplus
from repro.core.sqa import MAX_ETA, MIN_ETA, SpotQuotaAllocator
from repro.core.gde import GPUDemandEstimator, SeasonalQuantileForecaster
from tests.conftest import build_task

finite_floats = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestAllocationProperties:
    @given(fractions=st.lists(st.floats(min_value=0.05, max_value=0.5), min_size=1, max_size=10))
    def test_device_never_over_allocated(self, fractions):
        device = GPUDevice(index=0, model=GPUModel.A100)
        for i, fraction in enumerate(fractions):
            if device.can_fit(fraction):
                device.allocate(f"t{i}", fraction)
        assert device.used_fraction <= 1.0 + 1e-9
        assert device.free_fraction >= -1e-9

    @given(
        sizes=st.lists(st.sampled_from([1.0, 2.0, 4.0, 8.0]), min_size=1, max_size=12),
    )
    def test_node_capacity_conserved_under_allocate_release(self, sizes):
        node = Node(node_id="n", gpu_model=GPUModel.A100, num_gpus=8)
        placed = []
        for i, size in enumerate(sizes):
            task = build_task(TaskType.HP if i % 2 else TaskType.SPOT, gpus_per_pod=size)
            if node.can_fit_pod(size):
                node.allocate_pod(task)
                placed.append(task)
            assert node.allocated_gpus <= node.total_gpus + 1e-9
            assert node.hp_gpus + node.spot_gpus <= node.allocated_gpus + 1e-9
        for task in placed:
            node.release_task(task.task_id)
        assert node.idle_gpus == 8
        assert node.free_capacity == 8.0


class TestCheckpointProperties:
    @given(
        duration=st.floats(min_value=60.0, max_value=1e5),
        interval=st.floats(min_value=30.0, max_value=1e5),
    )
    def test_checkpoints_monotone_and_end_at_duration(self, duration, interval):
        points = generate_checkpoints(duration, interval)
        assert all(b > a for a, b in zip(points, points[1:]))
        assert points[-1] == duration
        assert all(0 < p <= duration for p in points)


class TestStatisticsProperties:
    @given(values=st.lists(finite_floats, min_size=1, max_size=50))
    def test_percentile_within_range(self, values):
        for q in (0, 25, 50, 75, 99, 100):
            p = percentile(values, q)
            assert min(values) - 1e-9 <= p <= max(values) + 1e-9

    @given(values=st.lists(finite_floats, min_size=2, max_size=50))
    def test_percentile_monotone_in_q(self, values):
        assert percentile(values, 25) <= percentile(values, 75) + 1e-9


class TestDecompositionProperties:
    @given(
        data=st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=4, max_size=200),
        kernel=st.integers(min_value=1, max_value=30),
    )
    def test_trend_plus_cyclical_reconstructs_series(self, data, kernel):
        series = np.asarray(data)
        trend, cyclical = decompose(series, kernel)
        assert np.allclose(trend + cyclical, series, atol=1e-9)
        assert trend.shape == series.shape

    @given(
        value=st.floats(min_value=-50, max_value=50, allow_nan=False),
        length=st.integers(min_value=3, max_value=100),
        kernel=st.integers(min_value=1, max_value=40),
    )
    def test_moving_average_of_constant_is_constant(self, value, length, kernel):
        series = np.full(length, value)
        assert np.allclose(moving_average(series, kernel), value)


class TestNumericProperties:
    @given(x=st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_softplus_positive_and_above_relu(self, x):
        y = softplus(np.array([x]))[0]
        assert y > 0
        assert y >= max(0.0, x) - 1e-9

    @given(values=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=8))
    def test_softmax_is_distribution(self, values):
        weights = softmax(np.asarray(values))
        assert np.all(weights >= 0)
        assert np.isclose(weights.sum(), 1.0)

    @given(p=st.floats(min_value=0.01, max_value=0.99))
    def test_normal_quantile_monotone(self, p):
        assert normal_quantile(min(0.99, p + 0.005)) >= normal_quantile(p) - 1e-9


class TestQuotaProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        demand=st.floats(min_value=0.0, max_value=600.0),
        idle=st.floats(min_value=0.0, max_value=512.0),
        guaranteed=st.floats(min_value=0.0, max_value=256.0),
        eviction=st.floats(min_value=0.0, max_value=1.0),
        queue=st.floats(min_value=0.0, max_value=1e5),
    )
    def test_quota_bounded_by_capacity_and_availability(self, demand, idle, guaranteed, eviction, queue):
        estimator = GPUDemandEstimator(SeasonalQuantileForecaster()).fit(
            {"org": np.full(168, demand)}
        )
        sqa = SpotQuotaAllocator(estimator, capacity=512.0)
        quota = sqa.compute_quota(
            now=0.0, start_hour=168, idle_gpus=idle, guaranteed_spot_gpus=guaranteed,
            eviction_rate=eviction, max_queue_time=queue,
        )
        assert 0.0 <= quota <= max(idle + guaranteed, 0.0) + 1e-6
        assert MIN_ETA <= sqa.eta <= MAX_ETA
