"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import dataclasses
import math

import pytest

from repro.cluster import Cluster, GPUModel, Node, Task, TaskType, make_task, reset_task_counter
from repro.service import AsyncServiceClient, SchedulerServer
from repro.workloads import (
    WorkloadConfig,
    SyntheticTraceGenerator,
    default_organizations,
    generate_org_demand_matrix,
)


@pytest.fixture(autouse=True)
def _reset_task_ids():
    """Keep auto-generated task ids deterministic within each test."""
    reset_task_counter()
    yield


@pytest.fixture
def small_node() -> Node:
    return Node(node_id="node-0", gpu_model=GPUModel.A100, num_gpus=8)


@pytest.fixture
def small_cluster() -> Cluster:
    return Cluster.homogeneous(num_nodes=4, gpus_per_node=8, gpu_model=GPUModel.A100)


@pytest.fixture
def medium_cluster() -> Cluster:
    return Cluster.homogeneous(num_nodes=16, gpus_per_node=8, gpu_model=GPUModel.A100)


def build_task(
    task_type: TaskType = TaskType.SPOT,
    num_pods: int = 1,
    gpus_per_pod: float = 1.0,
    duration: float = 3600.0,
    submit_time: float = 0.0,
    **kwargs,
) -> Task:
    """Helper used across tests to create tasks tersely."""
    return make_task(
        task_type=task_type,
        num_pods=num_pods,
        gpus_per_pod=gpus_per_pod,
        duration=duration,
        submit_time=submit_time,
        **kwargs,
    )


def task_payload(task_id: str, submit_time: float, *, hp: bool = False, gpus: float = 4.0) -> dict:
    """One task as the service's JSON API takes it (``docs/service.md``)."""
    return {
        "task_id": task_id,
        "task_type": 1 if hp else 0,
        "num_pods": 1,
        "gpus_per_pod": gpus,
        "duration": 1800.0,
        "submit_time": submit_time,
        "org": "org-a" if hp else "org-b",
    }


class EventSink(list):
    """A telemetry sink keeping every bus record it is handed; the bus is
    the only report of sweep supervision (retries, timeouts, rebuilds)."""

    def handle(self, record) -> None:
        self.append(record)

    def close(self) -> None:
        pass

    def events(self, name: str) -> list:
        return [record for record in self if record["event"] == name]


@contextlib.asynccontextmanager
async def service_server(**server_kwargs):
    """A live ``SchedulerServer`` on an ephemeral port and one client on it.

    pytest-asyncio is deliberately not a dependency, so this is a plain
    async context manager: ``async with service_server() as (server,
    client)`` inside a coroutine the test hands to ``asyncio.run``.
    """
    server = SchedulerServer(**server_kwargs)
    await server.start(port=0)
    client = AsyncServiceClient(server.host, server.port)
    try:
        yield server, client
    finally:
        await client.close()
        await server.stop()


@pytest.fixture
def hp_task() -> Task:
    return build_task(TaskType.HP, num_pods=1, gpus_per_pod=8.0, duration=7200.0)


@pytest.fixture
def spot_task() -> Task:
    return build_task(TaskType.SPOT, num_pods=1, gpus_per_pod=1.0, duration=3600.0)


@pytest.fixture
def org_history() -> dict:
    orgs = default_organizations()
    return generate_org_demand_matrix(orgs, hours=14 * 24, seed=1)


@pytest.fixture
def tiny_trace():
    """A small but non-trivial synthetic trace for integration tests."""
    config = WorkloadConfig(
        cluster_gpus=128.0,
        duration_hours=8.0,
        spot_scale=2.0,
        seed=5,
        history_hours=7 * 24,
    )
    return SyntheticTraceGenerator(config).generate()


def _values_identical(a, b) -> bool:
    """Exact equality that treats NaN == NaN and descends into containers."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    if dataclasses.is_dataclass(a) and dataclasses.is_dataclass(b):
        return type(a) is type(b) and all(
            _values_identical(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_values_identical(x, y) for x, y in zip(a, b))
    return a == b


def assert_metrics_identical(new, old, label: str = "") -> None:
    """Field-by-field bit-identity of two SimulationMetrics bundles.

    Plain ``==`` is wrong for this job: empty task classes carry NaN
    means, and NaN != NaN would flag identical bundles as divergent.
    """
    for field in dataclasses.fields(old):
        new_value, old_value = getattr(new, field.name), getattr(old, field.name)
        assert _values_identical(new_value, old_value), (
            f"[{label}] {field.name}: {new_value!r} != {old_value!r}"
        )


# Re-export for tests that import from conftest.
__all__ = ["assert_metrics_identical", "build_task", "service_server", "task_payload"]
