"""GPU-cluster simulation substrate.

This package provides the discrete-event cluster simulator that every
scheduler in the reproduction runs against: GPU/node/cluster state, the
task model with checkpoints and run logs, the event loop, metric
collection and a simple pricing model.
"""

from .capacity_index import AggregateConsistencyError, CapacityIndex
from .cluster import Cluster, ClusterStats
from .events import (
    DYNAMICS_EVENT_KINDS,
    DynamicsAction,
    Event,
    EventKind,
    SchedulingDecision,
)
from .gpu import GPUDevice, GPUModel, HOURLY_PRICE_USD
from .metrics import (
    DynamicsCounts,
    ReliabilityMetrics,
    SimulationMetrics,
    TaskClassMetrics,
    compute_class_metrics,
    compute_metrics,
    compute_reliability,
    improvement,
    percentile,
)
from .node import Node, make_nodes
from .pending import PendingQueue
from .pricing import FleetPricing, monthly_allocation_revenue, monthly_benefit
from .simulator import ClusterSimulator, SimulationError, SimulatorConfig, run_simulation
from .task import (
    PodPlacement,
    RunLog,
    Task,
    TaskState,
    TaskType,
    generate_checkpoints,
    make_task,
    reset_task_counter,
)

__all__ = [
    "AggregateConsistencyError",
    "CapacityIndex",
    "Cluster",
    "ClusterStats",
    "ClusterSimulator",
    "DYNAMICS_EVENT_KINDS",
    "DynamicsAction",
    "DynamicsCounts",
    "Event",
    "EventKind",
    "FleetPricing",
    "GPUDevice",
    "GPUModel",
    "HOURLY_PRICE_USD",
    "Node",
    "PendingQueue",
    "PodPlacement",
    "ReliabilityMetrics",
    "RunLog",
    "SchedulingDecision",
    "SimulationError",
    "SimulationMetrics",
    "SimulatorConfig",
    "Task",
    "TaskClassMetrics",
    "TaskState",
    "TaskType",
    "compute_class_metrics",
    "compute_metrics",
    "compute_reliability",
    "generate_checkpoints",
    "improvement",
    "make_nodes",
    "make_task",
    "monthly_allocation_revenue",
    "monthly_benefit",
    "percentile",
    "reset_task_counter",
    "run_simulation",
]
