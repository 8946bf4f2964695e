"""Reproduction of GFS (ASPLOS 2026): preemption-aware GPU cluster scheduling
with predictive spot instance management.

Public API overview
-------------------
``repro.cluster``
    Discrete-event GPU cluster simulator (nodes, tasks, events, metrics).
``repro.workloads``
    Synthetic traces, organization demand processes, fleet definitions.
``repro.core``
    The paper's contribution: GDE forecasting, SQA quota control, the PTS
    preemption-aware scheduler and the assembled ``GFSScheduler``.
``repro.schedulers``
    Baseline schedulers (YARN-CS, Chronus, Lyra, FGD) and the registry.
``repro.dynamics``
    Cluster dynamics: deterministic fault injection (node failures,
    maintenance drains, elastic capacity) for the simulator.
``repro.optim``
    The Eq. 12 optimisation model and a toy exact solver.
``repro.analysis``
    Observation statistics, economics and report formatting.
``repro.experiments``
    Runners that regenerate every table and figure of the evaluation.
"""

__version__ = "1.0.0"

from . import analysis, cluster, core, dynamics, experiments, optim, schedulers, workloads
from .cluster import (
    Cluster,
    ClusterSimulator,
    GPUModel,
    ReliabilityMetrics,
    SimulationMetrics,
    SimulatorConfig,
    Task,
    TaskType,
    run_simulation,
)
from .core import GFSConfig, GFSScheduler, make_ablation
from .dynamics import DynamicsSpec, FaultInjector, get_dynamics
from .schedulers import (
    ChronusScheduler,
    FGDScheduler,
    LyraScheduler,
    Scheduler,
    YarnCSScheduler,
    create_scheduler,
)
from .workloads import Trace, WorkloadConfig, generate_trace

__all__ = [
    "ChronusScheduler",
    "Cluster",
    "ClusterSimulator",
    "DynamicsSpec",
    "FGDScheduler",
    "FaultInjector",
    "GFSConfig",
    "GFSScheduler",
    "GPUModel",
    "LyraScheduler",
    "ReliabilityMetrics",
    "Scheduler",
    "SimulationMetrics",
    "SimulatorConfig",
    "Task",
    "TaskType",
    "Trace",
    "WorkloadConfig",
    "YarnCSScheduler",
    "__version__",
    "analysis",
    "cluster",
    "core",
    "create_scheduler",
    "dynamics",
    "experiments",
    "generate_trace",
    "get_dynamics",
    "make_ablation",
    "optim",
    "run_simulation",
    "schedulers",
    "workloads",
]
