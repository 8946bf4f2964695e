"""Shared experiment configuration.

Experiments run a scaled replica of the paper's simulated cluster (287
A100 nodes, 2,296 GPUs).  Two preset scales are provided: ``SMALL`` keeps
the full test/benchmark suite fast on a laptop; ``FULL`` mirrors the
paper's cluster size.  All experiment runners accept a scale object, so
results can be regenerated at any size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..cluster import GPUModel


@dataclass
class ExperimentScale:
    """Size of the simulated cluster and workload for an experiment run."""

    name: str = "small"
    num_nodes: int = 48
    gpus_per_node: int = 8
    duration_hours: float = 24.0
    seed: int = 7
    gpu_model: GPUModel = GPUModel.A100
    workload_overrides: Dict[str, object] = field(default_factory=dict)

    @property
    def total_gpus(self) -> float:
        return float(self.num_nodes * self.gpus_per_node)


#: Fast preset used by the test-suite and benchmark defaults.
SMALL_SCALE = ExperimentScale(name="small", num_nodes=32, duration_hours=16.0)

#: Default experiment preset (a half-sized replica of the paper's cluster).
MEDIUM_SCALE = ExperimentScale(name="medium", num_nodes=64, duration_hours=24.0)

#: Full replica of the paper's 287-node simulation cluster.
FULL_SCALE = ExperimentScale(name="full", num_nodes=287, duration_hours=72.0)


def scale_by_name(name: str) -> ExperimentScale:
    presets = {"small": SMALL_SCALE, "medium": MEDIUM_SCALE, "full": FULL_SCALE}
    key = name.lower()
    if key not in presets:
        raise KeyError(f"unknown scale {name!r}; expected one of {sorted(presets)}")
    return presets[key]
