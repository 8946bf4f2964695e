"""``trace:<path>`` scenario refs: ingested traces in the scenario registry.

A :class:`TraceScenario` makes an external trace a drop-in peer of the
synthetic scenario library: it satisfies the same ``build_trace`` /
``build_cluster`` contract the experiment engine and CLI drive, so

    python -m repro.experiments.cli sweep --scenario trace:philly.json.gz

runs the full scheduler line-up over a real-world workload.  Replay is a
pure function of the trace file's bytes plus the experiment scale — the
``seed`` and ``spot_scale`` knobs that parameterize synthetic generation
are no-ops here — so results are bit-identical at any worker count, and
the scenario's cache descriptor is the SHA-256 of the trace file, making
engine cache hits follow trace *content*.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional

from ...cluster import GPUModel
from ..scenarios import Scenario
from ..trace import Trace
from .builder import file_sha256, load_trace_file

#: Scenario-name prefix that routes to :func:`trace_scenario`.
TRACE_SCENARIO_PREFIX = "trace:"


@dataclass(frozen=True)
class TraceScenario(Scenario):
    """A scenario that replays an ingested trace file.

    Inherits the :class:`Scenario` contract (so it rides inside picklable
    engine job specs and builds the same homogeneous replay cluster) but
    sources its tasks from ``path`` instead of the synthetic generator;
    the ``overrides``/``org_builder``/``fleet_mix`` fields stay at their
    empty defaults.
    """

    path: str = ""

    # ------------------------------------------------------------------
    def build_trace(
        self,
        cluster_gpus: float,
        duration_hours: float,
        spot_scale: float = 1.0,
        seed: int = 0,
        gpu_model: Optional[GPUModel] = GPUModel.A100,
        base_overrides: Optional[Mapping[str, object]] = None,
    ) -> Trace:
        """Load the trace and clip it to the experiment scale's window.

        ``spot_scale``/``seed``/override mappings parameterize synthetic
        generation and are ignored for replay (recorded in metadata so
        reports stay honest).  Tasks requesting a GPU model other than
        the replay fleet's are remapped onto it — conversion normally did
        this already; the remap here covers replaying on a different
        fleet model than the trace was converted for.
        """
        source = load_trace_file(self.path)
        horizon = duration_hours * 3600.0
        tasks = [t for t in source.sorted_tasks() if t.submit_time < horizon]
        if gpu_model is not None:
            for task in tasks:
                if task.gpu_model is not None and task.gpu_model is not gpu_model:
                    task.gpu_model = gpu_model
        metadata: Dict[str, object] = {
            **source.metadata,
            "scenario": self.name,
            "replay_duration_hours": duration_hours,
            "replay_clipped_tasks": len(source.tasks) - len(tasks),
        }
        if spot_scale != 1.0:
            metadata["replay_spot_scale_ignored"] = spot_scale
        return Trace(tasks=tasks, org_history=source.org_history, metadata=metadata)

    def cache_descriptor(self, seed: int) -> Dict[str, object]:
        """Content-keyed descriptor: the trace file's bytes decide the key.

        The path and display name are deliberately excluded so renaming
        or moving a trace file doesn't invalidate cached results, while
        any edit to its contents does.
        """
        return {"kind": "trace", "source_sha256": file_sha256(self.path)}


def trace_scenario(path: str | Path) -> TraceScenario:
    """Build the scenario for ``trace:<path>`` (file must exist)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"trace scenario file not found: {path}")
    return TraceScenario(
        name=f"{TRACE_SCENARIO_PREFIX}{path}",
        path=str(path),
        summary=f"replay of external trace {path.name}",
    )
