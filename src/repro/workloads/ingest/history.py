"""Reconstruct per-organization demand history from ingested arrivals.

External traces record *task submissions*, but the GDE forecaster trains
on *hourly per-organization GPU demand series* (the synthetic generator
fabricates these directly).  This module closes the gap: it rebuilds the
fluid concurrent-usage profile each organization's HP tasks would produce
if every task started on submission, then tiles that profile backwards
into a multi-week history with mild seeded day-to-day noise — the same
construction the synthetic generator uses, so ingested traces feed the
forecaster a history whose seasonal structure matches the demand the
simulation will replay.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ...cluster import Task
from ..organizations import HOURS_PER_DAY
from ..trace import fluid_org_usage, tile_history

#: Default history length: two weeks, matching the synthetic generator.
DEFAULT_HISTORY_HOURS = 14 * HOURS_PER_DAY


def reconstruct_org_history(
    tasks: Sequence[Task],
    history_hours: int = DEFAULT_HISTORY_HOURS,
    seed: int = 0,
    cluster_gpus: Optional[float] = None,
) -> Dict[str, np.ndarray]:
    """Build the multi-week per-org demand history a trace needs for GDE.

    The fluid usage profile of the trace window is tiled over
    ``history_hours`` by :func:`~repro.workloads.trace.tile_history`,
    organizations in sorted order — deterministic in ``seed``, and
    aligned so hour-of-day phase agrees between history and replay.
    """
    profile = fluid_org_usage(tasks, cluster_gpus=cluster_gpus)
    return tile_history({org: profile[org] for org in sorted(profile)}, history_hours, seed)
