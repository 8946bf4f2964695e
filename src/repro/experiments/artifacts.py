"""Content-keyed on-disk result cache and artifact export.

The parallel experiment engine keys every simulation job by the SHA-256 of
its canonical *semantic* payload (see ``engine.cache_payload``): the
experiment scale, the scheduler spec, the seed, and the **resolved**
scenario parameterization — its overrides, fleet mix and materialised
organization mix, not just its name — salted with a cache format version.
Display labels and grid keys are excluded, so identical cells of the
scheduler x workload x seed matrix hit the cache across CLI invocations
and across experiments (Table 8's GFS/medium cell is Table 9's), while
editing or re-registering a scenario invalidates its entries.  ``cli all``
and repeated sweeps are therefore incremental: only cells whose
configuration changed are re-simulated.

Cache layout (``root`` defaults to ``.repro-cache/`` under the CWD)::

    <root>/<key[:2]>/<key>.json     one file per simulation result:
                                    {"key", "payload", "metrics", "created"}

``payload`` is the canonical job description (for debugging / auditing),
``metrics`` a full-fidelity serialization of :class:`SimulationMetrics`
(including the allocation-rate series, so a cache hit is indistinguishable
from a fresh run).

The module also exports grid results as JSON/CSV artifacts for plotting.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import hashlib
import io
import json
import logging
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from ..cluster import ReliabilityMetrics, SimulationMetrics, TaskClassMetrics
from ..runtime import atomic_write_text, quarantine

_LOG = logging.getLogger("repro.experiments.artifacts")

#: Bump when simulation semantics change in a way that invalidates results.
#: v2: SimulationMetrics gained the reliability bundle (cluster dynamics).
CACHE_VERSION = 2


# ----------------------------------------------------------------------
# Canonicalisation and keys
# ----------------------------------------------------------------------
def canonical_payload(obj: object) -> object:
    """Recursively convert ``obj`` into canonical JSON-able structures.

    Dataclasses become sorted dicts, enums their values, tuples lists;
    dict keys are stringified and sorted by :func:`json.dumps`.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonical_payload(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return canonical_payload(obj.value)
    if isinstance(obj, Mapping):
        return {str(k): canonical_payload(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical_payload(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot canonicalise {type(obj).__name__} for cache keying")


def content_key(payload: object, version: int = CACHE_VERSION) -> str:
    """SHA-256 hex key of a canonical payload (salted with the version)."""
    canonical = {"version": version, "payload": canonical_payload(payload)}
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Metrics (de)serialisation — full fidelity, unlike ``as_dict``
# ----------------------------------------------------------------------
def metrics_to_payload(metrics: SimulationMetrics) -> Dict[str, object]:
    """Serialise a metrics bundle losslessly to JSON-able structures: equal to
    ``dataclasses.asdict(metrics)`` (lists copied, never aliased) without its
    per-float ``deepcopy``, as the fields are scalars, lists and dataclasses."""
    payload: Dict[str, object] = {}
    for f in dataclasses.fields(metrics):
        value = getattr(metrics, f.name)
        if dataclasses.is_dataclass(value):
            value = metrics_to_payload(value)
        payload[f.name] = list(value) if isinstance(value, list) else value
    return payload


def metrics_from_payload(payload: Mapping[str, object]) -> SimulationMetrics:
    """Rebuild a :class:`SimulationMetrics` from :func:`metrics_to_payload`."""
    data = dict(payload)
    hp = TaskClassMetrics(**data.pop("hp"))
    spot = TaskClassMetrics(**data.pop("spot"))
    reliability = ReliabilityMetrics(**(data.pop("reliability", None) or {}))
    return SimulationMetrics(hp=hp, spot=spot, reliability=reliability, **data)


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class ArtifactCache:
    """Content-addressed store of simulation results on the local disk."""

    def __init__(self, root: str | Path = ".repro-cache"):
        self.root = Path(root)
        #: corrupt entries moved aside by :meth:`load` this lifetime
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[SimulationMetrics]:
        """Return the cached metrics for ``key``, or ``None`` on a miss.

        A corrupt or stale-format entry counts as a miss, but the file is
        *quarantined* by :func:`repro.runtime.quarantine` (renamed to
        ``<name>.json.quarantined``, never deleted) with a warning — the
        evidence survives for debugging (a truncated entry usually means a
        crashed writer or a bad disk) and the cell simply re-runs.
        """
        path = self._path(key)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text())
            metrics = metrics_from_payload(record["metrics"])
        except (ValueError, KeyError, TypeError) as exc:
            quarantine(path)
            self.quarantined += 1
            _LOG.warning(
                "corrupt cache entry %s treated as a miss and quarantined (%s: %s)",
                path.name,
                type(exc).__name__,
                exc,
            )
            return None
        return metrics

    def store(self, key: str, metrics: SimulationMetrics, payload: object = None) -> Path:
        """Persist one result; returns the file it was written to.

        The write is atomic and durable (unique temp file + fsync +
        rename), so concurrent writers of the same key and crashes
        mid-store can never leave a torn entry behind.
        """
        path = self._path(key)
        record = {
            "key": key,
            "payload": canonical_payload(payload) if payload is not None else None,
            "metrics": metrics_to_payload(metrics),
            "created": time.time(),
        }
        atomic_write_text(path, json.dumps(record))
        return path

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        if self.root.exists():
            for path in self.root.glob("*/*.json"):
                path.unlink()
                removed += 1
        return removed


# ----------------------------------------------------------------------
# Grid artifact export
# ----------------------------------------------------------------------
def flatten_metrics(metrics: SimulationMetrics) -> Dict[str, float]:
    """One flat row of headline metrics for CSV/JSON export."""
    rel = metrics.reliability
    return {
        "hp_count": metrics.hp.count,
        "hp_jct_mean": metrics.hp.jct_mean,
        "hp_jct_p99": metrics.hp.jct_p99,
        "hp_jqt_mean": metrics.hp.jqt_mean,
        "spot_count": metrics.spot.count,
        "spot_jct_mean": metrics.spot.jct_mean,
        "spot_jqt_mean": metrics.spot.jqt_mean,
        "spot_eviction_rate": metrics.spot.eviction_rate,
        "allocation_rate_mean": metrics.allocation_rate_mean,
        "makespan": metrics.makespan,
        "unfinished_tasks": metrics.unfinished_tasks,
        "tasks_killed": rel.tasks_killed,
        "hp_tasks_killed": rel.hp_tasks_killed,
        "restarts_per_task": rel.restarts_per_task,
        "lost_gpu_hours": rel.lost_gpu_hours,
        "goodput_gpu_hours": rel.goodput_gpu_hours,
        "paid_gpu_hours": rel.paid_gpu_hours,
        "goodput_fraction": rel.goodput_fraction,
    }


def export_grid_json(
    rows: Sequence[Mapping[str, object]], path: str | Path
) -> Path:
    """Write grid rows (job descriptors + flat metrics) as a JSON artifact.

    Atomic (temp + rename): a crash mid-export — or a reader racing the
    writer — sees the previous complete artifact, never a torn one.
    """
    return atomic_write_text(path, json.dumps(list(rows), indent=2, sort_keys=True))


def export_grid_csv(rows: Sequence[Mapping[str, object]], path: str | Path) -> Path:
    """Write grid rows as a CSV artifact (union of all row keys as header).

    Rendered in memory and written atomically, like the JSON export.
    """
    fieldnames: List[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow(dict(row))
    return atomic_write_text(path, buffer.getvalue())
