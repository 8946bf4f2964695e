"""Format adapters: external cluster logs -> normalized record streams.

Each adapter streams its source file row by row and yields
:class:`~.schema.TraceRecord` objects.  Three families are supported:

* **Philly-style CSV** (`philly`) — Microsoft Philly DNN trace exports:
  one job per row with ``jobid, vc, submitted_time, started_time,
  finished_time, num_gpus, status`` columns.  Timestamps may be epoch
  seconds or ISO ``YYYY-MM-DD HH:MM:SS`` strings.
* **Alibaba/PAI-style job tables** (`pai`, alias `alibaba`) — cluster-
  data GPU job tables with ``job_name, inst_num, status, start_time,
  end_time, plan_gpu, gpu_type`` columns (``plan_gpu`` in percent of a
  card, ``inst_num`` instances per job).
* **Generic CSV / JSONL** (`csv`, `jsonl`) — the documented generic
  schema (``docs/traces.md``): columns/keys named exactly after
  :class:`~.schema.TraceRecord` fields.

Adapters only *normalize*; rebasing times to ``t = 0``, transforms, GPU
remapping and history reconstruction happen in :mod:`.builder`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Type

from .schema import TraceRecord, record_from_mapping

def parse_timestamp(value: object) -> float:
    """Parse a source timestamp into float seconds.

    Accepts epoch/relative seconds (``"1506980.0"``) and wall-clock
    ISO-ish strings (``"2017-10-03 05:07:49"``), which are treated as UTC
    so ingestion is reproducible across machines and timezones.
    """
    text = str(value).strip()
    if not text:
        raise ValueError("empty timestamp")
    try:
        return float(text)
    except ValueError:
        pass
    parsed = datetime.fromisoformat(text)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.timestamp()


@dataclass
class TraceAdapter:
    """Base class: stream a source file into normalized records.

    ``skipped`` counts rows the adapter dropped (unusable status, missing
    fields, unparseable values) during the last :meth:`iter_records`
    pass; ``skip_reasons`` breaks the count down for diagnostics.
    """

    skipped: int = 0
    skip_reasons: Dict[str, int] = field(default_factory=dict)

    format_name = ""

    def iter_records(self, path: str | Path) -> Iterator[TraceRecord]:
        """Yield normalized records, streaming the file row by row."""
        self.skipped = 0
        self.skip_reasons = {}
        for row in self._iter_rows(Path(path)):
            try:
                record = self._convert_row(row)
            except (KeyError, ValueError, TypeError) as exc:
                self._skip(type(exc).__name__)
                continue
            if record is not None:
                yield record

    def read_records(self, path: str | Path) -> List[TraceRecord]:
        """Materialise the whole record stream (what the builder uses)."""
        return list(self.iter_records(path))

    # -- hooks ---------------------------------------------------------
    def _iter_rows(self, path: Path) -> Iterator[Mapping[str, object]]:
        raise NotImplementedError

    def _convert_row(self, row: Mapping[str, object]) -> Optional[TraceRecord]:
        raise NotImplementedError

    def _skip(self, reason: str) -> None:
        self.skipped += 1
        self.skip_reasons[reason] = self.skip_reasons.get(reason, 0) + 1


class _CSVRows:
    """Shared lazy CSV row iteration with lower-cased, stripped headers."""

    @staticmethod
    def rows(path: Path) -> Iterator[Dict[str, object]]:
        with path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames:
                reader.fieldnames = [name.strip().lower() for name in reader.fieldnames]
            for row in reader:
                yield row


@dataclass
class PhillyCSVAdapter(TraceAdapter):
    """Philly-style job CSV: one row per job, wall-clock or epoch times.

    Status decides the task class: ``Pass`` jobs ran to completion under
    a guarantee (HP); ``Killed`` jobs were terminated early, the closest
    analogue of best-effort/spot work; ``Failed`` jobs carry no usable
    duration signal and are skipped.  Jobs wider than a node are split
    into gangs of at most ``gpus_per_node`` GPUs per pod.
    """

    hp_statuses: Tuple[str, ...] = ("pass",)
    spot_statuses: Tuple[str, ...] = ("killed",)
    gpus_per_node: int = 8

    format_name = "philly"

    def _iter_rows(self, path: Path) -> Iterator[Mapping[str, object]]:
        return _CSVRows.rows(path)

    def _convert_row(self, row: Mapping[str, object]) -> Optional[TraceRecord]:
        status = str(row.get("status", "")).strip().lower()
        if status in self.hp_statuses:
            task_type = "hp"
        elif status in self.spot_statuses:
            task_type = "spot"
        else:
            self._skip(f"status:{status or 'missing'}")
            return None
        submit = parse_timestamp(row["submitted_time"])
        duration = self._duration(row)
        if duration is None or duration <= 0:
            self._skip("no-duration")
            return None
        num_gpus = max(1.0, float(row.get("num_gpus") or 1))
        num_pods = max(1, int(math.ceil(num_gpus / self.gpus_per_node)))
        return TraceRecord(
            job_id=str(row.get("jobid", "")).strip(),
            task_type=task_type,
            submit_time=submit,
            duration=duration,
            num_pods=num_pods,
            gpus_per_pod=num_gpus / num_pods,
            org=str(row.get("vc") or "default").strip(),
            gang=num_pods > 1,
        )

    def _duration(self, row: Mapping[str, object]) -> Optional[float]:
        run_time = row.get("run_time")
        if run_time not in (None, ""):
            return float(run_time)
        started, finished = row.get("started_time"), row.get("finished_time")
        if started in (None, "") or finished in (None, ""):
            return None
        return parse_timestamp(finished) - parse_timestamp(started)


@dataclass
class PAIJobTableAdapter(TraceAdapter):
    """Alibaba/PAI-style job table: ``plan_gpu`` percent, ``inst_num`` pods.

    ``Terminated`` jobs completed normally (HP); ``Cancelled`` jobs were
    killed mid-flight, the best-effort analogue (spot); anything else
    (``Failed``, ``Running``, ``Waiting``) has no replayable duration and
    is skipped.  ``gpu_type`` rides along verbatim and is remapped onto
    the configured fleet by the builder.
    """

    hp_statuses: Tuple[str, ...] = ("terminated",)
    spot_statuses: Tuple[str, ...] = ("cancelled",)

    format_name = "pai"

    def _iter_rows(self, path: Path) -> Iterator[Mapping[str, object]]:
        return _CSVRows.rows(path)

    def _convert_row(self, row: Mapping[str, object]) -> Optional[TraceRecord]:
        status = str(row.get("status", "")).strip().lower()
        if status in self.hp_statuses:
            task_type = "hp"
        elif status in self.spot_statuses:
            task_type = "spot"
        else:
            self._skip(f"status:{status or 'missing'}")
            return None
        start = parse_timestamp(row["start_time"])
        end = parse_timestamp(row["end_time"])
        if end <= start:
            self._skip("no-duration")
            return None
        plan_gpu = float(row.get("plan_gpu") or 0.0)
        if plan_gpu <= 0:
            self._skip("no-gpu")
            return None
        inst_num = max(1, int(float(row.get("inst_num") or 1)))
        gpu_type = str(row.get("gpu_type") or "").strip() or None
        org = str(row.get("group") or row.get("user") or "default").strip()
        return TraceRecord(
            job_id=str(row.get("job_name", "")).strip(),
            task_type=task_type,
            submit_time=start,
            duration=end - start,
            num_pods=inst_num,
            gpus_per_pod=plan_gpu / 100.0,
            org=org,
            gpu_model=gpu_type,
            gang=inst_num > 1,
        )


@dataclass
class GenericCSVAdapter(TraceAdapter):
    """Generic CSV trace: columns named after the record schema fields."""

    format_name = "csv"

    def _iter_rows(self, path: Path) -> Iterator[Mapping[str, object]]:
        return _CSVRows.rows(path)

    def _convert_row(self, row: Mapping[str, object]) -> Optional[TraceRecord]:
        return record_from_mapping(dict(row))


@dataclass
class GenericJSONLAdapter(TraceAdapter):
    """Generic JSONL trace: one schema-shaped JSON object per line."""

    format_name = "jsonl"

    def _iter_rows(self, path: Path) -> Iterator[Mapping[str, object]]:
        with Path(path).open() as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                yield json.loads(line)

    def _convert_row(self, row: Mapping[str, object]) -> Optional[TraceRecord]:
        return record_from_mapping(dict(row))


# ----------------------------------------------------------------------
# Registry and sniffing
# ----------------------------------------------------------------------
ADAPTERS: Dict[str, Type[TraceAdapter]] = {
    "philly": PhillyCSVAdapter,
    "pai": PAIJobTableAdapter,
    "alibaba": PAIJobTableAdapter,
    "csv": GenericCSVAdapter,
    "jsonl": GenericJSONLAdapter,
}


def get_adapter(format_name: str, **kwargs) -> TraceAdapter:
    """Instantiate the adapter registered under ``format_name``."""
    key = format_name.strip().lower()
    if key not in ADAPTERS:
        raise KeyError(f"unknown trace format {format_name!r}; expected one of {sorted(ADAPTERS)}")
    return ADAPTERS[key](**kwargs)


def detect_format(path: str | Path) -> str:
    """Sniff the trace format from the suffix and the CSV header.

    ``.jsonl``/``.ndjson`` files are generic JSONL; for CSVs the header
    decides: ``jobid``+``vc`` means Philly, ``job_name``+``plan_gpu``
    means PAI, anything else is treated as the generic schema.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    with path.open() as handle:
        header = handle.readline()
    columns = {c.strip().lower() for c in header.split(",")}
    if {"jobid", "vc"} <= columns:
        return "philly"
    if {"job_name", "plan_gpu"} <= columns:
        return "pai"
    return "csv"
