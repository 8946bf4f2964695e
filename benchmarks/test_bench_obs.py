"""Observability overhead benchmark (PR 7): what does watching cost?

Runs the BENCH_4 placement tier twice — once with a live
:class:`~repro.obs.Recorder`, once with the default ``NullRecorder`` —
through the self-profiler (:func:`repro.obs.profiler.run_profile`)
and measures the instrumentation-on/off wall-clock ratio.  Two claims
are on trial:

1. **Observation never steers.**  The instrumented run's
   ``SimulationMetrics`` must be bit-identical to the uninstrumented
   run's — *always* enforced, on every tier, regardless of the perf
   env knobs.
2. **Observation is cheap.**  The on/off overhead ratio must stay under
   :data:`OVERHEAD_RATIO_CEILING` (observed ~1.2-1.4x; the ceiling has
   slack for noisy runners — a real regression such as unconditionally
   formatting labels in the hot path lands at 3x+).

Tiers (select with ``REPRO_BENCH_OBS_TIER``): ``smoke`` (256 nodes,
default) and ``full`` (the 512-node BENCH_4 tier).  With
``REPRO_BENCH_RECORD=1`` (``make bench-record``) the run is summarised
into the machine-readable ``BENCH_7.json`` perf record at the repo
root, including the per-phase breakdown that feeds ROADMAP item 1.
``REPRO_BENCH_ENFORCE=1`` makes the overhead ceiling a hard assert;
otherwise ``REPRO_BENCH_STRICT=0`` downgrades it to a warning.

The complementary *zero-overhead-when-disabled* gate lives in CI's
obs-smoke job: it re-runs the perf-smoke placement benchmark with
``REPRO_BENCH_PLACEMENT_TOLERANCE=0.05``, so the NullRecorder hot path
may not regress the recorded speedup ratio by more than 5%.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from _bench_common import BENCH_SCHEMA_VERSION, write_bench_record
from repro.experiments.config import ExperimentScale
from repro.experiments.engine import SchedulerSpec, SimulationJob, WorkloadSpec
from repro.obs.profiler import run_profile
from test_bench_scaling import PLACEMENT_CONFIGS

#: Hard ceiling on instrumented / uninstrumented wall time.
OVERHEAD_RATIO_CEILING = 2.0


def _tier_job(tier: str) -> SimulationJob:
    """The tier's BENCH_4 placement cell: Chronus re-offers the whole FCFS queue each pass."""
    cfg = PLACEMENT_CONFIGS[tier]
    return SimulationJob(
        key=f"obs-{tier}",
        scale=ExperimentScale(
            name=f"obs-{tier}",
            num_nodes=int(cfg["num_nodes"]),
            duration_hours=cfg["duration_hours"],
            seed=int(cfg["seed"]),
        ),
        scheduler=SchedulerSpec(kind="chronus"),
        workload=WorkloadSpec(spot_scale=cfg["spot_scale"]),
    )


def _record_bench7(tier: str, report) -> None:
    """Write the machine-readable perf record for the bench trajectory."""
    cfg = PLACEMENT_CONFIGS[tier]
    record = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": "observability-overhead",
        "pr": 7,
        "tier": tier,
        "scenario": "default(chronus) with live Recorder vs NullRecorder",
        "node_count": int(cfg["num_nodes"]),
        "duration_hours": cfg["duration_hours"],
        "num_tasks": report.num_tasks,
        "events": report.events,
        "passes": report.passes,
        "instrumented_wall_time_s": round(report.wall_time_s, 3),
        "uninstrumented_wall_time_s": round(report.baseline_wall_time_s, 3),
        "overhead_ratio": round(report.overhead_ratio, 3),
        "metrics_identical": bool(report.metrics_identical),
        "phase_breakdown": [
            {
                "phase": phase.name.strip(),
                "seconds": round(phase.seconds, 3),
                "share": round(phase.share, 4),
                "calls": phase.count,
            }
            for phase in report.phases
            if not phase.name.startswith("  ")  # summary rows, not per-kind
        ],
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_7.json"
    write_bench_record(out, record)
    print(f"\n[obs {tier}] wrote {out}")


def test_bench_observability_overhead():
    tier = os.environ.get("REPRO_BENCH_OBS_TIER", "smoke").strip().lower()
    assert tier in PLACEMENT_CONFIGS, f"unknown obs tier {tier!r}"
    report, recorder, _sim = run_profile(_tier_job(tier), check_overhead=True)

    # Claim 1, unconditionally: observation must not steer the run.
    assert report.metrics_identical, (
        f"instrumented run diverged from the NullRecorder run on the {tier} tier"
    )
    # Sanity: the recorder really was live, or the ratio measures nothing.
    assert report.passes > 0 and report.events > 0
    assert recorder.counter_value("sim.pass.searches") > 0

    ratio = report.overhead_ratio
    print(
        f"\n[obs {tier}] tasks={report.num_tasks} events={report.events} "
        f"passes={report.passes} instrumented={report.wall_time_s:.2f}s "
        f"uninstrumented={report.baseline_wall_time_s:.2f}s "
        f"overhead={ratio:.3f}x (ceiling {OVERHEAD_RATIO_CEILING:.1f}x)"
    )
    if ratio > OVERHEAD_RATIO_CEILING:
        # Retry once before a verdict: a load spike on a shared runner can
        # hit either leg of the ratio.
        retry, _, _ = run_profile(_tier_job(tier), check_overhead=True)
        assert retry.metrics_identical
        ratio = min(ratio, retry.overhead_ratio)

    if os.environ.get("REPRO_BENCH_RECORD", "").strip().lower() not in ("", "0", "false", "no", "off"):
        _record_bench7(tier, report)

    enforce = os.environ.get("REPRO_BENCH_ENFORCE", "").strip().lower() not in ("", "0", "false", "no", "off")
    strict = os.environ.get("REPRO_BENCH_STRICT", "1").strip().lower() not in ("", "0", "false", "no", "off")
    if enforce or strict:
        assert ratio <= OVERHEAD_RATIO_CEILING, (
            f"observability overhead regressed on the {tier} tier: "
            f"{ratio:.2f}x (ceiling {OVERHEAD_RATIO_CEILING:.1f}x)"
        )
    elif ratio > OVERHEAD_RATIO_CEILING:
        import warnings

        warnings.warn(f"obs {tier} overhead above ceiling on this runner: {ratio:.2f}x")
