"""Observability overhead benchmark (PR 7): what does watching cost?

Runs the placement cell of ``benchmarks/test_bench_scaling.py`` twice — once with a live
:class:`~repro.obs.Recorder`, once with the default ``NullRecorder`` —
through the self-profiler (:func:`repro.obs.profiler.run_profile`)
and measures the instrumentation-on/off wall-clock ratio.  Two claims
are on trial:

1. **Observation never steers.**  The instrumented run's
   ``SimulationMetrics`` must be bit-identical to the uninstrumented
   run's — *always* enforced, whatever the perf env knobs say.
2. **Observation is cheap.**  The on/off overhead ratio must stay under
   :data:`OVERHEAD_RATIO_CEILING` (observed ~1.2-1.4x; the ceiling has
   slack for noisy runners — a real regression such as unconditionally
   formatting labels in the hot path lands at 3x+).

The ceiling goes through :func:`_bench_common.gate`.

The complementary *zero-overhead-when-disabled* gate lives in CI's
obs-smoke job: it re-runs the perf-smoke placement benchmark with
``REPRO_BENCH_PLACEMENT_TOLERANCE=0.05``, so the NullRecorder hot path
may not regress the recorded speedup ratio by more than 5%.
"""

from __future__ import annotations

from _bench_common import gate
from repro.experiments.config import ExperimentScale
from repro.experiments.engine import SchedulerSpec, SimulationJob, WorkloadSpec
from repro.obs.profiler import run_profile
from test_bench_scaling import PLACEMENT_CONFIG

#: Hard ceiling on instrumented / uninstrumented wall time.
OVERHEAD_RATIO_CEILING = 2.0


def _placement_job() -> SimulationJob:
    """The placement cell: Chronus re-offers the whole FCFS queue each pass."""
    cfg = PLACEMENT_CONFIG
    return SimulationJob(
        key="obs",
        scale=ExperimentScale(
            name="obs",
            num_nodes=int(cfg["num_nodes"]),
            duration_hours=cfg["duration_hours"],
            seed=int(cfg["seed"]),
        ),
        scheduler=SchedulerSpec(kind="chronus"),
        workload=WorkloadSpec(spot_scale=cfg["spot_scale"]),
    )


def test_bench_observability_overhead():
    report, recorder, _sim = run_profile(_placement_job(), check_overhead=True)

    # Claim 1, unconditionally: observation must not steer the run.
    assert report.metrics_identical, "instrumented run diverged from the NullRecorder run"
    # Sanity: the recorder really was live, or the ratio measures nothing.
    assert report.passes > 0 and report.events > 0
    assert recorder.counter_value("sim.pass.searches") > 0

    ratio = report.overhead_ratio
    print(
        f"\n[obs] tasks={report.num_tasks} events={report.events} "
        f"passes={report.passes} instrumented={report.wall_time_s:.2f}s "
        f"uninstrumented={report.baseline_wall_time_s:.2f}s "
        f"overhead={ratio:.3f}x (ceiling {OVERHEAD_RATIO_CEILING:.1f}x)"
    )
    if ratio > OVERHEAD_RATIO_CEILING:
        # Retry once before a verdict: a load spike on a shared runner can
        # hit either leg of the ratio.
        retry, _, _ = run_profile(_placement_job(), check_overhead=True)
        assert retry.metrics_identical
        ratio = min(ratio, retry.overhead_ratio)
    gate("obs", [] if ratio <= OVERHEAD_RATIO_CEILING else [
        f"overhead {ratio:.2f}x above ceiling {OVERHEAD_RATIO_CEILING:.1f}x"
    ])
