"""Per-layer metrics: the traced run's variants and what is read off them.

A traced run repeats the workload's fixed work three ways — plain, with
a public :class:`repro.obs.Recorder` attached, and with the harness's
span proxies installed on top.  The plain repetitions give the untraced
floor every ratio is taken against, the recorder gives the event-loop
totals (``cluster.*``, ``schedulers.placement.*``) exactly as
``obs/profiler.py`` folds them, and the spans give the policy layers
(``core.*``, ``schedulers.chronus.*``), the engine and the service.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

from perf_harness import (
    IMPORT_PROBES,
    Checks,
    Rep,
    floor_s,
    import_probe_s,
    repeat,
    step_mean_ms,
)
from perf_tracing import RepTrace, Tracer, layer_proxies

from repro.obs import Recorder

#: repetitions a plain run never goes below; the smoke sizes and the
#: variants of a traced run make do with fewer (the recorder variant
#: only feeds one informational ratio)
MIN_REPS = 3
MIN_REPS_SHORT = 2
MIN_REPS_RECORDER = 1

#: ``one_rep(index, tracer or None, attach a recorder)``
OneRep = Callable[[int, Optional[Tracer], bool], Rep]


def run_variants(
    one_rep: OneRep,
    seconds: float,
    traced: bool,
    tracer: Tracer,
    smoke: bool,
    variants: Sequence[str] = ("plain", "recorder", "traced"),
) -> Dict[str, List[Rep]]:
    """Repeat ``one_rep`` for each variant of the run.

    A plain run has one variant and the whole budget, and follows each of
    its first repetitions with one import probe (for ``setup_s``); a
    traced run splits the budget evenly.  The span proxies are installed
    only around the traced variant, so the plain repetitions of a traced
    run time the same code an untraced run does.
    """
    if not traced:
        min_reps = MIN_REPS_SHORT if smoke else MIN_REPS
        probes = 1 if smoke else IMPORT_PROBES

        def rep_then_probe(i: int) -> Rep:
            rep = one_rep(i, None, False)
            if i < probes:
                rep.import_s = import_probe_s()
            return rep

        return {"plain": repeat(rep_then_probe, seconds, min_reps)}
    share = seconds / len(variants)
    results: Dict[str, List[Rep]] = {}
    for variant in variants:
        if variant == "traced":
            with layer_proxies(tracer):
                results[variant] = repeat(lambda i: one_rep(i, tracer, True), share, MIN_REPS_SHORT)
        elif variant == "recorder":
            results[variant] = repeat(lambda i: one_rep(i, None, True), share, MIN_REPS_RECORDER)
        else:
            results[variant] = repeat(lambda i: one_rep(i, None, False), share, MIN_REPS_SHORT)
    return results


def floor(values: Sequence[float]) -> float:
    return min(values, default=0.0)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def finite(value: Optional[float]) -> float:
    """A mean over no samples is NaN in the simulator; report it as 0."""
    return float(value) if value is not None and math.isfinite(value) else 0.0


def bench_layer_metrics(results: Dict[str, List[Rep]]) -> Dict[str, float]:
    """The plain repetitions' step time, and what the recorder and the spans cost the floor."""
    plain = floor_s(results["plain"])
    metrics = {
        "bench.step_mean_ms": step_mean_ms(results["plain"]),
        "bench.trace_overhead_ratio": floor_s(results["traced"]) / plain,
    }
    if "recorder" in results:
        metrics["obs.recorder.overhead_ratio"] = floor_s(results["recorder"]) / plain
    return metrics


# ----------------------------------------------------------------------
# Policy layers, from the spans
# ----------------------------------------------------------------------
#: span names whose self time is scheduler-policy time
POLICY_SPANS = (
    "core.gde.forecast",
    "core.gde.observe",
    "core.gde.fit",
    "core.sqa.compute_quota",
    "core.sqa.admits",
    "core.pts.schedule",
    "core.pts.sort_queue",
    "core.gfs.on_simulation_start",
    "core.gfs.on_tick",
    "core.gfs.try_schedule",
)


def policy_layer_metrics(traced_reps: Sequence[Rep], checks: Checks) -> Dict[str, float]:
    """``core.*``, ``schedulers.chronus.*`` and ``workloads.*`` from the spans.

    Times are the fastest traced repetition's; counts come from the last
    repetition after checking that every repetition agrees (they are
    deterministic, which is what makes them evidence that a mechanism
    fired).
    """
    traces: List[RepTrace] = [rep.trace for rep in traced_reps]
    last = traces[-1]
    for name in sorted(last.agg):
        calls = {trace.calls(name) for trace in traces}
        checks.expect(len(calls) == 1, f"span count of {name} differs between repetitions")

    def total(name: str) -> float:
        return floor([trace.total(name) for trace in traces])

    def self_time(name: str) -> float:
        return floor([trace.self_time(name) for trace in traces])

    policy_self = sum(trace.self_time(name) for trace in traces for name in POLICY_SPANS)
    traced_wall = sum(sum(rep.segments) for rep in traced_reps)
    pts_calls = last.calls("core.pts.schedule")
    chronus_calls = last.calls("schedulers.chronus.try_schedule")
    admit_calls = last.calls("core.sqa.admits")
    return {
        "core.gde.forecast_s": total("core.gde.forecast"),
        "core.gde.forecast_calls": last.calls("core.gde.forecast"),
        "core.gde.observe_s": total("core.gde.observe"),
        "core.gde.observe_calls": last.calls("core.gde.observe"),
        "core.gde.fit_s": total("core.gde.fit"),
        "core.sqa.compute_quota_s": self_time("core.sqa.compute_quota"),
        "core.sqa.quota_updates": last.calls("core.sqa.compute_quota"),
        "core.sqa.admit_calls": admit_calls,
        "core.sqa.admit_ratio": ratio(last.count("core.sqa.admitted"), admit_calls),
        "core.pts.schedule_s": total("core.pts.schedule"),
        "core.pts.schedule_calls": pts_calls,
        "core.pts.placed_ratio": ratio(last.count("core.pts.placed"), pts_calls),
        "core.pts.preempting_decisions": last.count("core.pts.preempting"),
        "core.pts.victims": last.count("core.pts.victims"),
        "core.pts.sort_queue_s": total("core.pts.sort_queue"),
        "core.gfs.on_tick_s": self_time("core.gfs.on_tick"),
        "core.gfs.on_tick_calls": last.calls("core.gfs.on_tick"),
        "core.gfs.try_schedule_s": self_time("core.gfs.try_schedule"),
        "core.gfs.policy_share": ratio(policy_self, traced_wall),
        "schedulers.chronus.try_schedule_s": total("schedulers.chronus.try_schedule"),
        "schedulers.chronus.try_schedule_calls": chronus_calls,
        "schedulers.chronus.placed_ratio": ratio(
            last.count("schedulers.chronus.placed"), chronus_calls
        ),
        "schedulers.chronus.sort_queue_s": total("schedulers.chronus.sort_queue"),
        "workloads.generate_trace_s": total("workloads.generate_trace"),
        "workloads.tasks": last.count("workloads.tasks"),
    }


# ----------------------------------------------------------------------
# Event loop, from the recorder
# ----------------------------------------------------------------------
RECORDER_TOTALS = (
    "events", "passes", "searches", "memo_hits", "index_rejects",
    "pass_s", "dispatch_s", "accrual_s",
)


def recorder_totals(recorder: Recorder) -> Dict[str, float]:
    """The event-loop totals ``obs/profiler.py`` folds out of a recorder."""
    hist = recorder.histograms

    def hist_total(name: str) -> float:
        return hist[name].total if name in hist else 0.0

    return {
        "events": sum(v for (name, _), v in recorder.counters.items() if name == "sim.events"),
        "passes": recorder.counter_value("sim.passes"),
        "searches": recorder.counter_value("sim.pass.searches"),
        "memo_hits": recorder.counter_value("sim.pass.memo_hits"),
        "index_rejects": recorder.counter_value("sim.pass.index_rejects"),
        "pass_s": hist_total("sim.pass_wall_s"),
        "dispatch_s": sum(h.total for name, h in hist.items() if name.startswith("sim.dispatch_s.")),
        "accrual_s": hist_total("sim.metric_accrual_s"),
    }


def sum_totals(parts: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {key: sum(part[key] for part in parts) for key in RECORDER_TOTALS}


def simulator_layer_metrics(
    traced_reps: Sequence[Rep], plain_floor_s: float, subtract_tick_hook: bool = True
) -> Dict[str, float]:
    """``cluster.*`` and ``schedulers.placement.*`` of the traced repetitions.

    The event loop's own share of dispatch is what is left after
    scheduling passes, metric accrual and the scheduler's tick hook
    (which the recorder books under dispatch but the spans attribute to
    policy code).  The service cannot subtract the hook — its spans also
    cover the what-if forks, which the session's recorder never sees —
    so ``dispatch_other_s`` reads 0 there.
    """
    totals = [rep.recorder for rep in traced_reps]
    last = totals[-1]
    other = [
        max(0.0, rep.recorder["dispatch_s"] - rep.recorder["pass_s"] - rep.recorder["accrual_s"]
            - rep.trace.total("core.gfs.on_tick"))
        for rep in traced_reps
    ] if subtract_tick_hook else []
    return {
        "cluster.simulator.events": last["events"],
        "cluster.simulator.passes": last["passes"],
        "cluster.simulator.pass_s": floor([t["pass_s"] for t in totals]),
        "cluster.simulator.dispatch_other_s": floor(other),
        "cluster.simulator.us_per_event": ratio(plain_floor_s * 1e6, last["events"]),
        "cluster.metrics.accrual_s": floor([t["accrual_s"] for t in totals]),
        "schedulers.placement.searches": last["searches"],
        "schedulers.placement.memo_hits": last["memo_hits"],
        "schedulers.placement.index_rejects": last["index_rejects"],
    }


def quality_layer_metrics(eviction_rate: float, jqt_mean: float, alloc_rate: float) -> Dict[str, float]:
    """Simulated scheduling quality (the paper's headline quantities).

    Deterministic at a fixed seed but far from steady across seeds (the
    spot eviction rate of one trace ranges over an order of
    magnitude and can be exactly 0), so they are informational here and
    carry no bound.
    """
    return {
        "sim.spot_eviction_rate": finite(eviction_rate),
        "sim.spot_jqt_mean_s": finite(jqt_mean),
        "sim.gpu_alloc_rate": finite(alloc_rate),
    }
