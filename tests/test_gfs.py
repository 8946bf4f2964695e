"""Tests for the assembled GFS scheduler and its ablation variants."""

import numpy as np
import pytest

from repro.cluster import Cluster, GPUModel, SimulatorConfig, TaskType, run_simulation
from repro.core import ABLATION_OVERRIDES, GFSConfig, GFSScheduler, make_ablation
from repro.cluster.task import reset_task_counter
from repro.core.gde import OrgLinear, PreviousWeekPeakForecaster, SeasonalQuantileForecaster
from repro.core.pts import PreemptiveTaskScheduler
from repro.workloads import generate_trace
from tests.conftest import build_task


@pytest.fixture
def flat_history():
    return {"org-A": np.full(336, 100.0), "org-B": np.full(336, 60.0)}


@pytest.fixture
def started(flat_history):
    """A GFS scheduler bound to a 32-node cluster with quota initialised."""
    cluster = Cluster.homogeneous(32, 8, GPUModel.A100)
    scheduler = GFSScheduler(org_history=flat_history)
    scheduler.on_simulation_start(cluster, now=0.0)
    return cluster, scheduler


class TestConstruction:
    def test_forecaster_selection(self, flat_history):
        assert isinstance(GFSScheduler(GFSConfig(forecaster="seasonal")).gde.forecaster,
                          SeasonalQuantileForecaster)
        assert isinstance(GFSScheduler(GFSConfig(forecaster="prev-week-peak")).gde.forecaster,
                          PreviousWeekPeakForecaster)
        # One spelling per forecaster: former aliases are refused like unknown kinds.
        for kind in ("oracle", "naive-peak"):
            with pytest.raises(ValueError):
                GFSScheduler(GFSConfig(forecaster=kind))

    def test_ablation_overrides(self):
        assert make_ablation("gfs-e").config.forecaster == "prev-week-peak"
        assert make_ablation("gfs-d").config.adapt_eta is False
        assert make_ablation("gfs-s").config.use_colocation is False
        assert make_ablation("gfs-p").config.random_preemption is True
        sp = make_ablation("gfs-sp")
        assert sp.config.random_preemption and not sp.config.use_eviction_awareness
        assert set(ABLATION_OVERRIDES) == {"gfs", "gfs-e", "gfs-d", "gfs-s", "gfs-p", "gfs-sp"}

    def test_unknown_ablation_raises(self):
        with pytest.raises(KeyError):
            make_ablation("gfs-x")

    def test_ablation_names(self):
        assert make_ablation("gfs").name == "GFS"
        assert make_ablation("gfs-sp").name == "GFS-SP"

    def test_one_config_one_class_chain(self):
        """GDE, SQA and PTS read one ``GFSConfig`` (Table 4 plus the forecaster
        and ablation switches); no mirror config, second PTS wrapper or
        inventory pair comes back under ``src/``."""
        import dataclasses
        import re
        from pathlib import Path

        import repro
        from repro.core import gfs

        package = Path(repro.__file__).parent
        banned = re.compile(
            r"\b(SQAConfig|PTSConfig|ScoringConfig|GPUInventoryEstimator|InventoryEstimate"
            r"|PTSScheduler|pts_only)\b"
        )
        found = [
            (str(path.relative_to(package)), match.group())
            for path in sorted(package.rglob("*.py"))
            for match in banned.finditer(path.read_text())
        ]
        assert found == []
        assert not (package / "schedulers" / "pts_only.py").exists()
        assert not (package / "core" / "sqa" / "inventory.py").exists()
        assert len(dataclasses.fields(GFSConfig)) == 12
        assert GFSConfig is repro.GFSConfig is gfs.GFSConfig


class TestQuotaIntegration:
    def test_quota_initialised_on_start(self, started):
        _, scheduler = started
        assert scheduler.sqa is not None
        # Capacity 256, predicted HP demand 160 -> quota near 96.
        assert 0.0 < scheduler.current_quota() <= 256.0

    def test_spot_rejected_beyond_quota(self, started):
        cluster, scheduler = started
        scheduler.sqa.current_quota = 8.0
        small = build_task(TaskType.SPOT, gpus_per_pod=4.0)
        big = build_task(TaskType.SPOT, gpus_per_pod=4.0, num_pods=4)
        assert scheduler.try_schedule(small, cluster, 0.0) is not None
        assert scheduler.try_schedule(big, cluster, 0.0) is None

    def test_hp_ignores_quota(self, started):
        cluster, scheduler = started
        scheduler.sqa.current_quota = 0.0
        hp = build_task(TaskType.HP, gpus_per_pod=8.0)
        assert scheduler.try_schedule(hp, cluster, 0.0) is not None

    def test_admitted_spot_gets_guarantee(self, started):
        cluster, scheduler = started
        spot = build_task(TaskType.SPOT, gpus_per_pod=1.0)
        scheduler.try_schedule(spot, cluster, 0.0)
        assert spot.guaranteed_hours == scheduler.config.guarantee_hours

    def test_tick_updates_quota_and_observes_demand(self, started):
        cluster, scheduler = started
        scheduler.sqa.current_quota = -1.0  # a fresh computation is never negative
        scheduler.on_tick(cluster, now=3600.0, pending=[])
        assert scheduler.sqa.current_quota >= 0.0
        # The observed demand for the current hour was recorded.
        hour = scheduler._hour_index(3600.0)
        assert len(scheduler.gde.forecaster.history["org-A"]) >= hour

    def test_eviction_feedback_only_counts_guarantee_violations(self, started):
        cluster, scheduler = started
        young = build_task(TaskType.SPOT, gpus_per_pod=1.0)
        young.run_logs.append(__import__("repro.cluster.task", fromlist=["RunLog"]).RunLog(start=0.0))
        old = build_task(TaskType.SPOT, gpus_per_pod=1.0)
        old.run_logs.append(__import__("repro.cluster.task", fromlist=["RunLog"]).RunLog(start=0.0))
        scheduler.on_task_evicted(young, cluster, now=600.0)          # violated guarantee
        scheduler.on_task_evicted(old, cluster, now=2 * 3600.0)      # past the guarantee
        assert len(scheduler._spot_evictions) == 1


class TestQuotaFilteredQueue:
    """``sort_queue`` leaves out spot tasks the quota turns away for the whole pass."""

    def test_spot_only_queue_offers_what_the_quota_admits(self, started):
        _, scheduler = started
        scheduler.sqa.current_quota = 8.0
        small = build_task(TaskType.SPOT, gpus_per_pod=4.0)
        big = build_task(TaskType.SPOT, gpus_per_pod=4.0, num_pods=4)
        assert scheduler.sort_queue([big, small], 0.0) == [small]

    def test_spot_gpus_in_use_count_against_the_quota(self, started):
        cluster, scheduler = started
        scheduler.sqa.current_quota = 8.0
        running = build_task(TaskType.SPOT, gpus_per_pod=8.0)
        cluster.place_task(running, scheduler.try_schedule(running, cluster, 0.0).placements)
        assert scheduler.sort_queue([build_task(TaskType.SPOT, gpus_per_pod=1.0)], 0.0) == []

    def test_a_waiting_hp_task_keeps_every_task_on_offer(self, started):
        # An HP task may preempt, which frees quota later in the same pass.
        _, scheduler = started
        scheduler.sqa.current_quota = 0.0
        hp = build_task(TaskType.HP, gpus_per_pod=8.0)
        spot = build_task(TaskType.SPOT, gpus_per_pod=1.0)
        assert scheduler.sort_queue([spot, hp], 0.0) == [hp, spot]

    def test_before_simulation_start_nothing_is_filtered(self, flat_history):
        spot = build_task(TaskType.SPOT, gpus_per_pod=1.0)
        assert GFSScheduler(org_history=flat_history).sort_queue([spot], 0.0) == [spot]

    def test_the_filter_changes_no_decision(self):
        """Same metrics as offering every waiting task, from fewer offers."""

        class OffersEveryTask(GFSScheduler):
            def sort_queue(self, pending, now):
                return PreemptiveTaskScheduler.sort_queue(self, pending, now)

        def run(scheduler_class):
            offers = []

            class Counting(scheduler_class):
                def try_schedule(self, task, cluster, now, ctx=None):
                    offers.append(task.task_id)
                    return super().try_schedule(task, cluster, now, ctx=ctx)

            reset_task_counter()
            trace = generate_trace(cluster_gpus=64.0, duration_hours=8.0, spot_scale=3.0, seed=5)
            cluster = Cluster.homogeneous(8, 8, GPUModel.A100)
            metrics = run_simulation(
                cluster, Counting(org_history=trace.org_history), trace.sorted_tasks()
            )
            return metrics, len(offers)

        filtered, filtered_offers = run(GFSScheduler)
        unfiltered, unfiltered_offers = run(OffersEveryTask)
        assert filtered == unfiltered
        assert filtered_offers < unfiltered_offers


class TestForecastsFollowObservations:
    """Count gate: ``peak_demand`` is asked at every quota update, the
    forecaster only when an observation can have changed the answer."""

    def _replay(self, config, nodes, hours, forget_answers=False):
        calls = {"quota updates": 0, "peak_demand": 0, "predict": 0, "observe": 0}

        class Counting(GFSScheduler):
            def _update_quota(self, *args, **kwargs):
                calls["quota updates"] += 1
                if forget_answers:
                    self.gde._peaks_basis = None
                super()._update_quota(*args, **kwargs)

        def counted(obj, name, key):
            inner = getattr(obj, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return inner(*args, **kwargs)

            setattr(obj, name, wrapper)

        reset_task_counter()
        trace = generate_trace(cluster_gpus=nodes * 8.0, duration_hours=hours, spot_scale=3.0, seed=5)
        scheduler = Counting(config, org_history=trace.org_history)
        counted(scheduler.gde, "peak_demand", "peak_demand")
        counted(scheduler.gde, "observe", "observe")
        counted(scheduler.gde.forecaster, "predict", "predict")
        cluster = Cluster.homogeneous(nodes, 8, GPUModel.A100)
        metrics = run_simulation(cluster, scheduler, trace.sorted_tasks())
        orgs = len(trace.org_history)
        assert scheduler.gde.organizations() == list(trace.org_history)
        assert calls["observe"] % orgs == 0
        return metrics, calls, orgs, calls["observe"] // orgs

    @pytest.mark.parametrize(
        "forecaster, nodes, hours", [("seasonal", 16, 8.0), ("prev-week-peak", 16, 8.0), ("orglinear", 4, 3.0)]
    )
    def test_one_forecast_per_observed_hour(self, forecaster, nodes, hours, monkeypatch):
        model_calls = []
        model_predict = OrgLinear.predict
        monkeypatch.setattr(
            OrgLinear, "predict", lambda self, ds: model_calls.append(1) or model_predict(self, ds)
        )
        config = GFSConfig(forecaster=forecaster)
        metrics, calls, orgs, observed_hours = self._replay(config, nodes, hours)
        assert observed_hours >= hours
        # Twelve quota updates in every observed hour but the last, which is cut short.
        assert calls["peak_demand"] == calls["quota updates"] >= 12 * (observed_hours - 1)
        # One forecast at start, before anything is observed, then one per hour;
        # the OrgLinear model runs once per forecast and for no other forecaster.
        assert calls["predict"] == orgs * (observed_hours + 1)
        assert len(model_calls) == (calls["predict"] if forecaster == "orglinear" else 0)

        every_tick, tick_calls, _, _ = self._replay(config, nodes, hours, forget_answers=True)
        assert tick_calls["predict"] == orgs * tick_calls["quota updates"]
        assert {k: v for k, v in tick_calls.items() if k != "predict"} == {
            k: v for k, v in calls.items() if k != "predict"
        }
        assert metrics == every_tick


class TestEndToEnd:
    def _run(self, scheduler_factory, trace, nodes=16):
        cluster = Cluster.homogeneous(nodes, 8, GPUModel.A100)
        scheduler = scheduler_factory(trace)
        return run_simulation(cluster, scheduler, trace.sorted_tasks(), SimulatorConfig())

    def test_gfs_full_simulation(self, tiny_trace):
        metrics = self._run(lambda t: GFSScheduler(org_history=t.org_history), tiny_trace)
        assert metrics.unfinished_tasks == 0
        assert metrics.hp.eviction_rate == 0.0
        assert metrics.spot.eviction_rate < 0.5

    def test_gfs_keeps_hp_queuing_low(self, tiny_trace):
        metrics = self._run(lambda t: GFSScheduler(org_history=t.org_history), tiny_trace)
        assert metrics.hp.jqt_mean < 600.0

    @pytest.mark.parametrize("variant", ["gfs-e", "gfs-d", "gfs-s", "gfs-p", "gfs-sp"])
    def test_ablation_variants_run(self, variant, tiny_trace):
        metrics = self._run(
            lambda t: make_ablation(variant, org_history=t.org_history), tiny_trace
        )
        assert metrics.unfinished_tasks == 0

    def test_gfs_without_history_still_works(self, tiny_trace):
        metrics = self._run(lambda t: GFSScheduler(), tiny_trace)
        assert metrics.unfinished_tasks == 0
