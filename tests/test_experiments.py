"""Smoke tests for the experiment harness (small scales, every runner)."""

import pytest

from repro.experiments import (
    ExperimentEngine,
    ExperimentResult,
    ExperimentScale,
    FULL_SCALE,
    MEDIUM_SCALE,
    SMALL_SCALE,
    SchedulerSpec,
    WorkloadSpec,
    execute_job,
    gfs_spec,
    paper_reference_benefit,
    run_deployment_experiment,
    run_forecasting_experiment,
    run_heatmap_observation,
    run_request_cdf_observation,
    run_table10,
    run_table5,
    run_table6,
    run_table8,
    run_table9,
    scale_by_name,
    sweep_jobs,
)
from repro.experiments.forecasting import ForecastingExperimentConfig
from repro.workloads import SpotWorkloadLevel


TINY = ExperimentScale(name="tiny", num_nodes=12, duration_hours=8.0, seed=13)


class TestConfig:
    def test_presets(self):
        assert SMALL_SCALE.total_gpus < MEDIUM_SCALE.total_gpus < FULL_SCALE.total_gpus
        assert scale_by_name("small") is SMALL_SCALE
        with pytest.raises(KeyError):
            scale_by_name("galactic")

    def test_build_cluster_and_trace(self):
        cluster = TINY.build_cluster()
        assert cluster.total_gpus() == TINY.total_gpus
        trace = TINY.build_trace(spot_scale=2.0)
        assert len(trace) > 0
        assert trace.metadata["spot_scale"] == 2.0


class TestEngineCells:
    def test_execute_job_produces_metrics(self):
        [job] = sweep_jobs(TINY, [gfs_spec()], [WorkloadSpec(spot_scale=1.0, label="tiny")])
        row = ExperimentResult("GFS", "tiny", execute_job(job)).as_row()
        assert row["hp_jct"] > 0
        assert 0.0 <= row["spot_eviction"] <= 1.0

    def test_engine_sweep_covers_all_schedulers(self):
        specs = [SchedulerSpec(kind="yarn-cs"), gfs_spec()]
        jobs = sweep_jobs(TINY, specs, [WorkloadSpec(spot_scale=2.0, label="tiny")])
        results = ExperimentEngine(workers=1).run(jobs)
        assert {job.scheduler.display for job in jobs if job.key in results} == {"YARN-CS", "GFS"}


class TestTableRunners:
    def test_table5_single_level(self):
        result = run_table5(TINY, levels=[SpotWorkloadLevel.MEDIUM])
        assert "medium" in result.per_workload
        rows = result.per_workload["medium"].rows()
        assert "GFS" in rows and "YARN-CS" in rows
        report = result.report()
        assert "Table 5" in report

    def test_table6_two_horizons(self):
        result = run_table6(TINY, guarantee_hours=(1.0, 4.0), spot_scale=2.0)
        assert set(result.per_horizon) == {1.0, 4.0}
        assert "guarantee hours" in result.report()

    def test_table8_and_9_and_10(self):
        for runner, expected in ((run_table8, "GFS-E"), (run_table9, "GFS-D"), (run_table10, "GFS-SP")):
            result = runner(TINY, spot_scale=2.0)
            assert expected in result.per_variant
            assert "GFS" in result.per_variant
            assert "Table" in result.report()


class TestForecastingExperiment:
    def test_small_forecasting_run(self):
        config = ForecastingExperimentConfig(
            history_weeks=4, stride=12, orglinear_epochs=10, baselines=["DLinear", "DeepAR"]
        )
        result = run_forecasting_experiment(config)
        assert set(result.evaluations) == {"OrgLinear", "DLinear", "DeepAR"}
        assert "MAE" in result.report()
        assert result.best_model("mae") in result.evaluations


class TestObservationAndDeployment:
    def test_request_cdf_observation(self):
        cmp = run_request_cdf_observation(samples=500)
        assert cmp.modern_full_node_fraction > 0.5
        assert cmp.legacy_partial_fraction > 0.5

    def test_heatmap_observation(self):
        rates = run_heatmap_observation(hours=48)
        assert set(rates) == {"Cluster A", "Cluster B", "Cluster C"}
        assert all(0.0 <= r <= 1.0 for r in rates.values())

    def test_deployment_experiment_tiny(self):
        result = run_deployment_experiment(fleet_scale=0.004, duration_hours=6.0, spot_scale=2.0)
        assert len(result.per_model) == 4
        assert result.benefit is not None
        assert "Figure 9" in result.report()

    def test_paper_reference_benefit_positive(self):
        assert paper_reference_benefit().monthly_gain_usd > 0
