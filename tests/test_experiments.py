"""Smoke tests for the experiment harness (small scales, every runner)."""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import (
    PAPER_GRIDS,
    ArtifactCache,
    ExperimentEngine,
    ExperimentScale,
    FULL_SCALE,
    MEDIUM_SCALE,
    SMALL_SCALE,
    SchedulerSpec,
    WorkloadSpec,
    build_simulation,
    execute_job,
    gfs_spec,
    metric_row,
    paper_reference_benefit,
    run_deployment_experiment,
    run_forecasting_experiment,
    run_grid,
    run_heatmap_observation,
    run_request_cdf_observation,
    scale_by_name,
    spot_levels,
    sweep_jobs,
    table6_grid,
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
        [job] = sweep_jobs(TINY, [gfs_spec()], [WorkloadSpec(spot_scale=2.0)])
        simulator, trace = build_simulation(job)
        assert simulator.cluster.total_gpus() == TINY.total_gpus
        assert len(trace) > 0
        assert trace.metadata["spot_scale"] == 2.0


class TestEngineCells:
    def test_execute_job_produces_metrics(self):
        [job] = sweep_jobs(TINY, [gfs_spec()], [WorkloadSpec(spot_scale=1.0, label="tiny")])
        row = metric_row(execute_job(job))
        assert row["hp_jct"] > 0
        assert 0.0 <= row["spot_eviction"] <= 1.0

    def test_engine_sweep_covers_all_schedulers(self):
        specs = [SchedulerSpec(kind="yarn-cs"), gfs_spec()]
        jobs = sweep_jobs(TINY, specs, [WorkloadSpec(spot_scale=2.0, label="tiny")])
        results = ExperimentEngine(workers=1).run(jobs)
        assert {job.scheduler.display for job in jobs if job.key in results} == {"YARN-CS", "GFS"}


class TestTableRunners:
    def test_table5_single_level(self):
        medium_only = replace(PAPER_GRIDS["table5"], workloads=spot_levels([SpotWorkloadLevel.MEDIUM]))
        result = run_grid(medium_only, TINY)
        assert ("medium", "GFS") in result.cells
        rows = result.rows("medium")
        assert "GFS" in rows and "YARN-CS" in rows
        report = result.report()
        assert "Table 5" in report

    def test_table6_two_horizons(self):
        result = run_grid(table6_grid(guarantee_hours=(4.0, 1.0)), TINY)
        assert list(result.rows()) == ["GFS(H=1)", "GFS(H=4)"]
        assert [result.grid.row_label(spec) for spec in result.grid.schedulers] == [1.0, 4.0]
        assert "guarantee hours" in result.report()

    def test_table8_and_9_and_10(self):
        for table, expected in (("table8", "GFS-E"), ("table9", "GFS-D"), ("table10", "GFS-SP")):
            result = run_grid(PAPER_GRIDS[table], TINY)
            assert expected in result.rows()
            assert "GFS" in result.rows()
            assert "Table" in result.report()

    def test_paper_reports_match_the_golden_fixture(self):
        # Generated at the commit before the runners became declarations
        # (PR 21): every grid-shaped report must stay byte-identical.
        parts = [
            f"===== {name} =====\n{run_grid(PAPER_GRIDS[name], TINY).report()}\n"
            for name in ("table5", "table6", "table8", "table9", "table10")
        ]
        parts.append(f"===== fig9 =====\n{run_deployment_experiment().report()}\n")
        golden = Path(__file__).parent / "fixtures" / "paper_reports_tiny.txt"
        assert "".join(parts) == golden.read_text()


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
        assert len(result.benefit.eviction_before) == 4
        assert len(result.grid.cells) == 8
        assert "Figure 9" in result.report()

    def test_deployment_runs_through_the_engine(self, tmp_path):
        # Figure 9 used to build its simulators by hand, so --workers,
        # --cache-dir and --out silently skipped it.
        kwargs = dict(fleet_scale=0.004, duration_hours=6.0, spot_scale=2.0)
        cache = ArtifactCache(tmp_path / "cache")
        first = ExperimentEngine(cache=cache)
        cold = run_deployment_experiment(engine=first, **kwargs)
        assert first.stats.executed == 8
        second = ExperimentEngine(cache=cache)
        warm = run_deployment_experiment(engine=second, **kwargs)
        assert (second.stats.executed, second.stats.cache_hits) == (0, 8)
        assert warm.report() == cold.report()
        rows = second.grid_rows()
        assert len(rows) == 8
        assert {row["scheduler"] for row in rows} == {"before", "after"}
        assert {row["workload"] for row in rows} == {"A10", "A100", "A800", "H800"}

    def test_paper_reference_benefit_positive(self):
        assert paper_reference_benefit().monthly_gain_usd > 0
