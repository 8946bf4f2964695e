"""Tests for the parallel experiment engine (determinism, caching, specs)."""

import dataclasses

import pytest

from repro.experiments import (
    ArtifactCache,
    ExperimentEngine,
    ExperimentScale,
    SchedulerSpec,
    SimulationJob,
    WorkloadSpec,
    baseline_specs,
    comparison_specs,
    execute_job,
    gfs_spec,
    gfs_variant_spec,
    metrics_to_payload,
    sweep_jobs,
)

TINY = ExperimentScale(name="tiny", num_nodes=8, duration_hours=6.0, seed=13)


def tiny_grid():
    """A 2-scheduler x 2-workload grid, small enough for unit tests."""
    specs = [SchedulerSpec(kind="yarn-cs"), gfs_spec()]
    workloads = [
        WorkloadSpec(spot_scale=2.0, label="medium"),
        WorkloadSpec(scenario="burst", spot_scale=1.0, label="burst"),
    ]
    return sweep_jobs(TINY, specs, workloads, prefix="grid")


class TestSpecs:
    def test_sweep_jobs_cross_product_and_keys(self):
        jobs = tiny_grid()
        assert len(jobs) == 4
        assert len({j.key for j in jobs}) == 4
        assert jobs[0].key == "grid/medium/YARN-CS"

    def test_seed_offset_in_key(self):
        jobs = sweep_jobs(
            TINY, [gfs_spec()], [WorkloadSpec(seed_offset=2, label="w")], prefix="p"
        )
        assert jobs[0].key == "p/w+s2/GFS"

    def test_display_names(self):
        assert [s.display for s in baseline_specs()] == ["YARN-CS", "Chronus", "Lyra", "FGD"]
        assert gfs_spec().display == "GFS"
        assert gfs_variant_spec("gfs-sp").display == "GFS-SP"
        assert gfs_spec(label="GFS(H=4)", guarantee_hours=4.0).display == "GFS(H=4)"

    def test_comparison_specs_toggle(self):
        assert len(comparison_specs(include_gfs=True)) == 5
        assert len(comparison_specs(include_gfs=False)) == 4

    def test_unknown_scheduler_kind_raises(self):
        job = SimulationJob(
            key="bad",
            scale=TINY,
            scheduler=SchedulerSpec(kind="nope"),
            workload=WorkloadSpec(),
        )
        with pytest.raises(KeyError, match="unknown scheduler 'nope'"):
            execute_job(job)

    def test_duplicate_keys_rejected(self):
        jobs = tiny_grid()
        with pytest.raises(ValueError, match="duplicate job keys"):
            ExperimentEngine().run([jobs[0], jobs[0]])


class TestDeterministicParallelism:
    """Bugcheck: results must not depend on the worker count.

    Guards against RNG or global-counter state leaking across worker
    processes: every job re-seeds its trace generator and resets the task-id
    counter, so a fixed seed gives bit-identical metrics at ``--workers 1``
    and ``--workers N``.
    """

    def test_worker_count_parity(self):
        jobs = tiny_grid()
        serial = ExperimentEngine(workers=1).run(jobs)
        parallel = ExperimentEngine(workers=2).run(jobs)
        assert set(serial) == set(parallel)
        for key in serial:
            assert metrics_to_payload(serial[key]) == metrics_to_payload(parallel[key]), key

    def test_repeated_serial_runs_identical(self):
        jobs = tiny_grid()[:1]
        first = ExperimentEngine().run(jobs)
        second = ExperimentEngine().run(jobs)
        key = jobs[0].key
        assert metrics_to_payload(first[key]) == metrics_to_payload(second[key])


class TestEngineCacheIntegration:
    def test_second_run_hits_cache_with_identical_metrics(self, tmp_path):
        jobs = tiny_grid()[:2]
        cache = ArtifactCache(tmp_path / "cache")
        first_engine = ExperimentEngine(workers=1, cache=cache)
        first = first_engine.run(jobs)
        assert first_engine.stats.executed == 2
        assert first_engine.stats.cache_hits == 0

        second_engine = ExperimentEngine(workers=1, cache=cache)
        second = second_engine.run(jobs)
        assert second_engine.stats.executed == 0
        assert second_engine.stats.cache_hits == 2
        for key in first:
            assert metrics_to_payload(first[key]) == metrics_to_payload(second[key])

    def test_config_change_invalidates(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        jobs = tiny_grid()[:1]
        ExperimentEngine(cache=cache).run(jobs)

        changed_scale = dataclasses.replace(TINY, seed=14)
        changed = [dataclasses.replace(jobs[0], scale=changed_scale)]
        engine = ExperimentEngine(cache=cache)
        engine.run(changed)
        assert engine.stats.executed == 1
        assert engine.stats.cache_hits == 0

    def test_engine_without_cache_bypasses(self, tmp_path):
        # cache=None is the one way to bypass (the use_cache flag and
        # cli --no-cache said the same thing twice and are gone).
        cache = ArtifactCache(tmp_path / "cache")
        jobs = tiny_grid()[:1]
        ExperimentEngine(cache=cache).run(jobs)
        engine = ExperimentEngine(cache=None)
        engine.run(jobs)
        assert engine.stats.executed == 1
        assert engine.stats.cache_hits == 0

    def test_identical_cells_share_cache_across_prefixes(self, tmp_path):
        # The same semantic cell appears in several tables (e.g. GFS on the
        # medium workload in Tables 8, 9 and 10); the grid key and labels
        # must not fragment the cache.
        cache = ArtifactCache(tmp_path / "cache")
        workload = WorkloadSpec(spot_scale=2.0, label="medium")
        as_table8 = sweep_jobs(TINY, [gfs_spec()], [workload], prefix="table8")
        as_table9 = sweep_jobs(TINY, [gfs_spec()], [workload], prefix="table9")
        ExperimentEngine(cache=cache).run(as_table8)
        engine = ExperimentEngine(cache=cache)
        engine.run(as_table9)
        assert engine.stats.executed == 0
        assert engine.stats.cache_hits == 1

    def test_scenario_redefinition_invalidates_cache(self, tmp_path):
        # The key hashes the resolved scenario parameterization, not just
        # its name: re-registering a scenario with different knobs must
        # miss, never serve the old scenario's metrics.
        from repro.workloads import Scenario, register_scenario

        cache = ArtifactCache(tmp_path / "cache")
        register_scenario(
            Scenario(name="tmp_eng_scn", summary="v1", overrides={"spot_target_utilization": 0.2}),
            replace_existing=True,
        )
        jobs = sweep_jobs(TINY, [SchedulerSpec(kind="yarn-cs")],
                          [WorkloadSpec(scenario="tmp_eng_scn", label="w")])
        first = ExperimentEngine(cache=cache)
        v1 = first.run(jobs)
        register_scenario(
            Scenario(name="tmp_eng_scn", summary="v2", overrides={"spot_target_utilization": 0.3}),
            replace_existing=True,
        )
        second = ExperimentEngine(cache=cache)
        v2 = second.run(jobs)
        assert second.stats.executed == 1 and second.stats.cache_hits == 0
        assert metrics_to_payload(v1[jobs[0].key]) != metrics_to_payload(v2[jobs[0].key])

    def test_custom_scenario_reaches_pool_workers(self):
        # The engine embeds the resolved Scenario object in the picklable
        # job, so scenarios registered at runtime work at workers > 1
        # regardless of the multiprocessing start method.
        from repro.workloads import Scenario, register_scenario

        register_scenario(
            Scenario(name="tmp_pool_scn", summary="runtime-registered",
                     overrides={"diurnal_arrival_amplitude": 0.1}),
            replace_existing=True,
        )
        jobs = sweep_jobs(
            TINY,
            [SchedulerSpec(kind="yarn-cs"), SchedulerSpec(kind="fgd")],
            [WorkloadSpec(scenario="tmp_pool_scn", label="w")],
        )
        serial = ExperimentEngine(workers=1).run(jobs)
        pooled = ExperimentEngine(workers=2).run(jobs)
        for key in serial:
            assert metrics_to_payload(serial[key]) == metrics_to_payload(pooled[key])


class TestGridRows:
    def test_history_and_rows(self):
        engine = ExperimentEngine()
        jobs = tiny_grid()[:1]
        engine.run(jobs)
        rows = engine.grid_rows()
        assert len(rows) == 1
        row = rows[0]
        assert row["scheduler"] == "YARN-CS"
        assert row["scenario"] == "default"
        assert row["seed"] == TINY.seed
        assert row["hp_count"] > 0


class TestProfiledEngine:
    def test_profiled_cells_match_unprofiled_and_export_obs_columns(self):
        jobs = tiny_grid()[:2]
        plain = ExperimentEngine().run(jobs)
        engine = ExperimentEngine(profile=True)
        profiled = engine.run(jobs)
        for key in plain:
            assert metrics_to_payload(plain[key]) == metrics_to_payload(profiled[key]), key
        rows = engine.grid_rows()
        assert len(rows) == 2
        for row in rows:
            assert row["obs_passes"] > 0
            assert row["obs_events"] > 0
            assert row["obs_wall_s"] > 0
            assert row["obs_scheduled"] <= row["obs_examined"]

    def test_profiled_pool_matches_serial_on_deterministic_columns(self):
        jobs = tiny_grid()[:2]
        serial = ExperimentEngine(profile=True)
        serial.run(jobs)
        pooled = ExperimentEngine(workers=2, profile=True)
        pooled.run(jobs)
        deterministic = [
            "obs_events", "obs_passes", "obs_examined", "obs_scheduled",
            "obs_memo_hits", "obs_index_rejects", "obs_searches",
        ]
        for job in jobs:
            for column in deterministic:
                assert (
                    serial.profiles[job.key][column] == pooled.profiles[job.key][column]
                ), (job.key, column)

    def test_cache_hits_carry_no_obs_columns(self, tmp_path):
        jobs = tiny_grid()[:1]
        cache = ArtifactCache(tmp_path)
        warm = ExperimentEngine(cache=cache, profile=True)
        warm.run(jobs)
        assert jobs[0].key in warm.profiles
        cold = ExperimentEngine(cache=cache, profile=True)
        cold.run(jobs)
        assert cold.stats.cache_hits == 1
        assert jobs[0].key not in cold.profiles
        assert "obs_passes" not in cold.grid_rows()[0]
