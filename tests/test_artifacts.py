"""Tests for the content-keyed artifact cache and grid exports."""

import csv
import dataclasses
import json
import math

import pytest

from repro.cluster import ReliabilityMetrics, SimulationMetrics, TaskClassMetrics
from repro.experiments import (
    ArtifactCache,
    content_key,
    export_grid_csv,
    export_grid_json,
    flatten_metrics,
    metrics_from_payload,
    metrics_to_payload,
)


def sample_metrics(jct: float = 100.0) -> SimulationMetrics:
    return SimulationMetrics(
        hp=TaskClassMetrics(count=3, jct_mean=jct, jct_p99=2 * jct, jqt_mean=5.0,
                            jqt_p99=9.0, eviction_rate=0.0, total_evictions=0, total_runs=3),
        spot=TaskClassMetrics(count=2, jct_mean=50.0, jct_p99=80.0, jqt_mean=20.0,
                              jqt_p99=30.0, eviction_rate=0.25, total_evictions=1, total_runs=4),
        allocation_rate_mean=0.8,
        allocation_rate_series=[0.7, 0.9],
        allocation_sample_times=[0.0, 600.0],
        makespan=1234.5,
        unfinished_tasks=0,
    )


class TestContentKey:
    def test_stable_across_calls(self):
        payload = {"scale": "small", "spot_scale": 2.0, "overrides": [("a", 1)]}
        assert content_key(payload) == content_key(payload)

    def test_key_order_irrelevant(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})

    def test_any_field_change_changes_key(self):
        base = {"scheduler": "gfs", "seed": 7}
        assert content_key(base) != content_key({"scheduler": "gfs", "seed": 8})
        assert content_key(base) != content_key({"scheduler": "gfs-e", "seed": 7})
        assert content_key(base) != content_key(base | {"extra": None})

    def test_version_salt(self):
        assert content_key({"a": 1}, version=1) != content_key({"a": 1}, version=2)

    def test_unserialisable_payload_rejected(self):
        with pytest.raises(TypeError):
            content_key({"fn": lambda: None})


class TestMetricsRoundTrip:
    def test_lossless(self):
        metrics = sample_metrics()
        rebuilt = metrics_from_payload(metrics_to_payload(metrics))
        assert metrics_to_payload(rebuilt) == metrics_to_payload(metrics)
        assert rebuilt.allocation_rate_series == [0.7, 0.9]
        assert rebuilt.spot.total_evictions == 1

    def test_nan_fields_survive(self):
        metrics = SimulationMetrics()  # all-NaN defaults
        rebuilt = metrics_from_payload(
            json.loads(json.dumps(metrics_to_payload(metrics)))
        )
        assert math.isnan(rebuilt.hp.jct_mean)
        assert math.isnan(rebuilt.allocation_rate_mean)

    @pytest.mark.parametrize(
        "metrics",
        [
            pytest.param(SimulationMetrics(), id="nan-means-empty-series"),
            pytest.param(sample_metrics(), id="populated"),
            pytest.param(
                SimulationMetrics(
                    hp=TaskClassMetrics(count=1, jct_mean=3.0),
                    reliability=ReliabilityMetrics(
                        node_failures=2, node_repairs=1, node_drains=3, capacity_changes=4,
                        tasks_killed=5, hp_tasks_killed=1, restarts_per_task=0.125,
                        lost_gpu_hours=1.5, goodput_gpu_hours=40.25, paid_gpu_hours=64.0,
                    ),
                    allocation_rate_series=[0.1 * i for i in range(50)],
                    allocation_sample_times=[300.0 * i for i in range(50)],
                ),
                id="reliability-counts",
            ),
        ],
    )
    def test_payload_is_dataclasses_asdict_without_aliasing(self, metrics):
        """The field walk replaced ``dataclasses.asdict``: the same dict, the
        same JSON text, and lists of its own."""
        payload = metrics_to_payload(metrics)
        reference = dataclasses.asdict(metrics)
        assert payload == reference
        assert json.dumps(payload) == json.dumps(reference)
        before = json.dumps(dataclasses.asdict(metrics))
        payload["allocation_rate_series"].append(1.0)
        payload["allocation_sample_times"].clear()
        payload["hp"]["count"] = -1
        assert json.dumps(dataclasses.asdict(metrics)) == before


class TestArtifactCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = content_key({"cell": 1})
        assert cache.load(key) is None
        cache.store(key, sample_metrics(), payload={"cell": 1})
        assert key in cache
        loaded = cache.load(key)
        assert loaded is not None
        assert metrics_to_payload(loaded) == metrics_to_payload(sample_metrics())

    def test_different_payload_different_entry(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        k1 = content_key({"seed": 1})
        k2 = content_key({"seed": 2})
        assert k1 != k2
        cache.store(k1, sample_metrics(100.0))
        cache.store(k2, sample_metrics(200.0))
        assert len(cache) == 2
        assert cache.load(k1).hp.jct_mean == 100.0
        assert cache.load(k2).hp.jct_mean == 200.0

    def test_corrupt_entry_treated_as_miss_and_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = content_key({"x": 1})
        path = cache.store(key, sample_metrics())
        path.write_text("{not json")
        assert cache.load(key) is None
        # The corrupt file is moved aside, not deleted: evidence survives,
        # but the key no longer resolves (a later load is a clean miss).
        assert not path.exists()
        quarantined = path.with_name(path.name + ".quarantined")
        assert quarantined.exists()
        assert quarantined.read_text() == "{not json"
        assert cache.quarantined == 1
        assert cache.load(key) is None

    @pytest.mark.parametrize(
        "mangle",
        [
            pytest.param(lambda text: "", id="empty"),
            pytest.param(lambda text: text[: len(text) // 2], id="truncated"),
            pytest.param(lambda text: "\x00" * 64, id="binary-garbage"),
            pytest.param(
                lambda text: json.dumps({"key": "k", "payload": None}),
                id="missing-metrics",
            ),
            pytest.param(
                lambda text: json.dumps({"metrics": {"hp": "not-a-dict"}}),
                id="wrong-shape",
            ),
        ],
    )
    def test_corruption_matrix_all_quarantine_as_miss(self, tmp_path, mangle):
        cache = ArtifactCache(tmp_path)
        key = content_key({"x": 2})
        path = cache.store(key, sample_metrics())
        path.write_text(mangle(path.read_text()))
        assert cache.load(key) is None
        assert cache.quarantined == 1
        assert path.with_name(path.name + ".quarantined").exists()
        # A fresh store after quarantine fully repairs the entry.
        cache.store(key, sample_metrics())
        reloaded = cache.load(key)
        assert reloaded is not None
        assert reloaded.makespan == sample_metrics().makespan

    def test_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store(content_key({"a": 1}), sample_metrics())
        assert cache.clear() == 1
        assert len(cache) == 0


class TestExports:
    def rows(self):
        return [
            {"key": "t/low/GFS", "scheduler": "GFS", **flatten_metrics(sample_metrics())},
            {"key": "t/low/FGD", "scheduler": "FGD", **flatten_metrics(sample_metrics(70.0))},
        ]

    def test_json_export(self, tmp_path):
        path = export_grid_json(self.rows(), tmp_path / "grid.json")
        data = json.loads(path.read_text())
        assert len(data) == 2
        assert {r["scheduler"] for r in data} == {"GFS", "FGD"}
        assert data[0]["hp_jct_mean"] in (100.0, 70.0)

    def test_csv_export(self, tmp_path):
        path = export_grid_csv(self.rows(), tmp_path / "grid.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[0]["key"] == "t/low/GFS"
        assert float(rows[1]["hp_jct_mean"]) == 70.0

    def test_flatten_covers_headline_metrics(self):
        row = flatten_metrics(sample_metrics())
        assert row["spot_eviction_rate"] == 0.25
        assert row["allocation_rate_mean"] == 0.8
        assert row["makespan"] == 1234.5
