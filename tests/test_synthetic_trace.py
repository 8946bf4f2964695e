"""Tests for synthetic trace generation and trace (de)serialisation."""

import hashlib
import json
from bisect import bisect_right
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import GPUModel, reset_task_counter
from repro.workloads import (
    HP_GANG_FRACTION,
    SPOT_GANG_FRACTION,
    GPUSizeDistribution,
    SyntheticTraceGenerator,
    Trace,
    WorkloadConfig,
    generate_legacy_2020_requests,
    generate_modern_2024_requests,
    generate_trace,
    get_scenario,
)
from repro.workloads.synthetic import choice_cdf


@pytest.fixture(scope="module")
def calibration_trace():
    """A larger trace used to verify distributional calibration."""
    config = WorkloadConfig(cluster_gpus=2048.0, duration_hours=24.0, seed=9)
    return SyntheticTraceGenerator(config).generate()


class TestTraceGeneration:
    def test_tasks_sorted_and_within_window(self, calibration_trace):
        tasks = calibration_trace.sorted_tasks()
        times = [t.submit_time for t in tasks]
        assert times == sorted(times)
        assert max(times) <= 24.0 * 3600.0

    def test_both_classes_present(self, calibration_trace):
        assert len(calibration_trace.hp_tasks) > 100
        assert len(calibration_trace.spot_tasks) > 20

    def test_gpu_size_mix_close_to_table3(self, calibration_trace):
        stats = calibration_trace.statistics()
        # One-GPU requests dominate and full-node requests are substantial.
        assert stats.hp_gpu_histogram.get("1", 0.0) == pytest.approx(0.55, abs=0.10)
        assert stats.hp_gpu_histogram.get("8", 0.0) == pytest.approx(0.24, abs=0.10)
        assert stats.spot_gpu_histogram.get("1", 0.0) == pytest.approx(0.67, abs=0.10)

    def test_gang_fractions_close_to_table3(self, calibration_trace):
        stats = calibration_trace.statistics()
        assert stats.hp_gang_fraction == pytest.approx(HP_GANG_FRACTION, abs=0.05)
        assert stats.spot_gang_fraction == pytest.approx(SPOT_GANG_FRACTION, abs=0.08)

    def test_durations_clipped(self, calibration_trace):
        config = WorkloadConfig()
        for task in calibration_trace.tasks:
            assert config.min_runtime <= task.duration <= config.max_runtime

    def test_spot_scale_increases_spot_tasks(self):
        low = generate_trace(512.0, duration_hours=12.0, spot_scale=1.0, seed=2)
        high = generate_trace(512.0, duration_hours=12.0, spot_scale=4.0, seed=2)
        assert len(high.spot_tasks) > 2 * len(low.spot_tasks)
        # HP stream is unchanged by the spot scaling (same seed).
        assert len(high.hp_tasks) == pytest.approx(len(low.hp_tasks), rel=0.2)

    def test_org_history_aligned_with_hp_demand(self, calibration_trace):
        total_history_mean = sum(float(np.mean(v)) for v in calibration_trace.org_history.values())
        horizon = calibration_trace.metadata["duration_hours"] * 3600.0
        hp_work = sum(t.total_gpus * t.duration for t in calibration_trace.hp_tasks)
        fluid_mean = hp_work / horizon
        assert total_history_mean == pytest.approx(fluid_mean, rel=0.35)

    def test_history_is_multiple_of_full_days(self, calibration_trace):
        for series in calibration_trace.org_history.values():
            assert len(series) % 24 == 0

    def test_metadata_recorded(self, calibration_trace):
        meta = calibration_trace.metadata
        assert meta["cluster_gpus"] == 2048.0
        assert meta["num_hp"] == len(calibration_trace.hp_tasks)

    def test_determinism_per_seed(self):
        a = generate_trace(256.0, duration_hours=6.0, seed=5)
        b = generate_trace(256.0, duration_hours=6.0, seed=5)
        assert len(a) == len(b)
        assert [t.submit_time for t in a.tasks[:20]] == [t.submit_time for t in b.tasks[:20]]


class TestFigure2Samples:
    def test_legacy_requests_mostly_partial(self):
        samples = generate_legacy_2020_requests(2000, seed=1)
        assert np.mean(np.array(samples) < 1.0) > 0.6

    def test_modern_requests_mostly_whole_and_full_node(self):
        samples = np.array(generate_modern_2024_requests(2000, seed=1))
        assert np.mean(samples >= 1.0) > 0.95
        assert np.mean(samples >= 8.0) == pytest.approx(0.7, abs=0.05)


# ----------------------------------------------------------------------
# The categorical draws: one random() and a bisection, as Generator.choice
# ----------------------------------------------------------------------
def _frozen_size_sample(sizes, rng):
    """``GPUSizeDistribution.sample`` before the cdf was built once (verbatim)."""
    values = [s for s, _ in sizes]
    probs = np.array([p for _, p in sizes], dtype=float)
    probs = probs / probs.sum()
    return float(rng.choice(values, p=probs))


def _frozen_org_draw(weights, rng):
    """The per-task organization draw of ``_generate_stream`` before (verbatim)."""
    return int(rng.choice(len(weights), p=weights))


_probability = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.tuples(st.sampled_from([0.1, 0.5, 1, 2, 4, 8]), _probability), min_size=1, max_size=8)
    .filter(lambda sizes: sum(p for _, p in sizes) > 0),
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(1, 40),
)
def test_size_draw_matches_generator_choice(sizes, seed, draws):
    """Same values and the same stream afterwards, zero-probability sizes included."""
    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    distribution = GPUSizeDistribution(sizes=sizes)
    assert [_frozen_size_sample(sizes, old) for _ in range(draws)] == [
        distribution.sample(new) for _ in range(draws)
    ]
    assert old.random() == new.random()


@settings(max_examples=200, deadline=None)
@given(
    demand=st.lists(st.one_of(st.just(0.0), st.floats(0.01, 500.0)), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(1, 40),
)
def test_org_draw_matches_generator_choice(demand, seed, draws):
    """Per-hour org weights as the generator forms them: zero-weight orgs and
    the all-zero hour (uniform weights) included."""
    generator = SyntheticTraceGenerator(WorkloadConfig(seed=0))
    generator.organizations = [SimpleNamespace(name=f"org-{i}") for i in range(len(demand))]
    weights = generator._org_weights_at(0, {f"org-{i}": np.array([d]) for i, d in enumerate(demand)})
    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    cdf = choice_cdf(weights)
    assert [_frozen_org_draw(weights, old) for _ in range(draws)] == [
        bisect_right(cdf, new.random()) for _ in range(draws)
    ]
    assert old.random() == new.random()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf / inf
@pytest.mark.parametrize(
    "probabilities", [[0.5, -0.1, 0.6], [0.5, float("nan"), 0.5], [0.5, float("inf"), 0.5]]
)
def test_invalid_probabilities_raise_as_in_generator_choice(probabilities):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(probabilities), p=probabilities)
    with pytest.raises(ValueError):
        choice_cdf(probabilities)
    with pytest.raises(ValueError):
        GPUSizeDistribution(sizes=list(zip([1, 2, 4], probabilities)))


def test_size_distribution_is_frozen():
    distribution = GPUSizeDistribution(sizes=[(1, 0.5), (8, 0.5)])
    with pytest.raises(AttributeError):
        distribution.sizes = [(1, 1.0)]
    assert distribution.sizes == ((1, 0.5), (8, 0.5))


# ----------------------------------------------------------------------
# Golden trace bytes: every built-in scenario at two sizes, pinned before
# the categorical draws lost Generator.choice.  A generator change that
# moves one of these moves every downstream digest.
# ----------------------------------------------------------------------
def _trace_sha256(trace: Trace) -> str:
    digest = hashlib.sha256(json.dumps(trace.to_records(), sort_keys=True).encode())
    for org in sorted(trace.org_history):
        digest.update(org.encode())
        digest.update(np.ascontiguousarray(trace.org_history[org], dtype=float).tobytes())
    return digest.hexdigest()


#: (cluster GPUs, hours, spot scale) -> scenario -> (tasks, SHA-256), seed 1
TRACE_PINS = {
    (128.0, 8.0, 2.0): {
        "burst": (96, "e39b3faded2f22200b8ef9cab30cd1a8d21128f46bd05953e7e423ed0438d44f"),
        "default": (91, "624958a8f724eef49e686f3a02445c16ecda14715bf291077437b89130b42dcf"),
        "diurnal": (90, "6a6fe8e6b0313c44a5ec2c6fc26b31781c74073a687216293ef889fb8abc2abf"),
        "elastic_fleet": (91, "167b9464a9e8c843a1fc319ef170a82e7c45bf5181a162a44a7bad0d8bc89e74"),
        "hetero": (91, "d4f16d34632ff02a954e6c517a500b45fa274b86ab7e8c0946d1f4d888e8b38c"),
        "large_gang": (55, "d8a07711bd2c7df9f8cf848e9cfe9236013f85380542ea26e1697f9a348580f9"),
        "maintenance_wave": (91, "f33a8a1f2776451d00b99f4e1a74fb5dea01489e909b65bd149ec4dfa0da6fe0"),
        "node_churn": (91, "d06a8010d21b0bea9b2b868da6fe9e6f52775937470b05bba2ca5b0677227ceb"),
        "org_skew": (91, "70591df163adda944fc61163ab824b318e2c41d43fc6425faaeb70d67d2b82cd"),
        "spot_heavy": (315, "59811c220cae60bedb8fbe3e55c4b8b44426d07372f15e33c29d65f6198f7818"),
        "spot_reclaim_storm": (124, "6ee891560d5590c6c904e01418347446854b81d887930a7ee4dbf584408c2b2f"),
    },
    (512.0, 24.0, 4.0): {
        "burst": (1594, "c56254a220576827e5799627c67afc9b6ed2408b5ba2771d3e3e93f7adac1072"),
        "default": (1600, "62504447bc4f284a9b079f0931c9f7c1e1389b9b5d10feccf247188a2ee2ea51"),
        "diurnal": (1620, "4de6fae417d47661b1171a9b1f76fa7f1448cdc95eece84bcec6590937d5ccb1"),
        "elastic_fleet": (1600, "15af6b90c7a7ade8705829954106f2985a71cdd197858d2b0afc8117af338c51"),
        "hetero": (1600, "a59e1021494b5077025cd63d9114ce0bb4612b86eed658936367ca3c9ac3b4e7"),
        "large_gang": (668, "e234365c47f4d3aebc45a01cb4110d56bad1eec45b2b26cea11a1b2e77c9f2eb"),
        "maintenance_wave": (1600, "f9fdb74ef62da9ed844bbda50e2bf3df7146b36fc492b0908d6a19bc173c7fcb"),
        "node_churn": (1600, "3d07d93ab15ae62ff5b2e273f98127519e35e0d0ddc12b6b10a370a18f6e60bb"),
        "org_skew": (1600, "60fbbd730ee4d8c9fe299cb82fd7ab00a6ba2dcf0d9a69c0a6d0a27f280f7803"),
        "spot_heavy": (6976, "fdc8b77b65f9e647cb872947bce29e02dfd2d615493621097715b54a43de3bf1"),
        "spot_reclaim_storm": (2217, "a7de33a9d05aff6e4259ef84ac52959d89d55a149b66099192b916d467655708"),
    },
}


@pytest.mark.parametrize(
    "size, scenario",
    [(size, name) for size, pins in TRACE_PINS.items() for name in pins],
    ids=lambda value: "x".join(f"{v:g}" for v in value) if isinstance(value, tuple) else value,
)
def test_scenario_trace_bytes_are_pinned(size, scenario):
    cluster_gpus, hours, spot_scale = size
    reset_task_counter()
    trace = get_scenario(scenario).build_trace(cluster_gpus, hours, spot_scale=spot_scale, seed=1)
    assert (len(trace.tasks), _trace_sha256(trace)) == TRACE_PINS[size][scenario]


def test_figure2_samplers_are_pinned():
    def sha(samples):
        return hashlib.sha256(json.dumps(samples).encode()).hexdigest()

    assert sha(generate_legacy_2020_requests(2000, seed=1)) == (
        "c5379c6578ed749fd7932eb017f9204c33dd04bed43d0ccb2e52eae29facbba4"
    )
    assert sha(generate_modern_2024_requests(2000, seed=1)) == (
        "f308e964f2f9a5000a05f64479cc5a60677a2992cef7d5f179f47e8eae233b6c"
    )


class TestTraceSerialisation:
    def test_round_trip_preserves_tasks_and_history(self, tmp_path, tiny_trace):
        path = tmp_path / "trace.json"
        tiny_trace.save(path)
        loaded = Trace.load(path)
        assert len(loaded) == len(tiny_trace)
        assert loaded.metadata["seed"] == tiny_trace.metadata["seed"]
        original = tiny_trace.sorted_tasks()[0]
        restored = loaded.sorted_tasks()[0]
        assert restored.task_id == original.task_id
        assert restored.task_type is original.task_type
        assert restored.gpu_model is GPUModel.A100
        assert np.allclose(loaded.org_history["org-A"], tiny_trace.org_history["org-A"])

    def test_statistics_of_empty_trace(self):
        stats = Trace().statistics()
        assert stats.num_hp == 0
        assert stats.num_spot == 0

    def test_horizon_of_empty_trace_is_zero(self):
        assert Trace().horizon == 0.0
