"""Unit tests for the task model: checkpoints, run logs, derived metrics."""

import pytest

from repro.cluster import GPUModel, RunLog, Task, TaskState, TaskType, generate_checkpoints
from tests.conftest import build_task


class TestCheckpoints:
    def test_checkpoints_cover_duration(self):
        points = generate_checkpoints(duration=7200.0, interval=1800.0)
        assert points[-1] == pytest.approx(7200.0)
        assert all(b > a for a, b in zip(points, points[1:]))

    def test_short_task_single_checkpoint(self):
        points = generate_checkpoints(duration=600.0, interval=1800.0)
        assert points == [600.0]

    def test_non_divisible_duration_appends_final_checkpoint(self):
        points = generate_checkpoints(duration=4000.0, interval=1800.0)
        assert points[-1] == pytest.approx(4000.0)
        assert points[0] == pytest.approx(1800.0)

    def test_zero_interval_yields_single_point(self):
        assert generate_checkpoints(1000.0, 0.0) == [1000.0]


class TestTaskBasics:
    def test_total_gpus(self):
        task = build_task(TaskType.HP, num_pods=3, gpus_per_pod=4.0)
        assert task.total_gpus == pytest.approx(12.0)

    def test_type_predicates(self):
        assert build_task(TaskType.HP).is_hp
        assert build_task(TaskType.SPOT).is_spot

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            build_task(TaskType.HP, num_pods=0)
        with pytest.raises(ValueError):
            build_task(TaskType.HP, gpus_per_pod=0.0)
        with pytest.raises(ValueError):
            build_task(TaskType.HP, duration=0.0)

    def test_auto_ids_unique_and_prefixed(self):
        hp = build_task(TaskType.HP)
        spot = build_task(TaskType.SPOT)
        assert hp.task_id != spot.task_id
        assert hp.task_id.startswith("hp-")
        assert spot.task_id.startswith("spot-")

    def test_tasks_hashable_by_identity(self):
        a = build_task(TaskType.SPOT)
        b = build_task(TaskType.SPOT)
        assert len({a, b}) == 2
        assert a != b

    def test_record_codec_roundtrip_defaults_and_errors(self):
        task = build_task(TaskType.HP, num_pods=2, gpus_per_pod=0.5, gpu_model=GPUModel.H800)
        record = task.to_record()
        assert list(record) == [
            "task_id", "task_type", "num_pods", "gpus_per_pod", "duration", "submit_time",
            "org", "gpu_model", "gang", "checkpoint_interval",
        ]
        assert record["task_type"] == int(TaskType.HP) and record["gpu_model"] == "H800"
        assert Task.from_record(record).to_record() == record
        # Four required fields; the rest take the trace-format defaults, and
        # values arrive as JSON scalars of any numeric type.
        minimal = Task.from_record({"task_id": 7, "num_pods": 1, "gpus_per_pod": 1, "duration": 60})
        assert minimal.to_record() == {
            "task_id": "7", "task_type": int(TaskType.SPOT), "num_pods": 1, "gpus_per_pod": 1.0,
            "duration": 60.0, "submit_time": 0.0, "org": "default", "gpu_model": None,
            "gang": False, "checkpoint_interval": 1800.0,
        }
        with pytest.raises(KeyError):
            Task.from_record({"task_id": "x"})
        with pytest.raises(ValueError):
            Task.from_record({**record, "num_pods": "many"})
        with pytest.raises(ValueError):
            Task.from_record({**record, "gpu_model": "no-such-card"})

    def test_describe_mentions_type_and_state(self):
        task = build_task(TaskType.HP)
        text = task.describe()
        assert "HP" in text and "pending" in text


class TestProgressAccounting:
    def test_remaining_work_initially_full(self, spot_task):
        assert spot_task.remaining_work == pytest.approx(spot_task.duration)

    def test_highest_checkpoint_before(self):
        task = build_task(TaskType.SPOT, duration=7200.0, checkpoint_interval=1800.0)
        assert task.highest_checkpoint_before(0.0) == -1
        assert task.highest_checkpoint_before(1800.0) == 0
        assert task.highest_checkpoint_before(5000.0) == 1
        assert task.highest_checkpoint_before(7200.0) == len(task.checkpoints) - 1

    def test_time_since_checkpoint_while_running(self):
        task = build_task(TaskType.SPOT, duration=7200.0, checkpoint_interval=1800.0)
        task.state = TaskState.RUNNING
        task.run_logs.append(RunLog(start=0.0))
        assert task.time_since_checkpoint(900.0) == pytest.approx(900.0)
        # After the first checkpoint at 1800s only the remainder is at risk.
        assert task.time_since_checkpoint(2000.0) == pytest.approx(200.0)

    def test_preemption_waste_scales_with_gpus(self):
        task = build_task(TaskType.SPOT, num_pods=2, gpus_per_pod=4.0, duration=7200.0)
        task.state = TaskState.RUNNING
        task.run_logs.append(RunLog(start=0.0))
        assert task.preemption_waste(600.0) == pytest.approx(8.0 * 600.0)

    def test_time_since_checkpoint_zero_when_not_running(self, spot_task):
        assert spot_task.time_since_checkpoint(1000.0) == 0.0


class TestTaskMetrics:
    def test_jct_none_until_finished(self, spot_task):
        assert spot_task.jct is None
        spot_task.finish_time = spot_task.submit_time + 5000.0
        assert spot_task.jct == pytest.approx(5000.0)

    def test_jqt_accumulates(self, spot_task):
        spot_task.total_queue_time = 120.0
        assert spot_task.jqt == pytest.approx(120.0)

    def test_run_count(self, spot_task):
        assert spot_task.run_count == 0
        spot_task.run_logs.append(RunLog(start=0.0))
        spot_task.run_logs.append(RunLog(start=100.0))
        assert spot_task.run_count == 2
