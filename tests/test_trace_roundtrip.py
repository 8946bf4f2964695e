"""Property-based trace round-trip tests and save/load edge cases.

Hypothesis drives ``records -> Trace -> records`` identity through both
the plain-JSON and the gzip (`.json.gz`) serialisation paths, and the
atomic-write / deterministic-ordering satellites get targeted checks.
"""

import gzip
import hashlib
import json
import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import GPUModel
from repro.cluster.task import reset_task_counter
from repro.workloads import Trace, generate_trace

# ----------------------------------------------------------------------
# Strategies: JSON-shaped task records matching Trace.to_records()
# ----------------------------------------------------------------------
_ids = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="-_"),
    min_size=1,
    max_size=12,
)
_finite = dict(allow_nan=False, allow_infinity=False)

task_records = st.fixed_dictionaries(
    {
        "task_id": _ids,
        "task_type": st.sampled_from([0, 1]),
        "num_pods": st.integers(min_value=1, max_value=8),
        "gpus_per_pod": st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, 8.0]),
        "duration": st.floats(min_value=1.0, max_value=1e6, **_finite),
        "submit_time": st.floats(min_value=0.0, max_value=1e7, **_finite),
        "org": st.sampled_from(["org-A", "org-B", "org-C", "other"]),
        "gpu_model": st.sampled_from([None] + [m.value for m in GPUModel]),
        "gang": st.booleans(),
        "checkpoint_interval": st.floats(min_value=1.0, max_value=1e5, **_finite),
    }
)

trace_records = st.fixed_dictionaries(
    {
        "metadata": st.dictionaries(
            _ids,
            st.one_of(st.integers(), st.floats(**_finite), st.text(max_size=10), st.booleans()),
            max_size=4,
        ),
        "org_history": st.dictionaries(
            st.sampled_from(["org-A", "org-B"]),
            st.lists(st.floats(min_value=0.0, max_value=1e4, **_finite), min_size=1, max_size=48),
            max_size=2,
        ),
        "tasks": st.lists(task_records, max_size=25),
    }
)


class TestRoundTripProperties:
    @given(records=trace_records)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_records_to_trace_to_records_identity(self, records):
        trace = Trace.from_records(records)
        assert trace.to_records() == records

    @given(records=trace_records, use_gzip=st.booleans())
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_save_load_identity_json_and_gzip(self, records, use_gzip, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / ("t.json.gz" if use_gzip else "t.json")
        trace = Trace.from_records(records)
        trace.save(path)
        assert Trace.load(path).to_records() == records

    @given(records=trace_records)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_sorted_tasks_order_independent_of_insertion(self, records):
        trace = Trace.from_records(records)
        reversed_trace = Trace(tasks=list(reversed(trace.tasks)))
        assert [t.task_id for t in trace.sorted_tasks()] == [
            t.task_id for t in reversed_trace.sorted_tasks()
        ]


class TestSortedTasksTieBreak:
    def test_simultaneous_arrivals_sorted_by_task_id(self):
        records = {
            "tasks": [
                {"task_id": name, "task_type": 1, "num_pods": 1, "gpus_per_pod": 1.0,
                 "duration": 60.0, "submit_time": 100.0, "org": "o"}
                for name in ("b", "a", "c")
            ]
        }
        trace = Trace.from_records(records)
        assert [t.task_id for t in trace.sorted_tasks()] == ["a", "b", "c"]


class TestSaveSemantics:
    def test_gzip_path_is_actually_gzipped_and_smaller(self, tmp_path):
        trace = generate_trace(256.0, duration_hours=8.0, seed=11)
        plain, zipped = tmp_path / "t.json", tmp_path / "t.json.gz"
        trace.save(plain)
        trace.save(zipped)
        assert zipped.read_bytes()[:2] == b"\x1f\x8b"
        assert zipped.stat().st_size < plain.stat().st_size
        assert Trace.load(zipped).to_records() == Trace.load(plain).to_records()

    def test_gzip_bytes_are_deterministic(self, tmp_path):
        trace = generate_trace(128.0, duration_hours=4.0, seed=2)
        a, b = tmp_path / "a.json.gz", tmp_path / "b.json.gz"
        trace.save(a)
        trace.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_save_overwrites_atomically_and_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "t.json"
        first = generate_trace(128.0, duration_hours=4.0, seed=1)
        second = generate_trace(128.0, duration_hours=4.0, seed=2)
        first.save(path)
        second.save(path)
        assert Trace.load(path).metadata["seed"] == 2
        assert [p.name for p in tmp_path.iterdir()] == ["t.json"]

    def test_interrupted_save_preserves_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t.json.gz"
        first = generate_trace(128.0, duration_hours=4.0, seed=1)
        first.save(path)
        before = path.read_bytes()

        def explode(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(gzip.GzipFile, "write", explode)
        try:
            generate_trace(128.0, duration_hours=4.0, seed=2).save(path)
        except KeyboardInterrupt:
            pass
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.json.gz"]

    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_save_interrupted_while_writing_preserves_previous_file(self, tmp_path, monkeypatch, step):
        # The rendered payload is on its way to disk (temp file written, not
        # yet renamed) when the interrupt lands.
        path = tmp_path / "t.json.gz"
        generate_trace(128.0, duration_hours=4.0, seed=1).save(path)
        before = path.read_bytes()

        def explode(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, step, explode)
        with pytest.raises(KeyboardInterrupt):
            generate_trace(128.0, duration_hours=4.0, seed=2).save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.json.gz"]

    def test_saved_bytes_equal_the_parent_writer(self, tmp_path):
        # The pre-change writer streamed gzip into a private temp file; the
        # payload is now rendered in memory.  Same bytes either way, and the
        # plain-JSON form is pinned to the parent commit's SHA-256.
        reset_task_counter()
        trace = generate_trace(128.0, duration_hours=4.0, seed=1)
        payload = json.dumps(trace.to_records())
        frozen = tmp_path / "frozen.json.gz"
        with frozen.open("wb") as handle:
            with gzip.GzipFile(filename="", fileobj=handle, mode="wb", mtime=0) as zipped:
                zipped.write(payload.encode("utf-8"))
        trace.save(tmp_path / "t.json.gz")
        trace.save(tmp_path / "t.json")
        assert (tmp_path / "t.json.gz").read_bytes() == frozen.read_bytes()
        assert (tmp_path / "t.json").read_text() == payload
        assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == (
            "e8b99a807d8c0cab70f5a114216ac6a1aba62e941fb3c5da1f58d9e95cfbe8ba"
        )

    def test_two_threads_saving_one_path_leave_a_loadable_file(self, tmp_path):
        # One process, one path: the old temp name (``.name.tmp.<pid>``) was
        # shared by both writers; each save now has a temp file of its own.
        path = tmp_path / "t.json.gz"
        traces = [generate_trace(128.0, duration_hours=4.0, seed=seed) for seed in (1, 2)]
        barrier = threading.Barrier(2)
        errors = []

        def save(trace):
            try:
                barrier.wait()
                for _ in range(10):
                    trace.save(path)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=save, args=(t,)) for t in traces]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert Trace.load(path).to_records() in [t.to_records() for t in traces]
        assert [p.name for p in tmp_path.iterdir()] == ["t.json.gz"]

    def test_plain_json_stays_plain(self, tmp_path):
        path = tmp_path / "t.json"
        generate_trace(128.0, duration_hours=4.0, seed=1).save(path)
        json.loads(path.read_text())  # parses as plain JSON
