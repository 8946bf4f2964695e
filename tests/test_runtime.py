"""Tests for the fault-tolerance runtime: atomic writes, guards, the
write-ahead sweep journal, the supervised executor and the chaos planner.

Pool-based tests use tiny sleeps and 2-worker pools so the whole module
stays inside the tier-1 time budget; the heavier end-to-end proofs
(kill -9 resume, chaos convergence) live in ``test_resume.py`` and
``test_chaos_harness.py``.
"""

import ast
import json
import os
import signal
import threading
import time
from pathlib import Path

import pytest

import repro.experiments.engine
import repro.runtime.executor
from repro.obs.telemetry import TelemetryBus
from repro.runtime import (
    CHAOS_ACTIONS,
    ChaosPlan,
    ChaosPoison,
    ChaosWorker,
    GracefulShutdown,
    JobFailure,
    JobGuard,
    JournalError,
    ResilientExecutor,
    RetryPolicy,
    SweepError,
    SweepJournal,
    atomic_write_bytes,
    atomic_write_text,
    deterministic_fraction,
)
from tests.conftest import EventSink


# ----------------------------------------------------------------------
# Picklable workers for pool tests
# ----------------------------------------------------------------------
class Item:
    def __init__(self, key):
        self.key = key

    def __repr__(self):
        return f"Item({self.key!r})"


def ok_worker(item, attempt):
    return f"{item.key}:ok"


def echo_attempt(item, attempt):
    return attempt


def fail_until_attempt_3(item, attempt):
    if attempt < 3:
        raise ValueError(f"flaky on attempt {attempt}")
    return f"{item.key}:recovered"


def always_fail(item, attempt):
    raise RuntimeError("permanently broken")


def die_once(item, attempt):
    # kill -9 semantics on the first attempt only: no unwinding.
    if attempt == 1 and item.key == "victim":
        os._exit(137)
    return f"{item.key}:survived@{attempt}"


def hang_once(item, attempt):
    if attempt == 1 and item.key == "sleeper":
        time.sleep(60.0)
    return f"{item.key}:done@{attempt}"


def watched(worker, **kwargs):
    """An executor reporting on a bus whose records land in the returned sink."""
    sink = EventSink()
    return ResilientExecutor(worker, telemetry=TelemetryBus(sinks=[sink]), **kwargs), sink


FAST = RetryPolicy(base_s=0.01, factor=2.0, cap_s=0.05)


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
class TestAtomicWrites:
    def test_creates_parents_and_roundtrips(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "file.json"
        out = atomic_write_text(target, '{"a": 1}')
        assert out == target
        assert json.loads(target.read_text()) == {"a": 1}

    def test_replaces_existing_atomically(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(target, "old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_no_temp_droppings_on_success(self, tmp_path):
        atomic_write_bytes(tmp_path / "x.bin", b"\x00\x01")
        leftovers = [p for p in tmp_path.iterdir() if p.name != "x.bin"]
        assert leftovers == []

    def test_failed_write_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(target, "original")
        with pytest.raises(TypeError):
            atomic_write_bytes(target, "not-bytes")  # type: ignore[arg-type]
        assert target.read_text() == "original"
        assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]


# ----------------------------------------------------------------------
# Guards
# ----------------------------------------------------------------------
class TestGuards:
    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(base_s=0.1, factor=2.0, cap_s=0.5)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(4) == pytest.approx(0.5)  # capped
        assert policy.delay(0) == 0.0

    def test_guard_retry_budget(self):
        guard = JobGuard(retries=2)
        assert guard.allows_retry(1)
        assert guard.allows_retry(2)
        assert not guard.allows_retry(3)
        assert not JobGuard(retries=0).allows_retry(1)

    def test_failure_payload_roundtrip(self):
        try:
            raise ValueError("boom")
        except ValueError as exc:
            failure = JobFailure.from_exception("cell-1", exc, attempts=3)
        assert failure.kind == "exception"
        assert failure.error_type == "ValueError"
        assert "boom" in failure.summary()
        payload = failure.as_payload()
        assert json.loads(json.dumps(payload)) == payload
        assert payload == {
            "job_key": "cell-1",
            "kind": "exception",
            "attempts": 3,
            "error_type": "ValueError",
            "message": "boom",
            "traceback": failure.traceback_text,
        }

    def test_sweep_error_lists_failures(self):
        failures = [
            JobFailure(job_key=f"cell-{i}", kind="timeout", attempts=2)
            for i in range(7)
        ]
        err = SweepError(failures)
        assert len(err.failures) == 7
        assert "7 job(s) failed" in str(err)
        assert "and 2 more" in str(err)

    def test_deterministic_fraction_stable_and_spread(self):
        a = deterministic_fraction("chaos", 1, "k", 1)
        assert a == deterministic_fraction("chaos", 1, "k", 1)
        assert 0.0 <= a < 1.0
        assert a != deterministic_fraction("chaos", 1, "k", 2)
        assert a != deterministic_fraction("chaos", 2, "k", 1)


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class TestSweepJournal:
    def test_replay_empty_when_missing(self, tmp_path):
        replay = SweepJournal(tmp_path / "absent.jsonl").replay()
        assert (replay.header, replay.completed, replay.failed) == ({}, {}, {})
        assert replay.torn_lines == 0

    def test_append_and_replay(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.begin_sweep(2, meta={"workers": 2})
        # older journals carry "start" intent markers; replay skips them
        journal.append({"kind": "start", "job_key": "a", "cache_key": "key-a", "attempt": 1})
        journal.record_done("a", "key-a", {"makespan": 1.0})
        journal.record_failed("b", "key-b", {"kind": "timeout", "attempts": 3})
        journal.close()

        replay = journal.replay()
        assert replay.header["jobs"] == 2
        assert replay.header["workers"] == 2
        assert replay.completed == {"key-a": {"makespan": 1.0}}
        assert replay.failed == {"key-b": {"kind": "timeout", "attempts": 3}}
        assert replay.torn_lines == 0

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.begin_sweep(1)
        journal.record_done("a", "key-a", {"makespan": 1.0})
        journal.close()
        # Simulate a crash mid-append: a half-written final line.
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "done", "job_key": "b", "cache_')
        replay = journal.replay()
        assert replay.torn_lines == 1
        assert set(replay.completed) == {"key-a"}

    def test_append_after_torn_tail_keeps_the_next_record(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record_done("a", "key-a", {"makespan": 1.0})
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "done", "job_key": "b", "cache_')
        # The next invocation's first record must not land on the fragment.
        resumed = SweepJournal(journal.path)
        resumed.record_done("c", "key-c", {"makespan": 3.0})
        resumed.record_done("d", "key-d", {"makespan": 4.0})
        resumed.close()
        replay = resumed.replay()
        assert replay.torn_lines == 1
        assert set(replay.completed) == {"key-a", "key-c", "key-d"}
        assert journal.path.read_text().endswith("\n")

    def test_last_record_wins(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record_failed("a", "key-a", {"kind": "exception"})
        journal.record_done("a", "key-a", {"makespan": 2.0})
        journal.close()
        replay = journal.replay()
        assert replay.completed == {"key-a": {"makespan": 2.0}}
        assert replay.failed == {}

    def test_done_superseded_by_failed(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record_done("a", "key-a", {"makespan": 2.0})
        journal.record_failed("a", "key-a", {"kind": "worker-lost"})
        journal.close()
        replay = journal.replay()
        assert replay.completed == {}
        assert set(replay.failed) == {"key-a"}

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text('{"kind": "sweep", "version": 99}\n')
        with pytest.raises(JournalError, match="version"):
            SweepJournal(path).replay()

    def test_appends_survive_reopen(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        first = SweepJournal(path)
        first.record_done("a", "key-a", {"m": 1})
        first.close()
        second = SweepJournal(path)
        second.record_done("b", "key-b", {"m": 2})
        second.close()
        replay = second.replay()
        assert set(replay.completed) == {"key-a", "key-b"}


# ----------------------------------------------------------------------
# Executor: one contract in-process (workers=1) and pooled (workers=2)
# ----------------------------------------------------------------------
def keep_going(item, attempt):
    return item.key


@pytest.mark.parametrize("workers", [1, 2])
class TestExecutorContract:
    def test_success_passthrough(self, workers):
        executor = ResilientExecutor(ok_worker, workers=workers)
        results = dict(executor.run([Item("a"), Item("b")]))
        assert {i.key for i in results} == {"a", "b"}
        assert set(results.values()) == {"a:ok", "b:ok"}

    def test_retries_then_recovers(self, workers):
        guard = JobGuard(retries=2, backoff=FAST)
        executor, sink = watched(fail_until_attempt_3, workers=workers, guard=guard)
        [(item, outcome)] = list(executor.run([Item("a")]))
        assert outcome == "a:recovered"
        assert len(sink.events("job_retry")) == 2

    def test_exhausted_budget_yields_failure(self, workers):
        guard = JobGuard(retries=1, backoff=FAST)
        executor = ResilientExecutor(always_fail, workers=workers, guard=guard)
        [(item, outcome)] = list(executor.run([Item("a")]))
        assert isinstance(outcome, JobFailure)
        assert outcome.kind == "exception"
        assert outcome.attempts == 2
        assert outcome.error_type == "RuntimeError"
        assert "permanently broken" in outcome.traceback_text

    def test_should_stop_halts_before_next_item(self, workers):
        # Stop once the first outcome is out: the jobs already launched
        # (one per worker) drain, nothing else starts.
        done = []
        executor, sink = watched(keep_going, workers=workers)
        for item, outcome in executor.run(
            [Item("a"), Item("b"), Item("c")], should_stop=lambda: bool(done)
        ):
            done.append(outcome)
        assert sorted(done) == ["a", "b"][:workers]
        assert [r["job"] for r in sink.events("job_start")] == ["a", "b"][:workers]


def test_one_retrying_cell_emits_the_same_events_in_process_and_pooled():
    def events(workers):
        guard = JobGuard(retries=2, backoff=FAST)
        executor, sink = watched(fail_until_attempt_3, workers=workers, guard=guard)
        list(executor.run([Item("a")]))
        return [
            {k: v for k, v in record.items() if k not in ("ts", "run_id", "wall_s")}
            for record in sink
        ]

    serial = events(1)
    assert [r["event"] for r in serial] == [
        "job_start", "job_retry", "job_start", "job_retry", "job_start", "job_done"
    ]
    assert events(2) == serial


def test_one_supervision_loop():
    """The executor submits from one method (no serial twin), and the
    engine leaves the in-process-or-pool choice to it (no deadline read)."""
    def tree(module):
        return ast.parse(Path(module.__file__).read_text())

    functions = [
        node for node in ast.walk(tree(repro.runtime.executor))
        if isinstance(node, ast.FunctionDef)
    ]
    assert "_run_serial" not in {f.name for f in functions}
    submitting = {
        f.name
        for f in functions
        for node in ast.walk(f)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "submit"
    }
    assert submitting == {"run"}
    assert not any(
        isinstance(node, ast.Attribute) and node.attr == "timeout_s"
        for node in ast.walk(tree(repro.experiments.engine))
    )


# ----------------------------------------------------------------------
# Executor: supervised pool path
# ----------------------------------------------------------------------
class TestPoolExecutor:
    def test_pool_success_and_attempt_protocol(self):
        executor = ResilientExecutor(echo_attempt, workers=2)
        results = list(executor.run([Item("a"), Item("b"), Item("c")]))
        assert len(results) == 3
        assert all(outcome == 1 for _, outcome in results)

    def test_pool_retries_exception(self):
        guard = JobGuard(retries=2, backoff=FAST)
        executor = ResilientExecutor(fail_until_attempt_3, workers=2, guard=guard)
        results = dict((i.key, o) for i, o in executor.run([Item("a"), Item("b")]))
        assert results == {"a": "a:recovered", "b": "b:recovered"}

    def test_pool_survives_worker_kill(self):
        # One worker os._exit()s: BrokenProcessPool. The executor must
        # rebuild the pool and finish every job, charging at most one
        # attempt to the in-flight cohort.
        guard = JobGuard(retries=2, backoff=FAST)
        executor = ResilientExecutor(die_once, workers=2, guard=guard)
        items = [Item("victim"), Item("bystander-1"), Item("bystander-2")]
        results = dict((i.key, o) for i, o in executor.run(items))
        assert results["victim"] == "victim:survived@2"
        assert all(not isinstance(o, JobFailure) for o in results.values())
        assert executor.pool_rebuilds >= 1

    def test_kill_with_no_budget_is_worker_lost_failure(self):
        guard = JobGuard(retries=0)
        executor = ResilientExecutor(die_once, workers=2, guard=guard)
        results = dict((i.key, o) for i, o in executor.run([Item("victim")]))
        outcome = results["victim"]
        assert isinstance(outcome, JobFailure)
        assert outcome.kind == "worker-lost"
        assert outcome.attempts == 1

    def test_timeout_charges_only_the_hung_job(self):
        guard = JobGuard(timeout_s=1.0, retries=2, backoff=FAST)
        executor, sink = watched(hang_once, workers=2, guard=guard)
        items = [Item("sleeper"), Item("quick")]
        results = dict((i.key, o) for i, o in executor.run(items))
        assert results["quick"] == "quick:done@1"
        assert results["sleeper"] == "sleeper:done@2"
        assert len(sink.events("job_timeout")) == 1
        assert executor.pool_rebuilds >= 1

    def test_timeout_without_budget_fails_structurally(self):
        guard = JobGuard(timeout_s=0.5, retries=0)
        executor = ResilientExecutor(hang_once, workers=2, guard=guard)
        results = dict((i.key, o) for i, o in executor.run([Item("sleeper")]))
        outcome = results["sleeper"]
        assert isinstance(outcome, JobFailure)
        assert outcome.kind == "timeout"

    def test_deadline_at_one_worker_kills_a_hang(self):
        # A deadline needs a process to kill, so one worker means a
        # one-process pool, not an in-process run that ignores it.
        guard = JobGuard(timeout_s=0.5, retries=0)
        executor = ResilientExecutor(hang_once, workers=1, guard=guard)
        started = time.monotonic()
        [(item, outcome)] = list(executor.run([Item("sleeper")]))
        assert isinstance(outcome, JobFailure)
        assert outcome.kind == "timeout"
        assert time.monotonic() - started < 15.0


# ----------------------------------------------------------------------
# Chaos planner
# ----------------------------------------------------------------------
class TestChaosPlan:
    def test_schedule_is_deterministic(self):
        plan = ChaosPlan(seed=7, kill_prob=0.3, hang_prob=0.2, poison_prob=0.2)
        schedule = [plan.decide(f"job-{i}", a) for i in range(20) for a in (1, 2, 3)]
        again = [plan.decide(f"job-{i}", a) for i in range(20) for a in (1, 2, 3)]
        assert schedule == again
        assert set(schedule) <= set(CHAOS_ACTIONS)

    def test_max_strikes_guarantees_convergence(self):
        plan = ChaosPlan(seed=1, kill_prob=1.0, max_strikes=2)
        assert plan.decide("any", 1) == "kill"
        assert plan.decide("any", 2) == "kill"
        assert plan.decide("any", 3) == "ok"

    def test_zero_probabilities_never_strike(self):
        plan = ChaosPlan(seed=3)
        assert all(plan.decide(f"j{i}", 1) == "ok" for i in range(50))

    def test_seed_changes_schedule(self):
        kwargs = dict(kill_prob=0.25, hang_prob=0.25, poison_prob=0.25)
        a = [ChaosPlan(seed=1, **kwargs).decide(f"j{i}", 1) for i in range(64)]
        b = [ChaosPlan(seed=2, **kwargs).decide(f"j{i}", 1) for i in range(64)]
        assert a != b

    def test_chaos_worker_poison_and_passthrough(self):
        poison_plan = ChaosPlan(seed=5, poison_prob=1.0)
        worker = ChaosWorker(poison_plan, ok_worker)
        with pytest.raises(ChaosPoison):
            worker(Item("a"), 1)
        # beyond max_strikes the real worker runs
        assert worker(Item("a"), poison_plan.max_strikes + 1) == "a:ok"
        clean = ChaosWorker(ChaosPlan(seed=5), ok_worker)
        assert clean(Item("a"), 1) == "a:ok"


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
class TestGracefulShutdown:
    def test_first_signal_sets_flag_second_raises(self):
        with GracefulShutdown() as stop:
            assert not stop.triggered()
            os.kill(os.getpid(), signal.SIGINT)
            assert stop.requested
            assert stop.triggered()
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGINT)
        # handlers restored: default SIGINT raises KeyboardInterrupt
        with pytest.raises(KeyboardInterrupt):
            os.kill(os.getpid(), signal.SIGINT)

    def test_sigterm_also_drains(self):
        with GracefulShutdown() as stop:
            os.kill(os.getpid(), signal.SIGTERM)
            assert stop.triggered()

    def test_noop_outside_main_thread(self):
        results = {}

        def use_in_thread():
            with GracefulShutdown() as stop:
                results["installed"] = signal.getsignal(signal.SIGINT) == stop._handler
                results["triggered"] = stop.triggered()

        thread = threading.Thread(target=use_in_thread)
        thread.start()
        thread.join()
        assert results == {"installed": False, "triggered": False}
