"""Seeded chaos harness: the sweep converges through injected faults.

The proof obligation of the fault-tolerance layer: with a deterministic
:class:`ChaosPlan` striking worker processes (``kill`` = ``os._exit``,
``hang`` = sleep past the guard timeout, ``poison`` = raise) and a
:class:`JobGuard` whose retry budget exceeds the plan's ``max_strikes``,
every sweep **converges to the bit-identical uninterrupted reference** —
the chaos is invisible in the results, visible only in the supervision
events on the telemetry bus.  When the budget does *not* cover the strikes, failures are
structured (:class:`JobFailure` / :class:`SweepError`), never a crash.
"""

import pytest

from repro.experiments import (
    ExperimentEngine,
    ExperimentScale,
    SchedulerSpec,
    WorkloadSpec,
    metrics_to_payload,
    sweep_jobs,
)
from repro.obs.telemetry import TelemetryBus
from repro.runtime import ChaosPlan, JobGuard, RetryPolicy, SweepError, SweepJournal
from tests.conftest import EventSink

TINY = ExperimentScale(name="tiny", num_nodes=8, duration_hours=6.0, seed=13)

#: fast backoff so retry storms don't stretch the suite
FAST = RetryPolicy(base_s=0.01, factor=2.0, cap_s=0.05)


def chaos_grid():
    specs = [SchedulerSpec(kind="yarn-cs"), SchedulerSpec(kind="fgd")]
    workloads = [
        WorkloadSpec(spot_scale=2.0, label="medium"),
        WorkloadSpec(scenario="burst", spot_scale=1.0, label="burst"),
    ]
    return sweep_jobs(TINY, specs, workloads, prefix="grid")


def reference_payloads(jobs):
    return {
        key: metrics_to_payload(m)
        for key, m in ExperimentEngine(workers=1).run(jobs).items()
    }


def watched_engine(**kwargs):
    """An engine reporting on a bus whose records land in the returned sink."""
    sink = EventSink()
    return ExperimentEngine(telemetry=TelemetryBus(sinks=[sink]), **kwargs), sink


def scheduled_strikes(plan, jobs):
    """The exact (job, attempt) -> action schedule this plan will inflict."""
    return {
        (job.key, attempt): plan.decide(job.key, attempt)
        for job in jobs
        for attempt in range(1, plan.max_strikes + 1)
    }


def seed_with_strikes(jobs, action, want=1, **plan_kwargs):
    """The first chaos seed scheduling at least ``want`` strikes of
    ``action`` on these jobs' *first* attempts (pure search, no RNG).

    Only first attempts are guaranteed to happen — a strike scheduled for
    attempt 2 of a job that succeeds on attempt 1 never fires.
    """
    for seed in range(200):
        plan = ChaosPlan(seed=seed, **plan_kwargs)
        hits = sum(1 for job in jobs if plan.decide(job.key, 1) == action)
        if hits >= want:
            return plan
    raise AssertionError(f"no seed under 200 schedules {want} {action!r} strikes")


class TestChaosConvergence:
    def test_kill_storm_converges_bit_identically(self):
        jobs = chaos_grid()
        reference = reference_payloads(jobs)
        plan = seed_with_strikes(jobs, "kill", want=2, kill_prob=0.4)
        guard = JobGuard(retries=plan.max_strikes + 1, backoff=FAST)
        engine, sink = watched_engine(workers=2, guard=guard, chaos=plan)
        results = engine.run(jobs)
        assert {k: metrics_to_payload(m) for k, m in results.items()} == reference
        assert engine.failures == {}
        # The kills really happened: the pool was rebuilt to survive them.
        assert len(sink.events("pool_rebuild")) >= 1

    def test_poison_storm_converges(self):
        jobs = chaos_grid()
        reference = reference_payloads(jobs)
        plan = ChaosPlan(seed=0, poison_prob=1.0, max_strikes=2)
        guard = JobGuard(retries=3, backoff=FAST)
        engine, sink = watched_engine(workers=2, guard=guard, chaos=plan)
        results = engine.run(jobs)
        assert {k: metrics_to_payload(m) for k, m in results.items()} == reference
        # Every cell was poisoned max_strikes times before succeeding.
        assert len(sink.events("job_retry")) == len(jobs) * plan.max_strikes

    def test_hang_converges_through_guard_timeout(self):
        jobs = chaos_grid()[:2]
        reference = reference_payloads(jobs)
        plan = seed_with_strikes(
            jobs, "hang", want=1, hang_prob=0.3, hang_s=30.0, max_strikes=1
        )
        guard = JobGuard(timeout_s=0.75, retries=2, backoff=FAST)
        engine, sink = watched_engine(workers=2, guard=guard, chaos=plan)
        results = engine.run(jobs)
        assert {k: metrics_to_payload(m) for k, m in results.items()} == reference
        assert len(sink.events("job_timeout")) >= 1

    def test_mixed_chaos_converges(self):
        jobs = chaos_grid()
        reference = reference_payloads(jobs)
        plan = seed_with_strikes(
            jobs, "kill", want=1, kill_prob=0.2, poison_prob=0.2, max_strikes=2
        )
        first_attempt = [plan.decide(job.key, 1) for job in jobs]
        assert "kill" in first_attempt
        guard = JobGuard(retries=3, backoff=FAST)
        engine = ExperimentEngine(workers=2, guard=guard, chaos=plan)
        results = engine.run(jobs)
        assert {k: metrics_to_payload(m) for k, m in results.items()} == reference

    def test_chaos_schedule_is_reproducible(self):
        jobs = chaos_grid()
        plan = ChaosPlan(seed=42, kill_prob=0.3, poison_prob=0.3)
        assert scheduled_strikes(plan, jobs) == scheduled_strikes(plan, jobs)
        other = ChaosPlan(seed=43, kill_prob=0.3, poison_prob=0.3)
        assert scheduled_strikes(plan, jobs) != scheduled_strikes(other, jobs)


class TestChaosExhaustion:
    """When the retry budget does NOT cover the strikes: structured failure."""

    def test_strict_sweep_raises_after_draining(self):
        jobs = chaos_grid()
        plan = ChaosPlan(seed=0, poison_prob=1.0, max_strikes=3)
        guard = JobGuard(retries=1, backoff=FAST, strict=True)
        engine = ExperimentEngine(workers=2, guard=guard, chaos=plan)
        with pytest.raises(SweepError) as excinfo:
            engine.run(jobs)
        assert len(excinfo.value.failures) == len(jobs)
        for failure in excinfo.value.failures:
            assert failure.kind == "exception"
            assert failure.attempts == 2  # 1 + retries
            assert "ChaosPoison" in failure.error_type

    def test_tolerant_sweep_reports_failures_and_keeps_survivors(self):
        jobs = chaos_grid()
        reference = reference_payloads(jobs)
        # Poison only the first job's key, forever.
        victim = jobs[0].key
        plan = seed_with_strikes(
            [jobs[0]], "poison", want=1, poison_prob=0.9, max_strikes=99
        )
        # With max_strikes=99 and poison_prob=0.9 some other cells may be
        # struck too, but retries=4 outlasts any realistic schedule only
        # for unstruck attempts — so instead pin the plan to strike only
        # attempt 1 via max_strikes=1, guaranteeing survivors converge.
        plan = ChaosPlan(seed=plan.seed, poison_prob=0.9, max_strikes=1)
        guard = JobGuard(retries=0, backoff=FAST, strict=False)
        engine = ExperimentEngine(workers=2, guard=guard, chaos=plan)
        results = engine.run(jobs)
        struck = {
            job.key
            for job in jobs
            if plan.decide(job.key, 1) != "ok"
        }
        assert victim in struck
        assert set(results) == {j.key for j in jobs} - struck
        assert set(engine.failures) == struck
        assert engine.stats.failed == len(struck)
        for key, metrics in results.items():
            assert metrics_to_payload(metrics) == reference[key]


class TestChaosWithJournal:
    def test_chaotic_sweep_journals_cleanly_and_resumes(self, tmp_path):
        jobs = chaos_grid()
        reference = reference_payloads(jobs)
        journal_path = tmp_path / "sweep.jsonl"
        plan = seed_with_strikes(jobs, "kill", want=1, kill_prob=0.3)
        guard = JobGuard(retries=plan.max_strikes + 1, backoff=FAST)
        chaotic = ExperimentEngine(
            workers=2, guard=guard, chaos=plan, journal=journal_path
        )
        chaotic.run(jobs)

        replay = SweepJournal(journal_path).replay()
        assert replay.torn_lines == 0
        assert len(replay.completed) == len(jobs)

        # Resume without chaos: pure journal replay, bit-identical.
        calm = ExperimentEngine(workers=2, journal=journal_path)
        results = calm.run(jobs)
        assert calm.stats.journal_hits == len(jobs)
        assert calm.stats.executed == 0
        assert {k: metrics_to_payload(m) for k, m in results.items()} == reference
