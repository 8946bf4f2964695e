"""Snapshot / restore / fork correctness (streaming service mode).

The service's what-if advice and session persistence are only sound if
a snapshot really captures *everything*: restore at an arbitrary mid-run
point and the continuation must be bit-identical to the uninterrupted
run — including restarts taken mid-dynamics-outage (nodes offline, kill
accounting half-accumulated) and with same-timestamp ties sitting
unprocessed in the event heap.  Forks must be perfectly isolated: a
fully-advanced fork must not move the live simulator by one bit.

``fork()`` is ``restore(snapshot())`` — the pickle round trip is the one
way a simulator is copied.  The ``copy.deepcopy`` it replaced is frozen
here as :func:`_fork_reference` and compared against it for every
scheduler family over static, chaotic and ingested-trace scenarios.

All round-trip tests run with ``REPRO_VALIDATE_AGGREGATES`` enabled, so
a restored cluster whose O(1) aggregates drifted from its node state
fails loudly inside the run, not just at the final metric compare.

The service's wire envelope (versioned + checksummed, see
:mod:`repro.service.snapshot`) is covered at the bottom: every
corruption mode must collapse into ``SnapshotError`` before unpickling.
"""

from __future__ import annotations

import copy
import enum
import hashlib
import struct
import types
import zlib
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import assert_metrics_identical, build_task
from tests.test_stepping_determinism import (
    DURATION_HOURS,
    FIXTURES,
    SCHEDULERS,
    build_sim,
)
from repro.cluster.simulator import ClusterSimulator, SimulationError
from repro.core.gde import SeasonalQuantileForecaster
from repro.obs import Recorder
from repro.obs.recorder import NULL_RECORDER
from repro.service.session import SimulationSession
from repro.service.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    decode_snapshot,
    encode_snapshot,
    snapshot_from_text,
    snapshot_to_text,
)
from repro.service.store import STORE_VERSION, SessionStore


@pytest.fixture(autouse=True)
def _validate_aggregates(monkeypatch):
    """Run every cluster in this file with aggregate self-validation on."""
    monkeypatch.setenv("REPRO_VALIDATE_AGGREGATES", "1")


def _roundtrip_continue(scheduler_kind: str, scenario: str, stop_time: float):
    """Advance to ``stop_time``, snapshot, restore, drain the restored sim."""
    sim = build_sim(scheduler_kind, scenario)
    sim.advance(until=stop_time)
    blob = sim.snapshot()
    restored = ClusterSimulator.restore(blob)
    restored.advance()
    return restored.finalize()


# ----------------------------------------------------------------------
# Round-trip == uninterrupted, at arbitrary stop points
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fraction", [0.0, 0.15, 0.5, 0.85, 1.2])
def test_snapshot_roundtrip_at_arbitrary_points(fraction):
    batch = build_sim("gfs").run()
    stop = DURATION_HOURS * 3600.0 * fraction
    continued = _roundtrip_continue("gfs", "default", stop)
    assert_metrics_identical(continued, batch, f"roundtrip@{fraction}")


@pytest.mark.parametrize("scheduler_kind", SCHEDULERS)
def test_snapshot_roundtrip_every_scheduler_family(scheduler_kind):
    """Every registry scheduler (RNGs, SQA/GDE state, PTS caches) must
    survive pickling mid-run."""
    batch = build_sim(scheduler_kind, "hetero").run()
    continued = _roundtrip_continue(scheduler_kind, "hetero", DURATION_HOURS * 1800.0)
    assert_metrics_identical(continued, batch, f"roundtrip/{scheduler_kind}")


def test_snapshot_roundtrip_mid_dynamics_outage():
    """Restore while nodes are offline and kills are half-accounted."""
    batch = build_sim("gfs", "node_churn").run()

    sim = build_sim("gfs", "node_churn")
    # Step until the fleet actually has an offline node, so the snapshot
    # catches a live outage window (not just the quiet state between).
    step = 1800.0
    while not sim.done and all(n.available for n in sim.cluster.nodes):
        sim.advance(until=sim.now + step)
    assert any(not n.available for n in sim.cluster.nodes), (
        "node_churn produced no outage to snapshot inside"
    )
    restored = ClusterSimulator.restore(sim.snapshot())
    assert any(not n.available for n in restored.cluster.nodes)
    restored.advance()
    assert_metrics_identical(restored.finalize(), batch, "mid-outage roundtrip")


def test_snapshot_roundtrip_with_heaped_same_timestamp_ties():
    """Snapshot taken while tied-timestamp events sit unprocessed."""
    def build(submit_late):
        sim = build_sim("gfs", submit=False)
        base = [
            build_task(duration=1800.0, submit_time=i * 600.0, gpus_per_pod=4.0, num_pods=2)
            for i in range(8)
        ]
        sim.submit_all(base)
        if submit_late:
            sim.submit(build_task(duration=900.0, submit_time=3600.0, gpus_per_pod=2.0,
                                  task_id="aaa-tied-id"))
        return sim

    reference = build(submit_late=True)
    batch = reference.run()

    sim = build(submit_late=False)
    sim.advance(until=3000.0)
    # The tie arrives mid-flight, then the snapshot catches it heaped
    # but unprocessed next to the equal-timestamp batch arrival.
    sim.submit(build_task(duration=900.0, submit_time=3600.0, gpus_per_pod=2.0,
                          task_id="aaa-tied-id"))
    restored = ClusterSimulator.restore(sim.snapshot())
    restored.advance()
    assert_metrics_identical(restored.finalize(), batch, "tied-heap roundtrip")


def test_double_restore_runs_are_independent_and_identical():
    sim = build_sim("fgd")
    sim.advance(until=DURATION_HOURS * 1800.0)
    blob = sim.snapshot()
    first = ClusterSimulator.restore(blob)
    second = ClusterSimulator.restore(blob)
    first.advance()
    second.advance()
    assert_metrics_identical(first.finalize(), second.finalize(), "double restore")


def test_restore_rejects_non_simulator_pickle():
    import pickle

    with pytest.raises(SimulationError):
        ClusterSimulator.restore(pickle.dumps({"not": "a simulator"}))


# ----------------------------------------------------------------------
# Fork isolation
# ----------------------------------------------------------------------
def test_fork_is_fully_isolated_from_live_simulator():
    """Draining a fork (incl. extra submissions) must not move the live
    sim: its continuation still matches the uninterrupted batch run."""
    batch = build_sim("gfs").run()

    live = build_sim("gfs")
    live.advance(until=DURATION_HOURS * 1200.0)
    pending_before = [t.task_id for t in live.pending]
    now_before = live.now

    fork = live.fork()
    fork.submit(build_task(duration=3600.0, submit_time=fork.now, gpus_per_pod=8.0,
                           task_id="whatif-probe"))
    fork.advance()
    assert fork.now >= now_before

    assert live.now == now_before
    assert [t.task_id for t in live.pending] == pending_before
    assert all(t.task_id != "whatif-probe" for t in live.all_tasks)
    live.advance()
    assert_metrics_identical(live.finalize(), batch, "live after fork drain")


def test_fork_of_restored_snapshot_matches_original_continuation():
    """fork → advance == restore → advance: both copies see one future."""
    sim = build_sim("chronus")
    sim.advance(until=DURATION_HOURS * 1800.0)
    blob = sim.snapshot()
    forked = sim.fork()
    forked.advance()
    restored = ClusterSimulator.restore(blob)
    restored.advance()
    assert_metrics_identical(forked.finalize(), restored.finalize(), "fork vs restore")


# ----------------------------------------------------------------------
# fork() == the deepcopy it replaced (old implementation frozen here)
# ----------------------------------------------------------------------
def _fork_reference(sim: ClusterSimulator) -> ClusterSimulator:
    """``ClusterSimulator.fork`` as it was before the pickle round trip."""
    return copy.deepcopy(sim)


#: values that are immutable or process-wide by design, so two simulators
#: may legitimately hold the same object
_SHAREABLE = (
    int, float, complex, str, bytes, bool, type(None), type, enum.Enum, np.generic,
    types.FunctionType, types.BuiltinFunctionType, types.MethodType, types.ModuleType,
)


def _mutable_objects(root) -> dict:
    """``id -> object`` for every mutable object pickle would copy from ``root``.

    Walks containers and ``__getstate__`` (so the simulator's recorder
    swap applies, as it does to a fork).  Tuples and frozensets are
    descended into but not reported: ``()`` is one object per process.
    """
    found, visited, stack = {}, set(), [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, _SHAREABLE) or obj is NULL_RECORDER or id(obj) in visited:
            continue
        visited.add(id(obj))
        if isinstance(obj, (tuple, frozenset)):
            stack.extend(obj)
            continue
        found[id(obj)] = obj
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, set, deque)):
            stack.extend(obj)
        elif not isinstance(obj, np.ndarray):
            stack.append(obj.__getstate__())  # None, a dict, or (dict, slots)
    return found


FORK_SCENARIOS = ("default", "node_churn", f"trace:{FIXTURES / 'philly_small.csv'}")


def _probe_task(now: float):
    return build_task(duration=2400.0, submit_time=now, gpus_per_pod=4.0, num_pods=2,
                      task_id="fork-probe")


@pytest.mark.parametrize("scenario_name", FORK_SCENARIOS, ids=["static", "node_churn", "trace"])
@pytest.mark.parametrize("scheduler_kind", SCHEDULERS)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(events=st.integers(min_value=0, max_value=300))  # the runs have 116-316 events
def test_fork_matches_frozen_deepcopy_reference(scheduler_kind, scenario_name, events):
    """At any event boundary the fork behaves as the deepcopy did, leaves
    the live simulator untouched to the byte and shares nothing with it."""
    live = build_sim(scheduler_kind, scenario_name)
    live.advance(max_events=events)
    before = live.snapshot()

    fork, reference = live.fork(), _fork_reference(live)
    shared = _mutable_objects(live).keys() & _mutable_objects(fork).keys()
    assert not shared, [type(obj).__name__ for obj in _mutable_objects(live).values()
                        if id(obj) in shared][:10]

    results = []
    for sim in (fork, reference):
        sim.submit(_probe_task(sim.now))
        sim.advance()
        results.append(sim.finalize())
    assert_metrics_identical(results[0], results[1], f"{scheduler_kind}/{scenario_name}@{events}")
    assert live.snapshot() == before


def test_fork_copies_rng_state_and_warm_slot_statistics():
    """The two pieces of scheduler state a shallow copy would alias."""
    live = build_sim("gfs-p")
    live.advance(until=DURATION_HOURS * 1800.0)
    fork = live.fork()
    # The walker the comparison test relies on does see aliasing where there is some.
    assert _mutable_objects(live).keys() & _mutable_objects(copy.copy(live)).keys()

    rng, forked_rng = live.scheduler._rng, fork.scheduler._rng
    assert forked_rng is not rng and forked_rng.getstate() == rng.getstate()
    forked_rng.random()
    assert forked_rng.getstate() != rng.getstate()

    kept = live.scheduler.gde.forecaster._slot_stats_by_org
    forked = fork.scheduler.gde.forecaster._slot_stats_by_org
    assert kept and kept.keys() == forked.keys()
    for org, stats in kept.items():
        assert forked[org] is not stats and forked[org].values is not stats.values
        for name in ("means", "stds"):
            ours, theirs = getattr(stats, name), getattr(forked[org], name)
            assert np.array_equal(ours, theirs) and not np.shares_memory(ours, theirs)


def test_fork_starts_unobserved():
    """A fork is a restored snapshot: it carries the null recorder, so a
    what-if never lands in the live session's instrumentation."""
    sim = build_sim("chronus")
    sim.obs = recorder = Recorder()
    sim.advance(until=3600.0)
    assert sim.fork().obs is NULL_RECORDER
    assert sim.obs is recorder


def _mid_hour_with_unforecast_observations(sim: ClusterSimulator) -> ClusterSimulator:
    """Stop mid-hour (slot statistics warm from the quota ticks so far) and
    leave observations that no forecast has consumed yet."""
    sim.advance(until=2.5 * 3600.0)
    return _with_unforecast_observations(sim)


def _with_unforecast_observations(sim: ClusterSimulator) -> ClusterSimulator:
    gde = sim.scheduler.gde
    first, second = sorted(gde.organizations())[:2]
    size = len(gde.forecaster.history[first])
    gde.observe(first, size - 200, 321.0)  # overwrite of an old hour
    gde.observe(second, size + 2, 123.0)  # append past a two-hour gap
    return sim


def test_gfs_forecaster_statistics_survive_snapshot_and_fork():
    """The forecaster's kept slot statistics are ordinary simulator state:
    a snapshot or fork taken with some of them stale continues exactly as
    the uninterrupted run does, and without rebuilding them."""
    uninterrupted = _mid_hour_with_unforecast_observations(build_sim("gfs"))
    uninterrupted.advance()
    expected = uninterrupted.finalize()

    live = _mid_hour_with_unforecast_observations(build_sim("gfs"))
    kept = live.scheduler.gde.forecaster._slot_stats_by_org
    assert kept and any(stats.dirty for stats in kept.values())
    assert any(stats.size < len(stats.values) for stats in kept.values())

    blob = live.snapshot()
    copies = {"fork": live.fork(), "restored": ClusterSimulator.restore(blob)}
    for label, copy in copies.items():
        forecaster = copy.scheduler.gde.forecaster
        assert forecaster is not live.scheduler.gde.forecaster
        for org, stats in forecaster._slot_stats_by_org.items():
            # Still attached to the copy's own history, stale slots included.
            assert stats.values is forecaster.history[org], label
            assert stats.dirty == kept[org].dirty and stats.size == kept[org].size, label

    probe = ClusterSimulator.restore(blob).scheduler.gde.forecaster
    fresh = SeasonalQuantileForecaster().fit(probe.history)
    hour = live.scheduler._hour_index(live.now)
    for org in probe.organizations():
        for got, want in zip(probe.predict(org, hour, 4), fresh.predict(org, hour, 4)):
            assert np.array_equal(got, want), org

    for label, copy in copies.items():
        copy.advance()
        assert_metrics_identical(copy.finalize(), expected, f"{label} continuation")
    live.advance()
    assert_metrics_identical(live.finalize(), expected, "live after snapshot and fork")


def test_gfs_kept_peak_demand_survives_snapshot_and_fork(monkeypatch):
    """The GDE's kept ``peak_demand`` answer is ordinary simulator state
    too: a fork or restored snapshot taken mid-hour forecasts nothing until
    its next observation, an observation invalidates the answer in every
    copy alike, and all of them continue as the uninterrupted run does."""
    forecasts = []
    predict = SeasonalQuantileForecaster.predict
    monkeypatch.setattr(
        SeasonalQuantileForecaster,
        "predict",
        lambda self, *args: forecasts.append(self) or predict(self, *args),
    )

    def forecasts_while_advancing(sim, until):
        forecaster, updates = sim.scheduler.gde.forecaster, sim.scheduler._last_quota_update
        before = sum(f is forecaster for f in forecasts)
        sim.advance(until=until)
        assert sim.scheduler._last_quota_update > updates, "no quota update in the interval"
        return sum(f is forecaster for f in forecasts) - before

    mid_hour, later_that_hour, next_hour = 2.5 * 3600.0, 2.75 * 3600.0, 3.25 * 3600.0
    uninterrupted = build_sim("gfs")
    uninterrupted.advance(until=later_that_hour)
    _with_unforecast_observations(uninterrupted).advance()
    expected = uninterrupted.finalize()

    live = build_sim("gfs")
    live.advance(until=mid_hour)
    orgs = len(live.scheduler.gde.organizations())
    sims = {"live": live, "fork": live.fork(), "restored": ClusterSimulator.restore(live.snapshot())}
    for label, sim in sims.items():
        gde = sim.scheduler.gde
        # The validity check holds the copy's own lists, not the live ones.
        assert gde._peaks and gde._peaks_basis[0] is gde.forecaster, label
        assert all(a is b for a, b in zip(gde._peaks_series, gde.forecaster.history.values())), label
        assert forecasts_while_advancing(sim, later_that_hour) == 0, label
        # Same hour and same lists; the overwrite leaves even the lengths alone.
        _with_unforecast_observations(sim)
    for label, sim in sims.items():
        assert forecasts_while_advancing(sim, later_that_hour + 600.0) == orgs, label
        assert forecasts_while_advancing(sim, later_that_hour + 900.0) == 0, label
        assert forecasts_while_advancing(sim, next_hour) == orgs, label
        sim.advance()
        assert_metrics_identical(sim.finalize(), expected, f"{label} continuation")


# ----------------------------------------------------------------------
# The service wire envelope
# ----------------------------------------------------------------------
def test_envelope_roundtrip_preserves_payload():
    raw = b"arbitrary snapshot payload" * 100
    assert decode_snapshot(encode_snapshot(raw)) == raw


def test_envelope_base64_roundtrip():
    raw = b"\x00\xffbinary"
    envelope = encode_snapshot(raw)
    assert snapshot_from_text(snapshot_to_text(envelope)) == envelope


def _level6_envelope(raw: bytes) -> bytes:
    """The envelope at zlib level 6, as earlier writers compressed it, laid
    out by hand so the wire format is pinned here: the level is not part of it."""
    payload = zlib.compress(raw, 6)
    header = struct.pack(">8sH32s", b"REPROSNP", 3, hashlib.sha256(payload).digest())
    return header + payload


def test_level6_envelope_from_earlier_builds_still_restores():
    sim = build_sim("gfs")
    sim.advance(until=DURATION_HOURS * 1800.0)
    raw = sim.snapshot()
    old, new = _level6_envelope(raw), encode_snapshot(raw)
    assert SNAPSHOT_VERSION == 3 and old[:10] == new[:10] and old != new  # only the level differs
    assert decode_snapshot(old) == decode_snapshot(new) == raw
    restored = ClusterSimulator.restore(decode_snapshot(old))
    restored.advance()
    sim.advance()
    assert_metrics_identical(restored.finalize(), sim.finalize(), "level-6 envelope")


def test_store_file_holding_a_level6_envelope_recovers_and_continues(tmp_path):
    """A state directory whose envelopes were written at zlib level 6 boots."""
    params = {"scheduler": "gfs", "num_nodes": 8, "duration_hours": 4.0,
              "spot_scale": 2.0, "seed": 5, "preload": True}
    witness = SimulationSession(params, session_id="session-0001")
    witness.advance(until=5400.0)
    store = SessionStore(tmp_path)
    store.save("session-0001", witness.params, _level6_envelope(witness.sim.snapshot()))

    assert STORE_VERSION == 1
    report = store.recover()
    assert not report.quarantined and len(report.recovered) == 1
    stored = report.recovered[0]
    revived = SimulationSession.from_stored(stored.params, stored.session_id, stored.snapshot)
    for session in (witness, revived):
        session.advance()
    assert_metrics_identical(revived.sim.finalize(), witness.sim.finalize(), "recovered session")


@pytest.mark.parametrize("write", [encode_snapshot, _level6_envelope], ids=["level1", "level6"])
@pytest.mark.parametrize(
    "mutilate, match",
    [
        (lambda e: e[: len(e) // 2], "checksum|short"),
        (lambda e: e[:10], "too short"),
        (lambda e: b"NOTSNAPS" + e[8:], "bad magic"),
        (lambda e: e[:8] + bytes([0, SNAPSHOT_VERSION + 1]) + e[10:], "version"),
        # snapshot format 1 pickled the scheduler graph of earlier builds
        (lambda e: e[:8] + bytes([0, 1]) + e[10:], "version 1 is not supported"),
        # format 2 pickled a cluster that kept its per-model capacity twice
        (lambda e: e[:8] + bytes([0, 2]) + e[10:], "version 2 is not supported"),
        (lambda e: e[:-3] + b"xyz", "checksum"),
        (lambda e: e[:42] + bytes([e[42] ^ 0xFF]) + e[43:], "checksum"),
    ],
    ids=["truncated-half", "truncated-header", "bad-magic", "future-version", "version-1",
         "version-2", "tail-corruption", "payload-bitflip"],
)
def test_envelope_rejects_every_corruption_mode(mutilate, match, write):
    envelope = write(b"payload bytes that will be damaged in transit")
    with pytest.raises(SnapshotError, match=match):
        decode_snapshot(mutilate(envelope))


def test_envelope_rejects_bad_base64():
    with pytest.raises(SnapshotError, match="base64"):
        snapshot_from_text("this is !!! not base64")
