"""Estimators, correctness bookkeeping and provenance shared by the workloads.

Estimator
---------
Each run repeats one *fixed* piece of work in one process until the
``--seconds`` budget is used (never fewer than ``min_reps`` times).  The
work is cut into deterministic segments and the host-time figure is the
**segment floor**: the sum over segments of the fastest observation of
that segment across repetitions.  A background hiccup spoils one
segment of one repetition, not the run.  On the shared 2-core VM this
was written on, the fastest time of a fixed CPU-bound kernel stays
within 3% over minutes while its median swings by 50% from one
5-second window to the next; slow phases are mixed with fast moments,
so the floor converges once each segment has been seen about eight
times (measured: the floor of R consecutive repetitions of one replay
ranges over 20% at R = 3, 6% at R = 5, 2% at R = 8).  Segments are
therefore kept short - tens of milliseconds - and the frozen workload
sizes small enough for eight or more repetitions per run.

A *step* (one simulated hour, one replicate of the sweep grid, one
client iteration) is a group of consecutive segments; the traced run
reports the mean over steps of each step's floor as the per-layer
``bench.step_mean_ms``.  It is not an end-to-end metric because across
seeds it spreads 0.11-0.13 on the sweep, whose cost follows the tasks
the seed draws, not its steps.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster.metrics import percentile
from repro.experiments.artifacts import content_key, metrics_to_payload

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
#: everything a run writes (temp state dirs, trace files) lands here
OUT_DIR = PERF_DIR / "out"

#: default workload seed (the recorded HEAD numbers use it)
DEFAULT_SEED = 11


def load_catalog() -> Dict[str, object]:
    """``BENCHMARK.json``: the single list of metric names, units and bounds."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
def repeat(one_rep: Callable[[int], object], seconds: float, min_reps: int) -> List[object]:
    """Run ``one_rep(i)`` until the time budget is used; at least ``min_reps``.

    The garbage collector stays on (a real run pays for it) but is
    emptied before each repetition so no repetition inherits another's
    debt.  A further repetition starts only if the mean so far says it
    fits the budget.
    """
    results: List[object] = []
    started = perf_counter()
    while True:
        gc.collect()
        results.append(one_rep(len(results)))
        elapsed = perf_counter() - started
        if len(results) >= min_reps and elapsed + elapsed / len(results) > seconds:
            return results


def segment_floors(reps: Sequence[Sequence[float]]) -> List[float]:
    """The fastest observation of every segment across repetitions."""
    lengths = {len(rep) for rep in reps}
    if len(lengths) != 1:
        raise ValueError(f"repetitions disagree on their segment count: {sorted(lengths)}")
    return [min(column) for column in zip(*reps)]


def step_floors(floors: Sequence[float], step_of: Sequence[int]) -> List[float]:
    """Segment floors summed per step; ``step_of[i] < 0`` is outside every step."""
    steps: Dict[int, float] = {}
    for floor, step in zip(floors, step_of):
        if step >= 0:
            steps[step] = steps.get(step, 0.0) + floor
    return [steps[step] for step in sorted(steps)]


def p90_or_zero(values: Sequence[float]) -> float:
    """p90, reported only when at least ten samples lie beyond it."""
    return percentile(values, 90.0) if len(values) >= 100 else 0.0


# ----------------------------------------------------------------------
# Correctness bookkeeping
# ----------------------------------------------------------------------
def metrics_digest(metrics) -> str:
    """sha256 of the canonical lossless payload of a ``SimulationMetrics``.

    The cache's own content key, with the version salt pinned so that a
    cache-format bump does not change the digests perf PRs quote.
    """
    return content_key(metrics_to_payload(metrics), version=0)


@dataclass
class Checks:
    """Operations attempted and failed, with the reason of each failure."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        self.notes.append(note)

    def expect(self, condition: bool, note: str) -> None:
        if not condition:
            self.fail(note)

    def conserved(self, metrics, submitted: int, where: str) -> None:
        """Every submitted task finished and is counted exactly once."""
        self.expect(metrics.unfinished_tasks == 0, f"{where}: unfinished tasks")
        self.expect(
            metrics.hp.count + metrics.spot.count == submitted,
            f"{where}: hp+spot {metrics.hp.count + metrics.spot.count} != submitted {submitted}",
        )


@dataclass
class WorkloadResult:
    """What one workload run hands back to the command-line front end."""

    checks: Checks
    #: metric name -> value; end-to-end names in a plain run, per-layer
    #: names in a traced run (names the workload leaves out report 0)
    metrics: Dict[str, float]
    #: digests a perf change quotes as "digest unchanged"
    digests: Dict[str, str]
    #: sizes and repetition counts, for the README's baseline table
    info: Dict[str, object]
    trace: Optional[Dict[str, object]] = None


@dataclass
class Rep:
    """One repetition of a workload's fixed work."""

    #: everything before the first simulated event (or the first request)
    build_s: float
    #: wall time of each deterministic segment, in execution order
    segments: List[float]
    #: the step each segment belongs to (-1: set-up or tear-down)
    step_of: List[int]
    #: simulated tasks the repetition retired
    tasks: int
    #: digest of the simulated results, equal across repetitions
    digest: str
    #: the import probe taken after this repetition, if one was
    import_s: Optional[float] = None
    #: per-repetition span aggregates (traced variant only)
    trace: Optional[object] = None
    #: per-repetition recorder totals (recorder and traced variants)
    recorder: Optional[Dict[str, float]] = None
    #: whatever else the workload needs to carry out of the repetition
    extra: Dict[str, object] = field(default_factory=dict)


def floor_s(reps: Sequence[Rep]) -> float:
    """The segment floor of a set of repetitions."""
    return sum(segment_floors([rep.segments for rep in reps]))


# ----------------------------------------------------------------------
# Set-up time and memory
# ----------------------------------------------------------------------
IMPORT_PROBE = (
    "import repro, repro.experiments.engine, repro.service, repro.obs, repro.runtime"
)
IMPORT_PROBES = 8


def import_probe_s() -> float:
    """Wall time of one fresh interpreter importing the package.

    Measured in a child process, which is waited for, so it can be
    repeated within one run.  The probes of a run are spread over its
    first repetitions (see ``perf_layers.run_variants``) and the fastest
    is reported, for the reason every other host time here is a floor:
    a slow phase of this box lasts several seconds, so probes taken back
    to back share it, and their median drifted 13% between two sets of
    runs of the same code where the fastest moved by a few percent.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    started = perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True)
    return perf_counter() - started


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(reps: Sequence[Rep]) -> Dict[str, float]:
    """The end-to-end metrics, which every workload reports.

    Set-up time is what stands between a cold interpreter and the first
    simulated event: importing the package (fastest of the run's import
    probes) plus the workload's own build (fastest repetition).
    """
    return {
        "setup_s": min(rep.import_s for rep in reps if rep.import_s is not None)
        + min(rep.build_s for rep in reps),
        "sim_tasks_per_s": reps[0].tasks / floor_s(reps),
        "peak_rss_mb": peak_rss_mb(),
    }


def step_mean_ms(reps: Sequence[Rep]) -> float:
    """Mean over steps of the step's floor (the per-layer ``bench.step_mean_ms``)."""
    floors = segment_floors([rep.segments for rep in reps])
    return statistics.fmean(step_floors(floors, reps[0].step_of)) * 1000.0


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (``unknown`` off Linux)."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    best, fstype = "", "unknown"
    target = str(path.resolve())
    for line in mounts:
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1]
        if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
            best, fstype = mount, parts[2]
    return fstype


def loadavg_1min() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


def env_block(load_start: float) -> Dict[str, object]:
    """Where and under what load the numbers were taken."""
    import numpy

    nproc = os.cpu_count() or 1
    load_end = loadavg_1min()
    block = {
        "nproc": nproc,
        "loadavg_1min_start": round(load_start, 2),
        "loadavg_1min_end": round(load_end, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "state_dir_filesystem": _filesystem_of(OUT_DIR if OUT_DIR.exists() else PERF_DIR),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", ""),
    }
    if max(load_start, load_end) > nproc:
        block["warning"] = (
            f"1-min load average {max(load_start, load_end):.2f} exceeds nproc {nproc}: "
            "host-time metrics of this run are suspect"
        )
    return block
