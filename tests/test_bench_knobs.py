"""The benchmark suite keeps one perf record and two environment knobs.

``BENCHMARK.json`` (run by ``benchmarks/perf/run.py``) is the repo's only
perf record; the ``benchmarks/test_bench_*.py`` files each run one size
and send every wall-clock bound through ``_bench_common.gate``.  This
pins that shape: a new ``REPRO_BENCH_*`` knob, a ``BENCH_*.json`` record
at the root or a writer for one has to come back through this test.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``REPRO_BENCH_STRICT=0`` is what CI tier-1 sets on noisy runners;
#: ``REPRO_BENCH_PLACEMENT_TOLERANCE`` is tightened to 0.05 by obs-smoke
KNOBS = {"REPRO_BENCH_STRICT", "REPRO_BENCH_PLACEMENT_TOLERANCE"}


def _scanned_files():
    return [
        *sorted((ROOT / "benchmarks").glob("*.py")),
        ROOT / "Makefile",
        *sorted((ROOT / ".github" / "workflows").glob("*.yml")),
    ]


def test_benchmark_knobs_are_strict_and_placement_tolerance():
    found = {
        knob
        for path in _scanned_files()
        for knob in re.findall(r"REPRO_BENCH_[A-Z][A-Z_]*", path.read_text())
    }
    assert found == KNOBS


def test_benchmark_json_is_the_only_perf_record():
    assert sorted(p.name for p in ROOT.glob("BENCH_*.json")) == []
    assert not re.search(r"^bench-record:", (ROOT / "Makefile").read_text(), re.M)
    writers = [p.name for p in _scanned_files() if "write_bench_record" in p.read_text()]
    assert writers == []
