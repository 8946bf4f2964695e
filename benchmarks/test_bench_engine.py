"""Benchmark E-ENG: parallel experiment engine vs the serial reference path.

Runs the Table 5 medium-workload scheduler line-up once with ``workers=1``
(the serial reference) and once on a process pool, asserting bit-identical
metrics.  The wall-clock speedup is printed; on a multi-core machine the
pool should approach ``min(workers, cells)``x, so the 2x floor applies
only where the machine has the cores to show it, through
:func:`_bench_common.gate`.
"""

import os
import time

from _bench_common import gate
from repro.experiments import (
    ExperimentEngine,
    WorkloadSpec,
    comparison_specs,
    metrics_to_payload,
    sweep_jobs,
)


def test_bench_engine_parallel_matches_serial(bench_scale, bench_spot_scale):
    jobs = sweep_jobs(
        bench_scale,
        comparison_specs(include_gfs=True),
        [WorkloadSpec(spot_scale=bench_spot_scale, label="medium")],
        prefix="bench-engine",
    )

    start = time.perf_counter()
    serial = ExperimentEngine(workers=1).run(jobs)
    serial_time = time.perf_counter() - start

    workers = min(4, os.cpu_count() or 1)
    start = time.perf_counter()
    parallel = ExperimentEngine(workers=workers).run(jobs)
    parallel_time = time.perf_counter() - start

    speedup = serial_time / max(parallel_time, 1e-9)
    print()
    print(
        f"engine grid ({len(jobs)} cells): serial={serial_time:.2f}s "
        f"workers={workers} parallel={parallel_time:.2f}s speedup={speedup:.2f}x"
    )

    # Metric identity is always enforced: the pool must be invisible in the
    # results, cell by cell and field by field.
    assert set(serial) == set(parallel)
    for key in serial:
        assert metrics_to_payload(serial[key]) == metrics_to_payload(parallel[key]), key

    # Wall-clock ratio only matters where the hardware can show it.
    cores = os.cpu_count() or 1
    if cores >= 4:
        gate("engine", [] if speedup >= 2.0 else [
            f"expected >= 2x speedup with {workers} workers on {cores} cores, "
            f"measured {speedup:.2f}x"
        ])
