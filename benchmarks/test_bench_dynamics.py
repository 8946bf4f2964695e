"""Churn benchmark: dynamics overhead vs the static scheduling core.

The cluster-dynamics subsystem adds work to the hot path twice over: the
fault schedule's events interleave with task events, and every node
outage kills/requeues tasks, mutates the capacity index and triggers an
extra scheduling pass.  This benchmark quantifies that overhead by
replaying the same Chronus workload twice — once on a static fleet, once
under ``node_churn`` (2%/h per-node failure rate, ~2h repairs) — and
reporting the wall-clock ratio plus the reliability metrics of the churn
run.

The fleet is 64 nodes / 12h, fast enough for every suite run.  Besides
the ratio, the test asserts the churn run conserves tasks and is
deterministic (two runs, identical metrics); those always assert, while
the overhead ceiling goes through :func:`_bench_common.gate`.
"""

from __future__ import annotations

import time
from typing import Dict

from _bench_common import assert_metrics_identical, gate
from repro.cluster import Cluster, ClusterSimulator, GPUModel, SimulatorConfig, reset_task_counter
from repro.dynamics import FaultInjector, get_dynamics
from repro.schedulers import ChronusScheduler
from repro.workloads import generate_trace

DYNAMICS_CONFIG: Dict[str, float] = dict(
    num_nodes=64, duration_hours=12.0, spot_scale=2.0, seed=19
)

#: Ceiling on churn wall time relative to the static run.  Dynamics add
#: events, kills and extra scheduling passes; anything beyond this factor
#: means the subsystem leaked work into the static hot path or the outage
#: handling went super-linear.
OVERHEAD_CEILING = 2.5


def _run(churn: bool):
    cfg = DYNAMICS_CONFIG
    reset_task_counter()
    cluster = Cluster.homogeneous(int(cfg["num_nodes"]), 8, GPUModel.A100)
    trace = generate_trace(
        cluster_gpus=cluster.total_gpus(),
        duration_hours=cfg["duration_hours"],
        spot_scale=cfg["spot_scale"],
        seed=int(cfg["seed"]),
    )
    dynamics = (
        FaultInjector(get_dynamics("node_churn"), seed=int(cfg["seed"])) if churn else None
    )
    sim = ClusterSimulator(cluster, ChronusScheduler(), SimulatorConfig(), dynamics=dynamics)
    tasks = trace.sorted_tasks()
    start = time.perf_counter()
    sim.submit_all(tasks)
    metrics = sim.run()
    elapsed = time.perf_counter() - start
    return metrics, elapsed, len(tasks)


def test_bench_dynamics_churn():
    static_metrics, static_time, num_tasks = _run(churn=False)
    churn_metrics, churn_time, _ = _run(churn=True)

    # Conservation under churn: every submitted task terminated.
    assert static_metrics.unfinished_tasks == 0
    assert churn_metrics.unfinished_tasks == 0
    rel = churn_metrics.reliability
    assert rel.node_failures > 0, "churn run produced no failures"
    finished = churn_metrics.hp.count + churn_metrics.spot.count
    assert finished == num_tasks

    # Determinism: replaying the same churn run is bit-identical.
    replay, _, _ = _run(churn=True)
    assert_metrics_identical(replay, churn_metrics, "dynamics-replay")

    overhead = churn_time / static_time
    print(
        f"\n[dynamics] tasks={num_tasks} static={static_time:.2f}s "
        f"churn={churn_time:.2f}s overhead={overhead:.2f}x "
        f"failures={rel.node_failures} kills={rel.tasks_killed} "
        f"lost={rel.lost_gpu_hours:.1f}GPUh goodput={rel.goodput_fraction * 100:.1f}%"
    )
    gate("dynamics", [] if overhead <= OVERHEAD_CEILING else [
        f"overhead {overhead:.2f}x above ceiling {OVERHEAD_CEILING:.1f}x"
    ])
