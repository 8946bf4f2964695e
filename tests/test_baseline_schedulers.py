"""Tests for the four baseline schedulers and the scheduler registry."""

import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Cluster,
    GPUModel,
    PodPlacement,
    SchedulingDecision,
    TaskType,
    run_simulation,
)
from repro.schedulers import (
    ChronusScheduler,
    FGDScheduler,
    LyraScheduler,
    YarnCSScheduler,
    available_schedulers,
    create_scheduler,
    fragmentation_after,
)
from repro.schedulers.fgd import fgd_score
from repro.schedulers.lyra import _hp_affinity_score
from repro.schedulers.placement import (
    NodeView,
    PlacementContext,
    gpus_held_on_node,
    spot_tasks_on_node,
)
from repro.schedulers.yarn_cs import best_fit_score
from tests.conftest import build_task
from tests.test_placement import (
    assert_base_views_intact,
    frozen_find_placement,
    frozen_virtually_preempt_task,
)
from tests.test_pts import NOW, POD_SIZES, apply_cluster_ops, cluster_ops


@pytest.fixture
def cluster():
    return Cluster.homogeneous(4, 8, GPUModel.A100)


def occupy(cluster, task, node_index=0):
    node = cluster.nodes[node_index]
    cluster.place_task(task, [PodPlacement(node_id=node.node_id, gpu_indices=())] * task.num_pods)
    task.run_logs.append(__import__("repro.cluster.task", fromlist=["RunLog"]).RunLog(start=0.0))
    return task


class TestYarnCS:
    def test_places_when_capacity_available(self, cluster):
        decision = YarnCSScheduler().try_schedule(build_task(TaskType.HP, gpus_per_pod=8.0), cluster, 0.0)
        assert decision is not None
        assert not decision.requires_preemption

    def test_hp_preempts_spot_when_full(self, cluster):
        scheduler = YarnCSScheduler()
        for i in range(4):
            occupy(cluster, build_task(TaskType.SPOT, gpus_per_pod=8.0), node_index=i)
        decision = scheduler.try_schedule(build_task(TaskType.HP, gpus_per_pod=8.0), cluster, 100.0)
        assert decision is not None
        assert decision.requires_preemption
        assert len(decision.preempted_task_ids) >= 1

    def test_spot_never_preempts(self, cluster):
        scheduler = YarnCSScheduler()
        for i in range(4):
            occupy(cluster, build_task(TaskType.HP, gpus_per_pod=8.0), node_index=i)
        decision = scheduler.try_schedule(build_task(TaskType.SPOT, gpus_per_pod=1.0), cluster, 0.0)
        assert decision is None

    def test_fcfs_blocking_for_spot_only(self):
        scheduler = YarnCSScheduler()
        assert scheduler.blocks_on_failure(build_task(TaskType.SPOT))
        assert not scheduler.blocks_on_failure(build_task(TaskType.HP))

    def test_queue_sorted_fcfs(self):
        scheduler = YarnCSScheduler()
        late = build_task(TaskType.HP, submit_time=100.0)
        early = build_task(TaskType.SPOT, submit_time=10.0)
        assert scheduler.sort_queue([late, early], 0.0)[0] is early


class TestChronus:
    def test_lease_alignment_delay(self, cluster):
        scheduler = ChronusScheduler(hp_lease=1200.0, spot_lease=300.0)
        decision = scheduler.try_schedule(build_task(TaskType.HP, gpus_per_pod=1.0), cluster, 100.0)
        assert decision is not None
        assert decision.start_delay == pytest.approx(1100.0)

    def test_no_delay_exactly_on_boundary(self, cluster):
        scheduler = ChronusScheduler(hp_lease=1200.0)
        decision = scheduler.try_schedule(build_task(TaskType.HP, gpus_per_pod=1.0), cluster, 2400.0)
        assert decision.start_delay == pytest.approx(0.0)

    def test_never_preempts(self, cluster):
        scheduler = ChronusScheduler()
        for i in range(4):
            occupy(cluster, build_task(TaskType.SPOT, gpus_per_pod=8.0), node_index=i)
        decision = scheduler.try_schedule(build_task(TaskType.HP, gpus_per_pod=8.0), cluster, 400.0)
        assert decision is None


class TestLyra:
    def test_spot_only_on_hp_free_nodes(self, cluster):
        scheduler = LyraScheduler(capacity_reserve=0.0)
        occupy(cluster, build_task(TaskType.HP, gpus_per_pod=4.0), node_index=0)
        decision = scheduler.try_schedule(build_task(TaskType.SPOT, gpus_per_pod=2.0), cluster, 0.0)
        assert decision is not None
        assert decision.placements[0].node_id != cluster.nodes[0].node_id

    def test_capacity_reserve_blocks_spot(self, cluster):
        scheduler = LyraScheduler(capacity_reserve=1.0)  # reserve the whole cluster
        decision = scheduler.try_schedule(build_task(TaskType.SPOT, gpus_per_pod=1.0), cluster, 0.0)
        assert decision is None

    def test_hp_reclaims_loaned_nodes(self, cluster):
        scheduler = LyraScheduler(capacity_reserve=0.0)
        for i in range(4):
            occupy(cluster, build_task(TaskType.SPOT, gpus_per_pod=8.0), node_index=i)
        decision = scheduler.try_schedule(build_task(TaskType.HP, gpus_per_pod=8.0), cluster, 50.0)
        assert decision is not None
        assert decision.requires_preemption


class TestFGD:
    def test_fragmentation_measure(self, cluster):
        view = NodeView.from_node(cluster.nodes[0])
        # Placing a 3-GPU pod on an empty 8-GPU node leaves 5 idle; one more
        # 3-GPU pod would fit, leaving a 2-GPU fragment.
        assert fragmentation_after(view, 3.0) == pytest.approx(2.0)
        assert fragmentation_after(view, 8.0) == pytest.approx(0.0)

    def test_prefers_tight_fit(self, cluster):
        # Node 2 has exactly 3 idle GPUs; a 3-GPU pod fits with zero fragment
        # there, while an empty node would be left with a 2-GPU fragment.
        cluster.nodes[2].allocate_pod(build_task(TaskType.HP, gpus_per_pod=5.0))
        decision = FGDScheduler().try_schedule(build_task(TaskType.HP, gpus_per_pod=3.0), cluster, 0.0)
        assert decision.placements[0].node_id == cluster.nodes[2].node_id

    def test_preempts_when_needed(self, cluster):
        scheduler = FGDScheduler()
        for i in range(4):
            occupy(cluster, build_task(TaskType.SPOT, gpus_per_pod=8.0), node_index=i)
        decision = scheduler.try_schedule(build_task(TaskType.HP, gpus_per_pod=8.0), cluster, 10.0)
        assert decision is not None
        assert decision.requires_preemption


class TestRegistry:
    def test_all_schedulers_available(self):
        names = available_schedulers()
        for expected in ("yarn-cs", "chronus", "lyra", "fgd", "gfs", "gfs-e", "gfs-sp"):
            assert expected in names

    def test_create_by_name(self):
        assert create_scheduler("Lyra").name == "Lyra"
        assert create_scheduler("GFS").name == "GFS"
        assert create_scheduler("gfs-p").name == "GFS-P"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            create_scheduler("slurm")

    def test_pts_is_the_class_gfs_extends(self):
        from repro.core.gfs import GFSScheduler
        from repro.core.pts import PreemptiveTaskScheduler
        from repro.schedulers.registry import display_name

        pts = create_scheduler("pts")
        assert type(pts) is PreemptiveTaskScheduler and pts.name == display_name("pts") == "PTS"
        assert issubclass(GFSScheduler, PreemptiveTaskScheduler)
        assert isinstance(create_scheduler("gfs-sp"), PreemptiveTaskScheduler)


class TestBaselineEndToEnd:
    @pytest.mark.parametrize("scheduler_cls", [YarnCSScheduler, ChronusScheduler, LyraScheduler, FGDScheduler])
    def test_small_simulation_completes(self, scheduler_cls, tiny_trace):
        cluster = Cluster.homogeneous(16, 8, GPUModel.A100)
        metrics = run_simulation(cluster, scheduler_cls(), tiny_trace.sorted_tasks()[:120])
        assert metrics.unfinished_tasks == 0
        assert metrics.hp.count > 0


# ----------------------------------------------------------------------
# One eviction sweep == the three per-scheduler sweeps it replaced, frozen
# here verbatim from the parent commit (their ``ctx.clone_views`` and
# index-free ``find_placement(..., views=views)`` spelled out with the
# frozen forms of tests/test_placement.py)
# ----------------------------------------------------------------------
def frozen_clone_views(ctx, nodes):
    return {n.node_id: ctx.base_view(n).clone() for n in nodes}


def frozen_yarn_preemptive_schedule(task, cluster, now, ctx):
    if ctx.infeasible(task, "yarn-preempt", track_spot=True):
        return None
    candidates = ctx.preemption_candidates(task)
    views = frozen_clone_views(ctx, candidates)
    victims = []
    spot_nodes = sorted(ctx.spot_nodes(task), key=lambda n: -n.spot_gpus)
    for node in spot_nodes:
        spot_candidates = sorted(
            spot_tasks_on_node(node, cluster),
            key=lambda t: -(t.run_logs[-1].start if t.run_logs else 0.0),
        )
        for victim in spot_candidates:
            if victim.task_id in victims:
                continue
            frozen_virtually_preempt_task(views, victim)
            victims.append(victim.task_id)
            placements = frozen_find_placement(task, candidates, score=best_fit_score, views=views)
            if placements is not None:
                used_nodes = {p.node_id for p in placements}
                needed = [
                    vid
                    for vid in victims
                    if any(
                        gpus_held_on_node(cluster.running_tasks[vid], cluster.node(nid)) > 0
                        for nid in used_nodes
                    )
                ]
                return SchedulingDecision(placements=placements, preempted_task_ids=needed or victims)
    ctx.note_failure(task, "yarn-preempt", track_spot=True)
    return None


def frozen_fgd_preempt_for_fragmentation(task, cluster, now, ctx):
    if ctx.infeasible(task, "fgd-preempt", track_spot=True):
        return None
    candidates = ctx.preemption_candidates(task)
    views = frozen_clone_views(ctx, candidates)

    def node_rank(node):
        reclaimable = node.spot_gpus + node.free_capacity
        overshoot = reclaimable - task.gpus_per_pod
        return overshoot if overshoot >= 0 else float("inf")

    victims = []
    for node in sorted(ctx.spot_nodes(task), key=node_rank):
        for spot in spot_tasks_on_node(node, cluster):
            if spot.task_id in victims:
                continue
            frozen_virtually_preempt_task(views, spot)
            victims.append(spot.task_id)
            placements = frozen_find_placement(task, candidates, score=fgd_score, views=views)
            if placements is not None:
                used_nodes = {p.node_id for p in placements}
                needed = []
                for vid in victims:
                    victim = cluster.running_tasks[vid]
                    if any(p.node_id in used_nodes for p in victim.placements):
                        needed.append(vid)
                return SchedulingDecision(
                    placements=placements, preempted_task_ids=needed or victims
                )
    ctx.note_failure(task, "fgd-preempt", track_spot=True)
    return None


def frozen_lyra_reclaim(task, cluster, now, ctx):
    if ctx.infeasible(task, "lyra-reclaim", track_spot=True):
        return None
    candidates = ctx.preemption_candidates(task)
    views = frozen_clone_views(ctx, candidates)
    victims = []
    reclaim_order = sorted(
        ctx.spot_nodes(task),
        key=lambda n: (len(spot_tasks_on_node(n, cluster)), -n.spot_gpus),
    )
    for node in reclaim_order:
        for spot in spot_tasks_on_node(node, cluster):
            if spot.task_id in victims:
                continue
            frozen_virtually_preempt_task(views, spot)
            victims.append(spot.task_id)
        placements = frozen_find_placement(task, candidates, score=_hp_affinity_score, views=views)
        if placements is not None:
            used_nodes = {p.node_id for p in placements}
            needed = []
            for vid in victims:
                victim = cluster.running_tasks[vid]
                if any(p.node_id in used_nodes for p in victim.placements):
                    needed.append(vid)
            return SchedulingDecision(placements=placements, preempted_task_ids=needed or victims)
    ctx.note_failure(task, "lyra-reclaim", track_spot=True)
    return None


#: scheduler class -> (score, non-preemptive pool, frozen sweep)
FROZEN_FAMILIES = {
    YarnCSScheduler: (best_fit_score, "yarn-np", frozen_yarn_preemptive_schedule),
    FGDScheduler: (fgd_score, "fgd-np", frozen_fgd_preempt_for_fragmentation),
    LyraScheduler: (_hp_affinity_score, "lyra-hp", frozen_lyra_reclaim),
}


def frozen_try_schedule(scheduler_cls, task, cluster, now, ctx):
    """The parent's HP path: non-preemptive first, then its own sweep."""
    score, pool, sweep = FROZEN_FAMILIES[scheduler_cls]
    placements = ctx.find_placement(task, score=score, pool=pool)
    if placements is not None:
        return SchedulingDecision(placements=placements)
    return sweep(task, cluster, now, ctx)


def compare_families(cluster, shapes):
    """Every family, every shape: same decision, same memo, bases intact.

    Returns the ``(scheduler class, task, decision)`` triples.  Each side
    keeps its own context across the shapes, so the failed-shape memo is
    compared too.
    """
    outcomes = []
    for scheduler_cls in FROZEN_FAMILIES:
        scheduler = scheduler_cls()
        ctx, frozen_ctx = PlacementContext(cluster), PlacementContext(cluster)
        for num_pods, size in shapes:
            task = build_task(TaskType.HP, num_pods=num_pods, gpus_per_pod=size)
            expected = frozen_try_schedule(scheduler_cls, task, cluster, NOW, frozen_ctx)
            decision = scheduler.try_schedule(task, cluster, NOW, ctx=ctx)
            if expected is None:
                assert decision is None
            else:
                assert decision.placements == expected.placements
                assert decision.preempted_task_ids == expected.preempted_task_ids
            assert ctx._failed == frozen_ctx._failed
            assert ctx.pass_memo_hits == frozen_ctx.pass_memo_hits
            assert_base_views_intact(ctx)
            outcomes.append((scheduler_cls, task, decision))
    return outcomes


hp_shapes = st.lists(
    st.tuples(st.integers(1, 5), st.sampled_from(POD_SIZES)), min_size=1, max_size=6
)


@settings(max_examples=120, deadline=None)
@given(num_nodes=st.integers(1, 6), ops=cluster_ops, packed=st.booleans(), shapes=hp_shapes)
def test_one_eviction_sweep_equals_the_three_frozen_sweeps(num_nodes, ops, packed, shapes):
    cluster = Cluster.homogeneous(num_nodes, 8, GPUModel.A100)
    apply_cluster_ops(cluster, ops, packed)
    compare_families(cluster, shapes)


def test_sweep_scenarios_cover_gangs_fractions_subsets_and_failures():
    """The random clusters must reach the cases the comparison is for."""
    seen = {
        cls: dict(evicting=0, failed=0, multi_node_victim=0, subset=0, fractional=0)
        for cls in FROZEN_FAMILIES
    }
    for seed in range(60):
        rng = random.Random(seed)
        cluster = Cluster.homogeneous(rng.randint(2, 6), 8, GPUModel.A100)
        ops = [
            ("run", rng.randrange(6), rng.randint(1, 3), rng.choice(POD_SIZES[:6]),
             rng.random() < 0.7, rng.uniform(0.0, 7000.0), 1800.0)
            for _ in range(rng.randint(0, 25))
        ]
        apply_cluster_ops(cluster, ops, packed=True)
        spot_before = len(cluster.running_spot_tasks())
        shapes = [(rng.randint(1, 5), rng.choice(POD_SIZES)) for _ in range(4)]
        shapes.append(shapes[-1])  # asked twice: a memo hit on both sides if it failed
        for cls, task, decision in compare_families(cluster, shapes):
            tally = seen[cls]
            if decision is None:
                tally["failed"] += 1
                continue
            victims = [cluster.running_tasks[vid] for vid in decision.preempted_task_ids]
            tally["evicting"] += bool(victims)
            tally["multi_node_victim"] += any(
                len({p.node_id for p in v.placements}) > 1 for v in victims
            )
            tally["subset"] += 0 < len(victims) < spot_before
            tally["fractional"] += bool(victims) and task.gpus_per_pod < 1.0
        assert len(cluster.running_spot_tasks()) == spot_before  # searches only
    for cls, tally in seen.items():
        assert all(tally.values()), (cls.__name__, tally)


def test_differential_tool_against_its_own_tree(capsys):
    """``tools/baseline_differential.py`` A/A on a small grid: every cell
    equal, every family evicting (the 75-cell run takes a parent checkout)."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "baseline_differential", root / "tools" / "baseline_differential.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    status = tool.main(["--parent", str(root), "--nodes", "8", "--hours", "6", "--seeds", "1"])
    out = capsys.readouterr().out
    assert status == 0, out
    assert "25 cells, 0 differ" in out
