"""Tests for the experiments CLI and miscellaneous package plumbing."""

import ast
import hashlib
import json
import re
from pathlib import Path

import pytest

import repro
from repro.experiments import cli
from repro.experiments.config import ExperimentScale


class TestPackage:
    def test_version_and_top_level_exports(self):
        assert repro.__version__
        assert hasattr(repro, "GFSScheduler")
        assert hasattr(repro, "run_simulation")
        assert hasattr(repro, "generate_trace")

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.core.gde
        import repro.core.pts
        import repro.core.sqa
        import repro.experiments
        import repro.optim
        import repro.schedulers
        import repro.workloads

    def test_no_ci_programs_in_package(self):
        # A subsystem's end-to-end gate is a pytest selection under tests/
        # (see the Makefile's *-smoke targets), not a module users install.
        package = Path(repro.__file__).parent
        assert [str(p.relative_to(package)) for p in package.rglob("*smoke*.py")] == []

    def test_one_construction_path(self):
        # A run is a SimulationJob and experiments.engine.build_simulation is
        # the one place that turns it into a simulator: nothing else under
        # src/ wires ClusterSimulator(...) / run_simulation(...) by hand
        # (docstring examples are not calls), and the second scheduler name
        # table and the CLI's engine global stay gone.
        def calls(node, scope="<module>"):
            """(innermost enclosing function, callee name) of every call."""
            for child in ast.iter_child_nodes(node):
                is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                if isinstance(child, ast.Call):
                    yield scope, getattr(child.func, "id", getattr(child.func, "attr", None))
                yield from calls(child, child.name if is_def else scope)

        package = Path(repro.__file__).parent
        builders = set()
        for path in package.rglob("*.py"):
            module = str(path.relative_to(package))
            if module == "cluster/simulator.py":
                continue
            source = path.read_text()
            for banned in ("_BASELINE_CLASSES", "_DISPLAY_NAMES", "_ACTIVE_ENGINE"):
                assert banned not in source, f"{banned} is back in {module}"
            builders |= {
                (module, scope)
                for scope, callee in calls(ast.parse(source))
                if callee in ("ClusterSimulator", "run_simulation")
            }
        assert builders <= {
            ("experiments/engine.py", "build_simulation"),
            ("experiments/engine.py", "execute_job"),
        }, builders
        assert ("experiments/engine.py", "build_simulation") in builders

    def test_one_placement_search(self):
        # Every placement search goes through PlacementContext: no
        # index-free module-level twin, no clone-everything helper, and the
        # one loop over a node's spot tasks per search family (the eviction
        # sweep in placement.py, PTS's per-node plan) — YARN-CS, FGD and
        # Lyra pass keys to the sweep instead of iterating victims.
        package = Path(repro.__file__).parent
        placement = ast.parse((package / "schedulers" / "placement.py").read_text())
        module_level = {n.name for n in placement.body if isinstance(n, ast.FunctionDef)}
        assert not module_level & {"find_placement", "filter_nodes", "build_views"}
        context = next(
            n for n in placement.body if isinstance(n, ast.ClassDef) and n.name == "PlacementContext"
        )
        methods = {n.name for n in context.body if isinstance(n, ast.FunctionDef)}
        assert {"find_placement", "evict_until_fit"} <= methods and "clone_views" not in methods

        def names(node):
            return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}

        iterating = set()
        for path in package.rglob("*.py"):
            source = path.read_text()
            assert "clone_views" not in source and "views=views" not in source, path
            tree = ast.parse(source)
            loops = [n.iter for n in ast.walk(tree) if isinstance(n, (ast.For, ast.comprehension))]
            # ``for t in spot_tasks_on_node(..)`` or over a name bound to it.
            bound = {
                t.id
                for n in ast.walk(tree)
                if isinstance(n, ast.Assign) and "spot_tasks_on_node" in names(n.value)
                for t in n.targets
                if isinstance(t, ast.Name)
            }
            if any(names(it) & ({"spot_tasks_on_node"} | bound) for it in loops):
                iterating.add(str(path.relative_to(package)))
        assert iterating == {"schedulers/placement.py", "core/pts/preemptive.py"}, iterating

    def test_one_sweep_event_path(self):
        # The engine and the executor report through the telemetry bus
        # only (its records are their log lines), the engine derives a
        # cell's cache payload once, and the null bus and the second
        # metrics server stay gone.
        package = Path(repro.__file__).parent
        for module in ("experiments/engine.py", "runtime/executor.py"):
            tree = ast.parse((package / module).read_text())
            imported = {
                "." * node.level + (node.module or "")
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
            } | {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
            assert not any(name.endswith("obs.logging") for name in imported), module
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(tree)}
            assert "get_logger" not in names and "_LOG" not in names, module
        engine = ast.parse((package / "experiments" / "engine.py").read_text())
        payload_calls = [
            n for n in ast.walk(engine)
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "cache_payload"
        ]
        assert len(payload_calls) == 1
        for path in package.rglob("*.py"):
            source = path.read_text()
            for banned in ("NULL_TELEMETRY", "MetricsServer", "PrometheusSink"):
                assert banned not in source, f"{banned} is back in {path}"

    def test_one_obs_path(self):
        # One structured-log path (the telemetry bus), one parser for the
        # instrumented-run commands, one fold of the sim.* wall histograms.
        package = Path(repro.__file__).parent
        for path in package.rglob("*.py"):
            names = {
                getattr(n, "id", getattr(n, "attr", getattr(n, "name", None)))
                for n in ast.walk(ast.parse(path.read_text()))
            }
            assert not names & {"StructuredLogger", "get_logger"}, path
        obs_cli = ast.parse((package / "obs" / "cli.py").read_text())
        parsers = [
            n for n in ast.walk(obs_cli)
            if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "ArgumentParser"
        ]
        assert len(parsers) == 1
        engine = ast.parse((package / "experiments" / "engine.py").read_text())
        wall_names = [
            n.value for n in ast.walk(engine)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and re.match(r"sim\.[\w.]*_s\b", n.value)
        ]
        assert wall_names == []


def test_sweep_resume_of_an_unreadable_journal_exits_2(capsys, tmp_path):
    # A journal from a newer format is named with its version, not
    # reported as a traceback.
    journal = tmp_path / "future.journal"
    journal.write_text('{"kind": "sweep", "version": 99, "jobs": 1}\n')
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["sweep", "--nodes", "8", "--hours", "6", "--schedulers", "YARN-CS",
                  "--resume", str(journal)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert str(journal) in err and "version 99" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["profile", "--nodes", "0"], "--nodes"),
        (["trace-viz", "--hours", "-1"], "--hours"),
        (["profile", "--spot-scale", "nan"], "--spot-scale"),
        (["trace-viz", "--scheduler", "nosuch"], "--scheduler"),
        (["profile", "--scenario", "nosuch"], "--scenario"),
        (["trace-viz", "--scenario", "trace:missing.json"], "--scenario"),
        (["sweep", "--scale", "small", "--schedulers", "YARN-CS", "--nodes", "0"], "--nodes"),
        (["sweep", "--schedulers", "YARN-CS", "--nodes", "4", "--hours", "-1"], "--hours"),
        (["sweep", "--scenario", "nosuch"], "--scenario"),
        (["sweep", "--scenario", "trace:missing.json"], "--scenario"),
        (["sweep", "--seeds", "0"], "--seeds"),
        (["observations", "--nodes", "0"], "--nodes"),
    ],
)
def test_invalid_run_parameter_exits_2_naming_its_flag(argv, flag, capsys, monkeypatch, tmp_path):
    # A deterministic input error is refused at the front door: no cell
    # runs, none is retried, and no trace file is written.
    monkeypatch.chdir(tmp_path)
    telemetry = tmp_path / "events.jsonl"
    if argv[0] == "sweep":
        argv = argv + ["--telemetry", str(telemetry)]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err and "Traceback" not in captured.err
    assert "exhausted their retry budget" not in captured.out
    assert not telemetry.exists() or "job_" not in telemetry.read_text()
    assert not (tmp_path / "trace.json").exists()


def test_sweep_failure_footer_names_where_tracebacks_go(capsys, tmp_path):
    sweep = ["sweep", "--nodes", "2", "--hours", "0.001", "--retries", "0",
             "--schedulers", "YARN-CS"]
    assert cli.main(sweep) == 1
    out = capsys.readouterr().out
    assert "--journal PATH" in out and "recorded in the journal" not in out
    assert cli.main(sweep + ["--journal", str(tmp_path / "sweep.journal")]) == 1
    assert "recorded in the journal" in capsys.readouterr().out


class TestCLI:
    def test_experiment_registry_covers_all_artifacts(self):
        expected = {"table5", "table6", "table7", "table8", "table9", "table10", "fig9", "fig10", "observations"}
        assert expected <= set(cli.EXPERIMENTS)

    def test_invalid_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["tableX"])

    def test_cli_runs_small_ablation(self, capsys, monkeypatch):
        # Patch the table-9 runner to a fast stub so the CLI path is exercised
        # without a full simulation.
        monkeypatch.setitem(cli.EXPERIMENTS, "table9", lambda scale, engine: "stub-report")
        assert cli.main(["table9", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "table9" in out and "stub-report" in out

    def test_scale_argument_parsed(self, monkeypatch, capsys):
        captured = {}

        def fake(scale: ExperimentScale, engine) -> str:
            captured["scale"] = scale.name
            return "ok"

        monkeypatch.setitem(cli.EXPERIMENTS, "table5", fake)
        cli.main(["table5", "--scale", "medium"])
        assert captured["scale"] == "medium"

    def test_nodes_hours_override_scale(self, monkeypatch, capsys):
        captured = {}

        def fake(scale: ExperimentScale, engine) -> str:
            captured["nodes"] = scale.num_nodes
            captured["hours"] = scale.duration_hours
            return "ok"

        monkeypatch.setitem(cli.EXPERIMENTS, "table5", fake)
        cli.main(["table5", "--nodes", "8", "--hours", "6"])
        assert captured == {"nodes": 8, "hours": 6.0}

    def test_scenarios_listing(self, capsys):
        assert cli.main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("default", "burst", "diurnal", "hetero", "org_skew",
                     "spot_heavy", "large_gang"):
            assert name in out

    def test_sweep_runs_scenario_with_workers(self, capsys, tmp_path):
        # Real end-to-end sweep at a tiny scale: one scheduler, one scenario,
        # two worker processes, with artifact export.
        assert cli.main([
            "sweep", "--scenario", "burst", "--nodes", "8", "--hours", "6",
            "--workers", "2", "--schedulers", "YARN-CS",
            "--out", str(tmp_path / "artifacts"),
        ]) == 0
        out = capsys.readouterr().out
        assert "Scenario: burst" in out and "YARN-CS" in out
        assert (tmp_path / "artifacts" / "grid.json").exists()
        assert (tmp_path / "artifacts" / "grid.csv").exists()
        assert (tmp_path / "artifacts" / "sweep.txt").exists()

    def test_trace_viz_output_is_pinned(self, capsys, tmp_path):
        # SHA-256 of the file the pre-builder trace-viz (PR 20's HEAD) wrote
        # for these arguments: the construction path moved, the bytes did not.
        out = tmp_path / "trace.json"
        assert cli.main([
            "trace-viz", "--scenario", "node_churn", "--nodes", "12", "--hours", "6",
            "--seed", "3", "--trace-out", str(out),
        ]) == 0
        assert "scenario=node_churn" in capsys.readouterr().out
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "ee240870b5fb125e5328ebabd080221161ae7fcf8ac9ad7759c3fef8ec111cac"
        )

    def test_profile_and_trace_viz_write_the_same_trace(self, capsys, tmp_path):
        cell = ["--scenario", "node_churn", "--nodes", "12", "--hours", "6", "--seed", "3"]
        traces = {}
        for command in ("profile", "trace-viz"):
            out = tmp_path / f"{command}.json"
            assert cli.main([command, *cell, "--trace-out", str(out)]) == 0
            traces[command] = json.loads(out.read_text())
        assert "Self-profile:" in capsys.readouterr().out
        for command, trace in traces.items():
            assert trace["otherData"].pop("command") == command
        assert traces["profile"] == traces["trace-viz"]

    def test_sweep_profile_rows_carry_the_policy_tick_time(self, capsys, monkeypatch, tmp_path):
        from repro.experiments import engine as engine_module

        recorders = []

        class CapturingRecorder(engine_module.Recorder):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                recorders.append(self)

        monkeypatch.setattr(engine_module, "Recorder", CapturingRecorder)
        assert cli.main([
            "sweep", "--nodes", "8", "--hours", "6", "--schedulers", "GFS,YARN-CS",
            "--profile", "--out", str(tmp_path),
        ]) == 0
        rows = json.loads((tmp_path / "grid.json").read_text())
        assert len(rows) == len(recorders) == 2
        for row, recorder in zip(rows, recorders):
            assert row["obs_events"] == sum(
                value for (name, _), value in recorder.counters.items() if name == "sim.events"
            )
            hist = recorder.histograms.get("sim.scheduler_tick_s")
            assert row["obs_tick_wall_s"] == round(hist.total if hist else 0.0, 6)
        (gfs,) = [row for row in rows if row["scheduler"] == "GFS"]
        assert gfs["obs_tick_wall_s"] > 0

    def test_observations_report_has_table_1(self, capsys):
        assert cli.main(["observations", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Table 1 (fleet allocation rates" in out
        rows = {line.split()[0] for line in out.splitlines() if line.strip()}
        assert {"A10", "A100", "A800", "H800"} <= rows
        assert "Figure 5 week 4" in out

    def test_sweep_unknown_scheduler_filter_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--nodes", "8", "--hours", "6",
                      "--schedulers", "NotAScheduler"])

    def test_sweep_resume_needs_an_existing_journal(self, capsys, tmp_path):
        # A typo after --resume must not start an empty journal and redo the
        # grid; --journal is the flag that creates one.
        sweep = ["sweep", "--scenario", "burst", "--nodes", "8", "--hours", "6",
                 "--schedulers", "YARN-CS"]
        missing = tmp_path / "typo.journal"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(sweep + ["--resume", str(missing)])
        assert exit_info.value.code == 2
        assert str(missing) in capsys.readouterr().err
        assert not missing.exists()
        journal = tmp_path / "sweep.journal"
        assert cli.main(sweep + ["--journal", str(journal)]) == 0
        assert "1 simulated" in capsys.readouterr().out
        assert cli.main(sweep + ["--resume", str(journal)]) == 0
        assert "0 simulated" in capsys.readouterr().out

    def test_cli_cache_dir_makes_second_run_incremental(self, capsys, tmp_path):
        argv = ["table9", "--nodes", "8", "--hours", "6",
                "--cache-dir", str(tmp_path / "cache")]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert "2 simulated, 0 from cache" in first
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert "0 simulated, 2 from cache" in second
