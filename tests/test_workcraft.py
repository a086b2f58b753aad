"""Tests for the tool layer: exporters, plugin registry, projects and the CLI."""

import os
import subprocess
import sys

import pytest

from repro.exceptions import ModelError, SerializationError
from repro.dfs.examples import conditional_comp_dfs, token_ring
from repro.dfs.serialization import dfs_to_json
from repro.dfs.translation import to_petri_net
from repro.workcraft.cli import main as cli_main
from repro.workcraft.export import available_formats, dfs_to_dot, export_model
from repro.workcraft.plugins import default_registry
from repro.workcraft.project import Project

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


class TestExport:
    def test_available_formats(self):
        formats = available_formats()
        assert {"dot", "json", "pn-dot", "g", "verilog"} <= set(formats)

    def test_dfs_to_dot_mentions_every_node(self, conditional_dfs):
        dot = dfs_to_dot(conditional_dfs)
        for name in conditional_dfs.nodes:
            assert name in dot

    def test_dfs_dot_marks_initial_tokens(self):
        ring = token_ring()
        assert "(*)" in dfs_to_dot(ring)

    def test_export_model_all_formats(self, conditional_dfs):
        for format_name in available_formats():
            text = export_model(conditional_dfs, format_name)
            assert isinstance(text, str) and text

    def test_export_petri_net(self, conditional_dfs):
        net = to_petri_net(conditional_dfs)
        assert export_model(net, "dot").startswith("digraph")
        assert ".marking" in export_model(net, "g")
        with pytest.raises(SerializationError):
            export_model(net, "verilog")

    def test_unknown_format_rejected(self, conditional_dfs):
        with pytest.raises(SerializationError):
            export_model(conditional_dfs, "pdf")

    def test_unsupported_object_rejected(self):
        with pytest.raises(SerializationError):
            export_model(42, "dot")


class TestPluginsAndProject:
    def test_default_registry_contents(self):
        registry = default_registry()
        assert "dfs" in registry and "petri" in registry
        plugin = registry.plugin("dfs")
        assert {"validate", "verify", "simulate", "translate", "analyse"} <= set(plugin.operations)

    def test_plugin_for_model(self, conditional_dfs):
        registry = default_registry()
        assert registry.plugin_for(conditional_dfs).name == "dfs"
        with pytest.raises(ModelError):
            registry.plugin_for(object())

    def test_project_add_get_run(self, conditional_dfs):
        project = Project("demo")
        project.add("cond", conditional_dfs)
        assert "cond" in project and len(project) == 1
        issues = project.run("cond", "validate")
        assert isinstance(issues, list)
        summary = project.run("cond", "verify", max_states=50000)
        assert summary.passed

    def test_project_duplicate_and_missing_names(self, conditional_dfs):
        project = Project()
        project.add("m", conditional_dfs)
        with pytest.raises(ModelError):
            project.add("m", conditional_dfs)
        with pytest.raises(ModelError):
            project.get("missing")
        with pytest.raises(ModelError):
            project.run("m", "launch_rockets")

    def test_project_save_and_load(self, tmp_path, conditional_dfs):
        project = Project("demo")
        project.add("cond", conditional_dfs)
        project.add("ring", token_ring())
        directory = str(tmp_path / "workspace")
        project.save(directory)
        loaded = Project.load(directory)
        assert loaded.names() == ["cond", "ring"]
        assert loaded.get("cond").nodes.keys() == conditional_dfs.nodes.keys()

    def test_project_load_missing_manifest(self, tmp_path):
        with pytest.raises(SerializationError):
            Project.load(str(tmp_path))


class TestCli:
    def test_info_on_example(self, capsys):
        assert cli_main(["info", "--example", "conditional"]) == 0
        output = capsys.readouterr().out
        assert "nodes" in output

    def test_validate_example(self):
        assert cli_main(["validate", "--example", "conditional"]) == 0

    def test_verify_example(self, capsys):
        assert cli_main(["verify", "--example", "conditional", "--no-persistence"]) == 0
        assert "deadlock freedom" in capsys.readouterr().out

    def test_simulate_example(self, capsys):
        assert cli_main(["simulate", "--example", "ring", "--steps", "50", "--trace"]) == 0
        assert "fired" in capsys.readouterr().out

    def test_analyse_example(self, capsys):
        assert cli_main(["analyse", "--example", "ring"]) == 0
        assert "throughput" in capsys.readouterr().out

    def test_export_to_file_and_model_round_trip(self, tmp_path, capsys, conditional_dfs):
        model_path = str(tmp_path / "cond.json")
        dfs_to_json(conditional_comp_dfs(), path=model_path)
        output_path = str(tmp_path / "cond.dot")
        assert cli_main(["export", model_path, "--format", "dot", "-o", output_path]) == 0
        with open(output_path, encoding="utf-8") as handle:
            assert handle.read().startswith("digraph")

    def test_export_verilog_to_stdout(self, capsys):
        assert cli_main(["export", "--example", "conditional", "--format", "verilog"]) == 0
        assert "module" in capsys.readouterr().out

    def test_missing_model_argument_errors(self, capsys):
        for command in ("info", "verify"):
            assert cli_main([command]) == 2
            assert "either a model file or --example must be given" in \
                capsys.readouterr().err

    def test_race_with_another_checker_exits_2(self, capsys):
        assert cli_main(["verify", "--example", "ring", "--race",
                         "--checker", "walk"]) == 2
        assert "cannot be combined with --checker walk" in \
            capsys.readouterr().err

    def test_removed_workers_and_engine_choices_exit_2(self, capsys):
        for argv in (["verify", "--example", "ring", "--workers", "2"],
                     ["verify", "--example", "ring", "--engine", "compiled"],
                     ["campaign", "--grid", "depth=2", "--workers", "2"],
                     ["verify", "--example", "ring", "--spill-dir", "x"],
                     ["campaign", "--grid", "depth=2", "--spill-bytes", "0"]):
            with pytest.raises(SystemExit) as excinfo:
                cli_main(argv)
            assert excinfo.value.code == 2, argv
        err = capsys.readouterr().err
        assert "--workers" in err and "--spill-dir" in err

    def test_retired_solver_checkers_exit_2(self, capsys):
        """BMC, k-induction and IC3 are gone: no solver checker is left."""
        for checker in ("bmc", "kinduction", "ic3"):
            for command in ("verify", "campaign"):
                argv = [command, "--checker", checker]
                argv += (["--example", "ring"] if command == "verify"
                         else ["--grid", "depth=2"])
                with pytest.raises(SystemExit) as excinfo:
                    cli_main(argv)
                assert excinfo.value.code == 2, argv
        err = capsys.readouterr().err
        assert "invalid choice: 'bmc'" in err
        assert "invalid choice: 'kinduction'" in err
        assert "invalid choice: 'ic3'" in err

    def test_library_error_is_one_line_and_exit_2(self, tmp_path):
        """Exit 1 means "a property is violated"; an error is not a verdict."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        model = tmp_path / "bad.json"
        model.write_text('{"nodes": 3}')
        argv = [sys.executable, "-m", "repro.workcraft.cli", "verify",
                str(model)]
        completed = subprocess.run(argv, capture_output=True, text=True,
                                   env=env, timeout=120)
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert completed.stderr.startswith("repro-dfs: error: ")
        assert completed.stderr.count("\n") == 1
