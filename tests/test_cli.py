"""Unit tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_parses(self):
        args = build_parser().parse_args(["run", "E2", "--quick", "--seed", "7"])
        assert args.command == "run"
        assert args.experiment == "E2"
        assert args.quick
        assert args.seed == 7

    def test_run_all_command_parses(self):
        args = build_parser().parse_args(["run-all", "--only", "E1", "F1", "--markdown"])
        assert args.only == ["E1", "F1"]
        assert args.markdown

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.game == "linear-singleton"
        assert args.protocol == "imitation"
        assert args.replicas == 1
        assert args.engine is None

    def test_engine_flags_parse(self):
        args = build_parser().parse_args(["run", "E2", "--engine", "loop"])
        assert args.engine == "loop"
        args = build_parser().parse_args(["run-all", "--engine", "batch"])
        assert args.engine == "batch"
        args = build_parser().parse_args(["simulate", "--replicas", "16"])
        assert args.replicas == 16

    def test_engine_rejects_unknown_value(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E2", "--engine", "warp"])

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "E1" in output and "F1" in output

    def test_run_quick_experiment(self, capsys):
        assert main(["run", "F1", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "[F1]" in output
        assert "lemma1_holds_fraction" in output

    def test_run_markdown(self, capsys):
        assert main(["run", "F1", "--quick", "--markdown"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("### F1")

    def test_simulate_prints_trajectory(self, capsys):
        assert main([
            "simulate", "--game", "linear-singleton", "--players", "50",
            "--rounds", "20", "--seed", "3", "--every", "5",
        ]) == 0
        output = capsys.readouterr().out
        assert "rounds executed" in output
        assert "potential" in output

    def test_simulate_batch_engine_prints_ensemble_summary(self, capsys):
        assert main([
            "simulate", "--game", "linear-singleton", "--players", "50",
            "--rounds", "20", "--seed", "3", "--every", "5", "--replicas", "8",
        ]) == 0
        output = capsys.readouterr().out
        assert "engine: batch (8 replicas)" in output
        assert "mean potential" in output
        assert "quiescent replicas" in output

    def test_simulate_loop_engine_rejects_multiple_replicas(self, capsys):
        assert main(["simulate", "--replicas", "4", "--engine", "loop"]) == 1
        assert "--engine batch" in capsys.readouterr().err

    def test_run_experiment_with_loop_engine(self, capsys):
        assert main(["run", "E2", "--quick", "--engine", "loop"]) == 0
        output = capsys.readouterr().out
        assert "engine=loop" in output

    def test_simulate_all_games_and_protocols(self, capsys):
        for game in ("braess", "two-link"):
            assert main(["simulate", "--game", game, "--players", "20",
                         "--rounds", "5"]) == 0
        for protocol in ("exploration", "hybrid"):
            assert main(["simulate", "--protocol", protocol, "--players", "20",
                         "--rounds", "5"]) == 0
        capsys.readouterr()

    def test_run_all_with_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["run-all", "--quick", "--only", "F1", "--markdown",
                     "--output", str(target)]) == 0
        assert target.exists()
        assert "### F1" in target.read_text()
        assert "wrote report" in capsys.readouterr().out

    def test_unknown_experiment_exits_nonzero_with_message(self, capsys):
        assert main(["run", "E99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_all_unknown_id_exits_nonzero_listing_known(self, capsys):
        assert main(["run-all", "--only", "E99", "--quick"]) == 1
        err = capsys.readouterr().err
        assert "E99" in err and "known: E1" in err

    def test_run_all_jobs_flag(self, capsys):
        assert main(["run-all", "--quick", "--only", "F1", "--jobs", "2"]) == 0
        assert "[F1]" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_flags_parse(self):
        args = build_parser().parse_args([
            "sweep", "--preset", "logn", "--workers", "4",
            "--store", "/tmp/s", "--no-resume", "--quick",
            "--group-by", "n", "--value", "rounds_median",
        ])
        assert args.command == "sweep"
        assert args.preset == "logn"
        assert args.workers == 4
        assert not args.resume
        assert args.group_by == "n"

    def test_sweep_requires_a_spec_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_sweep_preset_and_spec_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--preset", "logn",
                                       "--spec", "spec.json"])

    def test_sweep_preset_runs_and_caches(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", "--preset", "logn", "--quick",
                     "--workers", "2", "--store", store]) == 0
        first = capsys.readouterr().out
        assert "(3 computed, 0 cached)" in first
        assert "rounds_mean" in first
        assert main(["sweep", "--preset", "logn", "--quick",
                     "--workers", "2", "--store", store]) == 0
        second = capsys.readouterr().out
        assert "(0 computed, 3 cached)" in second
        # the rendered tables are identical across the cache-hit rerun
        assert first.splitlines()[1:] == second.splitlines()[1:]

    def test_sweep_group_by_prints_aggregate(self, capsys):
        assert main(["sweep", "--preset", "logn", "--quick",
                     "--group-by", "n", "--value", "rounds_mean"]) == 0
        output = capsys.readouterr().out
        assert "rounds_mean_mean" in output

    def test_sweep_spec_file_with_seed_override(self, tmp_path, capsys):
        import json

        from repro.sweeps import SweepSpec

        spec = SweepSpec(name="from-file", axes={"n": [16, 32]},
                         base={"coeffs": [1.0, 2.0], "epsilon": 0.4},
                         replicas=2, max_rounds=100, seed=1)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert main(["sweep", "--spec", str(path), "--seed", "7"]) == 0
        assert "sweep from-file" in capsys.readouterr().out

    def test_sweep_invalid_spec_exits_nonzero(self, tmp_path, capsys):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "axes": {},
                                    "game": "linear-singleton"}))
        assert main(["sweep", "--spec", str(path)]) == 1
        assert "at least one axis" in capsys.readouterr().err

    def test_sweep_missing_or_malformed_spec_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["sweep", "--spec", str(tmp_path / "nope.json")]) == 1
        assert "cannot read sweep spec" in capsys.readouterr().err
        path = tmp_path / "mangled.json"
        path.write_text("{not json")
        assert main(["sweep", "--spec", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_sweep_unknown_aggregate_value_exits_nonzero(self, capsys):
        assert main(["sweep", "--preset", "logn", "--quick",
                     "--group-by", "n", "--value", "bogus_col"]) == 1
        assert "lacks value column" in capsys.readouterr().err


class TestArgumentValidation:
    """Invalid numeric options exit 1 with a one-line message, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--replicas", "0"],
        ["simulate", "--replicas", "-4"],
        ["simulate", "--players", "0"],
        ["simulate", "--rounds", "-1"],
        ["run", "E5", "--quick", "--trials", "0"],
        ["run", "E5", "--quick", "--trials", "-3"],
        ["run", "E2", "--quick", "--workers", "0"],
        ["run-all", "--quick", "--only", "F1", "--jobs", "0"],
        ["sweep", "--preset", "logn", "--quick", "--workers", "-2"],
    ])
    def test_non_positive_counts_exit_one(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "must be at least" in err

    def test_run_forwards_trials_to_experiments(self, capsys):
        assert main(["run", "F1", "--quick", "--trials", "5"]) == 0
        # F1 takes `samples`, not `trials`: the registry drops the knob
        assert "[F1]" in capsys.readouterr().out


class TestSimulateTopologyKnobs:
    """simulate --rows/--cols/--layers/--k-paths: validated, routed to the
    right game family, warned about when inapplicable."""

    def test_topology_flags_parse(self):
        args = build_parser().parse_args(
            ["simulate", "--game", "grid", "--rows", "4", "--cols", "5",
             "--k-paths", "8"])
        assert (args.rows, args.cols, args.k_paths) == (4, 5, 8)
        assert args.layers is None

    def test_grid_dimensions_are_honoured(self, capsys):
        assert main(["simulate", "--game", "grid", "--rows", "3", "--cols", "3",
                     "--players", "12", "--rounds", "3"]) == 0
        # a 3x3 grid has C(4, 2) = 6 monotone s-t paths
        assert "|P|=6" in capsys.readouterr().out

    def test_k_paths_bounds_a_large_grid(self, capsys):
        assert main(["simulate", "--game", "grid", "--rows", "8", "--cols", "8",
                     "--k-paths", "16", "--players", "20", "--rounds", "2"]) == 0
        assert "|P|=16" in capsys.readouterr().out

    def test_layered_game_with_layers_and_k_paths(self, capsys):
        assert main(["simulate", "--game", "layered", "--layers", "4",
                     "--k-paths", "8", "--players", "20", "--rounds", "2"]) == 0
        assert "|P|=8" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "--game", "braess", "--rows", "4",
          "--players", "10", "--rounds", "2"], "--rows"),
        (["simulate", "--game", "grid", "--layers", "4",
          "--players", "10", "--rounds", "2"], "--layers"),
        (["simulate", "--game", "linear-singleton", "--k-paths", "4",
          "--players", "10", "--rounds", "2"], "--k-paths"),
    ])
    def test_inapplicable_knob_warns_and_still_runs(self, argv, flag, capsys):
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert f"{flag} does not apply" in err

    def test_applicable_knobs_do_not_warn(self, capsys):
        assert main(["simulate", "--game", "grid", "--rows", "2", "--cols", "2",
                     "--players", "10", "--rounds", "2"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--game", "grid", "--rows", "0"],
        ["simulate", "--game", "grid", "--cols", "-2"],
        ["simulate", "--game", "layered", "--layers", "0"],
        ["simulate", "--game", "grid", "--k-paths", "0"],
    ])
    def test_non_positive_topology_knobs_exit_one(self, argv, capsys):
        assert main(argv) == 1
        assert "must be at least" in capsys.readouterr().err

    def test_oversized_enumeration_exits_one_with_sampler_hint(self, capsys):
        assert main(["simulate", "--game", "grid", "--rows", "12",
                     "--cols", "12", "--players", "10", "--rounds", "2"]) == 1
        err = capsys.readouterr().err
        assert "max_paths" in err and "dag-sample" in err


class TestNewSweepPresets:
    def test_new_presets_are_registered(self):
        parser = build_parser()
        for preset in ("overshoot", "protocol-work", "virtual-agents",
                       "error-terms", "network-scaling"):
            args = parser.parse_args(["sweep", "--preset", preset])
            assert args.preset == preset

    def test_network_scaling_preset_runs_and_caches(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", "--preset", "network-scaling", "--quick",
                     "--store", store]) == 0
        first = capsys.readouterr().out
        assert "(2 computed, 0 cached)" in first
        assert main(["sweep", "--preset", "network-scaling", "--quick",
                     "--store", store]) == 0
        second = capsys.readouterr().out
        assert "(0 computed, 2 cached)" in second
        assert first.splitlines()[1:] == second.splitlines()[1:]

    def test_overshoot_preset_runs_and_caches(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", "--preset", "overshoot", "--quick",
                     "--store", store]) == 0
        first = capsys.readouterr().out
        assert "(6 computed, 0 cached)" in first
        assert main(["sweep", "--preset", "overshoot", "--quick",
                     "--store", store]) == 0
        second = capsys.readouterr().out
        assert "(0 computed, 6 cached)" in second
        # the cache-hit rerun renders the identical table
        assert first.splitlines()[1:] == second.splitlines()[1:]


class TestUnsupportedOptionWarnings:
    def test_run_warns_when_experiment_takes_no_trials(self, capsys):
        # E6 is driven by max_steps/instance pool, not a trial count
        assert main(["run", "E6", "--quick", "--trials", "5"]) == 0
        captured = capsys.readouterr()
        assert "takes no --trials" in captured.err
        assert "[E6]" in captured.out

    def test_run_warns_when_experiment_takes_no_workers(self, capsys):
        # E1 has no sweep-backed grid, hence no workers knob
        assert main(["run", "E1", "--quick", "--workers", "2"]) == 0
        assert "takes no --workers" in capsys.readouterr().err

    def test_run_supported_options_do_not_warn(self, capsys):
        assert main(["run", "E5", "--quick", "--trials", "3", "--workers", "2"]) == 0
        assert capsys.readouterr().err == ""


class TestServiceVerbs:
    """The service-facing CLI surface (serve/submit/status/fetch/info)."""

    def test_info_parses_and_runs(self, capsys):
        assert build_parser().parse_args(["info"]).command == "info"
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "code version:" in output
        assert "scipy" in output and "networkx" in output
        assert "E2" in output
        assert "logn" in output and "network-scaling" in output

    def test_serve_defaults_parse(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8080
        assert args.store == ".sweep-service"
        assert args.workers == 1 and args.sweep_workers == 1

    def test_submit_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])

    def test_submit_flags_parse(self):
        args = build_parser().parse_args(
            ["submit", "--preset", "logn", "--quick", "--priority", "2",
             "--no-wait", "--url", "http://localhost:9999"])
        assert args.preset == "logn"
        assert args.priority == 2
        assert args.wait is False
        assert args.url == "http://localhost:9999"

    def test_fetch_flags_parse(self):
        args = build_parser().parse_args(
            ["fetch", "cafebabecafebabe", "--group-by", "n,epsilon",
             "--markdown"])
        assert args.spec_hash == "cafebabecafebabe"
        assert args.group_by == "n,epsilon"
        assert args.markdown

    def test_status_accepts_optional_job_id(self):
        assert build_parser().parse_args(["status"]).job_id is None
        assert build_parser().parse_args(
            ["status", "job-000001"]).job_id == "job-000001"

    def test_submit_against_unreachable_daemon_exits_1(self, capsys):
        assert main(["submit", "--preset", "logn", "--quick",
                     "--url", "http://127.0.0.1:9"]) == 1
        assert "cannot reach sweep service" in capsys.readouterr().err

    def test_serve_rejects_nonsense_workers(self, capsys):
        assert main(["serve", "--workers", "0"]) == 1
        assert "--workers must be at least 1" in capsys.readouterr().err

    def test_fetch_jsonl_conflicts_with_group_by(self, capsys):
        assert main(["fetch", "cafebabecafebabe", "--jsonl", "--group-by",
                     "n", "--url", "http://127.0.0.1:9"]) == 1
        assert "--jsonl" in capsys.readouterr().err

    def test_round_trip_against_a_live_daemon(self, tmp_path, capsys):
        """serve (in a thread) + submit + status + fetch, end to end."""
        import json
        import threading

        from repro.service import ServiceClient, SweepService, make_server

        service = SweepService(tmp_path / "store", workers=1).start()
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = "http://%s:%s" % server.server_address[:2]
        try:
            assert main(["submit", "--preset", "logn", "--quick",
                         "--url", url]) == 0
            first = capsys.readouterr().out
            assert "(3 computed, 0 cached)" in first

            assert main(["submit", "--preset", "logn", "--quick",
                         "--url", url]) == 0
            assert "cache hit" in capsys.readouterr().out

            assert main(["status", "--url", url]) == 0
            status = capsys.readouterr().out
            assert "done=1" in status and "job-000001" in status

            spec_hash = ServiceClient(url).jobs()[0]["spec_hash"]
            assert main(["fetch", spec_hash, "--url", url,
                         "--group-by", "n"]) == 0
            aggregate = capsys.readouterr().out
            assert "rounds_mean_mean" in aggregate

            assert main(["fetch", spec_hash, "--url", url, "--jsonl"]) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert len(lines) == 3
            assert {json.loads(line)["n"] for line in lines} \
                == {64, 256, 1024}
        finally:
            server.shutdown()
            server.server_close()
            service.stop()


class TestClosedStdout:
    """A reader that closes stdout early ends the command quietly."""

    @pytest.mark.parametrize("argv", [["info"], ["info", "--json"]])
    def test_closed_pipe_exits_without_traceback(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))))
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        # Closed before the interpreter has even started: every write the
        # command makes meets a pipe without a reader.
        child.stdout.close()
        stderr = child.stderr.read().decode("utf-8", "replace")
        child.stderr.close()
        assert child.wait(timeout=60) == 1
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr


class TestTelemetryVerbs:
    """The observability CLI surface (PR 7): info --json,
    sweep --metrics-out, simulate --trace, serve --access-log."""

    def test_info_json_is_machine_readable(self, capsys):
        import json

        assert build_parser().parse_args(["info", "--json"]).json
        assert main(["info", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["code_version"] >= 3
        assert "engines" in payload and "presets" in payload

    def test_serve_access_log_flag_parses(self):
        args = build_parser().parse_args(["serve", "--access-log"])
        assert args.access_log is True
        assert build_parser().parse_args(["serve"]).access_log is False

    def test_sweep_metrics_out_stdout(self, capsys):
        import json

        assert main(["sweep", "--preset", "logn", "--quick",
                     "--metrics-out", "-"]) == 0
        output = capsys.readouterr().out
        start = output.index('{\n  "metrics"')
        payload = json.loads(output[start:])
        metrics = payload["metrics"]
        assert metrics["sweep_points_computed_total"]["samples"]["{}"] == 3

    def test_sweep_metrics_out_file(self, tmp_path, capsys):
        import json

        target = tmp_path / "metrics.json"
        assert main(["sweep", "--preset", "logn", "--quick",
                     "--metrics-out", str(target)]) == 0
        assert "wrote metrics snapshot to" in capsys.readouterr().out
        payload = json.loads(target.read_text())
        assert "sweep_point_seconds" in payload["metrics"]

    def test_simulate_trace_writes_jsonl(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        assert main(["simulate", "--players", "30", "--rounds", "50",
                     "--trace", str(trace)]) == 0
        assert "wrote round trace" in capsys.readouterr().err
        events = [json.loads(line)
                  for line in trace.read_text().splitlines()]
        assert events[0]["event"] == "run_started"
        assert events[0]["engine"] == "loop"
        assert events[-1]["event"] == "run_finished"
        # same seed, same run inputs -> same deterministic run id
        assert len({event["run_id"] for event in events}) == 1

    def test_simulate_trace_batch_engine(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        assert main(["simulate", "--players", "30", "--rounds", "50",
                     "--replicas", "4", "--engine", "batch",
                     "--trace", str(trace)]) == 0
        events = [json.loads(line)
                  for line in trace.read_text().splitlines()]
        assert events[0]["engine"] == "batch"
        assert events[0]["replicas"] == 4
