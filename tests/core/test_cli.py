"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_known_subcommands(self):
        parser = build_parser()
        for command in ("info", "compare", "experiment", "simulate"):
            args = parser.parse_args([command] if command != "experiment" else [command, "fig07"])
            assert args.command == command

    def test_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["compare"])
        assert args.rows == 32 and args.cols == 32
        assert args.radius == 100.0


class TestMain:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_info(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "repro" in output
        assert "huffman" in output

    def test_compare_small_grid(self, capsys):
        code = main(
            ["compare", "--rows", "8", "--cols", "8", "--radius", "100", "--zones", "3", "--seed", "3"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "huffman" in output and "fixed" in output
        assert "improvement_pct" in output

    def test_experiment_fig07(self, capsys):
        assert main(["experiment", "fig07", "--cell-counts", "16", "64"]) == 0
        output = capsys.readouterr().out
        assert "numerical_LE" in output

    def test_experiment_fig13(self, capsys):
        assert main(["experiment", "fig13", "--grid-sizes", "4", "8"]) == 0
        assert "ratio" in capsys.readouterr().out

    def test_experiment_fig10_small(self, capsys):
        code = main(
            [
                "experiment", "fig10",
                "--rows", "8", "--cols", "8",
                "--radii", "50", "150",
                "--zones", "3",
            ]
        )
        assert code == 0
        assert "radius" in capsys.readouterr().out

    def test_experiment_fig14(self, capsys):
        assert main(["experiment", "fig14", "--grid-sizes", "4", "8"]) == 0
        assert "build_seconds" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_simulate_small(self, capsys):
        code = main(
            [
                "simulate",
                "--rows", "6", "--cols", "6",
                "--users", "4", "--steps", "2",
                "--alert-rate", "1.0", "--radius", "80",
                "--prime-bits", "32",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        # Pinned from the release before the simulation took its crypto and
        # matching settings from one ServiceConfig: the rewrite changes no
        # simulated number.
        assert "totals: 3 reports, 3 alerts, 6 notifications, 44 pairings" in output

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["serve", "--max-inflight", "0"], "max_inflight must be at least 1"),
            (["serve", "--batch-max", "0"], "batch_max must be at least 1"),
            (["serve", "--port", "-1"], "port must be in [0, 65535]"),
            (["serve", "--port", "70000"], "port must be in [0, 65535]"),
            (["serve", "--host", ""], "host must be non-empty"),
            (["serve", "--batch-window-ms", "-1"], "batch_window_ms must be non-negative"),
            (["serve", "--per-conn-inflight", "0"], "max_inflight_per_conn must satisfy"),
            (["serve", "--per-conn-inflight", "512"], "max_inflight_per_conn must satisfy"),
            (["serve", "--prime-bits", "8"], "prime_bits must be at least 16"),
            (["serve", "--faults", "explode=1"], "unknown fault 'explode'"),
            (["serve", "--faults", "conn_drop=1.5"], "conn_drop must be a probability"),
            (["serve", "--supervise", "--max-inflight", "0"], "max_inflight must be at least 1"),
            (["loadgen", "--spawn", "--max-inflight", "0"], "max_inflight must be at least 1"),
            (["loadgen", "--spawn", "--prime-bits", "8"], "prime_bits must be at least 16"),
            (["simulate", "--users", "0"], "num_users must be at least 1"),
            (["simulate", "--prime-bits", "8"], "prime_bits must be at least 16"),
            (["simulate", "--alert-rate", "-1"], "alert_rate_per_step must be non-negative"),
            (["simulate", "--radius", "-1"], "alert_radius must be non-negative"),
            (["chaos", "--faults", "explode=1"], "unknown fault 'explode'"),
            # Lane, ack and spool sites went with the worker tiers.
            (["chaos", "--faults", "kill=1"], "unknown fault 'kill'"),
            (["chaos", "--net", "--faults", "hang=0.5"], "unknown fault 'hang'"),
            (["chaos", "--faults", "torn_snapshot=-1"], "torn_snapshots must be non-negative"),
        ],
    )
    def test_config_errors_exit_2_with_one_line(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {argv[0]}: error: {message}")
