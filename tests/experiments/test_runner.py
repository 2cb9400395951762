"""Tests for the CLI entry point (argument plumbing only; the heavy
experiments run in benchmarks/)."""

import pytest

from repro.experiments.runner import _build_parser, main


class TestParser:
    def test_commands_available(self):
        parser = _build_parser()
        for command in ("fig6", "fig7", "fig8", "ablations", "estimate"):
            args = parser.parse_args([command] if command != "estimate"
                                     else [command])
            assert args.command == command

    def test_estimate_options(self):
        args = _build_parser().parse_args(
            ["estimate", "--vdd", "0.5", "--alpha", "0.3",
             "--target", "0.1", "--quick"])
        assert args.vdd == 0.5
        assert args.alpha == 0.3
        assert args.target == 0.1
        assert args.quick

    @pytest.mark.parametrize("argv", [
        ["estimate", "--vdd", "-1"],
        ["estimate", "--vdd", "nan"],
        ["estimate", "--alpha", "1.5"],
        ["estimate", "--alpha", "nan"],
        ["estimate", "--target", "0"],
        ["estimate", "--target", "nan"],
        ["array", "--fit-target", "nan"],
        ["array", "--pfail", "nan"],
        ["array", "--vdd", "inf"],
        ["vmin", "--budget", "1000"],
        ["vmin", "--budget", "nan"],
        ["vmin", "--budget", "0"],
        ["vmin", "--budget", "1"],
        ["vmin", "--alpha", "1.5"],
        ["vmin", "--alpha", "nan"],
        ["vmin", "--low", "-0.1"],
        ["vmin", "--high", "inf"],
        ["vmin", "--resolution", "0"],
        ["vmin", "--resolution", "nan"],
    ], ids=" ".join)
    def test_bad_float_flag_exits_2_with_one_line(self, argv, capsys):
        """Each bad value is an argparse error naming its flag, not a
        traceback, a misleading search failure or a run to the budget."""
        with pytest.raises(SystemExit) as info:
            _build_parser().parse_args(argv)
        assert info.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert error.startswith(
            f"ecripse {argv[0]}: error: argument {argv[1]}: ")
        assert argv[2] in error

    @pytest.mark.parametrize("low, high", [("0.8", "0.5"), ("0.6", "0.6")])
    def test_vmin_needs_low_below_high(self, low, high, capsys):
        """An empty search bracket is an argparse error, not a
        ``find_vmin`` traceback after the imports."""
        with pytest.raises(SystemExit) as info:
            main(["vmin", "--budget", "1e-3", "--low", low, "--high", high])
        assert info.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert error.startswith("ecripse: error: argument --high: ")
        assert f"must exceed --low ({float(low)}), got {float(high)}" \
            in error

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args([])

    def test_every_command_accepts_runtime_flags(self):
        parser = _build_parser()
        for command in ("fig6", "fig7", "fig8", "ablations", "campaign",
                        "vmin", "estimate"):
            argv = [command, "--backend", "process", "--workers", "4"]
            if command == "vmin":
                argv += ["--budget", "1e-3"]
            args = parser.parse_args(argv)
            assert args.backend == "process"
            assert args.workers == 4

    def test_runtime_flags_default_to_serial(self):
        args = _build_parser().parse_args(["fig7"])
        assert args.backend == "serial"
        assert args.workers is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["fig7", "--backend", "gpu"])

    def test_thread_backend_is_an_argparse_error(self, capsys):
        parser = _build_parser()
        for command in ("fig6", "fig7", "fig8", "ablations", "campaign",
                        "vmin", "estimate", "array"):
            argv = [command, "--backend", "thread"]
            if command == "vmin":
                argv += ["--budget", "1e-3"]
            with pytest.raises(SystemExit) as info:
                parser.parse_args(argv)
            assert info.value.code == 2, command
            assert "invalid choice: 'thread'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "fig6", "fig7", "fig8", "ablations", "campaign", "vmin",
        "estimate", "array"])
    def test_exact_eval_is_an_argparse_error(self, command, capsys):
        """The screening ladder is the only label path: no subcommand
        takes the old switch back to the exact evaluator."""
        argv = [command, "--exact-eval"]
        if command == "vmin":
            argv += ["--budget", "1e-3"]
        with pytest.raises(SystemExit) as info:
            _build_parser().parse_args(argv)
        assert info.value.code == 2
        assert "unrecognized arguments: --exact-eval" in \
            capsys.readouterr().err

    def test_non_positive_workers_rejected(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["fig7", "--workers", "0"])


@pytest.mark.slow
class TestEstimateCommand:
    def test_quick_estimate_runs(self, capsys):
        code = main(["estimate", "--quick", "--target", "0.5", "--seed",
                     "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Pfail" in out

    def test_quick_estimate_parallel_matches_serial(self, capsys):
        code = main(["estimate", "--quick", "--target", "0.5", "--seed",
                     "1"])
        assert code == 0
        serial_out = capsys.readouterr().out
        code = main(["estimate", "--quick", "--target", "0.5", "--seed",
                     "1", "--backend", "process", "--workers", "2"])
        assert code == 0
        process_out = capsys.readouterr().out
        def pfail_line(text):
            line = next(line for line in text.splitlines()
                        if "Pfail" in line)
            return line.rsplit(",", 1)[0]  # drop the wall-time suffix

        assert pfail_line(process_out) == pfail_line(serial_out)
