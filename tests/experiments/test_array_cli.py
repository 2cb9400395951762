"""The ``ecripse array`` subcommand: argument plumbing and the
end-to-end decision output (direct pfail and chained estimator)."""

import json

import pytest

from repro.experiments.runner import _build_parser, main


class TestArrayParser:
    def test_defaults_are_the_headline_question(self):
        args = _build_parser().parse_args(["array"])
        assert args.command == "array"
        assert args.pfail is None
        assert args.capacity == "128Gb"
        assert args.word_bits == 64
        assert args.node == "16nm"
        assert args.environment == "sea-level"
        assert args.fit_target == 10.0
        assert args.scrub_hours is None
        assert args.schemes is None
        assert args.json is None

    def test_all_flags_parse(self):
        args = _build_parser().parse_args(
            ["array", "--pfail", "1e-9", "--capacity", "64Mb",
             "--word-bits", "32", "--node", "7nm",
             "--environment", "space", "--fit-target", "2",
             "--scrub-hours", "1,24", "--schemes", "secded,dec",
             "--json", "-"])
        assert args.pfail == pytest.approx(1e-9)
        assert args.capacity == "64Mb"
        assert args.word_bits == 32
        assert args.schemes == "secded,dec"

    def test_accepts_runtime_and_checkpoint_flags(self):
        args = _build_parser().parse_args(
            ["array", "--backend", "process", "--workers", "2",
             "--quick", "--seed", "1"])
        assert args.backend == "process"
        assert args.quick


class TestDirectPfail:
    ARGV = ["array", "--pfail", "1e-9", "--capacity", "1Gb"]

    def test_prints_decision_tables(self, capsys):
        assert main(list(self.ARGV)) == 0
        out = capsys.readouterr().out
        assert "static yield (RTN only)" in out
        assert "residual FIT vs scrub period" in out
        assert "decision:" in out
        assert "1 Gb" in out

    def test_json_file_output(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(self.ARGV + ["--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["schema_version"] == 1
        assert payload["cell_pfail"] == pytest.approx(1e-9)
        assert payload["decision"]["feasible"] is True
        assert str(target) in capsys.readouterr().out

    def test_json_to_stdout(self, capsys):
        assert main(self.ARGV + ["--json", "-"]) == 0
        out = capsys.readouterr().out
        start = out.index("{")
        payload = json.loads(out[start:out.rindex("}") + 1])
        assert payload["config"]["capacity_mbit"] == 1000.0

    def test_scheme_and_scrub_overrides_flow_through(self, capsys):
        assert main(self.ARGV + ["--schemes", "secded,dec",
                                 "--scrub-hours", "1,24"]) == 0
        out = capsys.readouterr().out
        assert "taec" not in out
        assert "secded" in out and "dec" in out

    def test_invalid_inputs_exit_with_message(self):
        with pytest.raises(SystemExit, match="pfail"):
            main(["array", "--pfail", "0.7"])
        with pytest.raises(SystemExit, match="technology node"):
            main(self.ARGV + ["--node", "3nm"])
        with pytest.raises(SystemExit, match="unknown ECC scheme"):
            main(self.ARGV + ["--schemes", "secded,turbo"])


@pytest.mark.slow
class TestChainedEstimate:
    def test_quick_chained_run_answers_end_to_end(self, capsys):
        code = main(["array", "--quick", "--target", "0.5", "--seed",
                     "1", "--capacity", "1Gb"])
        assert code == 0
        out = capsys.readouterr().out
        # the estimator summary comes first, then the decision tables
        assert "Pfail" in out
        assert "decision:" in out
        assert "required cell pfail" in out
