"""CLI surface of the health layer (``--health-policy`` and friends)."""

import json

import pytest

from repro.errors import ClassifierError
from repro.experiments import runner

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.errors.HealthyDegradation")

QUICK = ["estimate", "--quick", "--target", "0.5", "--seed", "1"]


class TestFlags:
    @pytest.mark.parametrize("command", ["fig7", "fig8", "campaign",
                                         "estimate", "ablations"])
    def test_health_flags_exposed_everywhere(self, command, capsys):
        with pytest.raises(SystemExit):
            runner.main([command, "--help"])
        help_text = capsys.readouterr().out
        assert "--health-policy" in help_text
        assert "--report" in help_text
        # the fault injector is a chaos-testing hook, not a user knob
        assert "--inject-fault" not in help_text

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(QUICK + ["--health-policy", "lenient"])

    def test_bad_fault_spec_rejected(self, capsys):
        with pytest.raises(SystemExit, match="fault"):
            runner.main(QUICK + ["--inject-fault", "meteor"])
        # simulation batches are not retried, so there is no solver fault
        with pytest.raises(SystemExit,
                           match="filter, is-weight, one-class"):
            runner.main(QUICK + ["--inject-fault", "solver"])


class TestReportRendering:
    def test_no_report_without_flag(self, capsys):
        assert runner.main(QUICK) == 0
        out = capsys.readouterr().out
        assert "health" not in out.lower()

    def test_json_report_with_injected_fault(self, capsys):
        assert runner.main(QUICK + ["--health-policy", "recover",
                                    "--inject-fault", "one-class",
                                    "--report", "json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])["health"]
        assert payload["policy"] == "recover"
        assert payload["events"], "expected recovery events in the report"
        assert payload["events"][0]["category"] == "one-class"
        assert payload["events"][0]["recovered"] is True

    def test_text_report_on_healthy_run(self, capsys):
        assert runner.main(QUICK + ["--health-policy", "recover",
                                    "--report", "text"]) == 0
        out = capsys.readouterr().out
        assert "policy: recover" in out
        assert "no degradation detected" in out

    def test_strict_injection_fails_loudly(self):
        with pytest.raises(ClassifierError):
            runner.main(QUICK + ["--inject-fault", "one-class"])
