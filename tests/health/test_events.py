"""HealthEvent / HealthReport containers and the report walker."""

from dataclasses import dataclass, field

import pytest

from repro.health import HealthEvent, HealthReport
from repro.perf import collect_runs


def health_reports(result):
    """The health half of the merged result walker."""
    return collect_runs(result)[0]


# "solver" is no longer emitted, but checkpoints and service results may
# hold solver events: as the default category it keeps them loadable
def event(stage="stage1", category="solver", severity="warning",
          recovered=False, **details):
    return HealthEvent(stage=stage, category=category, severity=severity,
                       message=f"{category} event", recovered=recovered,
                       details=details)


class TestHealthEvent:
    def test_rejects_unknown_severity_and_category(self):
        with pytest.raises(ValueError, match="severity"):
            event(severity="fatal")
        with pytest.raises(ValueError, match="category"):
            event(category="gremlins")

    def test_dict_round_trip(self):
        e = event(recovered=True, filter=1, ess_fraction=0.013)
        assert HealthEvent.from_dict(e.as_dict()) == e


class TestHealthReport:
    def test_empty_report_is_falsy(self):
        assert not HealthReport()
        assert HealthReport(events=[event()])
        assert HealthReport(biased=True)
        assert HealthReport(upper_bound=True)

    def test_aggregations(self):
        report = HealthReport(policy="recover", events=[
            event(severity="info"),
            event(severity="warning", recovered=True),
            event(stage="stage2", category="is-weight",
                  severity="critical"),
        ])
        assert report.counts() == {"info": 1, "warning": 1, "critical": 1}
        assert report.by_stage() == {"stage1": 2, "stage2": 1}
        assert report.by_category() == {"solver": 2, "is-weight": 1}
        assert report.recovered_count() == 1

    def test_dict_round_trip_exact(self):
        report = HealthReport(policy="permissive", biased=True,
                              upper_bound=True,
                              events=[event(), event(recovered=True)])
        back = HealthReport.from_dict(report.as_dict())
        assert back.as_dict() == report.as_dict()

    def test_merged(self):
        a = HealthReport(policy="recover", events=[event()])
        b = HealthReport(policy="recover", biased=True,
                         events=[event(severity="critical")])
        merged = HealthReport.merged([a, b])
        assert len(merged.events) == 2
        assert merged.biased and not merged.upper_bound
        assert HealthReport.merged([]).policy == "strict"

    def test_render_text_mentions_flags(self):
        report = HealthReport(policy="recover", biased=True,
                              upper_bound=True,
                              events=[event(recovered=True)])
        text = report.render_text()
        assert "policy: recover" in text
        assert "BIASED" in text and "UPPER BOUND" in text
        assert "[recovered]" in text
        assert "no degradation detected" in HealthReport().render_text()


@dataclass
class _FakeEstimate:
    pfail: float = 1e-3
    health: HealthReport = None


@dataclass
class _FakeSweep:
    estimates: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)


class TestCollectReports:
    def test_walks_dataclasses_lists_and_dicts(self):
        r1, r2, r3 = (HealthReport(events=[event()]) for _ in range(3))
        sweep = _FakeSweep(
            estimates=[_FakeEstimate(health=r1), _FakeEstimate()],
            extras={"probe": (0.7, _FakeEstimate(health=r2))})
        found = health_reports([sweep, _FakeEstimate(health=r3)])
        assert found == [r1, r2, r3]

    def test_no_double_count_of_attached_report(self):
        estimate = _FakeEstimate(health=HealthReport(events=[event()]))
        assert len(health_reports(estimate)) == 1

    def test_none_and_scalars_yield_nothing(self):
        assert health_reports(None) == []
        assert health_reports([1, "x", 2.5, True]) == []

    def test_bare_report_collected(self):
        report = HealthReport()
        assert health_reports(report) == [report]
