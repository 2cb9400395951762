"""StageProfiler spans and perf report aggregation."""

from __future__ import annotations

from repro.perf.profile import StageProfiler, merge_spans
from repro.health import HealthReport
from repro.perf.report import collect_runs, merge_perf, render_text


class TestStageProfiler:
    def test_span_accumulates_time_and_count(self):
        profiler = StageProfiler()
        for _ in range(3):
            with profiler.span("work"):
                sum(range(1000))
        spans = profiler.as_dict()
        assert spans["work"]["count"] == 3
        assert spans["work"]["total_s"] >= 0.0

    def test_span_records_on_exception(self):
        profiler = StageProfiler()
        try:
            with profiler.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert profiler.as_dict()["boom"]["count"] == 1

    def test_as_dict_is_a_copy(self):
        profiler = StageProfiler()
        with profiler.span("a"):
            pass
        total = profiler.as_dict()["a"]["total_s"]
        profiler.as_dict()["a"]["total_s"] = 99.0
        assert profiler.as_dict()["a"]["total_s"] == total


class TestMergeSpans:
    def test_merges_by_name(self):
        into = {"a": {"total_s": 1.0, "count": 1}}
        merge_spans(into, {"a": {"total_s": 2.0, "count": 3},
                           "b": {"total_s": 0.5, "count": 1}})
        assert into == {"a": {"total_s": 3.0, "count": 4},
                        "b": {"total_s": 0.5, "count": 1}}


class FakeEstimate:
    __dataclass_fields__ = {"metadata": None}

    def __init__(self, perf):
        self.metadata = {"perf": perf}


class TestCollectAndMerge:
    def perf_dict(self, evals=100, hits=5, misses=5):
        return {"spans": {"stage2-label": {"total_s": 1.0, "count": 2}},
                "device_model_evals": evals, "cache_hits": hits,
                "cache_misses": misses, "cache_evictions": 0,
                "cache_entries": 10, "screened": 90, "refined": 10}

    def test_collect_walks_nested_containers(self):
        a, b = FakeEstimate(self.perf_dict()), FakeEstimate(self.perf_dict())
        _, found = collect_runs({"first": a, "rest": [b, None, 7]})
        assert len(found) == 2

    def test_collect_handles_plain_objects(self):
        assert collect_runs(None) == ([], [])
        assert collect_runs("text") == ([], [])
        assert collect_runs(FakeEstimate(self.perf_dict()))[1] != []

    def test_collect_gathers_health_and_perf_in_one_walk(self):
        with_health = FakeEstimate(self.perf_dict(evals=1))
        with_health.health = HealthReport(policy="recover")
        reports, perfs = collect_runs(
            [with_health, {"b": FakeEstimate(self.perf_dict(evals=2))}])
        assert reports == [with_health.health]
        assert [perf["device_model_evals"] for perf in perfs] == [1, 2]

    def test_merge_sums_counters_and_recomputes_rates(self):
        merged = merge_perf([self.perf_dict(evals=100, hits=8, misses=2),
                             self.perf_dict(evals=50, hits=0, misses=10)])
        assert merged["runs"] == 2
        assert merged["device_model_evals"] == 150
        assert merged["cache_hit_rate"] == 8 / 20
        assert merged["screened_fraction"] == 180 / 200
        assert merged["spans"]["stage2-label"]["count"] == 4

    def test_merge_empty(self):
        merged = merge_perf([])
        assert merged["runs"] == 0
        assert merged["cache_hit_rate"] == 0.0

    def test_renderers(self):
        merged = merge_perf([self.perf_dict()])
        text = render_text(merged)
        assert "device-model evals" in text and "stage2-label" in text

