"""Tests for the runtime telemetry containers."""

import json

from repro.runtime import ChunkRecord, RunMetrics


def _metrics() -> RunMetrics:
    return RunMetrics(
        label="unit", backend="process", workers=4, wall_time_s=2.0,
        n_items=200, n_simulations=150,
        records=[
            ChunkRecord(index=0, size=100, wall_time_s=0.9,
                        where="process"),
            ChunkRecord(index=1, size=100, wall_time_s=1.0,
                        where="serial-fallback", fell_back=True),
        ])


class TestRunMetrics:
    def test_derived_counts(self):
        m = _metrics()
        assert m.n_chunks == 2
        assert m.n_fallbacks == 1
        assert m.items_per_s == 100.0
        assert m.chunk_time_s == 1.9

    def test_as_dict_and_json_roundtrip(self):
        m = _metrics()
        loaded = json.loads(json.dumps(m.as_dict()))
        assert loaded["backend"] == "process"
        assert loaded["n_simulations"] == 150
        assert loaded["n_fallbacks"] == 1
        assert loaded["n_chunks"] == 2
        assert loaded["chunk_time_s"] == 1.9

    def test_report_text(self):
        text = _metrics().report()
        assert "backend=process" in text
        assert "fallbacks" in text
        assert "items/s" in text

    def test_merge(self):
        merged = RunMetrics.merge([_metrics(), _metrics()], label="all")
        assert merged.label == "all"
        assert merged.n_items == 400
        assert merged.n_chunks == 4
        assert merged.n_simulations == 300
        assert [r.index for r in merged.records] == [0, 1, 2, 3]
        assert merged.wall_time_s == 4.0

    def test_merge_empty(self):
        merged = RunMetrics.merge([])
        assert merged.n_chunks == 0
        assert merged.items_per_s == 0.0
