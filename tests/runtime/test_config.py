"""Tests for ExecutionConfig validation and chunk-size resolution."""

import dataclasses

import pytest

from repro.perf import PerfConfig
from repro.runtime import BACKENDS, ExecutionConfig
from repro.runtime.config import MIN_PURE_CHUNK


class TestValidation:
    def test_defaults_are_serial(self):
        cfg = ExecutionConfig()
        assert cfg.backend == "serial"
        assert not cfg.is_parallel
        assert cfg.effective_workers == 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ExecutionConfig(backend="gpu")

    def test_process_is_the_only_pool(self):
        assert BACKENDS == ("serial", "process")
        with pytest.raises(ValueError, match="unknown backend 'thread'"):
            ExecutionConfig(backend="thread")

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            ExecutionConfig(workers=0)

    def test_only_backend_and_workers_remain(self):
        """Execution is backend + workers and the perf config is the
        solve-cache path; a new knob needs a caller that sets it."""
        assert [f.name for f in dataclasses.fields(ExecutionConfig)] == [
            "backend", "workers"]
        assert [f.name for f in dataclasses.fields(PerfConfig)] == [
            "cache_path"]


class TestChunkResolution:
    def test_pure_serial_is_single_chunk(self):
        assert ExecutionConfig().resolve_chunk_size(5000) == 5000

    def test_pure_parallel_scales_with_workers(self):
        cfg = ExecutionConfig(backend="process", workers=4)
        size = cfg.resolve_chunk_size(16_000)
        assert size == 1000  # four chunks per worker
        assert cfg.resolve_chunk_size(100) == MIN_PURE_CHUNK
        assert cfg.resolve_chunk_size(40) == 40  # never exceeds the block
        assert cfg.resolve_chunk_size(10_000) >= MIN_PURE_CHUNK

    def test_zero_items(self):
        assert ExecutionConfig().resolve_chunk_size(0) == 1
