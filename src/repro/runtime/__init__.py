"""repro.runtime -- a pluggable parallel execution engine.

One :class:`Executor` API, three backends (``serial``, ``thread``,
``process``), bit-identical results across all of them for a fixed seed
(chunk plans and per-chunk RNG spawning are backend-independent), bounded
retries with serial fallback, and per-chunk :class:`RunMetrics`
telemetry.  This is the seam the estimator hot paths
(:class:`~repro.core.ecripse.EcripseEstimator`,
:class:`~repro.core.filter.ParticleFilterBank`,
:class:`~repro.core.naive.NaiveMonteCarlo`) execute through; later
sharding / async / multi-host work plugs in behind the same
:class:`ExecutionConfig`.
"""

from __future__ import annotations

from repro.runtime.backends import ProcessBackend, ThreadBackend, make_backend
from repro.runtime.chunking import chunk_sizes, plan_chunks
from repro.runtime.config import BACKENDS, ExecutionConfig
from repro.runtime.executor import Executor
from repro.runtime.metrics import ChunkRecord, RunMetrics
from repro.runtime.signals import (
    GracefulShutdown,
    default_coordinator,
    shutdown_requested,
)
from repro.runtime.tasks import (
    absorb_perf_stats,
    evaluate_indicator_stats,
    indicator_perf_stats,
    perf_metadata,
    perf_stats_delta,
)

__all__ = [
    "BACKENDS",
    "ChunkRecord",
    "ExecutionConfig",
    "Executor",
    "GracefulShutdown",
    "ProcessBackend",
    "RunMetrics",
    "ThreadBackend",
    "absorb_perf_stats",
    "chunk_sizes",
    "default_coordinator",
    "evaluate_indicator_stats",
    "indicator_perf_stats",
    "make_backend",
    "perf_metadata",
    "perf_stats_delta",
    "plan_chunks",
    "shutdown_requested",
]
