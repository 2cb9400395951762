"""repro.runtime -- a pluggable parallel execution engine.

One :class:`Executor` API, two backends (``serial`` and ``process``),
bit-identical results on both for a fixed seed (row-pure labelling
chunks, and RNG-consuming tasks that carry their own child
generators), a serial fallback for a chunk that fails on the pool, and
per-chunk :class:`RunMetrics` telemetry.  This is the seam the
estimator hot paths (:class:`~repro.core.ecripse.EcripseEstimator`'s
simulation batches and :class:`~repro.core.naive.NaiveMonteCarlo`'s
chunks) execute through.
:mod:`repro.runtime.blas` pins OpenBLAS to one thread (numpy's at
``import repro``, scipy's at its first use), so the process pool is the
package's only parallelism.
"""

from __future__ import annotations

from repro.runtime.backends import ProcessBackend
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
    "absorb_perf_stats",
    "chunk_sizes",
    "default_coordinator",
    "evaluate_indicator_stats",
    "indicator_perf_stats",
    "perf_metadata",
    "perf_stats_delta",
    "plan_chunks",
    "shutdown_requested",
]
