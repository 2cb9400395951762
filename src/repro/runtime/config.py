"""Execution configuration for the parallel runtime.

An :class:`ExecutionConfig` fully determines *how* a workload is executed
(backend, worker count, retry policy) and -- for RNG-consuming workloads
-- *how it is decomposed* into chunks.  The decomposition is part of the
statistical definition of a run: every chunk receives its own child
generator (see :meth:`repro.runtime.executor.Executor.map_chunks`), so two
runs with the same seed and the same chunking are bit-identical on every
backend, while changing ``chunk_size`` reshuffles the streams exactly
like changing ``batch_size`` always has for
:class:`~repro.core.naive.NaiveMonteCarlo`.

For that reason the *default* chunk size of an RNG-dependent workload
depends only on the problem size, never on the backend or worker count --
``serial``, ``thread`` and ``process`` runs of the same problem agree
bit-for-bit out of the box.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

#: Recognised backend names.
BACKENDS: tuple[str, ...] = ("serial", "thread", "process")

#: Default chunk size for RNG-dependent workloads.  Backend-independent by
#: design so parallel and serial runs share one stream decomposition.
DEFAULT_RNG_CHUNK = 1024

#: Smallest chunk the pure-workload heuristic will produce; keeps the
#: vectorised indicator batches from degenerating into per-row calls.
MIN_PURE_CHUNK = 64


@dataclass(frozen=True)
class ExecutionConfig:
    """How estimator workloads are executed.

    Attributes
    ----------
    backend:
        ``"serial"`` (in-process, the default), ``"thread"``
        (``ThreadPoolExecutor``) or ``"process"``
        (``ProcessPoolExecutor``).
    workers:
        Pool size for the parallel backends; ``None`` means
        ``os.cpu_count()``.
    chunk_size:
        Rows per chunk when splitting a sample block; ``None`` picks a
        heuristic (problem-size-only for RNG-dependent workloads, scaled
        to ``4 * workers`` chunks for pure ones).
    max_retries:
        In-backend retries per failed chunk before falling back.
    retry_backoff_s:
        Sleep before retry ``k`` is ``k * retry_backoff_s`` (bounded
        linear backoff).
    fallback_serial:
        After retries are exhausted (or the pool itself breaks), run the
        chunk in the parent process; disabling this turns chunk failures
        into :class:`~repro.errors.ExecutionError`.
    """

    backend: str = "serial"
    workers: int | None = None
    chunk_size: int | None = None
    max_retries: int = 2
    retry_backoff_s: float = 0.05
    fallback_serial: bool = True

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{BACKENDS}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}")

    # ------------------------------------------------------------------
    @property
    def is_parallel(self) -> bool:
        """Whether a worker pool is used at all."""
        return self.backend != "serial"

    @property
    def effective_workers(self) -> int:
        """Resolved pool size (1 for the serial backend)."""
        if not self.is_parallel:
            return 1
        if self.workers is not None:
            return self.workers
        return os.cpu_count() or 1

    def resolve_chunk_size(self, n_items: int,
                           rng_dependent: bool = False) -> int:
        """Chunk size for a block of ``n_items`` rows.

        RNG-dependent workloads get a backend-independent default so the
        stream decomposition (and therefore the estimate) is identical
        across backends; pure workloads scale to roughly four chunks per
        worker, collapsing to one chunk on the serial backend.
        """
        if self.chunk_size is not None:
            return self.chunk_size
        if n_items < 1:
            return 1
        if rng_dependent:
            return min(n_items, DEFAULT_RNG_CHUNK)
        if not self.is_parallel:
            return n_items
        per_chunk = -(-n_items // (4 * self.effective_workers))
        return min(n_items, max(MIN_PURE_CHUNK, per_chunk))

    def with_(self, **changes) -> "ExecutionConfig":
        """Return a copy with ``changes`` applied (dataclass replace)."""
        return replace(self, **changes)
