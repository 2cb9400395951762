"""Execution configuration for the parallel runtime.

An :class:`ExecutionConfig` says *how* a workload is executed: on which
backend and with how many workers.  It never changes a result.  The
work that consumes random streams fixes its own decomposition (naive
Monte Carlo chunks at its fingerprinted ``batch_size``, one child
generator per chunk), and the blocks
:meth:`~repro.runtime.executor.Executor.map_chunks` splits are labelled
row by row, so their chunking may follow the worker count -- ``serial``
and ``process`` runs of the same problem agree bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: Recognised backend names.
BACKENDS: tuple[str, ...] = ("serial", "process")

#: Smallest chunk the worker-scaled split will produce; keeps the
#: vectorised indicator batches from degenerating into per-row calls.
MIN_PURE_CHUNK = 64


@dataclass(frozen=True)
class ExecutionConfig:
    """How estimator workloads are executed.

    Attributes
    ----------
    backend:
        ``"serial"`` (in-process, the default) or ``"process"``
        (``ProcessPoolExecutor``).
    workers:
        Pool size for the process backend; ``None`` means
        ``os.cpu_count()``.
    """

    backend: str = "serial"
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{BACKENDS}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

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

    def resolve_chunk_size(self, n_items: int) -> int:
        """Chunk size for a row-pure block of ``n_items`` rows.

        One chunk on the serial backend; roughly four chunks per worker
        on the process pool, never below :data:`MIN_PURE_CHUNK` rows and
        never above the block.
        """
        if n_items < 1:
            return 1
        if not self.is_parallel:
            return n_items
        per_chunk = -(-n_items // (4 * self.effective_workers))
        return min(n_items, max(MIN_PURE_CHUNK, per_chunk))
