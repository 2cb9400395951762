"""Worker-pool backends behind the :class:`~repro.runtime.executor.Executor`.

Each backend wraps a ``concurrent.futures`` pool created lazily on first
submit and disposable via :meth:`close` (a closed backend transparently
re-creates its pool on the next submit, so executors can be reused).
The serial "backend" is intentionally absent: the executor runs serial
work inline so that laziness (early stopping) costs nothing.

``thread`` shares the interpreter -- cheap to start, but the pure-Python
SPICE solver holds the GIL, so it only overlaps the NumPy-released
sections.  ``process`` pays pickling/startup per task but scales the
solver across cores; see docs/TUNING.md for the trade-off.
"""

from __future__ import annotations

import signal
from concurrent.futures import (
    Executor as FuturesExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Callable

from repro.runtime.config import ExecutionConfig


def _worker_ignores_interrupt() -> None:
    """Pool-worker initializer: leave interrupt handling to the parent.

    A Ctrl-C is delivered to the whole foreground process group, so
    without this every pool worker dies of ``KeyboardInterrupt``
    mid-chunk and the parent's graceful drain (finish in-flight chunks,
    flush metrics, final checkpoint -- see :mod:`repro.runtime.signals`)
    collects ``BrokenProcessPool`` instead of results.  Workers ignore
    SIGINT; the parent coordinates the shutdown and closes the pool.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class PoolBackend:
    """Shared lazy-pool plumbing for the thread and process backends."""

    name = "pool"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool: FuturesExecutor | None = None

    def _make_pool(self) -> FuturesExecutor:  # pragma: no cover
        raise NotImplementedError

    def submit(self, fn: Callable, /, *args) -> Future:
        """Schedule ``fn(*args)`` on the pool (created on first use)."""
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool.submit(fn, *args)

    def close(self) -> None:
        """Shut the pool down; a later submit re-creates it."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"


class ThreadBackend(PoolBackend):
    """``ThreadPoolExecutor``-backed execution (shared interpreter)."""

    name = "thread"

    def _make_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(max_workers=self.workers,
                                  thread_name_prefix="repro-runtime")


class ProcessBackend(PoolBackend):
    """``ProcessPoolExecutor``-backed execution (one interpreter per
    worker; tasks and results travel by pickle)."""

    name = "process"

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_worker_ignores_interrupt)


def make_backend(config: ExecutionConfig) -> PoolBackend | None:
    """Backend instance for ``config`` (``None`` for serial)."""
    if config.backend == "serial":
        return None
    cls = {"thread": ThreadBackend, "process": ProcessBackend}[config.backend]
    return cls(config.effective_workers)
