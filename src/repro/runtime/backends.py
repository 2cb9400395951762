"""The worker pool behind the :class:`~repro.runtime.executor.Executor`.

:class:`ProcessBackend` wraps a ``ProcessPoolExecutor`` created lazily
on first submit and disposable via :meth:`~ProcessBackend.close` (a
closed backend transparently re-creates its pool on the next submit, so
executors can be reused).  The serial "backend" is intentionally
absent: the executor runs serial work inline so that laziness (early
stopping) costs nothing.

The pool runs one interpreter per worker and pays pool start-up and
pickling per task.  It is the only pool: a thread pool matched it on
naive Monte Carlo and was the slowest backend on an RTN ECRIPSE
estimate (docs/TUNING.md has the measured numbers).
"""

from __future__ import annotations

import signal
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable


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


class ProcessBackend:
    """``ProcessPoolExecutor``-backed execution (one interpreter per
    worker; tasks and results travel by pickle)."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None

    def submit(self, fn: Callable, /, *args) -> Future:
        """Schedule ``fn(*args)`` on the pool (created on first use)."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker_ignores_interrupt)
        return self._pool.submit(fn, *args)

    def close(self) -> None:
        """Shut the pool down; a later submit re-creates it."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"
