"""Graceful SIGTERM/SIGINT handling for long-running workloads.

A :class:`GracefulShutdown` coordinator turns process signals into a
*cooperative* stop request: the handler only sets a flag, and the
running workload drains to its next checkpoint-safe boundary, where
:meth:`repro.checkpoint.manager.CheckpointManager.maybe_save` force-
writes a final snapshot and raises
:class:`~repro.errors.ShutdownRequested`.  The run then unwinds
normally -- worker pools are shut down with ``Executor.close()``
(``shutdown(wait=True)``), run metrics are flushed by the executor's
``finally`` accounting, and caches are persisted by the caller --
instead of relying on interpreter teardown / pool GC, which on a
``ProcessPoolExecutor`` routinely leaks orphan workers.

A *second* signal escalates: the original handler is restored and
re-raised, so a stuck drain can still be interrupted the hard way.

The module-level :func:`default_coordinator` is what the checkpoint
manager consults; entry points (the ``ecripse`` CLI, the
:mod:`repro.service` daemon) call :meth:`GracefulShutdown.install` on
it from the main thread.
"""

from __future__ import annotations

import signal
import threading

#: default signals a coordinator listens for.
DEFAULT_SIGNALS: tuple[signal.Signals, ...] = (
    signal.SIGTERM, signal.SIGINT)


class GracefulShutdown:
    """Thread-safe shutdown flag fed by process signals.

    The coordinator can also be tripped programmatically with
    :meth:`request` (used by tests and by the service daemon's
    HTTP-level shutdown), so nothing here requires actual signals.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._reason: str | None = None
        self._previous: dict[int, object] = {}

    # -- flag ----------------------------------------------------------
    @property
    def requested(self) -> bool:
        """True once a shutdown has been requested."""
        return self._event.is_set()

    @property
    def reason(self) -> str | None:
        """What triggered the request (``"SIGTERM"``, ``"cancel"``...)."""
        with self._lock:
            return self._reason

    def request(self, reason: str = "shutdown") -> None:
        """Trip the flag (idempotent; first reason wins)."""
        with self._lock:
            if not self._event.is_set():
                self._reason = reason
                self._event.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until a shutdown is requested (or timeout)."""
        return self._event.wait(timeout)

    def reset(self) -> None:
        """Clear the flag (tests; a daemon restart reuses the module
        coordinator)."""
        with self._lock:
            self._event.clear()
            self._reason = None

    # -- signal plumbing ----------------------------------------------
    def install(self, signals: tuple[signal.Signals, ...] = DEFAULT_SIGNALS
                ) -> "GracefulShutdown":
        """Register handlers (main thread only); returns ``self``.

        The previous handlers are remembered and restored by
        :meth:`uninstall` -- or by the escalation path: a second signal
        while a drain is in progress restores the original disposition
        and re-raises it, so an operator can always force a stop.
        """
        for signum in signals:
            self._previous[int(signum)] = signal.signal(
                signum, self._handle)
        return self

    def uninstall(self) -> None:
        """Restore the handlers captured by :meth:`install`."""
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)  # type: ignore[arg-type]
        self._previous.clear()

    def _handle(self, signum: int, frame: object) -> None:
        if self.requested:
            # Escalation: restore whatever was installed before us and
            # re-deliver, so a wedged drain still dies.
            previous = self._previous.get(signum, signal.SIG_DFL)
            signal.signal(signum, previous)  # type: ignore[arg-type]
            signal.raise_signal(signum)
            return
        self.request(signal.Signals(signum).name)


#: process-wide coordinator consulted by the checkpoint manager.
_DEFAULT = GracefulShutdown()


def default_coordinator() -> GracefulShutdown:
    """The process-wide coordinator (install it from an entry point)."""
    return _DEFAULT
