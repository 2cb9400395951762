"""Exception hierarchy for the :mod:`repro` package.

All library-specific failures derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
:class:`DegradationError` extends the single-root hierarchy for the
health layer (:mod:`repro.health`): it is raised only under
``HealthPolicy.strict`` when a numerical-degradation monitor trips that
has no organic typed error of its own.  The sibling
:class:`HealthyDegradation` is a *warning* category (not an error): it
is emitted when a recovery path engages under the ``recover`` or
``permissive`` policies, so callers can surface or silence degradation
chatter with the standard :mod:`warnings` machinery.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class NetlistError(ReproError):
    """Raised for malformed circuit descriptions (unknown nodes, duplicate
    element names, missing ground, ...)."""


class ConvergenceError(ReproError):
    """Raised when a nonlinear solve fails to converge.

    Carries the KCL residual of the best iterate reached (finite by
    construction in :class:`~repro.spice.solver.DcSolver`, which also
    prints it in the message), so a failed solve is always diagnosable.
    ``None`` when no residual exists.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class CalibrationError(ReproError):
    """Raised when a model cannot be calibrated to the requested target."""


class EstimationError(ReproError):
    """Raised when a failure-probability estimator cannot produce a valid
    estimate (e.g. zero failure samples after exhausting its budget)."""


class ClassifierError(ReproError):
    """Raised for invalid classifier usage (predicting before training,
    inconsistent feature dimensions, degenerate training sets)."""


class BudgetExceededError(ReproError):
    """Raised when a simulation budget is exhausted mid-run."""

    def __init__(self, message: str, spent: int, budget: int):
        super().__init__(message)
        self.spent = spent
        self.budget = budget


class CheckpointError(ReproError):
    """Raised when a checkpoint cannot be written, read or applied: a
    corrupted manifest, a checksum mismatch, a schema written by a newer
    build, or a snapshot that does not match the estimator it is being
    restored into."""


class CheckpointCrash(ReproError):
    """Raised by the checkpoint crash injector immediately *after* a
    checkpoint has been durably written.

    This is test/CI machinery (``--crash-after-checkpoints``): it
    simulates a process kill at a checkpoint boundary so the kill/resume
    invariant can be exercised deterministically.  It is never raised in
    normal operation.
    """


class DegradationError(ReproError):
    """Raised *only* under ``HealthPolicy.strict`` when a health monitor
    detects numerical degradation that has no organic typed error of its
    own (particle-filter lobe collapse, an importance-weight ESS floor
    breach, a weight-clip trigger).

    Under the ``recover`` and ``permissive`` policies the same
    detections run a recovery path and emit a :class:`HealthyDegradation`
    warning instead.  Carries the health-event category so callers can
    tell which monitor tripped without parsing the message.
    """

    def __init__(self, message: str, category: str | None = None):
        super().__init__(message)
        self.category = category


class HealthyDegradation(UserWarning):
    """Warning category for recovered numerical degradation.

    Emitted by :mod:`repro.health` whenever a recovery path engages
    under ``HealthPolicy.recover`` / ``permissive`` (filter re-seed,
    mixture widening, classifier blockade, rule-of-three upper bound).
    The run continues; the full detail lands in the
    :class:`~repro.health.events.HealthReport` attached to the estimate.
    """


class ShutdownRequested(ReproError):
    """Raised at a checkpoint-safe boundary after a graceful-shutdown
    request (SIGTERM/SIGINT via :mod:`repro.runtime.signals`, or a
    service-level interrupt such as a job cancellation).

    By construction the snapshot announcing this exception is already
    durably on disk: :meth:`~repro.checkpoint.manager.CheckpointManager.
    maybe_save` force-saves *before* raising, so a run unwound by this
    exception resumes bit-identically from where it stopped.  Carries
    the interrupt reason (``"SIGTERM"``, ``"cancel"``, ...).
    """

    def __init__(self, reason: str = "shutdown"):
        super().__init__(f"graceful shutdown requested ({reason})")
        self.reason = reason


class ServiceError(ReproError):
    """Raised by :mod:`repro.service` for protocol-level failures: an
    invalid job spec, an illegal job state transition, or a store
    directory that cannot be recovered."""


class ExecutionError(ReproError):
    """Raised when the parallel runtime cannot complete a task: the chunk
    failed on the pool *and* failed again in the in-process fallback.

    Carries the index of the offending chunk so callers can correlate it
    with the :class:`~repro.runtime.metrics.RunMetrics` chunk records.
    """

    def __init__(self, message: str, chunk_index: int | None = None):
        super().__init__(message)
        self.chunk_index = chunk_index
