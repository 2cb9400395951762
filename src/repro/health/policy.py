"""Health policies and the per-run health config.

A :class:`HealthPolicy` decides what happens when a numerical guardrail
trips:

* ``strict`` -- recovery is disabled.  Organic failures keep their
  original typed errors (:class:`~repro.errors.ClassifierError`,
  :class:`~repro.errors.EstimationError`); monitor-only detections with
  no organic error raise :class:`~repro.errors.DegradationError`.
  Healthy runs behave bit-identically to a build without the health
  layer -- the monitors only *record*.
* ``recover`` -- the recovery path runs (filter re-seeding, mixture
  widening, classifier blockade, rule-of-three upper bound) within the
  thresholds fixed in :mod:`repro.health.monitor`; every engagement
  emits a :class:`~repro.errors.HealthyDegradation` warning and a
  :class:`~repro.health.events.HealthEvent`.  Recovery that cannot
  restore a usable state re-raises the original typed error.
* ``permissive`` -- runs exactly the ``recover`` paths under its own
  name.  It stays a separate member because stored job specs, the
  ``--health-policy`` flag and the result cache are keyed on it.

No policy retries a simulation batch: labelling is deterministic, so an
indicator's :class:`~repro.errors.ConvergenceError` propagates under
all three.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.health.inject import parse_fault_spec


class HealthPolicy(enum.Enum):
    """How the health layer responds to detected degradation."""

    STRICT = "strict"
    RECOVER = "recover"
    PERMISSIVE = "permissive"

    @classmethod
    def coerce(cls, value: "HealthPolicy | str") -> "HealthPolicy":
        """Accept a policy instance or its string name (CLI surface)."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.strip().lower())
            except ValueError:
                pass
        names = ", ".join(p.value for p in cls)
        raise ValueError(
            f"unknown health policy {value!r}; expected one of {names}")


@dataclass(frozen=True)
class HealthConfig:
    """Health settings for one estimator run.

    Attributes
    ----------
    policy:
        The :class:`HealthPolicy` (or its string name).
    inject:
        Deterministic fault-injection spec (test/CI machinery; see
        :mod:`repro.health.inject`).  ``None`` disables injection.

    Both fields change results, so both enter the estimator fingerprint
    through the stand-in in :mod:`repro.core.ecripse`; a new field needs
    the same decision there and in lint rule REP009's contract table.
    """

    policy: HealthPolicy = HealthPolicy.STRICT
    inject: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "policy", HealthPolicy.coerce(self.policy))
        if self.inject is not None:
            parse_fault_spec(self.inject)  # fail fast on malformed specs

    @property
    def strict(self) -> bool:
        return self.policy is HealthPolicy.STRICT
