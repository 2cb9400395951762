"""Resilience configuration for the service daemon.

:class:`ChaosConfig` bundles everything the daemon needs to survive a
hostile environment: the (optional) filesystem fault schedule, the job
lease the watchdog enforces, and the poison-job attempt budget.  None
of these fields may influence an estimate -- a job retried under a
shorter lease must still hit the result cache written under a longer
one -- so every field is *excluded* from fingerprint identity, and the
REP009 fingerprint-drift lint pins that classification to the
:data:`_RESILIENCE_FIELDS` constant below (the same contract shape as
``JobSpec._NONRESULT_FIELDS``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: every ChaosConfig field, by construction resilience-only: the REP009
#: contract asserts this literal equals the excluded-field set, so a
#: new field cannot silently become identity-bearing.
_RESILIENCE_FIELDS = frozenset({"inject_fs", "lease_s", "max_attempts"})


@dataclass(frozen=True)
class ChaosConfig:
    """Operational resilience knobs (never identity-bearing).

    Parameters
    ----------
    inject_fs:
        Fault schedule for the filesystem plane (see
        :mod:`repro.chaos.fsops`); ``None`` runs on the real
        filesystem.  Test/CI only -- a production daemon never sets it.
    lease_s:
        How long a worker owns a ``running`` job before the watchdog
        may reclaim it.  Workers renew at every checkpoint boundary,
        so the lease only expires when a worker hangs or dies.
    max_attempts:
        Attempt budget per job: once a job has started this many times
        and still not finished, the next failure or lease expiry
        dead-letters it instead of re-queueing.  A per-job
        ``JobSpec.max_attempts`` overrides this default.
    """

    inject_fs: str | None = None
    lease_s: float = 60.0
    max_attempts: int = 3

    def __post_init__(self) -> None:
        # NaN passes a plain `<= 0` check and would make the watchdog
        # sweep in a busy loop (its cadence is lease_s / 4)
        if not (math.isfinite(self.lease_s) and self.lease_s > 0):
            raise ValueError(
                f"lease_s must be finite and > 0, got {self.lease_s}")
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")

    @property
    def sweep_interval_s(self) -> float:
        """The watchdog cadence: a quarter of the lease, so a hung
        worker is reclaimed well within one lease interval."""
        return self.lease_s / 4.0
