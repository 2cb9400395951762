"""Declarative job specifications.

A :class:`JobSpec` is the unit the service accepts over HTTP: a frozen,
validated description of one estimation problem plus its scheduling
hints.  The result-determining fields (problem + budget + seed) feed
:meth:`JobSpec.fingerprint`, the key of the durable result cache --
two submissions with equal fingerprints are *the same job* and the
second is served from the result store with zero new simulations.

Scheduling hints (``priority``, ``checkpoint_every``, ``max_attempts``)
deliberately stay out of the fingerprint, exactly like the execution
backend stays out of the estimator fingerprints: they change *how* (or
how often) a job runs, never what it computes -- a job retried under a
different attempt budget must still hit the same result-cache entry.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields, replace

from repro.analysis.ecc import ArrayConfig
from repro.errors import ServiceError
from repro.health.policy import HealthPolicy

#: job kinds the worker knows how to build (see repro.service.worker).
JOB_KINDS: tuple[str, ...] = ("estimate", "naive", "array")

#: bumped when the spec layout changes incompatibly.
SPEC_SCHEMA = 1

#: fields that do not participate in the result fingerprint: the
#: scheduling/resilience hints.
_NONRESULT_FIELDS = frozenset(
    {"priority", "checkpoint_every", "max_attempts"})

#: numeric fields, ``(name, integral, optional)``: each must be a finite
#: real number that is not a bool, integral where marked, and may be
#: ``None`` only where marked
_NUMBER_FIELDS = (
    ("vdd", False, True), ("alpha", False, True), ("seed", True, False),
    ("target_relative_error", False, False),
    ("max_simulations", True, True), ("n_samples", True, False),
    ("grid_points", True, False), ("pfail", False, True),
    ("priority", True, False), ("checkpoint_every", True, False),
    ("max_attempts", True, True))


@dataclass(frozen=True)
class JobSpec:
    """One estimation job.

    Attributes
    ----------
    kind:
        ``"estimate"`` runs the two-stage ECRIPSE estimator;
        ``"naive"`` runs the chunked naive Monte-Carlo reference;
        ``"array"`` answers the array-reliability decision question
        (:func:`repro.analysis.ecc.analyze_array`), either from a
        directly supplied ``pfail`` or by chaining a full estimator
        run.
    vdd:
        Supply voltage [V]; ``None`` means the paper's nominal supply.
    alpha:
        RTN duty ratio; ``None`` disables RTN (RDF-only).
    seed:
        Estimator seed -- part of the fingerprint: a different seed is
        a different (statistically independent) job.
    target_relative_error:
        Stop when the 95 % CI relative error drops below this.
    max_simulations:
        Simulation budget; ``None`` lets the service apply its default
        quota.  The *clamped* value is canonical (see
        :meth:`repro.service.scheduler.QuotaPolicy.apply`).
    n_samples:
        Sample budget for ``kind="naive"`` (clamped by the same quota).
    quick:
        Use the reduced-budget smoke configuration
        (:meth:`~repro.core.ecripse.EcripseConfig.quick`), matching the
        CLI's ``--quick`` bit-for-bit.
    grid_points:
        Butterfly grid resolution of the evaluator.
    health_policy:
        ``strict`` / ``recover`` / ``permissive`` (see
        :mod:`repro.health`); part of the fingerprint because recovery
        paths may legitimately change the estimate.
    pfail:
        Direct cell failure probability for ``kind="array"``; ``None``
        chains an estimator run first.  Part of the fingerprint: a
        different pfail is a different decision question.
    array:
        The :class:`~repro.analysis.ecc.ArrayConfig` describing the
        array-reliability question (``kind="array"`` only).  Submitted
        as a nested JSON object; canonicalised to tuples so the wire
        round trip cannot change the fingerprint.
    priority:
        Larger runs first (ties FIFO).  Scheduling-only.
    checkpoint_every:
        Snapshot cadence in simulations.  Scheduling-only: cadence
        never changes the result (the kill/resume bit-identity
        guarantee), so jobs differing only here share a cache entry.
    max_attempts:
        Per-job attempt budget before the daemon dead-letters the job;
        ``None`` uses the daemon's configured default
        (:attr:`repro.chaos.config.ChaosConfig.max_attempts`).
        Resilience-only, excluded from the fingerprint.
    """

    kind: str = "estimate"
    vdd: float | None = None
    alpha: float | None = None
    seed: int = 2015
    target_relative_error: float = 0.05
    max_simulations: int | None = None
    n_samples: int = 100_000
    quick: bool = False
    grid_points: int = 61
    health_policy: str = "strict"
    pfail: float | None = None
    array: ArrayConfig | None = None
    priority: int = 0
    checkpoint_every: int = 1000
    max_attempts: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ServiceError(
                f"unknown job kind {self.kind!r}; expected one of "
                f"{', '.join(JOB_KINDS)}")
        self._check_numbers()
        if self.vdd is not None and not 0.0 < float(self.vdd) < 2.0:
            raise ServiceError(
                f"vdd must lie in (0, 2) volts, got {self.vdd}")
        if self.alpha is not None and not 0.0 <= float(self.alpha) <= 1.0:
            raise ServiceError(
                f"alpha must lie in [0, 1], got {self.alpha}")
        if self.target_relative_error <= 0:
            raise ServiceError("target_relative_error must be positive")
        if self.max_simulations is not None and self.max_simulations < 1:
            raise ServiceError(
                f"max_simulations must be >= 1, got "
                f"{self.max_simulations}")
        if self.n_samples < 1:
            raise ServiceError(
                f"n_samples must be >= 1, got {self.n_samples}")
        if self.grid_points < 3:
            raise ServiceError(
                f"grid_points must be >= 3, got {self.grid_points}")
        if self.health_policy not in {p.value for p in HealthPolicy}:
            raise ServiceError(
                f"unknown health_policy {self.health_policy!r}")
        if self.checkpoint_every < 1:
            raise ServiceError(
                f"checkpoint_every must be >= 1, got "
                f"{self.checkpoint_every}")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ServiceError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if isinstance(self.array, dict):
            try:
                object.__setattr__(
                    self, "array", ArrayConfig.from_dict(self.array))
            except (TypeError, ValueError) as exc:
                raise ServiceError(
                    f"invalid array config: {exc}") from exc
        if self.kind == "array":
            if self.array is None:
                # canonical default question, so the fingerprint of
                # "array job with defaults" is unique
                object.__setattr__(self, "array", ArrayConfig())
            if self.pfail is not None \
                    and not 0.0 <= float(self.pfail) <= 0.5:
                raise ServiceError(
                    f"pfail must lie in [0, 0.5], got {self.pfail}")
        else:
            if self.array is not None:
                raise ServiceError(
                    "array config is only valid for kind='array'")
            if self.pfail is not None:
                raise ServiceError(
                    "pfail is only valid for kind='array'")

    def _check_numbers(self) -> None:
        """Reject NaN, infinities, bools and non-integral counts.

        JSON carries ``NaN``/``Infinity`` literals and ``1.5`` for a
        count; each would otherwise slip past the range checks below or
        crash a later ``int()``.  Accepted values are kept as given, so
        their fingerprints do not move.
        """
        for name, integral, optional in _NUMBER_FIELDS:
            value = getattr(self, name)
            if value is None and optional:
                continue
            if isinstance(value, bool) \
                    or not isinstance(value, numbers.Real):
                raise ServiceError(
                    f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ServiceError(f"{name} must be finite, got {value}")
            if integral and value != int(value):
                raise ServiceError(
                    f"{name} must be an integer, got {value}")

    # -- wire format ---------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-ready plain dict (schema-tagged)."""
        data = asdict(self)
        data["schema"] = SPEC_SCHEMA
        return data

    @classmethod
    def from_dict(cls, data: object) -> "JobSpec":
        """Parse and validate a submitted spec.

        Unknown keys are rejected -- a typo'd field silently falling
        back to its default would run (and cache!) the wrong job.
        """
        if not isinstance(data, dict):
            raise ServiceError(
                f"job spec must be a JSON object, got "
                f"{type(data).__name__}")
        payload = dict(data)
        schema = payload.pop("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise ServiceError(
                f"unsupported spec schema {schema!r}; this build "
                f"speaks version {SPEC_SCHEMA}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ServiceError(
                f"unknown spec field(s): {', '.join(unknown)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ServiceError(f"invalid job spec: {exc}") from exc

    def with_(self, **changes: object) -> "JobSpec":
        """Copy with ``changes`` applied (dataclass replace)."""
        return replace(self, **changes)  # type: ignore[arg-type]

    # -- identity ------------------------------------------------------
    def result_fields(self) -> dict:
        """The fields that determine the job's result (canonical
        order) -- everything except the scheduling hints."""
        data = asdict(self)
        return {name: data[name] for name in sorted(data)
                if name not in _NONRESULT_FIELDS}

    def fingerprint(self) -> str:
        """Stable hex id of the *result* this job computes.

        Combines the estimator's checkpoint fingerprint (method,
        configuration, RTN model) with the evaluator's solve
        fingerprint (cell, supply, grid, bisection depths) and the
        spec's own budget/seed fields -- see
        :func:`repro.service.worker.spec_fingerprint`.  Equal
        fingerprints mean bit-identical results, which is the licence
        for the result cache to answer without simulating.
        """
        from repro.service.worker import spec_fingerprint

        return spec_fingerprint(self)
