"""Structured health events and the per-run report.

Every guardrail detection and recovery action becomes one
:class:`HealthEvent`; a run's events accumulate into a
:class:`HealthReport` that is attached to the
:class:`~repro.core.estimate.FailureEstimate`, serialised through
checkpoint snapshots (plain dict trees only, so the codec's strict type
policy accepts it) and rendered by the CLI's ``--report`` flag.

Determinism matters here: events carry *logical* positions (stage,
iteration, batch) and never wall-clock timestamps, so a killed and
resumed run reproduces the uninterrupted report exactly and the report
is bit-identical across execution backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: event severities, mildest first.
SEVERITIES = ("info", "warning", "critical")

#: fault/detection categories the monitors emit.
CATEGORIES = ("solver", "filter-degeneracy", "is-weight", "one-class",
              "zero-failures")


@dataclass(frozen=True)
class HealthEvent:
    """One guardrail detection or recovery action.

    Attributes
    ----------
    stage:
        Where in the pipeline it happened (``"stage1"``, ``"stage2"``,
        ``"solver"``, ``"classifier"``).
    category:
        Fault class, one of :data:`CATEGORIES`.
    severity:
        One of :data:`SEVERITIES`.
    message:
        Human-readable description.
    recovered:
        Whether a recovery action restored a usable state.
    details:
        Structured context (filter index, iteration, ESS fraction, ...);
        scalars only, so the event rides through JSON and the
        checkpoint codec unchanged.
    """

    stage: str
    category: str
    severity: str
    message: str
    recovered: bool = False
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")

    def as_dict(self) -> dict:
        """Plain-dict form (JSON persistence and checkpoint snapshots)."""
        return {"stage": self.stage, "category": self.category,
                "severity": self.severity, "message": self.message,
                "recovered": self.recovered, "details": dict(self.details)}

    @classmethod
    def from_dict(cls, data: dict) -> "HealthEvent":
        """Inverse of :meth:`as_dict`."""
        return cls(stage=str(data["stage"]), category=str(data["category"]),
                   severity=str(data["severity"]),
                   message=str(data["message"]),
                   recovered=bool(data["recovered"]),
                   details=dict(data.get("details", {})))


@dataclass
class HealthReport:
    """All health events of one estimator run, plus the bias flags.

    Attributes
    ----------
    policy:
        Name of the :class:`~repro.health.policy.HealthPolicy` the run
        used.
    events:
        Events in detection order (deterministic).
    biased:
        Weight clipping engaged: the estimate is no longer strictly
        unbiased.
    upper_bound:
        The returned ``pfail`` is a rule-of-three upper bound, not a
        point estimate (zero stage-2 failure samples).
    """

    policy: str = "strict"
    events: list[HealthEvent] = field(default_factory=list)
    biased: bool = False
    upper_bound: bool = False

    def __bool__(self) -> bool:
        return bool(self.events) or self.biased or self.upper_bound

    # -- aggregation ---------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Event count per severity (zero-filled)."""
        out = {severity: 0 for severity in SEVERITIES}
        for event in self.events:
            out[event.severity] += 1
        return out

    def by_stage(self) -> dict[str, int]:
        """Event count per pipeline stage, in first-seen order."""
        out: dict[str, int] = {}
        for event in self.events:
            out[event.stage] = out.get(event.stage, 0) + 1
        return out

    def by_category(self) -> dict[str, int]:
        """Event count per fault category, in first-seen order."""
        out: dict[str, int] = {}
        for event in self.events:
            out[event.category] = out.get(event.category, 0) + 1
        return out

    def recovered_count(self) -> int:
        return sum(1 for event in self.events if event.recovered)

    # -- serialisation -------------------------------------------------
    def as_dict(self) -> dict:
        """Plain-dict form, including the aggregate breakdowns."""
        return {
            "policy": self.policy,
            "biased": self.biased,
            "upper_bound": self.upper_bound,
            "counts": self.counts(),
            "by_stage": self.by_stage(),
            "by_category": self.by_category(),
            "recovered": self.recovered_count(),
            "events": [event.as_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HealthReport":
        """Inverse of :meth:`as_dict` (aggregates are recomputed)."""
        return cls(policy=str(data.get("policy", "strict")),
                   events=[HealthEvent.from_dict(e)
                           for e in data.get("events", [])],
                   biased=bool(data.get("biased", False)),
                   upper_bound=bool(data.get("upper_bound", False)))

    @classmethod
    def merged(cls, reports: "list[HealthReport]") -> "HealthReport":
        """Combine several runs' reports (multi-run CLI commands)."""
        if not reports:
            return cls()
        merged = cls(policy=reports[0].policy)
        for report in reports:
            merged.events.extend(report.events)
            merged.biased = merged.biased or report.biased
            merged.upper_bound = merged.upper_bound or report.upper_bound
        return merged

    # -- rendering -----------------------------------------------------
    def render_text(self) -> str:
        """Human-readable multi-line rendering."""
        counts = self.counts()
        lines = [f"health report (policy: {self.policy})",
                 "  events: " + ", ".join(
                     f"{counts[s]} {s}" for s in SEVERITIES)
                 + f"; {self.recovered_count()} recovered"]
        if self.biased:
            lines.append("  BIASED: importance-weight clipping engaged")
        if self.upper_bound:
            lines.append("  UPPER BOUND: pfail is a rule-of-three bound, "
                         "not a point estimate")
        for stage, n in self.by_stage().items():
            lines.append(f"  {stage}: {n} event(s)")
        for event in self.events:
            flag = "recovered" if event.recovered else event.severity
            lines.append(f"    [{flag}] {event.stage}/{event.category}: "
                         f"{event.message}")
        if not self.events:
            lines.append("  no degradation detected")
        return "\n".join(lines)
