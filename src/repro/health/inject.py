"""Deterministic fault injection for the health layer.

Test/CI machinery in the style of the checkpoint layer's
``--crash-after-checkpoints`` injector: a :class:`FaultInjector` is
configured from a compact spec string and *fires* at well-defined seams
inside :class:`~repro.health.monitor.HealthMonitor`, forcing exactly the
degradation each recovery path exists for:

======================  ==================================================
fault kind              effect at the seam
======================  ==================================================
``filter``              one particle filter's stage-1 weights are zeroed
                        (lobe collapse; quarantine + re-seed recovers)
``is-weight``           a stage-2 batch reports a degenerate ESS
                        (mixture widening recovers; the weights handed
                        to the accumulator are untouched, so the
                        estimate stays unbiased)
``one-class``           the labels *fed to the classifier* are forced to
                        a single class (blockade mode recovers; the
                        labels used for weights stay true)
======================  ==================================================

Spec grammar: ``kind[:count[:skip]]`` -- fire ``count`` times after
skipping the first ``skip`` opportunities.  Defaults are chosen so the
bare kind name triggers its recovery path once (e.g. ``filter`` fires
for :data:`~repro.health.monitor.STAGE1_PATIENCE` consecutive
iterations starting at the third, after the filter has come alive).
Firing is a pure function of the injector's counters, which ride in the
health snapshot, so a killed and resumed run injects the identical
fault sequence.
"""

from __future__ import annotations

#: known fault kinds -> (default fire count, default skipped opportunities)
FAULT_KINDS: dict[str, tuple[int, int]] = {
    "filter": (2, 2),
    "is-weight": (2, 1),
    "one-class": (1, 0),
}


def parse_fault_spec(spec: str) -> tuple[str, int, int]:
    """Parse ``kind[:count[:skip]]`` into ``(kind, count, skip)``."""
    parts = spec.strip().lower().split(":")
    kind = parts[0]
    if kind not in FAULT_KINDS:
        known = ", ".join(sorted(FAULT_KINDS))
        raise ValueError(
            f"unknown fault kind {kind!r}; expected one of {known}")
    if len(parts) > 3:
        raise ValueError(f"malformed fault spec {spec!r}")
    count, skip = FAULT_KINDS[kind]
    try:
        if len(parts) >= 2:
            count = int(parts[1])
        if len(parts) == 3:
            skip = int(parts[2])
    except ValueError:
        raise ValueError(
            f"malformed fault spec {spec!r}; use kind[:count[:skip]] "
            f"with integer count/skip") from None
    if count < 1 or skip < 0:
        raise ValueError(
            f"fault spec {spec!r} needs count >= 1 and skip >= 0")
    return kind, count, skip


class FaultInjector:
    """Fires a configured fault kind a fixed number of times.

    ``spec=None`` builds a no-op injector (every :meth:`fire` returns
    False), so monitors can consult it unconditionally.
    """

    def __init__(self, spec: str | None = None) -> None:
        self.spec = spec
        if spec is None:
            self.kind: str | None = None
            self.count = 0
            self.skip = 0
        else:
            self.kind, self.count, self.skip = parse_fault_spec(spec)
        #: opportunities seen for the configured kind.
        self.seen = 0
        #: faults actually injected.
        self.fired = 0

    def fire(self, kind: str) -> bool:
        """True when a fault of ``kind`` must be injected *now*.

        Each call for the configured kind is one opportunity; the
        injector fires on opportunities ``skip .. skip + count - 1``.
        """
        if kind != self.kind:
            return False
        opportunity = self.seen
        self.seen += 1
        if opportunity < self.skip or self.fired >= self.count:
            return False
        self.fired += 1
        return True

    # -- checkpointing -------------------------------------------------
    def state(self) -> dict:
        """Snapshot of the firing counters (spec comes from config)."""
        return {"seen": self.seen, "fired": self.fired}

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state` snapshot."""
        self.seen = int(state["seen"])
        self.fired = int(state["fired"])
