"""Per-stage profiling spans.

:class:`StageProfiler` accumulates named wall-time spans
(``perf_counter``-based, telemetry only -- REP002-legal) around the
estimator's phases: boundary search, stage-1 prediction/labelling/
resampling, classifier train/predict, stage-2 sampling/labelling.  The
span table lives in ``FailureEstimate.metadata["perf"]``, which the CLI
renders via ``--report``.

Spans may nest (``stage2-label`` encloses ``classifier-predict``); each
accumulator is independent, so nested totals overlap rather than
partition the run -- the glossary in ``docs/PERFORMANCE.md`` marks
which spans contain which.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class StageProfiler:
    """Accumulate named wall-time spans."""

    def __init__(self) -> None:
        self._spans: dict[str, dict] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time one ``with`` block under ``name`` (re-entrant safe)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            stat = self._spans.setdefault(
                name, {"total_s": 0.0, "count": 0})
            stat["total_s"] += time.perf_counter() - t0
            stat["count"] += 1

    def as_dict(self) -> dict[str, dict]:
        """``{name: {"total_s": ..., "count": ...}}`` in first-use order."""
        return {name: dict(stat) for name, stat in self._spans.items()}


def merge_spans(into: dict[str, dict], spans: dict[str, dict]) -> None:
    """Accumulate a span table into ``into`` (sums totals and counts)."""
    for name, stat in spans.items():
        merged = into.setdefault(name, {"total_s": 0.0, "count": 0})
        merged["total_s"] += float(stat.get("total_s", 0.0))
        merged["count"] += int(stat.get("count", 0))
