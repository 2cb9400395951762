"""Per-chunk telemetry of the parallel runtime.

Every :meth:`~repro.runtime.executor.Executor.map_chunks` /
``map_tasks`` call produces one :class:`RunMetrics` holding a
:class:`ChunkRecord` per executed chunk; the executor keeps them all in
``Executor.history`` and :meth:`RunMetrics.merge` aggregates across calls
(e.g. for a whole estimator run).  Reports are available as text
(:meth:`RunMetrics.report`) and JSON (:meth:`RunMetrics.to_json`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class ChunkRecord:
    """Outcome of one executed chunk.

    Attributes
    ----------
    index:
        Position of the chunk in the plan (also the result order).
    size:
        Rows in the chunk (1 for heterogeneous ``map_tasks`` tasks).
    attempts:
        Total attempts on the configured backend (1 = first try worked).
    wall_time_s:
        Wall time of the successful attempt (task body only, excluding
        queueing).
    where:
        Backend that produced the accepted result (``"serial"``,
        ``"thread"``, ``"process"`` or ``"serial-fallback"``).
    fell_back:
        Whether the accepted result came from the in-parent fallback.
    """

    index: int
    size: int
    attempts: int
    wall_time_s: float
    where: str
    fell_back: bool = False


@dataclass
class RunMetrics:
    """Aggregated telemetry of one (or several merged) executor calls."""

    label: str
    backend: str
    workers: int
    wall_time_s: float = 0.0
    n_items: int = 0
    n_simulations: int = 0
    records: list[ChunkRecord] = field(default_factory=list)
    #: per-stage profiling spans (``{name: {"total_s", "count"}}``),
    #: folded in by the estimators from their StageProfiler.  Spans may
    #: nest, so totals overlap rather than partition wall_time_s.
    spans: dict[str, dict] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def n_chunks(self) -> int:
        return len(self.records)

    @property
    def n_retries(self) -> int:
        """Extra backend attempts beyond the first, summed over chunks."""
        return sum(r.attempts - 1 for r in self.records)

    @property
    def n_fallbacks(self) -> int:
        """Chunks whose accepted result came from the serial fallback."""
        return sum(1 for r in self.records if r.fell_back)

    @property
    def items_per_s(self) -> float:
        """End-to-end throughput in rows per second."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.n_items / self.wall_time_s

    @property
    def chunk_time_s(self) -> float:
        """Summed in-task wall time (> wall_time_s when workers overlap)."""
        return sum(r.wall_time_s for r in self.records)

    # ------------------------------------------------------------------
    def as_dict(self, include_chunks: bool = False) -> dict:
        """JSON-serialisable summary (optionally with per-chunk rows)."""
        out = {
            "label": self.label,
            "backend": self.backend,
            "workers": self.workers,
            "wall_time_s": self.wall_time_s,
            "n_items": self.n_items,
            "n_simulations": self.n_simulations,
            "n_chunks": self.n_chunks,
            "n_retries": self.n_retries,
            "n_fallbacks": self.n_fallbacks,
            "items_per_s": self.items_per_s,
            "chunk_time_s": self.chunk_time_s,
            # always 0; kept because benchmarks/e2e/workloads.py reads
            # it from every naive-MC run's metadata["execution"]
            "shm_bytes": 0,
        }
        if self.spans:
            out["spans"] = {name: dict(stat)
                            for name, stat in self.spans.items()}
        if include_chunks:
            out["chunks"] = [vars(r).copy() for r in self.records]
        return out

    def to_json(self, include_chunks: bool = False, indent: int = 2) -> str:
        return json.dumps(self.as_dict(include_chunks=include_chunks),
                          indent=indent)

    def report(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"run '{self.label}' on backend={self.backend} "
            f"workers={self.workers}",
            f"  items        {self.n_items}",
            f"  chunks       {self.n_chunks}",
            f"  wall time    {self.wall_time_s:.3f} s "
            f"({self.items_per_s:.0f} items/s)",
            f"  in-task time {self.chunk_time_s:.3f} s",
            f"  simulations  {self.n_simulations}",
            f"  retries      {self.n_retries}",
            f"  fallbacks    {self.n_fallbacks}",
        ]
        if self.spans:
            lines.append("  spans:")
            for name, stat in self.spans.items():
                lines.append(
                    f"    {name:20s} {stat['total_s']:9.3f} s "
                    f"({stat['count']} call(s))")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    @classmethod
    def merge(cls, runs: list["RunMetrics"],
              label: str = "aggregate") -> "RunMetrics":
        """Combine several runs into one (records are concatenated and
        re-indexed; wall times and counts add up)."""
        if not runs:
            return cls(label=label, backend="serial", workers=1)
        merged = cls(label=label, backend=runs[0].backend,
                     workers=runs[0].workers)
        for run in runs:
            for record in run.records:
                merged.records.append(ChunkRecord(
                    index=len(merged.records), size=record.size,
                    attempts=record.attempts,
                    wall_time_s=record.wall_time_s, where=record.where,
                    fell_back=record.fell_back))
            merged.wall_time_s += run.wall_time_s
            merged.n_items += run.n_items
            merged.n_simulations += run.n_simulations
            for name, stat in run.spans.items():
                span = merged.spans.setdefault(
                    name, {"total_s": 0.0, "count": 0})
                span["total_s"] += float(stat.get("total_s", 0.0))
                span["count"] += int(stat.get("count", 0))
        return merged
