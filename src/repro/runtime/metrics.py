"""Per-chunk telemetry of the parallel runtime.

Every :meth:`~repro.runtime.executor.Executor.map_chunks` /
``iter_tasks`` call produces one :class:`RunMetrics` holding a
:class:`ChunkRecord` per executed chunk; the executor keeps them all in
``Executor.history`` and :meth:`RunMetrics.merge` aggregates across calls
(e.g. for a whole estimator run).  Reports are available as text
(:meth:`RunMetrics.report`) and as a plain dict
(:meth:`RunMetrics.as_dict`, an estimate's ``metadata["execution"]``).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ChunkRecord:
    """Outcome of one executed chunk.

    Attributes
    ----------
    index:
        Position of the chunk in the plan (also the result order).
    size:
        Rows in the chunk (1 for ``iter_tasks`` tasks without sizes).
    wall_time_s:
        Wall time of the task body that produced the accepted result
        (excluding queueing).
    where:
        Backend that produced the accepted result (``"serial"``,
        ``"process"`` or ``"serial-fallback"``).
    fell_back:
        Whether the accepted result came from the in-parent fallback.
    """

    index: int
    size: int
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

    # ------------------------------------------------------------------
    @property
    def n_chunks(self) -> int:
        return len(self.records)

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
    def as_dict(self) -> dict:
        """JSON-serialisable summary."""
        return {
            "label": self.label,
            "backend": self.backend,
            "workers": self.workers,
            "wall_time_s": self.wall_time_s,
            "n_items": self.n_items,
            "n_simulations": self.n_simulations,
            "n_chunks": self.n_chunks,
            "n_fallbacks": self.n_fallbacks,
            "items_per_s": self.items_per_s,
            "chunk_time_s": self.chunk_time_s,
            # always 0; kept because benchmarks/e2e/workloads.py reads
            # it from every naive-MC run's metadata["execution"]
            "shm_bytes": 0,
        }

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
            f"  fallbacks    {self.n_fallbacks}",
        ]
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
                    wall_time_s=record.wall_time_s, where=record.where,
                    fell_back=record.fell_back))
            merged.wall_time_s += run.wall_time_s
            merged.n_items += run.n_items
            merged.n_simulations += run.n_simulations
        return merged
