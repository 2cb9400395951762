"""Cell evaluators and failure indicators.

:class:`CellEvaluator` is the fast (vectorised) exact path: whitened
shift vectors in, signed lobe margins out.  The program labels through
its screening-ladder subclass,
:class:`~repro.perf.adaptive.AdaptiveMarginEvaluator`, whose labels are
bit-identical; the base class is the reference that tests and
``benchmarks/bench_hotpath.py`` build directly.
:class:`SpiceCellEvaluator` computes the same margins through the
generic MNA engine one cell at a time, at the same
:data:`MARGIN_LEVELS`; it is orders of magnitude slower and exists to
cross-validate the fast path and to support arbitrary netlist
modifications.

The indicator classes adapt an evaluator to the estimator protocol of
:mod:`repro.core.indicator`: a batch of points in the (total, whitened)
variability space in, boolean failure labels out.  ``Lobe0ReadFailure``
scores only the stored-"0" lobe and is combined with the mirror trick of
:meth:`repro.rtn.model.RtnModel.mirror` for state-dependent RTN runs;
``CellReadFailure`` scores the worse lobe (RDF-only experiments, where both
stored states must be stable).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.rng import stable_seed
from repro.sram.butterfly import ReadButterflySolver
from repro.sram.cell import SramCell
from repro.sram.margins import lobe_margins
from repro.spice.solver import DcSolver
from repro.spice.sweep import dc_sweep
from repro.variability.space import VariabilitySpace

if TYPE_CHECKING:  # avoid the repro.perf -> evaluator import cycle
    from repro.perf.cache import SolveCache

#: Cut levels of the read-margin extraction (:func:`lobe_margins`) on
#: every labelling path and in the SPICE reference that validates it.
#: Every solve fingerprint hashes it.
MARGIN_LEVELS = 64


class CellEvaluator:
    """Vectorised margin evaluation in the whitened variability space.

    Parameters
    ----------
    cell:
        The cell design.
    space:
        Whitened space providing the per-device sigma scaling.
    vdd:
        Supply voltage [V]; defaults to the cell's.
    max_batch:
        Rows per vectorised solve.  The solve is row-independent, so the
        stride changes no result, only the working set: a fused
        ``(2 * max_batch, grid_points)`` bisection keeps about 14 live
        float64 buffers, ~7 MiB at the default 512 rows against ~54 MiB
        at 4096, which runs faster because it stays nearer the cache.
    cache:
        Optional :class:`~repro.perf.cache.SolveCache`; solved margins
        are memoised per exact ΔVth byte pattern, and hits return the
        stored floats verbatim, so caching never changes a result.
    """

    def __init__(self, cell: SramCell, space: VariabilitySpace,
                 vdd: float | None = None, grid_points: int = 61,
                 max_batch: int = 512, cache: "SolveCache | None" = None):
        if space.dim != 6:
            raise ValueError(
                f"cell evaluator needs a 6-D space, got {space.dim}")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.cell = cell
        self.space = space
        self.solver = ReadButterflySolver(cell, vdd=vdd,
                                          grid_points=grid_points)
        self.max_batch = max_batch
        self.cache = cache
        # perf-counter deltas absorbed from out-of-process workers,
        # reported by perf_stats() next to the in-process counters
        self._external_stats: dict[str, int] = {}

    @property
    def vdd(self) -> float:
        return self.solver.vdd

    # ------------------------------------------------------------------
    def _margins_at(self, x: np.ndarray, solver: ReadButterflySolver,
                    level: str) -> tuple[np.ndarray, np.ndarray]:
        """Chunked, cache-aware lobe margins through ``solver``.

        Each cache entry is keyed on the exact physical-ΔVth bytes under
        ``level`` (one of :data:`repro.perf.cache.LEVELS`, naming
        ``solver``'s depth); only missed rows hit the solver.  The
        butterfly bisection and the margin extraction are
        row-independent elementwise numpy ops, so solving a sub-batch
        of missed rows returns the same bits a full-batch solve would.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != 6:
            raise ValueError(f"x must have shape (B, 6), got {x.shape}")
        rnm0 = np.empty(x.shape[0])
        rnm1 = np.empty(x.shape[0])
        for start in range(0, x.shape[0], self.max_batch):
            stop = start + self.max_batch
            dvth = self.space.to_physical(x[start:stop])
            if self.cache is None:
                curves = solver.solve(dvth)
                r0, r1 = lobe_margins(curves, MARGIN_LEVELS)
                rnm0[start:stop] = r0
                rnm1[start:stop] = r1
                continue
            hit, c0, c1 = self.cache.lookup(level, dvth)
            if not hit.all():
                miss = ~hit
                curves = solver.solve(dvth[miss])
                r0, r1 = lobe_margins(curves, MARGIN_LEVELS)
                self.cache.store(level, dvth[miss], r0, r1)
                c0[miss] = r0
                c1[miss] = r1
            rnm0[start:stop] = c0
            rnm1[start:stop] = c1
        return rnm0, rnm1

    @staticmethod
    def _select_margin(rnm0: np.ndarray, rnm1: np.ndarray,
                       which: str) -> np.ndarray:
        if which == "lobe0":
            return rnm0
        if which == "cell":
            return np.minimum(rnm0, rnm1)
        raise ValueError(f"which must be 'lobe0' or 'cell', got {which!r}")

    def margins(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Signed lobe margins ``(rnm0, rnm1)`` for whitened points ``x``.

        ``x`` has shape (B, 6); entries are total (RDF + RTN) shifts in
        sigma units.  Always the exact (full bisection depth) solve.
        """
        return self._margins_at(x, self.solver, "exact")

    def cell_margin(self, x: np.ndarray) -> np.ndarray:
        """Worse-lobe margin, shape (B,)."""
        rnm0, rnm1 = self.margins(x)
        return np.minimum(rnm0, rnm1)

    def lobe0_margin(self, x: np.ndarray) -> np.ndarray:
        """Stored-"0" lobe margin, shape (B,)."""
        return self.margins(x)[0]

    def failure_labels(self, x: np.ndarray, which: str = "cell"
                       ) -> np.ndarray:
        """Boolean failure labels (margin < 0) for whitened points.

        The label entry point the indicators funnel through; the
        adaptive subclass overrides it with the screening ladder while
        this base implementation is the plain exact sign.
        """
        rnm0, rnm1 = self.margins(x)
        return self._select_margin(rnm0, rnm1, which) < 0.0

    # ------------------------------------------------------------------
    def solve_fingerprint(self) -> str:
        """Hex id of everything that determines a solve's output.

        Two evaluators with equal fingerprints produce bit-identical
        margins for equal inputs, which is exactly the condition under
        which :class:`~repro.perf.cache.SolveCache` entries may be
        shared or restored.
        """
        return f"{self._fingerprint_seed():016x}"

    def _fingerprint_seed(self) -> int:
        return stable_seed("solve", repr(self.cell), self.vdd,
                           self.solver.grid.size, MARGIN_LEVELS,
                           self.solver.bisection_iterations)

    @property
    def device_model_evals(self) -> int:
        """Cumulative device-model evaluations across all solves."""
        return self.solver.model_evals

    def absorb_stats(self, delta: dict) -> None:
        """Fold an out-of-process worker's perf-counter delta in.

        Process-backend workers solve on *copies* of this evaluator, so
        their counters never reach the parent's solver; the executor
        ships each chunk's counter delta back and the estimators absorb
        it here, making process-backend perf reports match the serial
        ones (see ``benchmarks/bench_runtime.py``).
        """
        for key, value in delta.items():
            self._external_stats[key] = \
                self._external_stats.get(key, 0) + int(value)

    def _local_perf_stats(self) -> dict:
        stats = {"device_model_evals": self.device_model_evals}
        if self.cache is not None:
            stats.update(self.cache.stats())
        return stats

    def perf_stats(self) -> dict:
        """Counter snapshot for ``FailureEstimate.metadata["perf"]``."""
        stats = self._local_perf_stats()
        for key, value in self._external_stats.items():
            stats[key] = stats.get(key, 0) + value
        return stats


class SpiceCellEvaluator:
    """Reference margin evaluation through the generic MNA engine.

    One DC sweep per half cell per sample; use for validation only.
    """

    def __init__(self, cell: SramCell, space: VariabilitySpace,
                 vdd: float | None = None, grid_points: int = 61):
        if space.dim != 6:
            raise ValueError(
                f"cell evaluator needs a 6-D space, got {space.dim}")
        self.cell = cell
        self.space = space
        self.vdd = float(cell.vdd if vdd is None else vdd)
        self.grid = np.linspace(0.0, self.vdd, grid_points)

    def margins(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Same contract as :meth:`CellEvaluator.margins` (slow path)."""
        from repro.sram.butterfly import ButterflyCurves  # local, no cycle

        x = np.atleast_2d(np.asarray(x, dtype=float))
        rnm0 = np.empty(x.shape[0])
        rnm1 = np.empty(x.shape[0])
        for i, row in enumerate(x):
            dvth = self.space.to_physical(row)
            vtcs = []
            for side in (0, 1):
                ckt = self.cell.read_half_circuit(side, dvth, vdd=self.vdd)
                result = dc_sweep(ckt, "vin", self.grid,
                                  solver=DcSolver(ckt))
                if result.failed_points:
                    raise RuntimeError(
                        f"reference sweep failed at points "
                        f"{result.failed_points} for sample {i}")
                vtcs.append(result.curve("out"))
            curves = ButterflyCurves(grid=self.grid,
                                     vtc_a=vtcs[0][None, :],
                                     vtc_b=vtcs[1][None, :], vdd=self.vdd)
            r0, r1 = lobe_margins(curves, MARGIN_LEVELS)
            rnm0[i] = r0[0]
            rnm1[i] = r1[0]
        return rnm0, rnm1


class WriteFailure:
    """Indicator: the cell cannot be overwritten (write margin <= 0).

    Extends the paper's read-failure study to write-ability yield: the
    estimators accept this indicator unchanged, so ECRIPSE computes write
    failure probabilities with the same machinery (see
    ``examples/write_yield_study.py``).  Write margins are evaluated
    through :class:`repro.sram.static.StaticCellAnalysis` on the same
    vectorised solver.
    """

    def __init__(self, evaluator: CellEvaluator):
        from repro.sram.static import StaticCellAnalysis  # local, no cycle

        self.evaluator = evaluator
        self.dim = evaluator.space.dim
        self._static = StaticCellAnalysis(evaluator.solver)

    def margin(self, x: np.ndarray) -> np.ndarray:
        """Signed write margin (negative = write failure), shape (B,)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.empty(x.shape[0])
        step = self.evaluator.max_batch
        for start in range(0, x.shape[0], step):
            stop = start + step
            dvth = self.evaluator.space.to_physical(x[start:stop])
            out[start:stop] = self._static.write_margin(dvth)
        return out

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Boolean write-failure labels for whitened points ``x``."""
        return self.margin(x) <= 0.0


class Lobe0ReadFailure:
    """Indicator: the stored-"0" lobe collapses (margin < 0).

    Combined with the mirror trick, this serves both stored states in the
    RTN experiments.  Because the mirror trick maps stored-"1" samples
    onto the *mirrored* lobe-0 region, the relevant regions of the RDF
    space are BOTH lobes' boundaries; :attr:`boundary_indicator` therefore
    exposes the cell-level (either-lobe) indicator, which the estimators
    use for their initial boundary search so the particle filters start
    on both lobes regardless of the duty ratio.
    """

    def __init__(self, evaluator: CellEvaluator):
        self.evaluator = evaluator
        self.dim = evaluator.space.dim
        #: both-lobe indicator for initial-particle placement.
        self.boundary_indicator = CellReadFailure(evaluator)

    def margin(self, x: np.ndarray) -> np.ndarray:
        return self.evaluator.lobe0_margin(x)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Boolean failure labels for whitened points ``x`` (B, 6).

        Routed through :meth:`CellEvaluator.failure_labels` so the
        adaptive evaluator can take its screened (but bit-identical)
        path; :meth:`margin` stays exact for the analyses that need the
        float values.
        """
        return self.evaluator.failure_labels(x, "lobe0")


class CellReadFailure:
    """Indicator: either lobe collapses (RDF-only failure criterion)."""

    def __init__(self, evaluator: CellEvaluator):
        self.evaluator = evaluator
        self.dim = evaluator.space.dim

    def margin(self, x: np.ndarray) -> np.ndarray:
        return self.evaluator.cell_margin(x)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Boolean failure labels for whitened points ``x`` (B, 6)."""
        return self.evaluator.failure_labels(x, "cell")
