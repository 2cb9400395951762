"""Adaptive-resolution margin evaluation: the screening ladder.

Every estimate funnels through
:meth:`~repro.sram.butterfly.ReadButterflySolver.solve`, which spends a
fixed ``2 x bisection_iterations x grid_points`` device-model
evaluations per sample no matter how far the sample sits from the
failure boundary.  For *labelling* (the only thing the estimators
consume in bulk) that is wasted work: far-from-boundary samples -- the
vast majority in stage 2 -- only need enough resolution to settle the
margin's sign.

:class:`AdaptiveMarginEvaluator` therefore labels on a ladder of
bisection depths, :data:`LADDER` (8, 12 and 20 steps), on the **same**
voltage grid and margin levels as the exact 40-step solve.  At each
rung the rows no rung has labelled yet get their lobe margins at that
depth; a row whose margin lies outside the rung's guard band takes the
margin's sign as its label, and the others go on to the next rung and
finally to the exact depth.  The guard band is derived from the
bisection error bound, so every label is **bit-identical** to the exact
path's (proof sketch below and in ``docs/PERFORMANCE.md``):

* after ``k`` bisection steps on ``[0, vdd]`` every VTC node voltage is
  within ``eps_k = vdd * 2**-(k+1)`` of the converged value;
* in the 45-degree-rotated margin frame both butterfly curves are
  (approximately) 1-Lipschitz -- ``|du/dv| = |(1+y')/(1-y')| <= 1`` for
  a monotone-decreasing VTC -- so perturbing a curve by ``eps`` in sup
  norm moves each interpolated cut by at most ``(1+L) * eps/sqrt(2)``
  with ``L ~ 1``;
* the lobe margin is a max over cut levels of the two-curve gap over
  ``sqrt(2)``, and both max and min (the cell-level margin) are
  1-Lipschitz in sup norm, giving
  ``|margin_k - margin_exact| <= 3 * (eps_k + eps_exact)``.

:func:`margin_guard_band` multiplies that bound by a safety factor
(default 2) to cover the clamped-extrapolation corner of the
interpolator and the residual non-monotonicity of an unconverged
bisection.  Any rung margin beyond its band provably has the exact
margin's sign.  No row repeats a bisection step: bisection is
deterministic, so a from-scratch solve's first ``k`` steps reproduce
rung ``k``'s brackets exactly, and the next rung *resumes* from them.
A row labelled at depth ``d`` pays ``d`` steps; a row that reaches the
exact depth pays 40, as on the exact path, plus one margin extraction
per rung it passed.

With a :class:`~repro.perf.cache.SolveCache`, each rung first looks up
its own cache level; the cache stores margins, never labels.
:meth:`margins` (the float-valued API used by boundary refinement,
cross-entropy and the analyses) always returns exact values --
adaptivity accelerates labelling only.
"""

from __future__ import annotations

from repro.perf.cache import SolveCache
from repro.rng import stable_seed
from repro.sram.butterfly import BisectionState, ReadButterflySolver
from repro.sram.cell import SramCell
from repro.sram.evaluator import CellEvaluator
from repro.sram.margins import lobe_margins
from repro.variability.space import VariabilitySpace

import numpy as np

#: The screening ladder, shallowest rung first: ``(bisection steps,
#: SolveCache level)`` per rung.  Rows no rung labels go on to the
#: exact depth (level ``"exact"``).  8 steps is the solver's floor and
#: the rung that pays for naive Monte Carlo: 99.8 % of prior rows
#: settle there.
LADDER = ((8, "depth8"), (12, "coarse"), (20, "depth20"))


def margin_guard_band(vdd: float, iterations: int,
                      exact_iterations: int, safety: float = 2.0) -> float:
    """Safe screening threshold on a rung's margins [V].

    ``3 * (eps_rung + eps_exact)`` per the error analysis above,
    widened by ``safety``; a margin solved to ``iterations`` steps whose
    magnitude exceeds this has the same sign as the exact margin.
    """
    if safety < 1.0:
        raise ValueError("safety must be >= 1")
    eps = vdd * (2.0 ** -(iterations + 1)
                 + 2.0 ** -(exact_iterations + 1))
    return safety * 3.0 * eps


class AdaptiveMarginEvaluator(CellEvaluator):
    """Cell evaluator that labels on the screening ladder.

    Drop-in replacement for :class:`~repro.sram.evaluator.CellEvaluator`
    (built by :func:`repro.perf.build_evaluator` when the
    :class:`~repro.perf.config.PerfConfig` enables adaptivity).  Margins
    stay exact; only :meth:`failure_labels` takes the ladder, and its
    labels match the exact path bit for bit by the guard-band argument
    in the module docstring.  The ladder is :data:`LADDER`, not a
    parameter.

    Parameters
    ----------
    cache:
        Optional :class:`~repro.perf.cache.SolveCache` shared with the
        exact path (each rung stores under its own level tag, so the
        resolutions never mix).
    """

    def __init__(self, cell: SramCell, space: VariabilitySpace,
                 vdd: float | None = None, grid_points: int = 61,
                 margin_levels: int = 64, max_batch: int = 512,
                 cache: SolveCache | None = None):
        super().__init__(cell, space, vdd=vdd, grid_points=grid_points,
                         margin_levels=margin_levels, max_batch=max_batch,
                         cache=cache)
        exact = self.solver.bisection_iterations
        # Same grid and margin levels as the exact solver: the guard
        # band only bounds the bisection-depth error, so no rung may
        # introduce any other discretisation difference.
        #: ``(solver, cache level, guard band)`` per rung of LADDER
        self.rungs = tuple(
            (ReadButterflySolver(cell, vdd=vdd, grid_points=grid_points,
                                 bisection_iterations=depth),
             level, margin_guard_band(self.vdd, depth, exact))
            for depth, level in LADDER)
        #: rows labelled at each depth: the rungs', then the exact one
        self.resolved = dict.fromkeys(
            [depth for depth, _ in LADDER] + [exact], 0)

    @property
    def screened(self) -> int:
        """Rows a rung labelled."""
        return sum(self.resolved[depth] for depth, _ in LADDER)

    @property
    def refined(self) -> int:
        """Rows that reached the exact depth."""
        return self.resolved[self.solver.bisection_iterations]

    # ------------------------------------------------------------------
    def failure_labels(self, x: np.ndarray, which: str = "cell"
                       ) -> np.ndarray:
        """Fail labels, bit-identical to ``CellEvaluator``'s exact path.

        Each ``max_batch``-row tile climbs the ladder: a rung labels the
        rows whose margin clears its guard band, and the rest resume
        from its brackets (see
        :meth:`~repro.sram.butterfly.ReadButterflySolver.resume`) to the
        next depth, so no row repeats a bisection step.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != 6:
            raise ValueError(f"x must have shape (B, 6), got {x.shape}")
        labels = np.empty(x.shape[0], dtype=bool)
        for start in range(0, x.shape[0], self.max_batch):
            stop = start + self.max_batch
            labels[start:stop] = self._label_tile(
                self.space.to_physical(x[start:stop]), which)
        return labels

    def _label_tile(self, dvth: np.ndarray, which: str) -> np.ndarray:
        labels = np.empty(dvth.shape[0], dtype=bool)
        rows = np.arange(dvth.shape[0])  # tile rows not labelled yet
        parts: list = []  # (tile rows, brackets) from the previous rung
        for solver, level, band in self.rungs:
            margin, parts = self._rung(solver, level, dvth, rows, parts,
                                       which)
            settled = np.abs(margin) > band
            labels[rows[settled]] = margin[settled] < 0.0
            self.resolved[solver.bisection_iterations] += int(
                settled.sum())
            rows = rows[~settled]
            if rows.size == 0:
                return labels
        margin, _ = self._rung(self.solver, "exact", dvth, rows, parts,
                               which)
        labels[rows] = margin < 0.0
        self.resolved[self.solver.bisection_iterations] += rows.size
        return labels

    def _rung(self, solver: ReadButterflySolver, level: str,
              dvth: np.ndarray, rows: np.ndarray,
              parts: list[tuple[np.ndarray, BisectionState]], which: str):
        """Margins of the tile rows ``rows`` at ``solver``'s depth.

        With a cache, rows stored under ``level`` skip the solver.  A
        missed row resumes from its brackets in ``parts`` -- the
        ``(tile rows, BisectionState)`` pairs the previous rung solved
        -- and a row without any solves from scratch to this depth.
        Every branch yields the same bits, so which one a row takes is
        purely a cost matter.  Returns the ``which`` margins of ``rows``
        and this rung's own ``parts``.
        """
        m0 = np.empty(dvth.shape[0])
        m1 = np.empty(dvth.shape[0])
        todo = np.zeros(dvth.shape[0], dtype=bool)
        todo[rows] = True
        if self.cache is not None:
            hit, h0, h1 = self.cache.lookup(level, dvth[rows])
            m0[rows[hit]] = h0[hit]
            m1[rows[hit]] = h1[hit]
            todo[rows[hit]] = False
        solved = []
        for ids, state in parts:
            take = todo[ids]
            if not take.any():
                continue
            if not take.all():
                ids, state = ids[take], state.rows(np.flatnonzero(take))
            solved.append((ids, *solver.resume(dvth[ids], state)))
            todo[ids] = False
        if todo.any():
            ids = np.flatnonzero(todo)
            solved.append((ids, *solver.solve_with_state(dvth[ids])))
        for ids, curves, _ in solved:
            m0[ids], m1[ids] = lobe_margins(curves, self.margin_levels)
            if self.cache is not None:
                self.cache.store(level, dvth[ids], m0[ids], m1[ids])
        margin = self._select_margin(m0[rows], m1[rows], which)
        return margin, [(ids, state) for ids, _, state in solved]

    def _local_perf_stats(self) -> dict:
        stats = super()._local_perf_stats()
        stats["screened"] = self.screened
        stats["refined"] = self.refined
        return stats

    def _fingerprint_seed(self) -> int:
        # Pinned to the 12-step rung's level and depth: service job
        # fingerprints hash this seed, so adding rungs must not move it.
        # The other rungs' level tags name their depths and the ladder
        # is a module constant, so the pair still pins what every cache
        # entry means; adaptive and plain evaluators never share a
        # cache file.
        depth = next(d for d, level in LADDER if level == "coarse")
        return stable_seed(super()._fingerprint_seed(), "coarse", depth)

    @property
    def device_model_evals(self) -> int:
        return super().device_model_evals + sum(
            solver.model_evals for solver, _, _ in self.rungs)
