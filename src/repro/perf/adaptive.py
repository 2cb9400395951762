"""Adaptive-resolution margin evaluation.

Every estimate funnels through
:meth:`~repro.sram.butterfly.ReadButterflySolver.solve`, which spends a
fixed ``2 x bisection_iterations x grid_points`` device-model
evaluations per sample no matter how far the sample sits from the
failure boundary.  For *labelling* (the only thing the estimators
consume in bulk) that is wasted work: far-from-boundary samples -- the
vast majority in stage 2 -- only need enough resolution to settle the
margin's sign.

:class:`AdaptiveMarginEvaluator` therefore screens every batch with a
reduced-bisection-depth solve on the **same** voltage grid and margin
levels, and refines only samples whose coarse margin lands inside a
guard band around zero.  The guard band is derived from the bisection
error bound, so screened labels are **bit-identical** to the exact
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
  ``|margin_coarse - margin_exact| <= 3 * (eps_kc + eps_ke)``.

``guard_band`` multiplies that bound by a safety factor (default 2) to
cover the clamped-extrapolation corner of the interpolator and the
residual non-monotonicity of an unconverged bisection.  Any coarse
margin beyond the band provably has the exact margin's sign; anything
inside it is refined to full depth.  Refinement does not start over:
bisection is deterministic, so the exact solve's first
``coarse_iterations`` steps reproduce the coarse brackets exactly, and
the refinement *resumes* from them, paying only the remaining depth
(in-band rows cost ``exact - coarse`` extra iterations instead of
``exact``).  :meth:`margins` (the float-valued API
used by boundary refinement, cross-entropy and the analyses) always
returns exact values -- adaptivity accelerates labelling only.
"""

from __future__ import annotations

from repro.perf.cache import SolveCache
from repro.rng import stable_seed
from repro.sram.butterfly import ReadButterflySolver
from repro.sram.cell import SramCell
from repro.sram.evaluator import CellEvaluator
from repro.sram.margins import lobe_margins
from repro.variability.space import VariabilitySpace

import numpy as np


def margin_guard_band(vdd: float, coarse_iterations: int,
                      exact_iterations: int, safety: float = 2.0) -> float:
    """Safe screening threshold on coarse margins [V].

    ``3 * (eps_coarse + eps_exact)`` per the error analysis above,
    widened by ``safety``; a coarse margin whose magnitude exceeds this
    has the same sign as the exact margin.
    """
    if safety < 1.0:
        raise ValueError("safety must be >= 1")
    eps = vdd * (2.0 ** -(coarse_iterations + 1)
                 + 2.0 ** -(exact_iterations + 1))
    return safety * 3.0 * eps


class AdaptiveMarginEvaluator(CellEvaluator):
    """Cell evaluator with coarse-screen / exact-refine labelling.

    Drop-in replacement for :class:`~repro.sram.evaluator.CellEvaluator`
    (built by :func:`repro.perf.build_evaluator` when the
    :class:`~repro.perf.config.PerfConfig` enables adaptivity).  Margins
    stay exact; only :meth:`failure_labels` takes the screened path, and
    its labels match the exact path bit for bit by the guard-band
    argument in the module docstring.

    Parameters
    ----------
    coarse_iterations:
        Bisection depth of the screening solver (exact path: 40).
    guard_safety:
        Multiplier on the analytic error bound; >= 1.
    cache:
        Optional :class:`~repro.perf.cache.SolveCache` shared with the
        exact path (coarse entries are stored under their own level
        tag, so the two resolutions never mix).
    """

    def __init__(self, cell: SramCell, space: VariabilitySpace,
                 vdd: float | None = None, grid_points: int = 61,
                 margin_levels: int = 64, max_batch: int = 512,
                 cache: SolveCache | None = None,
                 coarse_iterations: int = 12, guard_safety: float = 2.0):
        super().__init__(cell, space, vdd=vdd, grid_points=grid_points,
                         margin_levels=margin_levels, max_batch=max_batch,
                         cache=cache)
        # Same grid and margin levels as the exact solver: the guard
        # band only bounds the bisection-depth error, so the screening
        # pass must not introduce any other discretisation difference.
        self.coarse_solver = ReadButterflySolver(
            cell, vdd=vdd, grid_points=grid_points,
            bisection_iterations=coarse_iterations)
        self.guard_band = margin_guard_band(
            self.vdd, coarse_iterations,
            self.solver.bisection_iterations, guard_safety)
        self.screened = 0
        self.refined = 0

    # ------------------------------------------------------------------
    def failure_labels(self, x: np.ndarray, which: str = "cell"
                       ) -> np.ndarray:
        """Fail labels, bit-identical to ``CellEvaluator``'s exact path.

        Coarse-screens the whole batch, then refines only the rows whose
        coarse margin falls inside the guard band.  Refinement *resumes*
        the coarse bisection (see
        :meth:`~repro.sram.butterfly.ReadButterflySolver.resume`) so an
        in-band row costs only the remaining depth, not a from-scratch
        exact solve.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != 6:
            raise ValueError(f"x must have shape (B, 6), got {x.shape}")
        labels = np.empty(x.shape[0], dtype=bool)
        for start in range(0, x.shape[0], self.max_batch):
            stop = start + self.max_batch
            labels[start:stop] = self._label_chunk(x[start:stop], which)
        return labels

    def _label_chunk(self, chunk: np.ndarray, which: str) -> np.ndarray:
        dvth = self.space.to_physical(chunk)
        n = dvth.shape[0]
        state = None
        if self.cache is None:
            curves, state = self.coarse_solver.solve_with_state(dvth)
            c0, c1 = lobe_margins(curves, self.margin_levels)
            solved = np.ones(n, dtype=bool)
            state_index = np.arange(n)
        else:
            hit, c0, c1 = self.cache.lookup("coarse", dvth)
            solved = ~hit
            state_index = np.cumsum(solved) - 1
            if solved.any():
                curves, state = self.coarse_solver.solve_with_state(
                    dvth[solved])
                m0, m1 = lobe_margins(curves, self.margin_levels)
                self.cache.store("coarse", dvth[solved], m0, m1)
                c0[solved] = m0
                c1[solved] = m1
        margin = self._select_margin(c0, c1, which)
        labels = margin < 0.0
        uncertain = np.abs(margin) <= self.guard_band
        self.screened += int(n - uncertain.sum())
        if uncertain.any():
            rows = np.flatnonzero(uncertain)
            self.refined += rows.size
            e0, e1 = self._refine(dvth, rows, solved, state, state_index)
            labels[rows] = self._select_margin(e0, e1, which) < 0.0
        return labels

    def _refine(self, dvth, rows, solved, state, state_index):
        """Exact margins for the chunk rows ``rows``.

        Exact-level cache hits return as-is; solves resume from the
        coarse brackets where this call produced them (rows whose coarse
        margin was itself a cache hit have no brackets and re-solve from
        scratch).  Every branch yields the same bits, so which one a row
        takes is purely a cost matter.
        """
        m0 = np.empty(rows.size)
        m1 = np.empty(rows.size)
        pending = np.ones(rows.size, dtype=bool)
        if self.cache is not None:
            hit, h0, h1 = self.cache.lookup("exact", dvth[rows])
            m0[hit] = h0[hit]
            m1[hit] = h1[hit]
            pending = ~hit
        if pending.any():
            sub = rows[pending]
            out0 = np.empty(sub.size)
            out1 = np.empty(sub.size)
            warm = solved[sub]
            if warm.any():
                ids = sub[warm]
                curves = self.solver.resume(dvth[ids],
                                            state.rows(state_index[ids]))
                out0[warm], out1[warm] = lobe_margins(curves,
                                                      self.margin_levels)
            if not warm.all():
                cold = ~warm
                curves = self.solver.solve(dvth[sub[cold]])
                out0[cold], out1[cold] = lobe_margins(curves,
                                                      self.margin_levels)
            if self.cache is not None:
                self.cache.store("exact", dvth[sub], out0, out1)
            m0[pending] = out0
            m1[pending] = out1
        return m0, m1

    def _local_perf_stats(self) -> dict:
        stats = super()._local_perf_stats()
        stats["screened"] = self.screened
        stats["refined"] = self.refined
        return stats

    def _fingerprint_seed(self) -> int:
        # Coarse-level cache entries depend on the screening depth, so
        # it participates in the fingerprint; adaptive and plain
        # evaluators therefore never share a cache file.
        return stable_seed(super()._fingerprint_seed(), "coarse",
                           self.coarse_solver.bisection_iterations)

    @property
    def device_model_evals(self) -> int:
        return super().device_model_evals + self.coarse_solver.model_evals
