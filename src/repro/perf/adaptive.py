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

Rows whose **linearised margin** clears :data:`WINDOW_GATE` times the
8-step guard band first take a **window pre-rung**: the first rung's 8
steps on only the 12 grid columns around the nominal cell's widest
Seevinck cuts (:attr:`AdaptiveMarginEvaluator.window`).  The gate
(:attr:`AdaptiveMarginEvaluator.gate`) is the nominal cell's exact lobe
margins plus their whitened-space gradients dotted with the row: the
first-order picture behind the mean-shift baseline's minimum-norm
point, so it admits the rows the window can pass and sends ECRIPSE's
near-boundary rows straight to the ladder.  The window's brackets tell
which cuts the exact curves interpolate from its columns
(:func:`~repro.sram.margins.window_lobe_margins`); a row whose largest
verified gap clears the 8-step guard band passes, since the exact
margin is a max over all cuts.  The gate only picks which rows try the
window, and the window never labels a failure: every other row takes
the ladder from scratch, so a passing prior row costs at most 192
device-model evaluations instead of 976 (about 58 with predicted
brackets).

The 8-step solves the label path makes from scratch -- the window
pre-rung and the first rung -- start from **predicted brackets**
(:meth:`~repro.sram.butterfly.ReadButterflySolver.solve_with_state`
with ``guess``): the nominal curves plus their first and second
differences along the row's shifts
(:attr:`AdaptiveMarginEvaluator.predictor`), checked by two net-current
evaluations per element instead of eight bisection steps.
The check leaves every bracket, and so every margin and label, what the
plain bisection gives; only ``device_model_evals`` moves.

The window columns, the gate and the predictor depend only on the
cell, supply, grid and space, so each process derives them once, at
first use and uncounted, into a table every evaluator with the same
``(solve_fingerprint(), space sigmas)`` shares.

With a :class:`~repro.perf.cache.SolveCache`, the window and each rung
first look up their own cache level; the cache stores margins, never
labels.  :meth:`margins` (the float-valued API used by boundary
refinement, cross-entropy and the analyses) always returns exact
values -- adaptivity accelerates labelling only.
"""

from __future__ import annotations

from repro.perf.cache import SolveCache
from repro.rng import stable_seed
from repro.sram.butterfly import BisectionState, ReadButterflySolver
from repro.sram.cell import SramCell
from repro.sram.evaluator import MARGIN_LEVELS, CellEvaluator
from repro.sram.margins import (lobe_margins, widest_cut_columns,
                                window_lobe_margins)
from repro.variability.space import VariabilitySpace

import numpy as np

#: The screening ladder, shallowest rung first: ``(bisection steps,
#: SolveCache level)`` per rung.  Rows no rung labels go on to the
#: exact depth (level ``"exact"``).  8 steps is the solver's floor;
#: 99.8 % of prior rows settle there, most of them already in the
#: window pre-rung at the same depth.
LADDER = ((8, "depth8"), (12, "coarse"), (20, "depth20"))

#: Grid columns the window adds on each side of the nominal cell's
#: widest-cut columns.
WINDOW_HALF = 2

#: A row takes the window pre-rung when its linearised margin
#: (:attr:`AdaptiveMarginEvaluator.gate`) exceeds this many 8-step guard
#: bands.  A property of the row, so labels and counters do not depend
#: on how a label block is tiled.
WINDOW_GATE = 2.0

#: SolveCache level of the window pre-rung's verified lobe margins.
WINDOW_LEVEL = "window"

#: What the label path derives from the nominal cell, once per process:
#: per ``(solve_fingerprint(), space sigmas)`` key, the ``"window"``
#: columns and the ``"gate"`` with the bracket predictor, as read-only
#: arrays that every evaluator with that key shares.  Two threads may
#: derive one entry at once; the derivation is deterministic, so either
#: result serves, and no lock can be inherited held by a forked worker.
_NOMINAL: dict[tuple, dict[str, tuple[np.ndarray, ...]]] = {}


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
    """Cell evaluator that labels on the window pre-rung and the
    screening ladder.

    Drop-in replacement for :class:`~repro.sram.evaluator.CellEvaluator`
    and the one evaluator :func:`repro.perf.build_evaluator` builds.
    Margins stay exact; only :meth:`failure_labels` takes the ladder,
    and its labels match the exact path bit for bit by the guard-band
    argument in the module docstring.  The ladder is :data:`LADDER`,
    not a parameter.

    Parameters
    ----------
    cache:
        Optional :class:`~repro.perf.cache.SolveCache` shared with the
        exact path (each rung stores under its own level tag, so the
        resolutions never mix).
    """

    def __init__(self, cell: SramCell, space: VariabilitySpace,
                 vdd: float | None = None, grid_points: int = 61,
                 max_batch: int = 512, cache: SolveCache | None = None):
        super().__init__(cell, space, vdd=vdd, grid_points=grid_points,
                         max_batch=max_batch, cache=cache)
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
        #: this evaluator's key into the per-process _NOMINAL table
        self._nominal_key: tuple | None = None

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

        In each ``max_batch``-row tile, the rows the window gate admits
        (:attr:`gate`) first take the window pre-rung
        (:meth:`_window_rung`), which passes rows and labels no failure.
        The other rows climb the ladder: a rung labels the rows whose
        margin clears its guard band, and the rest resume from its
        brackets (see
        :meth:`~repro.sram.butterfly.ReadButterflySolver.resume`) to the
        next depth, so no row repeats a ladder step.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != 6:
            raise ValueError(f"x must have shape (B, 6), got {x.shape}")
        admit = self._gated(x, which)
        labels = np.empty(x.shape[0], dtype=bool)
        for start in range(0, x.shape[0], self.max_batch):
            stop = start + self.max_batch
            labels[start:stop] = self._label_tile(
                self.space.to_physical(x[start:stop]), which,
                np.flatnonzero(admit[start:stop]))
        return labels

    def _gated(self, x: np.ndarray, which: str) -> np.ndarray:
        """Mask of the whitened rows ``x`` the window gate admits: the
        ``which`` linearised margin exceeds :data:`WINDOW_GATE` 8-step
        guard bands.

        The dot products are elementwise sums, never a BLAS ``x @ g``,
        whose rounding depends on a row's place in its block: the mask
        stays a property of the row, so counters do not depend on tiling
        or backend.
        """
        m, g = self.gate
        linear = self._select_margin(m[0] + np.sum(x * g[0], axis=1),
                                     m[1] + np.sum(x * g[1], axis=1), which)
        return linear > WINDOW_GATE * self.rungs[0][2]

    def _label_tile(self, dvth: np.ndarray, which: str,
                    admitted: np.ndarray) -> np.ndarray:
        labels = np.empty(dvth.shape[0], dtype=bool)
        rows = np.arange(dvth.shape[0])  # tile rows not labelled yet
        if admitted.size:
            passed = self._window_rung(dvth, admitted, which)
            labels[passed] = False
            self.resolved[LADDER[0][0]] += passed.size
            rows = np.setdiff1d(rows, passed)
            if rows.size == 0:
                return labels
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

    def _nominal(self, name: str) -> tuple[np.ndarray, ...]:
        """This evaluator's ``name`` entry of the per-process table
        (``"window"`` or ``"gate"``), derived at first use by solves of
        their own that count in no ``device_model_evals``."""
        if self._nominal_key is None:
            self._nominal_key = (self.solve_fingerprint(),
                                 tuple(self.space.sigmas.tolist()))
        entry = _NOMINAL.setdefault(self._nominal_key, {})
        if name not in entry:
            arrays = (self._derive_window() if name == "window"
                      else self._derive_gate())
            for array in arrays:
                array.flags.writeable = False
            entry[name] = arrays
        return entry[name]

    @property
    def window(self) -> np.ndarray:
        """Grid columns of the window pre-rung.

        The nominal cell (ΔVth = 0), solved to the first rung's depth on
        the full grid: per lobe, the columns its widest cut interpolates
        on each curve, widened by :data:`WINDOW_HALF` on each side.
        """
        return self._nominal("window")[0]

    def _derive_window(self) -> tuple[np.ndarray]:
        points = self.solver.grid.size
        nominal = ReadButterflySolver(
            self.cell, vdd=self.vdd, grid_points=points,
            bisection_iterations=LADDER[0][0]).solve(np.zeros((1, 6)))
        centres = widest_cut_columns(nominal, MARGIN_LEVELS)
        return (np.unique(np.clip(
            centres[:, None] + np.arange(-WINDOW_HALF, WINDOW_HALF + 1),
            0, points - 1)),)

    @property
    def gate(self) -> tuple[np.ndarray, np.ndarray]:
        """The window gate's linearisation ``(m, g)`` of the lobe margins.

        ``m`` (2,) holds the nominal cell's exact lobe margins and ``g``
        (2, 6) their central-difference gradients in the whitened space,
        both from one exact-depth solve of 13 rows: the origin and ±1
        sigma on each axis.  A row ``x`` has linearised lobe margins
        ``m + x · g``.
        """
        return self._nominal("gate")[:2]

    @property
    def predictor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The bracket predictor ``(nominal, slopes, curvatures)``.

        From the :attr:`gate`'s 13-row solve: ``nominal`` (2, G) holds
        the nominal cell's curves A and B on every grid column;
        ``slopes`` and ``curvatures`` (2, 3, G) each curve's central
        first and second differences along the three shifts of its own
        side (devices 0-2 for A, 3-5 for B).  Both are per volt -- the
        per-sigma differences over that device's sigma (squared) -- so
        a guess needs only the physical rows the rungs hold
        (:meth:`_guess`).
        """
        return self._nominal("gate")[2:]

    def _derive_gate(self) -> tuple[np.ndarray, ...]:
        unit = np.eye(6)
        x = np.vstack([np.zeros((1, 6)), unit, -unit])
        solver = ReadButterflySolver(
            self.cell, vdd=self.vdd, grid_points=self.solver.grid.size,
            bisection_iterations=self.solver.bisection_iterations)
        curves = solver.solve(self.space.to_physical(x))
        margins = np.array(lobe_margins(curves, MARGIN_LEVELS))
        slopes, curvatures = [], []
        for side, vtc in enumerate((curves.vtc_a, curves.vtc_b)):
            devices = slice(3 * side, 3 * side + 3)
            plus, minus = vtc[1:7][devices], vtc[7:][devices]
            sigmas = self.space.sigmas[devices, None]
            slopes.append((plus - minus) / (2.0 * sigmas))
            curvatures.append((plus + minus - 2.0 * vtc[0])
                              / (2.0 * sigmas ** 2))
        return (margins[:, 0], (margins[:, 1:7] - margins[:, 7:]) / 2.0,
                np.stack([curves.vtc_a[0], curves.vtc_b[0]]),
                np.stack(slopes), np.stack(curvatures))

    def _guess(self, dvth: np.ndarray,
               columns: np.ndarray | None = None) -> np.ndarray:
        """Predicted node voltages of the physical rows ``dvth`` on
        ``columns`` (default: the whole grid), in the solver's fused
        ``(2B, C)`` layout: ``nominal + Σ_j d_j · (slope_j + d_j ·
        curvature_j)`` over the side's three shifts ``d_j``, summed
        elementwise in a fixed order (never a BLAS product), so a row's
        guess -- and the evaluations its check spends -- do not depend
        on its tile or backend."""
        nominal, slopes, curvatures = self.predictor
        if columns is not None:
            nominal = nominal[:, columns]
            slopes = slopes[:, :, columns]
            curvatures = curvatures[:, :, columns]
        batch = dvth.shape[0]
        guess = np.empty((2 * batch, nominal.shape[1]))
        for side in (0, 1):
            part = guess[side * batch:(side + 1) * batch]
            part[...] = nominal[side]
            for j in range(3):
                shift = dvth[:, 3 * side + j, None]
                part += shift * (slopes[side, j] + shift * curvatures[side, j])
        return guess

    def _window_rung(self, dvth: np.ndarray, rows: np.ndarray,
                     which: str) -> np.ndarray:
        """The tile rows among ``rows`` the window certifies as passing.

        Each row is bisected to the first rung's depth on the
        :attr:`window` columns only; it passes when its verified lobe
        margin (:func:`~repro.sram.margins.window_lobe_margins`) clears
        that rung's guard band -- both lobes for ``cell``, lobe 0 for
        ``lobe0``.  The window never labels a failure.  With a cache,
        both lobes' margins are looked up and stored under
        :data:`WINDOW_LEVEL`.
        """
        solver, _, band = self.rungs[0]
        w0 = np.empty(rows.size)
        w1 = np.empty(rows.size)
        todo = np.ones(rows.size, dtype=bool)
        if self.cache is not None:
            hit, w0, w1 = self.cache.lookup(WINDOW_LEVEL, dvth[rows])
            todo = ~hit
        if todo.any():
            ids = rows[todo]
            curves, state = solver.solve_with_state(
                dvth[ids], columns=self.window,
                guess=self._guess(dvth[ids], self.window))
            w0[todo], w1[todo] = window_lobe_margins(
                curves, state, self.window, MARGIN_LEVELS)
            if self.cache is not None:
                self.cache.store(WINDOW_LEVEL, dvth[ids], w0[todo],
                                 w1[todo])
        return rows[self._select_margin(w0, w1, which) > band]

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
            if solver is self.rungs[0][0]:  # the 8-step rung: predicted
                result = solver.solve_with_state(
                    dvth[ids], guess=self._guess(dvth[ids]))
            else:
                result = solver.solve_with_state(dvth[ids])
            solved.append((ids, *result))
        for ids, curves, _ in solved:
            m0[ids], m1[ids] = lobe_margins(curves, MARGIN_LEVELS)
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
