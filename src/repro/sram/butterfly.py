"""Vectorised read-condition butterfly curves.

This is the Monte-Carlo hot path.  For a batch of mismatched cells it
computes both half-cell voltage transfer curves (VTCs) under read bias
(wordline high, both bitlines precharged to VDD) by bisection on the output
node's current balance, which is strictly monotone in the node voltage
because every device conducts more toward its own rail as the node moves
away from it.  All arithmetic is numpy-broadcast over
``(batch, grid)`` arrays; no Python-level loop over samples.

One full butterfly (two VTCs) for a batch of B cells costs
``2 * n_bisection * grid`` vectorised device-model evaluations, giving
~1e4-1e5 cell evaluations per second -- enough to run the naive-Monte-Carlo
reference experiments of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sram.cell import SramCell
from repro.spice.model import IdsWorkspace


@dataclass
class ButterflyCurves:
    """Butterfly curves for a batch of cells.

    Attributes
    ----------
    grid:
        Shared input-voltage grid, shape (G,): the solver's grid, or the
        solved columns of it for a column solve.
    vtc_a:
        Inverter A output: Q as a function of QB = ``grid``; shape (B, G).
    vtc_b:
        Inverter B output: QB as a function of Q = ``grid``; shape (B, G).
    vdd:
        Supply voltage the curves were computed at.
    """

    grid: np.ndarray
    vtc_a: np.ndarray
    vtc_b: np.ndarray
    vdd: float

    @property
    def batch_size(self) -> int:
        return self.vtc_a.shape[0]


@dataclass
class BisectionState:
    """Bracket arrays of a partially-converged butterfly solve.

    ``lo``/``hi`` hold the brackets in the solver's fused ``(2B, G)``
    layout -- rows ``[:B]`` are side A, rows ``[B:]`` side B -- after
    ``iterations`` bisection steps.  Because bisection is
    deterministic, a deeper solver can
    :meth:`~ReadButterflySolver.resume` from these brackets and land on
    exactly the curves its own from-scratch solve would produce.
    """

    lo: np.ndarray
    hi: np.ndarray
    iterations: int

    @property
    def batch_size(self) -> int:
        return self.lo.shape[0] // 2

    def rows(self, index: np.ndarray) -> "BisectionState":
        """Bracket copies for the cells at integer positions ``index``:
        one fancy-index copy per bracket array, both sides at once."""
        index = np.asarray(index, dtype=np.intp)
        both = np.concatenate([index, index + self.batch_size])
        return BisectionState(self.lo[both], self.hi[both], self.iterations)


class ReadButterflySolver:
    """Batch butterfly solver for one cell design at one supply voltage.

    Both butterfly sides run as one fused ``(2B, G)`` bisection (see
    :meth:`_solve_with_state`), which requires a side-symmetric cell:
    L1/D1/A1 and L2/D2/A2 must share parameter cards and geometry.
    Every cell built from a role-based
    :class:`~repro.config.CellGeometry` is; anything else is rejected
    at construction.

    Parameters
    ----------
    cell:
        The :class:`~repro.sram.cell.SramCell` (device models + geometry).
    vdd:
        Supply voltage [V]; defaults to the cell's.
    grid_points:
        Number of input-voltage samples per VTC.
    bisection_iterations:
        Bisection refinement steps; 40 gives ~1e-12 V node accuracy.
    """

    def __init__(self, cell: SramCell, vdd: float | None = None,
                 grid_points: int = 101, bisection_iterations: int = 40):
        if grid_points < 8:
            raise ValueError(f"grid_points must be >= 8, got {grid_points}")
        if bisection_iterations < 8:
            raise ValueError("bisection_iterations must be >= 8")
        self.cell = cell
        self.vdd = float(cell.vdd if vdd is None else vdd)
        if self.vdd <= 0:
            raise ValueError(f"vdd must be positive, got {self.vdd}")
        self.grid = np.linspace(0.0, self.vdd, grid_points)
        self.bisection_iterations = bisection_iterations
        #: cumulative device-model (Ids) evaluation count, in units of
        #: one device triplet at one (sample, grid) point -- the perf
        #: reports' core "did we actually do less work" metric.
        self.model_evals = 0
        # device index triplets (load, driver, access) in DEVICE_ORDER
        self._sides = ((0, 1, 2), (3, 4, 5))
        self._side_names = (("L1", "D1", "A1"), ("L2", "D2", "A2"))
        if not self._sides_symmetric():
            raise ValueError(
                "ReadButterflySolver needs a side-symmetric cell: "
                "L1/D1/A1 and L2/D2/A2 must share parameter cards and "
                "geometry")

    def _sides_symmetric(self) -> bool:
        """Whether L1/D1/A1 and L2/D2/A2 share params and geometry."""
        for name_a, name_b in zip(*self._side_names):
            model_a = self.cell.model(name_a)
            model_b = self.cell.model(name_b)
            if (model_a.params != model_b.params
                    or model_a.w_nm != model_b.w_nm
                    or model_a.l_nm != model_b.l_nm):
                return False
        return True

    # ------------------------------------------------------------------
    def solve(self, delta_vth: np.ndarray) -> ButterflyCurves:
        """Compute both VTCs for a batch of shift vectors.

        Parameters
        ----------
        delta_vth:
            Per-device threshold shifts [V], shape (B, 6) following
            :data:`repro.config.DEVICE_ORDER`.
        """
        return self._solve_with_state(self._check_shifts(delta_vth))[0]

    def solve_with_state(self, delta_vth: np.ndarray,
                         columns: np.ndarray | None = None
                         ) -> tuple[ButterflyCurves, BisectionState]:
        """:meth:`solve` that also returns the bisection brackets.

        The state lets a deeper solver :meth:`resume` the bisection
        instead of re-solving from scratch (the adaptive evaluator's
        screening ladder).

        ``columns`` (sorted grid indices) bisects only those grid
        points: the curves' ``grid`` and every ``(B, C)`` array hold
        just those columns.  Bisection is elementwise, so each column's
        curve and brackets are bit-identical to the same column of a
        full solve, at ``C / G`` of its device-model evaluations.
        """
        return self._solve_with_state(self._check_shifts(delta_vth),
                                      columns=columns)

    def resume(self, delta_vth: np.ndarray, state: BisectionState
               ) -> tuple[ButterflyCurves, BisectionState]:
        """Continue a shallower solve to this solver's full depth.

        The first ``state.iterations`` steps of a from-scratch solve
        compute exactly the brackets ``state`` holds (same initial
        interval, same deterministic comparisons), so the returned
        curves are bit-identical to ``solve(delta_vth)`` at the cost of
        only the remaining steps.  The returned state holds the brackets
        at this solver's depth, so a deeper solver can resume again.
        ``state`` is consumed: its arrays are updated in place and
        become the returned state's.
        """
        delta_vth = self._check_shifts(delta_vth)
        extra = self.bisection_iterations - state.iterations
        if extra < 0:
            raise ValueError(
                f"cannot resume a {state.iterations}-step solve with a "
                f"{self.bisection_iterations}-step solver")
        if state.batch_size != delta_vth.shape[0]:
            raise ValueError(
                f"state holds {state.batch_size} cells, delta_vth "
                f"{delta_vth.shape[0]}")
        if state.lo.shape[1] != self.grid.size:
            raise ValueError(
                f"state holds {state.lo.shape[1]} grid columns, the "
                f"solver {self.grid.size}; a column solve cannot resume")
        return self._solve_with_state(delta_vth, (state.lo, state.hi),
                                      extra)

    def solve_side(self, side: int, delta_vth: np.ndarray,
                   bl_voltage: float | None = None,
                   wl_voltage: float | None = None) -> np.ndarray:
        """VTC of one half cell only; shape (B, G).

        ``bl_voltage``/``wl_voltage`` override the read-condition defaults
        (both at VDD); this is how the hold and write analyses in
        :mod:`repro.sram.static` reuse the solver:

        * hold: ``wl_voltage = 0`` (access gated off);
        * write: ``bl_voltage = 0`` on the driven side.
        """
        if side not in (0, 1):
            raise ValueError(f"side must be 0 or 1, got {side}")
        return self._solve_side(side, self._check_shifts(delta_vth),
                                bl_voltage=bl_voltage,
                                wl_voltage=wl_voltage)

    # ------------------------------------------------------------------
    def _check_shifts(self, delta_vth) -> np.ndarray:
        delta_vth = np.atleast_2d(np.asarray(delta_vth, dtype=float))
        if delta_vth.ndim != 2 or delta_vth.shape[1] != 6:
            raise ValueError(
                f"delta_vth must have shape (B, 6), got {delta_vth.shape}")
        return delta_vth

    def _solve_side(self, side: int, delta_vth: np.ndarray,
                    bl_voltage: float | None = None,
                    wl_voltage: float | None = None) -> np.ndarray:
        idx = self._sides[side]
        models = tuple(self.cell.model(n) for n in self._side_names[side])
        return self._bisect(models, delta_vth[:, idx[0], None],
                            delta_vth[:, idx[1], None],
                            delta_vth[:, idx[2], None],
                            bl_voltage, wl_voltage)[0]

    def _solve_with_state(self, delta_vth: np.ndarray,
                          start: tuple[np.ndarray, np.ndarray] | None = None,
                          iterations: int | None = None,
                          columns: np.ndarray | None = None
                          ) -> tuple[ButterflyCurves, BisectionState]:
        """Both sides as one (2B, G) bisection; rows [:B] are side A.

        Valid because the cell is side-symmetric (checked at
        construction): with identical device models, stacking side B's
        shift columns under side A's gives per-row results bit-identical
        to the two :meth:`solve_side` solves, because every bisection op
        is elementwise over rows.  ``start`` brackets are in the same
        fused layout, so a resume stacks nothing.
        """
        batch = delta_vth.shape[0]
        idx_a, idx_b = self._sides
        dv_load = np.concatenate(
            [delta_vth[:, idx_a[0]], delta_vth[:, idx_b[0]]])[:, None]
        dv_driver = np.concatenate(
            [delta_vth[:, idx_a[1]], delta_vth[:, idx_b[1]]])[:, None]
        dv_access = np.concatenate(
            [delta_vth[:, idx_a[2]], delta_vth[:, idx_b[2]]])[:, None]
        models = tuple(self.cell.model(n) for n in self._side_names[0])
        grid = self.grid if columns is None else self.grid[columns]
        mid, lo, hi = self._bisect(models, dv_load, dv_driver, dv_access,
                                   None, None, start, iterations, grid)
        curves = ButterflyCurves(grid=grid, vtc_a=mid[:batch],
                                 vtc_b=mid[batch:], vdd=self.vdd)
        return curves, BisectionState(lo, hi, self.bisection_iterations)

    def _bisect(self, models, dv_load, dv_driver, dv_access,
                bl_voltage, wl_voltage, start=None, iterations=None,
                grid=None):
        """Shared bisection engine over an (N, G) bracket block; returns
        the midpoints and the final ``lo``/``hi`` brackets.  ``grid``
        (default: the full grid) is the input voltages of the columns.

        Maintains the invariant ``0 <= lo <= mid <= hi <= vdd`` (the
        initial brackets span ``[0, vdd]`` and every update replaces an
        endpoint with the midpoint), which is what licenses the
        swap-free ``assume_ordered`` device evaluation below.
        """
        bl = self.vdd if bl_voltage is None else float(bl_voltage)
        wl = self.vdd if wl_voltage is None else float(wl_voltage)
        batch = dv_load.shape[0]
        grid = self.grid if grid is None else grid
        grid_size = grid.size
        vin = grid[None, :]
        if start is None:
            lo = np.zeros((batch, grid_size))
            hi = np.full((batch, grid_size), self.vdd)
        else:
            lo, hi = start  # resumed brackets, consumed by the solve
        steps = (self.bisection_iterations if iterations is None
                 else iterations)

        load, driver, access = models
        # The node stays inside [0, vdd]: the pMOS load and nMOS driver
        # are always source/drain-ordered after polarity mirroring, and
        # the access device is whenever the bitline is at or above the
        # bracket ceiling (reads and holds; writes drive a bitline low
        # and take the general swap path).
        access_ordered = bl >= self.vdd
        workspace = IdsWorkspace(lo.shape)
        i_load = np.empty(lo.shape)
        i_driver = np.empty(lo.shape)
        i_access = np.empty(lo.shape)
        mid = np.empty_like(lo)
        above = np.empty(lo.shape, dtype=bool)
        below = np.empty(lo.shape, dtype=bool)
        for _ in range(steps):
            np.add(lo, hi, out=mid)
            mid *= 0.5
            # in-place net current into the node (monotone decreasing
            # in mid), summed load, driver, access in that order: the
            # order fixes the bits that stored results (checkpoints,
            # cached margins) were computed with
            load.ids_into(vin, mid, self.vdd, dv_load, out=i_load,
                          workspace=workspace, assume_ordered=True)
            np.negative(i_load, out=i_load)
            driver.ids_into(vin, mid, 0.0, dv_driver, out=i_driver,
                            workspace=workspace, assume_ordered=True)
            np.negative(i_driver, out=i_driver)
            access.ids_into(wl, bl, mid, dv_access, out=i_access,
                            workspace=workspace,
                            assume_ordered=access_ordered)
            np.add(i_load, i_driver, out=i_load)
            np.add(i_load, i_access, out=i_load)
            np.greater(i_load, 0.0, out=above)
            np.logical_not(above, out=below)
            np.copyto(lo, mid, where=above)
            np.copyto(hi, mid, where=below)
            self.model_evals += batch * grid_size
        np.add(lo, hi, out=mid)
        mid *= 0.5
        return mid, lo, hi
