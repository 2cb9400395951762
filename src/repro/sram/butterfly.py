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
        Shared input-voltage grid, shape (G,).
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

    ``side_a``/``side_b`` hold the ``(lo, hi)`` bracket pair, each of
    shape (B, G), after ``iterations`` bisection steps.  Because
    bisection is deterministic, a deeper solver can
    :meth:`~ReadButterflySolver.resume` from these brackets and land on
    exactly the curves its own from-scratch solve would produce.
    """

    side_a: tuple[np.ndarray, np.ndarray]
    side_b: tuple[np.ndarray, np.ndarray]
    iterations: int

    def rows(self, index: np.ndarray) -> "BisectionState":
        """Bracket copies for a row subset (fancy indexing copies)."""
        return BisectionState(
            (self.side_a[0][index], self.side_a[1][index]),
            (self.side_b[0][index], self.side_b[1][index]),
            self.iterations)


class ReadButterflySolver:
    """Batch butterfly solver for one cell design at one supply voltage.

    Both butterfly sides run as one fused ``(2B, G)`` bisection (see
    :meth:`_solve_fused`), which requires a side-symmetric cell: L1/D1/A1
    and L2/D2/A2 must share parameter cards and geometry.  Every cell
    built from a role-based :class:`~repro.config.CellGeometry` is;
    anything else is rejected at construction.

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
        vtc_a, vtc_b = self._solve_fused(self._check_shifts(delta_vth))
        return ButterflyCurves(grid=self.grid, vtc_a=vtc_a, vtc_b=vtc_b,
                               vdd=self.vdd)

    def solve_with_state(self, delta_vth: np.ndarray
                         ) -> tuple[ButterflyCurves, BisectionState]:
        """:meth:`solve` that also returns the bisection brackets.

        The state lets a deeper solver :meth:`resume` the bisection
        instead of re-solving from scratch (the adaptive evaluator's
        refinement path).
        """
        (vtc_a, vtc_b), (side_a, side_b) = self._solve_fused(
            self._check_shifts(delta_vth), keep_state=True)
        curves = ButterflyCurves(grid=self.grid, vtc_a=vtc_a, vtc_b=vtc_b,
                                 vdd=self.vdd)
        return curves, BisectionState(side_a, side_b,
                                      self.bisection_iterations)

    def resume(self, delta_vth: np.ndarray,
               state: BisectionState) -> ButterflyCurves:
        """Continue a shallower solve to this solver's full depth.

        The first ``state.iterations`` steps of a from-scratch solve
        compute exactly the brackets ``state`` holds (same initial
        interval, same deterministic comparisons), so the returned
        curves are bit-identical to ``solve(delta_vth)`` at the cost of
        only the remaining steps.  ``state`` is consumed: its arrays
        are updated in place.
        """
        delta_vth = self._check_shifts(delta_vth)
        extra = self.bisection_iterations - state.iterations
        if extra < 0:
            raise ValueError(
                f"cannot resume a {state.iterations}-step solve with a "
                f"{self.bisection_iterations}-step solver")
        start = (np.concatenate([state.side_a[0], state.side_b[0]]),
                 np.concatenate([state.side_a[1], state.side_b[1]]))
        vtc_a, vtc_b = self._solve_fused(delta_vth, start=start,
                                         iterations=extra)
        return ButterflyCurves(grid=self.grid, vtc_a=vtc_a, vtc_b=vtc_b,
                               vdd=self.vdd)

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

    def _node_current(self, side_names, vin, vout, dv_load, dv_driver,
                      dv_access, bl, wl):
        """Net current *into* the half-cell output node.

        Monotone decreasing in ``vout``: the pull-up contributions shrink
        and the pull-down grows as the node rises.
        """
        load, driver, access = (self.cell.model(n) for n in side_names)
        vdd = self.vdd
        # pMOS load: drain at the node; current into node = -Ids.
        i_load = -load.ids(vin, vout, vdd, dv_load)
        # nMOS driver: drain at the node; current into node = -Ids.
        i_driver = -driver.ids(vin, vout, 0.0, dv_driver)
        # access nMOS between the bitline and the node; gate at WL.  The
        # model handles either current direction (source/drain swap), so a
        # low bitline correctly discharges the node during writes.
        i_access = access.ids(wl, bl, vout, dv_access)
        return i_load + i_driver + i_access

    def _solve_side(self, side: int, delta_vth: np.ndarray,
                    bl_voltage: float | None = None,
                    wl_voltage: float | None = None) -> np.ndarray:
        idx = self._sides[side]
        models = tuple(self.cell.model(n) for n in self._side_names[side])
        return self._bisect(models, delta_vth[:, idx[0], None],
                            delta_vth[:, idx[1], None],
                            delta_vth[:, idx[2], None],
                            bl_voltage, wl_voltage)

    def _solve_fused(self, delta_vth: np.ndarray,
                     start: tuple[np.ndarray, np.ndarray] | None = None,
                     iterations: int | None = None,
                     keep_state: bool = False):
        """Both sides as one (2B, G) bisection; rows [:B] are side A.

        Valid because the cell is side-symmetric (checked at
        construction): with identical device models, stacking side B's
        shift columns under side A's gives per-row results bit-identical
        to the two :meth:`solve_side` solves, because every bisection op
        is elementwise over rows.
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
        result = self._bisect(models, dv_load, dv_driver, dv_access,
                              None, None, start, iterations, keep_state)
        if keep_state:
            mid, (lo, hi) = result
            return ((mid[:batch], mid[batch:]),
                    ((lo[:batch], hi[:batch]), (lo[batch:], hi[batch:])))
        return result[:batch], result[batch:]

    def _bisect(self, models, dv_load, dv_driver, dv_access,
                bl_voltage, wl_voltage, start=None, iterations=None,
                keep_state=False):
        """Shared bisection engine over an (N, G) bracket block.

        Maintains the invariant ``0 <= lo <= mid <= hi <= vdd`` (the
        initial brackets span ``[0, vdd]`` and every update replaces an
        endpoint with the midpoint), which is what licenses the
        swap-free ``assume_ordered`` device evaluation below.
        """
        bl = self.vdd if bl_voltage is None else float(bl_voltage)
        wl = self.vdd if wl_voltage is None else float(wl_voltage)
        batch = dv_load.shape[0]
        grid_size = self.grid.size
        vin = self.grid[None, :]
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
            # in-place node current, same op order as _node_current
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
        if keep_state:
            return mid, (lo, hi)
        return mid
