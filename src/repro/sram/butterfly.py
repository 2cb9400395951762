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

An 8-step solve can instead start from a **predicted bracket** per
element (``solve_with_state(..., guess=...)``): two net-current
evaluations check it, a few re-guesses and a bisection of the range the
checks leave settle the elements it misses, and the result is the plain
bisection's bit for bit (:meth:`ReadButterflySolver._search`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sram.cell import SramCell
from repro.spice.model import IdsWorkspace

#: The one bisection depth whose solves accept a predicted bracket: the
#: depth of every from-scratch solve the label path makes.  Its bracket
#: width, ``vdd / 2**8``, dwarfs the net current's rounding error, which
#: is what makes a checked bracket the plain bisection's (see
#: :meth:`ReadButterflySolver._search`).
GUESS_DEPTH = 8

#: Secant re-guesses an element gets after its predicted bracket fails
#: the check, before the range the checks leave is bisected.
REGUESS_ROUNDS = 3

#: Most gathered elements one device-model call of a re-guess round
#: evaluates: bounds the round's buffers (~20 arrays of this length)
#: whatever the share of a tile its check missed.
PROBE_TILE = 8192


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


class _NodeCurrent:
    """Net current into a half cell's output node, for one array shape.

    Load, driver and access currents are summed in that order, into
    buffers reused call after call: the order fixes the bits that stored
    results (checkpoints, cached margins) were computed with, so every
    path that evaluates the node -- a bisection step, a bracket check --
    goes through :meth:`__call__`.  The current is monotone decreasing
    in the node voltage.
    """

    def __init__(self, models, vdd: float, wl: float, bl: float,
                 shifts: tuple, shape: tuple[int, ...]):
        self.models = models
        self.vdd = vdd
        self.wl = wl
        self.bl = bl
        self.shifts = shifts  # (load, driver, access), broadcast to shape
        # The node stays inside [0, vdd]: the pMOS load and nMOS driver
        # are always source/drain-ordered after polarity mirroring, and
        # the access device is whenever the bitline is at or above the
        # bracket ceiling (reads and holds; writes drive a bitline low
        # and take the general swap path).
        self.access_ordered = bl >= vdd
        self.workspace = IdsWorkspace(shape)
        self.net = np.empty(shape)
        self.i_driver = np.empty(shape)
        self.i_access = np.empty(shape)

    def __call__(self, vin: np.ndarray, node: np.ndarray) -> np.ndarray:
        """Net current at input ``vin`` and node voltage ``node``; the
        returned buffer is overwritten by the next call."""
        load, driver, access = self.models
        dv_load, dv_driver, dv_access = self.shifts
        net, ws = self.net, self.workspace
        load.ids_into(vin, node, self.vdd, dv_load, out=net,
                      workspace=ws, assume_ordered=True)
        np.negative(net, out=net)
        driver.ids_into(vin, node, 0.0, dv_driver, out=self.i_driver,
                        workspace=ws, assume_ordered=True)
        np.negative(self.i_driver, out=self.i_driver)
        access.ids_into(self.wl, self.bl, node, dv_access,
                        out=self.i_access, workspace=ws,
                        assume_ordered=self.access_ordered)
        np.add(net, self.i_driver, out=net)
        np.add(net, self.i_access, out=net)
        return net



def bracket_edges(vdd: float, iterations: int) -> np.ndarray:
    """The ``2**iterations + 1`` bracket ends an ``iterations``-step
    bisection on ``[0, vdd]`` can reach, in increasing order.

    Each is computed by the bisection's own ``(lo + hi) * 0.5`` steps
    along the path that reaches it, so ``edges[k]`` and ``edges[k + 1]``
    are bit for bit the brackets of the solve that ends in bracket ``k``
    (neighbouring brackets share the midpoint of their common ancestor).
    """
    lo = np.zeros(1)
    hi = np.full(1, vdd)
    for _ in range(iterations):
        mid = (lo + hi) * 0.5
        lo = np.stack([lo, mid], axis=1).ravel()
        hi = np.stack([mid, hi], axis=1).ravel()
    return np.append(lo, hi[-1])


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
        if not self.vdd > 0:
            raise ValueError(f"vdd must be positive, got {self.vdd}")
        self.grid = np.linspace(0.0, self.vdd, grid_points)
        self.bisection_iterations = bisection_iterations
        #: cumulative device-model (Ids) evaluation count, in units of
        #: one device triplet at one (sample, grid) point -- the perf
        #: reports' core "did we actually do less work" metric.
        self.model_evals = 0
        #: elements the predicted solves settled at the first check, on
        #: a re-guess, and by bisecting what the checks left
        self.guess_outcomes = dict.fromkeys(
            ("accepted", "reguessed", "bisected"), 0)
        #: the brackets a solve of this depth can end in (guesses only)
        self._edges = (bracket_edges(self.vdd, bisection_iterations)
                       if bisection_iterations == GUESS_DEPTH else None)
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
                         columns: np.ndarray | None = None,
                         guess: np.ndarray | None = None
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

        ``guess`` holds a predicted node voltage per element, in the
        fused ``(2B, C)`` layout of :class:`BisectionState`, and is only
        accepted by a :data:`GUESS_DEPTH`-step solver (any other depth
        raises ``ValueError``).  Each element then starts from the
        bracket its guess falls in, checked by two net-current
        evaluations (:meth:`_search`); curves and brackets are the plain
        solve's bit for bit, and only ``model_evals`` moves.  A guess
        needs no accuracy to be safe, only to be cheap.
        """
        delta_vth = self._check_shifts(delta_vth)
        if guess is not None:
            if self.bisection_iterations != GUESS_DEPTH:
                raise ValueError(
                    f"a guess needs a {GUESS_DEPTH}-step solver, this one "
                    f"takes {self.bisection_iterations} steps")
            guess = np.asarray(guess, dtype=float)
            columns_solved = (self.grid.size if columns is None
                              else len(columns))
            if guess.shape != (2 * delta_vth.shape[0], columns_solved):
                raise ValueError(
                    f"guess must have shape (2B, C) = "
                    f"{(2 * delta_vth.shape[0], columns_solved)}, got "
                    f"{guess.shape}")
        return self._solve_with_state(delta_vth, columns=columns,
                                      guess=guess)

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
                          columns: np.ndarray | None = None,
                          guess: np.ndarray | None = None
                          ) -> tuple[ButterflyCurves, BisectionState]:
        """Both sides as one (2B, G) bisection; rows [:B] are side A.

        Valid because the cell is side-symmetric (checked at
        construction): with identical device models, stacking side B's
        shift columns under side A's gives per-row results bit-identical
        to the two :meth:`solve_side` solves, because every bisection op
        is elementwise over rows.  ``start`` brackets and ``guess`` are
        in the same fused layout, so a resume stacks nothing.
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
        if guess is None:
            mid, lo, hi = self._bisect(models, dv_load, dv_driver,
                                       dv_access, None, None, start,
                                       iterations, grid)
        else:
            lo, hi = self._search(models, (dv_load, dv_driver, dv_access),
                                  grid, guess)
            mid = lo + hi
            mid *= 0.5
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
        swap-free ``assume_ordered`` device evaluation of
        :class:`_NodeCurrent`.
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

        current = _NodeCurrent(models, self.vdd, wl, bl,
                               (dv_load, dv_driver, dv_access), lo.shape)
        mid = np.empty_like(lo)
        above = np.empty(lo.shape, dtype=bool)
        below = np.empty(lo.shape, dtype=bool)
        for _ in range(steps):
            np.add(lo, hi, out=mid)
            mid *= 0.5
            np.greater(current(vin, mid), 0.0, out=above)
            np.logical_not(above, out=below)
            np.copyto(lo, mid, where=above)
            np.copyto(hi, mid, where=below)
            self.model_evals += batch * grid_size
        np.add(lo, hi, out=mid)
        mid *= 0.5
        return mid, lo, hi

    def _search(self, models, shifts: tuple, grid: np.ndarray,
                guess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Final brackets of a read solve from predicted brackets.

        A :data:`GUESS_DEPTH`-step bisection on ``[0, vdd]`` ends in one
        of 256 brackets ``[edges[k], edges[k + 1]]`` (:func:`bracket_edges`
        computes them with the bisection's own ops).  Bracket ``k`` is
        the plain solve's exactly when the net current is ``> 0`` at
        ``edges[k]`` and not ``> 0`` at ``edges[k + 1]`` -- ``_bisect``'s
        own turn rule; an end at 0 or vdd is one no step evaluates:

        * those two ends are midpoints the plain solve evaluates, and the
          check computes the very same bits there (same ops, elementwise);
        * every other midpoint of the plain solve lies on the same dyadic
          grid, at least one bracket width (``vdd / 256``) outside the
          bracket, where the strictly monotone net current is orders of
          magnitude larger than its rounding error, so its sign -- and
          the plain solve's turn there -- is fixed.

        Each element starts from bracket ``clip(floor(guess / (vdd /
        256)), 0, 255)``, checked in the solve's own ``(2B, C)`` layout
        (two evaluations per element).  The elements it misses are
        gathered to 1-D and narrowed: :data:`REGUESS_ROUNDS` secant
        re-guesses from the currents seen so far, each moving at least
        one bracket toward the root, then a bisection over the edges the
        checks have not excluded (at most ``GUESS_DEPTH`` steps, the
        plain solve's own midpoints when none are excluded).  Only the
        evaluations spent, counted in ``model_evals``, depend on the
        guess.
        """
        edges = self._edges
        # lo takes the bracket index, then its lower edge: no temporaries
        # beside the brackets (fmax/fmin send a NaN guess to bracket 0
        # and clamp infinities)
        lo = np.divide(guess, self.vdd / 2 ** GUESS_DEPTH)
        np.floor(lo, out=lo)
        np.fmax(lo, 0, out=lo)
        np.fmin(lo, edges.size - 2, out=lo)
        index = lo.astype(np.intp)
        np.take(edges, index, out=lo)
        hi = np.take(edges[1:], index)
        # ends at 0 and vdd, which no bisection step evaluates
        bottom, top = index == 0, index == edges.size - 2
        del index  # the edges are exact, so lo and hi hold what it held
        vin = grid[None, :]
        current = _NodeCurrent(models, self.vdd, self.vdd, self.vdd, shifts,
                               lo.shape)
        i_lo = current(vin, lo).copy()
        i_hi = current(vin, hi)
        del current  # its buffers go before the gathered rounds take theirs
        self.model_evals += 2 * lo.size
        above = (i_lo > 0.0) | bottom
        below = ~(i_hi > 0.0) | top
        missed = np.nonzero(~(above & below))
        self.guess_outcomes["accepted"] += lo.size - missed[0].size
        if missed[0].size:
            final = self._narrow(models, shifts, grid, *missed,
                                 np.searchsorted(edges, lo[missed]),
                                 i_lo[missed], i_hi[missed], above[missed])
            lo[missed] = edges[final]
            hi[missed] = edges[final + 1]
        return lo, hi

    def _narrow(self, models, shifts: tuple, grid: np.ndarray,
                rows: np.ndarray, cols: np.ndarray, index: np.ndarray,
                i_lo: np.ndarray, i_hi: np.ndarray, up: np.ndarray
                ) -> np.ndarray:
        """Bracket indices of the elements at ``(rows, cols)``, whose
        checked brackets ``index`` failed (:meth:`_search`); ``up`` marks
        those whose root lies above the bracket (its lower end checked),
        the rest lie below it.

        Each element keeps the narrowest edge range ``(ka, kb)`` the
        currents seen so far allow -- ``> 0`` at ``edges[ka]``, not at
        ``edges[kb]`` -- and is done when ``kb == ka + 1``.  Every round
        evaluates at least one edge strictly inside the range, so
        ``REGUESS_ROUNDS + GUESS_DEPTH`` rounds settle every element.
        """
        edges = self._edges
        width = self.vdd / 2 ** GUESS_DEPTH
        ka = np.where(up, index + 1, 0)
        kb = np.where(up, edges.size - 1, index)
        i_ka = np.where(up, i_hi, np.nan)  # NaN: edge 0, never evaluated
        i_kb = np.where(up, np.nan, i_lo)  # NaN: edge 256, likewise
        slope = (i_hi - i_lo) / (edges[index + 1] - edges[index])
        final = np.empty_like(index)
        pending = np.arange(index.size)
        bisected = 0
        for rounds in range(REGUESS_ROUNDS + GUESS_DEPTH):
            if rounds < REGUESS_ROUNDS:
                # regula falsi between two known ends, else a secant
                # step from the known one; probe the bracket it lands
                # in, except an end whose current is known
                with np.errstate(divide="ignore", invalid="ignore"):
                    root = np.where(
                        np.isnan(i_kb), edges[ka] - i_ka / slope,
                        np.where(np.isnan(i_ka), edges[kb] - i_kb / slope,
                                 edges[ka] + i_ka * (edges[kb] - edges[ka])
                                 / (i_ka - i_kb)))
                    j = np.floor(root / width)
                j = np.where(np.isfinite(j), j, (ka + kb) // 2)
                j = np.clip(j, ka, kb - 1).astype(np.intp)
                lower = np.flatnonzero(j > ka)
                upper = np.flatnonzero(j + 1 < kb)
                probes = ((lower, j[lower]), (upper, j[upper] + 1))
            else:
                if rounds == REGUESS_ROUNDS:
                    bisected = pending.size
                probes = ((np.arange(pending.size), (ka + kb) // 2),)
            which = np.concatenate([element for element, _ in probes])
            at = np.concatenate([edge for _, edge in probes])
            net = np.empty(which.size)
            for start in range(0, which.size, PROBE_TILE):
                part = slice(start, start + PROBE_TILE)
                near = rows[which[part]]
                net[part] = _NodeCurrent(
                    models, self.vdd, self.vdd, self.vdd,
                    tuple(shift[near, 0] for shift in shifts),
                    near.shape)(grid[cols[which[part]]], edges[at[part]])
            self.model_evals += which.size
            offset = 0
            for element, edge in probes:
                values = net[offset:offset + element.size]
                offset += element.size
                # a probe lies inside the range unless an earlier probe
                # of the round moved kb below it
                positive = values > 0.0
                ka[element[positive]] = edge[positive]
                i_ka[element[positive]] = values[positive]
                fall = ~positive & (edge < kb[element])
                kb[element[fall]] = edge[fall]
                i_kb[element[fall]] = values[fall]
            done = kb - ka <= 1
            final[pending[done]] = ka[done]
            if done.all():
                break
            keep = ~done
            pending, rows, cols, ka, kb, i_ka, i_kb, slope = (
                a[keep] for a in (pending, rows, cols, ka, kb, i_ka, i_kb,
                                  slope))
        self.guess_outcomes["reguessed"] += index.size - bisected
        self.guess_outcomes["bisected"] += bisected
        return final
