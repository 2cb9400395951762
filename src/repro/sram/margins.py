"""Noise-margin extraction: Seevinck's maximum embedded square.

The read noise margin of a lobe is the side of the largest square that fits
inside the corresponding eye of the butterfly plot (Seevinck, List, Lohstroh
1987).  A square with axis-parallel sides inscribed in a lobe touches the
two curves at *opposite corners*, which lie on a line of slope +1; rotating
the plane by 45 degrees turns those lines into verticals, so the margin is

.. math::

    \\mathrm{RNM} = \\max_v \\;
        \\frac{u_\\mathrm{outer}(v) - u_\\mathrm{inner}(v)}{\\sqrt 2}

where ``(u, v) = ((x+y)/sqrt2, (y-x)/sqrt2)`` and each curve is a function
``u(v)`` (both VTCs are monotone, so ``v`` is a valid parameter).  The
signed maximum is **negative when the lobe has collapsed**, which is
exactly the failure criterion and gives a margin that varies continuously
through zero -- a property the boundary bisection in
:mod:`repro.core.boundary` relies on.

Lobe 0 (upper-left eye, around the stored-"0" point Q=0/QB=VDD) lives at
``v > 0``; lobe 1 is its mirror image at ``v < 0``.
"""

from __future__ import annotations

import numpy as np

from repro.sram.butterfly import BisectionState, ButterflyCurves

_SQRT2 = float(np.sqrt(2.0))


def batched_interp(x: np.ndarray, y: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Row-wise linear interpolation with clamped extrapolation.

    Parameters
    ----------
    x:
        Sample abscissae, shape (B, G), strictly increasing along axis 1.
    y:
        Sample ordinates, shape (B, G).
    xq:
        Query abscissae, shape (K,), shared across rows, in any order.

    Returns
    -------
    (B, K) interpolated values; queries outside the sample range clamp to
    the endpoint values.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError(
            f"x and y must both be (B, G), got {x.shape} and {y.shape}")
    xq = np.asarray(xq, dtype=float)
    if xq.ndim != 1:
        raise ValueError(f"xq must be (K,), got {xq.shape}")

    # Count samples <= query -> right-bracket index in [1, G-1].  A
    # sample counts for every sorted query at or after its searchsorted
    # position, so a per-row histogram of those positions, accumulated,
    # is the count: the same integers as comparing all (B, G, K) pairs,
    # without the (B, G, K) temporary.
    batch, points = x.shape
    order = np.argsort(xq, kind="stable")
    bins = xq.size + 1
    pos = np.searchsorted(xq[order], x, side="left")
    pos += np.arange(batch)[:, None] * bins
    counts = np.bincount(pos.ravel(), minlength=batch * bins)
    counts = np.cumsum(counts.reshape(batch, bins), axis=1)
    idx = np.empty((batch, xq.size), dtype=counts.dtype)
    idx[:, order] = counts[:, :-1]
    idx = np.clip(idx, 1, points - 1)
    # flat gathers: row r's column c is element c + r * G of the
    # raveled arrays, so these are take_along_axis's elements
    idx += np.arange(batch)[:, None] * points
    x, y = x.ravel(), y.ravel()
    x0 = np.take(x, idx - 1)
    x1 = np.take(x, idx)
    y0 = np.take(y, idx - 1)
    y1 = np.take(y, idx)
    span = x1 - x0
    t = np.where(span > 0, (xq - x0) / np.where(span > 0, span, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    return y0 + t * (y1 - y0)


def _rotated(curve_x: np.ndarray, curve_y: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Return (v, u) coordinates of curve points."""
    u = (curve_x + curve_y) / _SQRT2
    v = (curve_y - curve_x) / _SQRT2
    return v, u


def _cuts(vdd: float, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """The 45-degree cut levels ``v`` of lobe 0 and of lobe 1."""
    if levels < 8:
        raise ValueError(f"levels must be >= 8, got {levels}")
    vmax = vdd / _SQRT2
    return np.linspace(0.0, vmax, levels), np.linspace(-vmax, 0.0, levels)


def _curve_points(curves: ButterflyCurves):
    """``(v_a, u_a, v_b, u_b)``: both curves in the rotated frame, in
    grid-column order, (B, G) each.  ``v_a`` increases along the grid
    and ``v_b`` decreases."""
    grid = np.broadcast_to(curves.grid, curves.vtc_a.shape)
    # Curve A points: (q, qb) = (vtc_a, grid).
    v_a, u_a = _rotated(curves.vtc_a, grid)
    # Curve B points: (q, qb) = (grid, vtc_b).
    v_b, u_b = _rotated(grid, curves.vtc_b)
    return v_a, u_a, v_b, u_b


def _lobe_gaps(curves: ButterflyCurves, levels: int):
    """Two-curve gaps at every cut of each lobe, ``(gap0, gap1)`` of
    shape (B, levels)."""
    v_a, u_a, v_b, u_b = _curve_points(curves)
    vq0, vq1 = _cuts(curves.vdd, levels)
    # batched_interp needs increasing abscissae: flip curve B.
    v_b = v_b[:, ::-1]
    u_b = u_b[:, ::-1]
    gap0 = (batched_interp(v_b, u_b, vq0) - batched_interp(v_a, u_a, vq0))
    gap1 = (batched_interp(v_a, u_a, vq1) - batched_interp(v_b, u_b, vq1))
    return gap0, gap1


def lobe_margins(curves: ButterflyCurves, levels: int = 96
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Signed read noise margins of both lobes for a batch of cells.

    Parameters
    ----------
    curves:
        Butterfly curves from
        :class:`~repro.sram.butterfly.ReadButterflySolver`.
    levels:
        Number of 45-degree cut levels scanned per lobe.

    Returns
    -------
    ``(rnm0, rnm1)`` arrays of shape (B,): the margins of the stored-"0"
    lobe (upper-left) and the stored-"1" lobe (lower-right).  Negative
    values mean the lobe has collapsed (read failure for that state).
    """
    gap0, gap1 = _lobe_gaps(curves, levels)
    return gap0.max(axis=1) / _SQRT2, gap1.max(axis=1) / _SQRT2


def widest_cut_columns(curves: ButterflyCurves, levels: int = 96
                       ) -> np.ndarray:
    """Grid columns the widest cut of each lobe interpolates.

    For every cell and lobe, the cut with the largest gap, and on each
    curve the two grid columns :func:`batched_interp` reads there (the
    points either side of the cut).  Returns the sorted unique columns
    over the batch and both lobes.
    """
    v_a, _, v_b, _ = _curve_points(curves)
    points = curves.grid.size
    columns = []
    for gap, cuts in zip(_lobe_gaps(curves, levels),
                         _cuts(curves.vdd, levels)):
        cut = cuts[np.argmax(gap, axis=1)][:, None]
        # right-bracket index: the samples at or below the cut
        right_a = np.clip(np.sum(v_a <= cut, axis=1), 1, points - 1)
        right_b = np.clip(np.sum(v_b <= cut, axis=1), 1, points - 1)
        # curve B is read flipped: its flipped column i is column G-1-i
        columns += [right_a - 1, right_a, points - right_b,
                    points - 1 - right_b]
    return np.unique(np.concatenate(columns))


def _runs(columns: np.ndarray) -> list[slice]:
    """Slices of ``columns`` holding consecutive grid columns."""
    breaks = np.flatnonzero(np.abs(np.diff(columns)) != 1) + 1
    bounds = [0, *breaks.tolist(), len(columns)]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _verified_interp(v, u, v_min, v_max, runs, cuts):
    """``u`` interpolated at ``cuts`` on each run of a column solve's
    points, and where a deeper solve provably reads the same run.

    ``v`` increases along each row; ``v_min``/``v_max`` bound the v a
    deeper solve can hold at each point.  Its curve reads two points of
    the run at the cuts from ``v_max`` at the run's first point up to,
    not including, ``v_min`` at its last.
    """
    value = np.zeros((v.shape[0], cuts.size))
    verified = np.zeros(value.shape, dtype=bool)
    for run in runs:
        start = v_max[:, run.start]
        stop = v_min[:, run.stop - 1]
        # the cuts some row verifies, a slice of the sorted cuts
        span = slice(np.searchsorted(cuts, start.min()),
                     np.searchsorted(cuts, stop.max()))
        if span.start >= span.stop:
            continue
        ok = (start[:, None] <= cuts[span]) & (cuts[span] < stop[:, None])
        value[:, span] = np.where(
            ok, batched_interp(v[:, run], u[:, run], cuts[span]),
            value[:, span])
        verified[:, span] |= ok
    return value, verified


def window_lobe_margins(curves: ButterflyCurves, state: BisectionState,
                        columns: np.ndarray, levels: int = 96
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Lobe margins over the cuts a column solve verifies.

    ``curves`` and ``state`` come from a column solve
    (:meth:`~repro.sram.butterfly.ReadButterflySolver.solve_with_state`
    with ``columns``): the bracket midpoints and brackets of the sorted
    grid ``columns`` only.  A deeper solve of the same cell keeps every
    point inside its bracket, and each curve's ``v`` is monotone along
    the grid, so per run of consecutive columns the brackets fix the
    cuts at which the deeper curve interpolates two points of the run:
    on curve A where ``(g_first - lo_first) / sqrt2 <= v < (g_last -
    hi_last) / sqrt2``, on curve B where ``(hi_last - g_last) / sqrt2
    <= v < (lo_first - g_first) / sqrt2``.  At a cut both curves
    verify, the gap between the midpoint curves, interpolated on the
    run's points, is within the whole-margin bisection bound of the
    deeper solve's gap there (``docs/PERFORMANCE.md``, "Window
    certification").

    Returns ``(w0, w1)`` of shape (B,): per lobe, the largest verified
    gap over sqrt2, ``-inf`` where no cut is verified.  The lobe margin
    is a max over all cuts, so the exact margin is at least
    ``w - margin_guard_band(vdd, depth, 40, safety=1)``.
    """
    gap0, gap1 = _window_gaps(curves, state, columns, levels)
    return gap0.max(axis=1) / _SQRT2, gap1.max(axis=1) / _SQRT2


def _window_gaps(curves: ButterflyCurves, state: BisectionState,
                 columns: np.ndarray, levels: int):
    """Two-curve gaps at every cut of each lobe, ``(gap0, gap1)`` of
    shape (B, levels), ``-inf`` at the cuts the brackets do not verify
    (see :func:`window_lobe_margins`)."""
    batch = curves.batch_size
    grid = np.broadcast_to(curves.grid, curves.vtc_a.shape)
    lo_a, lo_b = state.lo[:batch], state.lo[batch:]
    hi_a, hi_b = state.hi[:batch], state.hi[batch:]
    v_a, u_a, v_b, u_b = _curve_points(curves)
    # the v bounds take the ops of _rotated, whose rounding is monotone
    # in the node voltage, so they bound the deeper solve's v exactly
    curve_a = (v_a, u_a, (grid - hi_a) / _SQRT2, (grid - lo_a) / _SQRT2,
               _runs(columns))
    # curve B read flipped, so that v increases along its rows too
    flip = np.s_[:, ::-1]
    curve_b = (v_b[flip], u_b[flip], ((lo_b - grid) / _SQRT2)[flip],
               ((hi_b - grid) / _SQRT2)[flip], _runs(columns[::-1]))
    gaps = []
    for lobe, cuts in enumerate(_cuts(curves.vdd, levels)):
        ua, ok_a = _verified_interp(*curve_a, cuts)
        ub, ok_b = _verified_interp(*curve_b, cuts)
        gap = (ub - ua) if lobe == 0 else (ua - ub)
        gaps.append(np.where(ok_a & ok_b, gap, -np.inf))
    return gaps[0], gaps[1]


def static_noise_margin(curves: ButterflyCurves, levels: int = 96
                        ) -> np.ndarray:
    """Cell-level read noise margin: the worse of the two lobes, (B,)."""
    rnm0, rnm1 = lobe_margins(curves, levels)
    return np.minimum(rnm0, rnm1)


def max_square_reference(curve_b_xy: np.ndarray, curve_a_xy: np.ndarray,
                          lobe: int, vdd: float, resolution: int = 400
                          ) -> float:
    """Independent single-cell reference implementation (tests only).

    Uses ``np.interp`` on sorted rotated point lists rather than the batched
    interpolation above, so it exercises a separate code path.

    Parameters
    ----------
    curve_b_xy, curve_a_xy:
        Dense (N, 2) point lists of the two butterfly curves in the
        (Q, QB) plane.
    lobe:
        0 for the upper-left eye, 1 for the lower-right.
    """
    if lobe not in (0, 1):
        raise ValueError(f"lobe must be 0 or 1, got {lobe}")
    vb, ub = _rotated(curve_b_xy[:, 0], curve_b_xy[:, 1])
    va, ua = _rotated(curve_a_xy[:, 0], curve_a_xy[:, 1])
    vmax = vdd / _SQRT2
    cuts = (np.linspace(0.0, vmax, resolution) if lobe == 0
            else np.linspace(-vmax, 0.0, resolution))
    order_b = np.argsort(vb)
    order_a = np.argsort(va)
    ub_q = np.interp(cuts, vb[order_b], ub[order_b])
    ua_q = np.interp(cuts, va[order_a], ua[order_a])
    gap = (ub_q - ua_q) if lobe == 0 else (ua_q - ub_q)
    return float(gap.max() / _SQRT2)
