"""The window pre-rung: its columns, the soundness of its pass
certificate, the verified-cut bound behind it, and its cache level."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TABLE_I
from repro.perf import PerfConfig, build_evaluator
import repro.perf as perf_pkg
from repro.perf.adaptive import (LADDER, WINDOW_HALF, WINDOW_LEVEL,
                                 WINDOW_RADIUS, AdaptiveMarginEvaluator,
                                 margin_guard_band)
from repro.perf.cache import LEVELS, SolveCache
from repro.rtn.model import RtnModel
from repro.sram.evaluator import MARGIN_LEVELS, CellEvaluator
from repro.sram.margins import _lobe_gaps, _window_gaps

from .test_adaptive import boundary_points

ROWS = 48


def on_shell(rng, n, radius):
    """``n`` whitened rows at exactly ``radius`` sigma."""
    directions = rng.standard_normal((n, 6))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return directions * radius


class WindowCase:
    """Exact and ladder evaluators at one supply, plus failure-boundary
    points found by radial bisection on the exact cell margin."""

    def __init__(self, cell, space, vdd):
        self.vdd = vdd
        self.exact = CellEvaluator(cell, space, vdd=vdd)
        self.fast = AdaptiveMarginEvaluator(cell, space, vdd=vdd)
        self.rtn = RtnModel(TABLE_I, space, alpha=0.5)
        self.boundary = boundary_points(self.exact,
                                        np.random.default_rng(7), 32)

    def rows(self, kind: str, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        if kind == "prior":
            return rng.standard_normal((ROWS, 6))
        if kind == "3sigma":
            return on_shell(rng, ROWS, 3.0)
        # radial offsets from 1e-7 to 5 %, either side of the boundary
        scale = 1.0 + rng.choice([-1.0, 1.0], ROWS) * 10.0 ** rng.uniform(
            -7.0, np.log10(0.05), ROWS)
        x = self.boundary[rng.integers(0, len(self.boundary), ROWS)]
        x = x * scale[:, None]
        if kind == "rtn":
            shifts, states = self.rtn.sample(ROWS, rng)
            x = self.rtn.mirror(x + shifts, states)
        return x

    def window_solve(self, x):
        """The pre-rung's column solve of whitened rows ``x``."""
        solver = self.fast.rungs[0][0]
        return solver.solve_with_state(self.fast.space.to_physical(x),
                                       columns=self.fast.window)


@pytest.fixture(scope="module", params=[0.7, 0.5, 0.3],
                ids=["0.7V", "0.5V", "0.3V"])
def case(request, paper_cell, paper_space):
    return WindowCase(paper_cell, paper_space, request.param)


KINDS = st.sampled_from(["prior", "3sigma", "near", "rtn"])
SEEDS = st.integers(0, 2 ** 32 - 1)
WINDOW_SETTINGS = settings(derandomize=True, max_examples=20,
                           deadline=None)


class TestWindowSoundness:
    @given(kind=KINDS, seed=SEEDS)
    @WINDOW_SETTINGS
    def test_certified_rows_have_positive_exact_margins(self, case, kind,
                                                        seed):
        """Whatever its radius, a row the window passes has a positive
        exact margin for the criterion it was passed under."""
        x = case.rows(kind, seed)
        dvth = case.fast.space.to_physical(x)
        e0, e1 = case.exact.margins(x)
        for which, margin in (("cell", np.minimum(e0, e1)),
                              ("lobe0", e0)):
            passed = case.fast._window_rung(dvth, np.arange(ROWS), which)
            assert np.all(margin[passed] > 0.0), (which, kind)

    @given(kind=KINDS, seed=SEEDS)
    @WINDOW_SETTINGS
    def test_verified_cut_gaps_within_safety_one_band(self, case, kind,
                                                      seed):
        """At every cut the brackets verify, the window's gap is within
        the safety-1 band of the exact 40-step gap at that cut."""
        x = case.rows(kind, seed)
        curves, state = case.window_solve(x)
        window = _window_gaps(curves, state, case.fast.window,
                              MARGIN_LEVELS)
        exact_curves = case.exact.solver.solve(
            case.exact.space.to_physical(x))
        exact = _lobe_gaps(exact_curves, MARGIN_LEVELS)
        band = margin_guard_band(case.vdd, LADDER[0][0], 40, safety=1.0)
        for gap_8, gap_40 in zip(window, exact):
            verified = np.isfinite(gap_8)
            assert verified.any()
            assert np.all(np.abs(gap_8 - gap_40)[verified]
                          / np.sqrt(2.0) <= band)

    def test_every_supply_certifies_prior_rows(self, case):
        """The draws above exercise the certificate at every supply
        (0.3 V, nominal margin 1.4 mV, still passes some rows)."""
        x = case.rows("prior", 0)
        dvth = case.fast.space.to_physical(x)
        assert case.fast._window_rung(dvth, np.arange(ROWS), "lobe0").size


class TestWindowShape:
    @pytest.mark.parametrize("vdd, runs", [
        (0.7, [(22, 29), (37, 44)]),
        (0.5, [(20, 27), (40, 47)]),
    ])
    def test_columns_follow_the_nominal_cell(self, paper_cell, paper_space,
                                             vdd, runs):
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space, vdd=vdd)
        want = np.concatenate([np.arange(a, b + 1) for a, b in runs])
        assert np.array_equal(fast.window, want)
        # two runs of 2 centre columns widened by WINDOW_HALF each side
        assert want.size == 2 * (2 + 2 * WINDOW_HALF)

    def test_derivation_is_lazy_and_uncounted(self, paper_cell,
                                              paper_space):
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        assert fast._window is None
        fast.window
        assert fast.device_model_evals == 0

    def test_radius_selects_the_rows(self, paper_cell, paper_space, rng,
                                     monkeypatch):
        """Rows within WINDOW_RADIUS take the window first; rows beyond
        it take only the ladder, whose first rung solves all columns."""
        for radius, windowed in ((WINDOW_RADIUS * (1 - 1e-9), True),
                                 (WINDOW_RADIUS * (1 + 1e-9), False)):
            fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
            solver = fast.rungs[0][0]
            solves = []
            method = solver.solve_with_state
            monkeypatch.setattr(
                solver, "solve_with_state",
                lambda dvth, columns=None, _m=method: solves.append(
                    (len(dvth), columns is not None))
                or _m(dvth, columns=columns))
            x = on_shell(rng, 64, radius)
            fast.failure_labels(x, "cell")
            # a window solve of every row, or none at all
            assert ((64, True) in solves) is windowed
            assert sum(cols for _, cols in solves) == int(windowed)


class TestWindowCache:
    def test_warm_cache_answers_window_rows_without_solving(
            self, paper_cell, paper_space, rng):
        exact = CellEvaluator(paper_cell, paper_space)
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        fast.cache = SolveCache(fast.solve_fingerprint())
        x = rng.standard_normal((300, 6))
        labels = fast.failure_labels(x, "cell")
        assert np.array_equal(labels, exact.failure_labels(x, "cell"))
        window = np.sum(x * x, axis=1) <= WINDOW_RADIUS ** 2
        hit, _, _ = fast.cache.lookup(WINDOW_LEVEL, paper_space.to_physical(
            x[window]))
        assert hit.all()

        evals = fast.device_model_evals
        resolved = dict(fast.resolved)
        for which in ("lobe0", "cell"):
            assert np.array_equal(fast.failure_labels(x, which),
                                  exact.failure_labels(x, which))
        assert fast.device_model_evals == evals
        assert fast.resolved[LADDER[0][0]] > resolved[LADDER[0][0]]

    def test_file_without_window_level_loads_and_hits(self, paper_cell,
                                                      paper_space, rng,
                                                      tmp_path):
        """A file of the ladder's levels alone, as builds before the
        window wrote it, loads, and its entries answer the ladder."""
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        exact = CellEvaluator(paper_cell, paper_space)
        x = np.vstack([rng.standard_normal((20, 6)),
                       boundary_points(exact, rng, 10) * 1.001])
        dvth = paper_space.to_physical(x)
        depth8 = fast._margins_at(x, fast.rungs[0][0], "depth8")
        fingerprint = fast.solve_fingerprint()
        np.savez(tmp_path / f"solve-cache-{fingerprint}.npz",
                 meta=np.array([100_000, 0, 0, 0], dtype=np.int64),
                 fingerprint=np.frombuffer(fingerprint.encode(),
                                           dtype=np.uint8),
                 levels=np.full(x.shape[0], LEVELS.index("depth8"),
                                dtype=np.uint8),
                 keys=dvth, values=np.column_stack(depth8))
        perf_pkg._REGISTERED_CACHES.clear()
        try:
            loaded = build_evaluator(paper_cell, paper_space,
                                     perf=PerfConfig(cache_path=str(
                                         tmp_path)))
            assert len(loaded.cache) == x.shape[0]
            labels = loaded.failure_labels(x, "cell")
            assert np.array_equal(labels, exact.failure_labels(x, "cell"))
            # the boundary rows, beyond the radius, hit at depth 8
            assert loaded.cache.hits >= 10
        finally:
            perf_pkg._REGISTERED_CACHES.clear()
