"""Adaptive evaluator: guard band math, the screening ladder and label
bit-identity."""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TABLE_I
from repro.experiments.setup import paper_setup
from repro.perf import PerfConfig, build_evaluator
from repro.perf.adaptive import (LADDER, WINDOW_LEVEL,
                                 AdaptiveMarginEvaluator,
                                 margin_guard_band)
from repro.perf.cache import LEVELS, SolveCache
from repro.rtn.model import RtnModel
from repro.sram.evaluator import CellEvaluator

#: ``solve_fingerprint()`` of the default adaptive evaluator (0.7 V,
#: 61 grid points, 64 margin levels) since the screen had one 12-step
#: rung; service job fingerprints hash it.
PINNED_SOLVE_FINGERPRINT = "2720a02df5060082"


@pytest.fixture(scope="module")
def evaluators(paper_cell, paper_space):
    exact = CellEvaluator(paper_cell, paper_space)
    fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
    return exact, fast


def mixed_batch(rng, n):
    """Bulk samples plus far-tail samples straddling the boundary."""
    return np.vstack([rng.normal(size=(n, 6)),
                      rng.normal(scale=3.0, size=(n, 6))])


def boundary_points(exact, rng, n):
    """``n`` points on the cell's failure boundary, found by radial
    bisection of the exact labels along random directions.

    Only directions that fail within :data:`BOUNDARY_CAP` sigma are
    kept (more are drawn until ``n`` do): a direction that never fails
    has no boundary point, and bisecting it would return a passing
    point at the cap.
    """
    directions = np.empty((0, 6))
    while len(directions) < n:
        draw = rng.standard_normal((n, 6))
        draw /= np.linalg.norm(draw, axis=1, keepdims=True)
        fails = exact.failure_labels(draw * BOUNDARY_CAP, "cell")
        directions = np.vstack([directions, draw[fails]])
    directions = directions[:n]
    lo, hi = np.zeros(n), np.full(n, BOUNDARY_CAP)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        failed = exact.failure_labels(directions * mid[:, None], "cell")
        hi = np.where(failed, mid, hi)
        lo = np.where(failed, lo, mid)
    points = directions * (0.5 * (lo + hi))[:, None]
    assert np.all(np.abs(exact.cell_margin(points)) < 1e-6)
    return points


#: Radius [sigma] within which :func:`boundary_points` looks for failure.
BOUNDARY_CAP = 10.0


class TestGuardBand:
    def test_formula(self):
        band = margin_guard_band(0.7, 12, 40, safety=1.0)
        expected = 3.0 * 0.7 * (2.0 ** -13 + 2.0 ** -41)
        assert band == pytest.approx(expected)

    def test_safety_scales_linearly(self):
        one = margin_guard_band(0.7, 12, 40, safety=1.0)
        four = margin_guard_band(0.7, 12, 40, safety=4.0)
        assert four == pytest.approx(4.0 * one)

    def test_safety_below_one_rejected(self):
        with pytest.raises(ValueError, match="safety"):
            margin_guard_band(0.7, 12, 40, safety=0.5)

    def test_coarse_margin_error_within_band(self, evaluators, rng):
        """The analytic bound actually holds on sampled data, at every
        rung of the ladder."""
        exact, fast = evaluators
        x = mixed_batch(rng, 300)
        e0, e1 = exact.margins(x)
        for solver, level, band in fast.rungs:
            c0, c1 = fast._margins_at(x, solver, level)
            assert np.max(np.abs(c0 - e0)) < band
            assert np.max(np.abs(c1 - e1)) < band


class TestLabelBitIdentity:
    @pytest.mark.parametrize("which", ["lobe0", "cell"])
    def test_labels_match_exact_path(self, evaluators, rng, which):
        exact, fast = evaluators
        x = mixed_batch(rng, 400)
        assert np.array_equal(fast.failure_labels(x, which),
                              exact.failure_labels(x, which))

    def test_near_boundary_rows_are_refined(self, evaluators, rng):
        """Samples planted right on the failure boundary must take the
        exact path, and still label identically."""
        exact, fast = evaluators
        # walk random rays to their boundary crossing via bisection on
        # the exact margin, then sit points just either side of it
        directions = rng.standard_normal((24, 6))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        lo, hi = np.zeros(24), np.full(24, 8.0)
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            failed = exact.failure_labels(directions * mid[:, None], "cell")
            hi = np.where(failed, mid, hi)
            lo = np.where(failed, lo, mid)
        radius = 0.5 * (lo + hi)
        x = np.vstack([directions * (radius * s)[:, None]
                       for s in (0.999, 1.0, 1.001)])

        refined_before = fast.refined
        fast_labels = fast.failure_labels(x, "cell")
        assert fast.refined > refined_before
        assert np.array_equal(fast_labels, exact.failure_labels(x, "cell"))

    def test_margins_stay_exact(self, evaluators, rng):
        """The float margin API never takes the coarse path."""
        exact, fast = evaluators
        x = mixed_batch(rng, 50)
        e0, e1 = exact.margins(x)
        f0, f1 = fast.margins(x)
        assert np.array_equal(e0, f0) and np.array_equal(e1, f1)

    def test_screening_actually_saves_work(self, paper_cell, paper_space,
                                           rng):
        exact = CellEvaluator(paper_cell, paper_space)
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        x = mixed_batch(rng, 500)
        exact.failure_labels(x, "cell")
        fast.failure_labels(x, "cell")
        assert fast.device_model_evals < 0.5 * exact.device_model_evals
        assert fast.screened > 0.9 * x.shape[0]
        # each row counts once, at the depth that labelled it
        assert fast.screened + fast.refined == x.shape[0]
        assert fast.resolved[LADDER[0][0]] > 0.9 * x.shape[0]


class TestCachedAdaptive:
    def test_shared_cache_bit_identity_and_warm_hits(self, paper_cell,
                                                     paper_space, rng):
        exact = CellEvaluator(paper_cell, paper_space)
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        fast.cache = SolveCache(fast.solve_fingerprint())
        x = mixed_batch(rng, 200)
        labels = fast.failure_labels(x, "cell")
        assert np.array_equal(labels, exact.failure_labels(x, "cell"))

        evals_before = fast.device_model_evals
        again = fast.failure_labels(x, "cell")
        assert np.array_equal(again, labels)
        assert fast.device_model_evals == evals_before
        assert fast.cache.hit_rate > 0.0

    def test_criteria_share_margins_and_mixed_rungs_stay_exact(
            self, paper_cell, paper_space, rng, monkeypatch):
        """A warm cache holds margins, not labels: switching criterion
        hits on some rows and solves others -- rows that hit the
        previous rung solve from scratch, the rest resume, both within
        one rung -- without moving a label."""
        exact = CellEvaluator(paper_cell, paper_space)
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        fast.cache = SolveCache(fast.solve_fingerprint())
        # the mixed rungs need a lobe-1 boundary row whose wide lobe-0
        # margin the lobe0 pass labels at depth 8 (the window cannot
        # certify it); 60 boundary points hold one (6.9 sigma)
        near = boundary_points(exact, rng, 60)
        x = np.vstack([mixed_batch(rng, 100), near * 0.9999, near * 1.001])
        fast.failure_labels(x[::2], "lobe0")

        coarse = fast.rungs[1][0]
        calls = []
        for name in ("resume", "solve_with_state"):
            method = getattr(coarse, name)
            monkeypatch.setattr(coarse, name,
                                lambda *a, _m=method, _n=name:
                                calls.append(_n) or _m(*a))
        for which in ("cell", "lobe0", "cell"):
            assert np.array_equal(fast.failure_labels(x, which),
                                  exact.failure_labels(x, which))
        assert sorted(calls) == ["resume", "solve_with_state"]
        evals_before = fast.device_model_evals
        for which in ("cell", "lobe0"):
            fast.failure_labels(x, which)
        assert fast.device_model_evals == evals_before

    def test_parent_format_cache_file_loads_and_hits(self, paper_cell,
                                                     paper_space, rng,
                                                     tmp_path):
        """A file holding only levels 0 and 1 ("exact" and "coarse"),
        as written before the 8- and 20-step rungs, loads and hits."""
        import repro.perf as perf_pkg

        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        x = mixed_batch(rng, 40)
        dvth = paper_space.to_physical(x)
        coarse = fast._margins_at(x, fast.rungs[1][0], "coarse")
        exact = fast.margins(x)
        fingerprint = fast.solve_fingerprint()
        np.savez(tmp_path / f"solve-cache-{fingerprint}.npz",
                 meta=np.array([100_000, 0, 0, 0], dtype=np.int64),
                 fingerprint=np.frombuffer(fingerprint.encode(),
                                           dtype=np.uint8),
                 levels=np.repeat(np.array([1, 0], dtype=np.uint8),
                                  x.shape[0]),
                 keys=np.vstack([dvth, dvth]),
                 values=np.vstack([np.column_stack(coarse),
                                   np.column_stack(exact)]))
        perf_pkg._REGISTERED_CACHES.clear()
        try:
            loaded = build_evaluator(paper_cell, paper_space,
                                     perf=PerfConfig(cache_path=str(
                                         tmp_path)))
            assert len(loaded.cache) == 2 * x.shape[0]
            for level, want in (("coarse", coarse), ("exact", exact)):
                hit, m0, m1 = loaded.cache.lookup(level, dvth)
                assert hit.all()
                assert np.array_equal(m0, want[0])
                assert np.array_equal(m1, want[1])
            hits = loaded.cache.hits
            labels = loaded.failure_labels(x, "cell")
            assert loaded.cache.hits > hits  # the ladder's lookups hit
            assert np.array_equal(labels,
                                  CellEvaluator(paper_cell, paper_space)
                                  .failure_labels(x, "cell"))
        finally:
            perf_pkg._REGISTERED_CACHES.clear()

    def test_perf_stats_include_screen_and_cache(self, paper_cell,
                                                 paper_space, rng):
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        fast.cache = SolveCache(fast.solve_fingerprint())
        fast.failure_labels(rng.normal(size=(32, 6)), "cell")
        stats = fast.perf_stats()
        for key in ("device_model_evals", "screened", "refined",
                    "cache_entries", "cache_hits", "cache_misses"):
            assert key in stats
        assert stats["device_model_evals"] > 0


class TestFingerprints:
    def test_adaptive_and_plain_never_share(self, paper_cell, paper_space):
        plain = CellEvaluator(paper_cell, paper_space)
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        assert plain.solve_fingerprint() != fast.solve_fingerprint()

    def test_default_fingerprint_is_pinned(self, paper_cell, paper_space):
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        assert fast.solve_fingerprint() == PINNED_SOLVE_FINGERPRINT
        assert paper_setup().evaluator.solve_fingerprint() == \
            PINNED_SOLVE_FINGERPRINT

    def test_same_config_same_fingerprint(self, paper_cell, paper_space):
        a = CellEvaluator(paper_cell, paper_space)
        b = CellEvaluator(paper_cell, paper_space)
        assert a.solve_fingerprint() == b.solve_fingerprint()


class TestBuildEvaluator:
    def test_default_is_adaptive_without_cache(self):
        # the solve cache is opt-in: only PerfConfig.cache_path
        # (--solve-cache) attaches one
        evaluator = paper_setup().evaluator
        assert isinstance(evaluator, AdaptiveMarginEvaluator)
        assert evaluator.cache is None

    def test_cache_path_persists_and_reloads(self, paper_cell, paper_space,
                                             rng, tmp_path):
        import repro.perf as perf_pkg

        perf = PerfConfig(cache_path=str(tmp_path))
        ev = build_evaluator(paper_cell, paper_space, perf=perf)
        ev.failure_labels(rng.normal(size=(16, 6)), "cell")
        assert any(p.parent == tmp_path
                   for p in perf_pkg.save_registered_caches())

        assert ev.cache.fingerprint == ev.solve_fingerprint()
        # same-process builds share the registered instance ...
        shared = build_evaluator(paper_cell, paper_space, perf=perf)
        assert shared.cache is ev.cache
        # ... and a fresh process (registry cleared) reloads from disk
        perf_pkg._REGISTERED_CACHES.clear()
        fresh = build_evaluator(paper_cell, paper_space, perf=perf)
        assert fresh.cache is not ev.cache
        assert len(fresh.cache) == len(ev.cache) > 0

    def test_ladder_is_not_a_knob(self, paper_cell, paper_space):
        params = inspect.signature(AdaptiveMarginEvaluator).parameters
        assert "coarse_iterations" not in params
        assert "guard_safety" not in params
        # one margin resolution, MARGIN_LEVELS, on every label path
        for cls in (CellEvaluator, AdaptiveMarginEvaluator):
            assert "margin_levels" not in \
                inspect.signature(cls).parameters
        # the ladder is the only evaluator: no switch back to exact
        assert [f.name for f in dataclasses.fields(PerfConfig)] == [
            "cache_path"]
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        depths = [solver.bisection_iterations for solver, _, _
                  in fast.rungs]
        bands = [band for _, _, band in fast.rungs]
        # shallowest first, from the solver's floor, below the exact depth
        assert depths == [depth for depth, _ in LADDER] == [8, 12, 20]
        assert depths[-1] < fast.solver.bisection_iterations
        assert bands == sorted(bands, reverse=True)
        assert bands == [margin_guard_band(fast.vdd, depth, 40)
                         for depth in depths]
        # "coarse" and "exact" keep their on-disk level indices; the
        # others are the rungs' and the window pre-rung's
        assert LEVELS[:2] == ("exact", "coarse")
        assert sorted([*(level for _, level in LADDER), WINDOW_LEVEL]) \
            == sorted(LEVELS[1:])
        assert LEVELS[-1] == WINDOW_LEVEL == "window"


# ----------------------------------------------------------------------
# ladder properties: derandomized draws of prior, near-boundary and
# RTN-shifted rows at the nominal and a low supply
# ----------------------------------------------------------------------
ROWS = 48


class LadderCase:
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
        # radial offsets from 1e-7 to 5 %, either side of the boundary
        scale = 1.0 + rng.choice([-1.0, 1.0], ROWS) * 10.0 ** rng.uniform(
            -7.0, np.log10(0.05), ROWS)
        x = self.boundary[rng.integers(0, len(self.boundary), ROWS)]
        x = x * scale[:, None]
        if kind == "rtn":
            shifts, states = self.rtn.sample(ROWS, rng)
            x = self.rtn.mirror(x + shifts, states)
        return x


@pytest.fixture(scope="module", params=[0.7, 0.5], ids=["0.7V", "0.5V"])
def case(request, paper_cell, paper_space):
    return LadderCase(paper_cell, paper_space, request.param)


KINDS = st.sampled_from(["prior", "near", "rtn"])
SEEDS = st.integers(0, 2 ** 32 - 1)
LADDER_SETTINGS = settings(derandomize=True, max_examples=25,
                           deadline=None)


class TestLadderProperties:
    @given(kind=KINDS, seed=SEEDS)
    @LADDER_SETTINGS
    def test_rung_margins_within_safety_one_bound(self, case, kind, seed):
        """``|m_d - m_40| <= margin_guard_band(vdd, d, 40, safety=1)`` at
        every rung: the analytic bound itself, without the factor 2."""
        x = case.rows(kind, seed)
        e0, e1 = case.exact.margins(x)
        for solver, level, _ in case.fast.rungs:
            bound = margin_guard_band(case.vdd, solver.bisection_iterations,
                                      40, safety=1.0)
            m0, m1 = case.fast._margins_at(x, solver, level)
            assert np.max(np.abs(m0 - e0)) <= bound
            assert np.max(np.abs(m1 - e1)) <= bound

    @given(kind=KINDS, seed=SEEDS)
    @LADDER_SETTINGS
    def test_ladder_labels_match_exact_path(self, case, kind, seed):
        x = case.rows(kind, seed)
        for which in ("cell", "lobe0"):
            assert np.array_equal(case.fast.failure_labels(x, which),
                                  case.exact.failure_labels(x, which))

    def test_every_depth_labels_rows(self, case):
        """The draws above reach every rung and the exact depth: prior
        rows the 8-step rung, near-boundary rows the deeper ones."""
        fast = AdaptiveMarginEvaluator(case.exact.cell, case.exact.space,
                                       vdd=case.vdd)
        for kind in ("prior", "near"):
            for seed in range(4):
                fast.failure_labels(case.rows(kind, seed), "cell")
        assert all(count > 0 for count in fast.resolved.values())


# ----------------------------------------------------------------------
# predicted brackets: the label path's from-scratch 8-step solves
# ----------------------------------------------------------------------
class TestPredictedBrackets:
    """The window pre-rung and the first rung start from predicted
    brackets; brackets, curves, labels and counters stay those of plain
    bisection on prior, RTN-shifted, near-boundary and +-6 sigma
    single-device rows, whatever the tiling."""

    @pytest.fixture(scope="class", params=[0.7, 0.5], ids=["0.7V", "0.5V"])
    def block(self, request, paper_cell, paper_space):
        case = LadderCase(paper_cell, paper_space, request.param)
        single = np.vstack([6.0 * np.eye(6), -6.0 * np.eye(6)])
        x = np.vstack([case.rows(kind, seed) for kind in ("prior", "near",
                                                          "rtn")
                       for seed in range(4)] + [single])
        return case, x

    @pytest.mark.parametrize("window", [True, False],
                             ids=["window", "full-grid"])
    def test_brackets_match_plain_bisection(self, block, window):
        case, x = block
        fast = case.fast
        solver = fast.rungs[0][0]
        columns = fast.window if window else None
        dvth = fast.space.to_physical(x)
        plain, plain_state = solver.solve_with_state(dvth, columns=columns)
        before = dict(solver.guess_outcomes)
        curves, state = solver.solve_with_state(
            dvth, columns=columns, guess=fast._guess(dvth, columns))
        for got, want in ((curves.vtc_a, plain.vtc_a),
                          (curves.vtc_b, plain.vtc_b),
                          (state.lo, plain_state.lo),
                          (state.hi, plain_state.hi)):
            assert np.array_equal(got, want)
        # the rows exercise the first check and the re-guesses
        outcomes = {key: solver.guess_outcomes[key] - before[key]
                    for key in before}
        assert sum(outcomes.values()) == state.lo.size
        assert outcomes["accepted"] > 0 and outcomes["reguessed"] > 0

    def test_labels_and_counts_hold_in_every_tiling(self, block):
        """Labels equal the exact path's, and ``device_model_evals`` and
        ``resolved`` sum to the same counts, in label calls of 1, 2,
        511, 512 and 513 rows (the evaluator tiles at 512)."""
        case, x = block
        assert x.shape[0] > 513
        want = {which: case.exact.failure_labels(x, which)
                for which in ("cell", "lobe0")}
        counts = set()
        for size in (1, 2, 511, 512, 513):
            fast = AdaptiveMarginEvaluator(case.exact.cell, case.exact.space,
                                           vdd=case.vdd)
            for which in ("cell", "lobe0"):
                labels = np.concatenate([
                    fast.failure_labels(x[i:i + size], which)
                    for i in range(0, x.shape[0], size)])
                assert np.array_equal(labels, want[which]), (size, which)
            counts.add((fast.device_model_evals,
                        tuple(fast.resolved.items())))
        assert len(counts) == 1
