"""Adaptive evaluator: guard band math and label bit-identity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.setup import paper_setup
from repro.perf import PerfConfig, build_evaluator
from repro.perf.adaptive import AdaptiveMarginEvaluator, margin_guard_band
from repro.perf.cache import SolveCache
from repro.sram.evaluator import CellEvaluator


@pytest.fixture(scope="module")
def evaluators(paper_cell, paper_space):
    exact = CellEvaluator(paper_cell, paper_space)
    fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
    return exact, fast


def mixed_batch(rng, n):
    """Bulk samples plus far-tail samples straddling the boundary."""
    return np.vstack([rng.normal(size=(n, 6)),
                      rng.normal(scale=3.0, size=(n, 6))])


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
        """The analytic bound actually holds on sampled data."""
        exact, fast = evaluators
        x = mixed_batch(rng, 300)
        e0, e1 = exact.margins(x)
        c0, c1 = fast._margins_at(x, fast.coarse_solver, "coarse")
        band = fast.guard_band
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

    def test_coarse_depth_participates(self, paper_cell, paper_space):
        a = AdaptiveMarginEvaluator(paper_cell, paper_space,
                                    coarse_iterations=12)
        b = AdaptiveMarginEvaluator(paper_cell, paper_space,
                                    coarse_iterations=16)
        assert a.solve_fingerprint() != b.solve_fingerprint()

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

    def test_exact_config_restores_legacy_construction(self, paper_cell,
                                                       paper_space):
        ev = build_evaluator(paper_cell, paper_space,
                             perf=PerfConfig.exact())
        assert type(ev) is CellEvaluator
        assert ev.cache is None

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

    def test_config_validation(self, paper_cell, paper_space):
        with pytest.raises(ValueError):
            AdaptiveMarginEvaluator(paper_cell, paper_space,
                                    coarse_iterations=4)
        with pytest.raises(ValueError):
            AdaptiveMarginEvaluator(paper_cell, paper_space,
                                    guard_safety=0.5)
