"""The window pre-rung: its gate, its columns, the soundness of its pass
certificate, the verified-cut bound behind it, and its cache level."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TABLE_I
from repro.perf import PerfConfig, build_evaluator
import repro.perf as perf_pkg
import repro.perf.adaptive as adaptive
from repro.perf.adaptive import (LADDER, WINDOW_GATE, WINDOW_HALF,
                                 WINDOW_LEVEL, AdaptiveMarginEvaluator,
                                 margin_guard_band)
from repro.perf.cache import LEVELS, SolveCache
from repro.rtn.model import RtnModel
from repro.runtime import ExecutionConfig, Executor
from repro.sram.evaluator import MARGIN_LEVELS, CellEvaluator
from repro.sram.margins import _lobe_gaps, _window_gaps
from repro.variability.space import VariabilitySpace

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
        if kind == "4.5sigma":
            return on_shell(rng, ROWS, 4.5)
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


KINDS = st.sampled_from(["prior", "3sigma", "4.5sigma", "near", "rtn"])
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

    @given(kind=KINDS, seed=SEEDS)
    @WINDOW_SETTINGS
    def test_labels_match_the_exact_path(self, case, kind, seed):
        """Through the gate, the window and the ladder, every label is
        the exact evaluator's, for both criteria."""
        x = case.rows(kind, seed)
        for which in ("cell", "lobe0"):
            assert np.array_equal(case.fast.failure_labels(x, which),
                                  case.exact.failure_labels(x, which))

    def test_every_supply_certifies_prior_rows(self, case):
        """The draws above exercise the certificate at every supply
        (0.3 V, nominal margin 1.4 mV, still passes some rows)."""
        x = case.rows("prior", 0)
        dvth = case.fast.space.to_physical(x)
        assert case.fast._window_rung(dvth, np.arange(ROWS), "lobe0").size


class TestWindowShape:
    @pytest.mark.parametrize("vdd, runs", [
        (0.7, [(23, 28), (38, 43)]),
        (0.5, [(21, 26), (41, 46)]),
    ])
    def test_columns_follow_the_nominal_cell(self, paper_cell, paper_space,
                                             vdd, runs):
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space, vdd=vdd)
        want = np.concatenate([np.arange(a, b + 1) for a, b in runs])
        assert np.array_equal(fast.window, want)
        # two runs of 2 centre columns widened by WINDOW_HALF each side
        assert want.size == 2 * (2 + 2 * WINDOW_HALF)

    def test_derivation_is_lazy_and_uncounted(self, paper_cell,
                                              paper_space, monkeypatch):
        monkeypatch.setattr(adaptive, "_NOMINAL", {})
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        assert adaptive._NOMINAL == {}
        fast.window
        assert list(adaptive._NOMINAL.values()) == [
            {"window": (fast.window,)}]
        assert fast.device_model_evals == 0


def gate_rows(fast, which, factor, n=64):
    """``n`` rows along the descending gradient of lobe 0 whose
    linearised ``which`` margin is ``factor`` times the gate threshold."""
    m, g = fast.gate
    threshold = WINDOW_GATE * fast.rungs[0][2]
    down = -g[0] / np.linalg.norm(g[0])
    # lobe 0's linearised margin falls to factor * threshold at this step
    step = (m[0] - factor * threshold) / np.linalg.norm(g[0])
    x = np.tile(down * step, (n, 1))
    # the other lobe rises along this direction, so lobe 0 decides `cell`
    assert m[1] + np.sum(x[0] * g[1]) > threshold
    return x


class TestWindowGate:
    def test_derivation_is_lazy_and_uncounted(self, paper_cell,
                                              paper_space, monkeypatch):
        """The gate is the exact margins of the nominal cell and their
        central differences at ±1 sigma per axis, derived at first use
        by a solve no counter sees."""
        monkeypatch.setattr(adaptive, "_NOMINAL", {})
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        assert adaptive._NOMINAL == {}
        m, g = fast.gate
        assert fast.device_model_evals == 0
        assert fast.gate[0] is m and fast.gate[1] is g
        exact = CellEvaluator(paper_cell, paper_space)
        unit = np.eye(6)
        x = np.vstack([np.zeros((1, 6)), unit, -unit])
        margins = np.array(exact.margins(x))
        assert np.array_equal(m, margins[:, 0])
        assert np.array_equal(g, (margins[:, 1:7] - margins[:, 7:]) / 2.0)
        # the side swap maps lobe 0's gradient onto lobe 1's
        assert np.allclose(g[1], g[0][[3, 4, 5, 0, 1, 2]], rtol=0,
                           atol=1e-12)

    def test_first_label_call_derives_the_gate(self, paper_cell,
                                               paper_space, rng,
                                               monkeypatch):
        monkeypatch.setattr(adaptive, "_NOMINAL", {})
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        fast.failure_labels(rng.standard_normal((8, 6)), "cell")
        assert set(*adaptive._NOMINAL.values()) == {"gate", "window"}
        # the 8 rows pass the window on predicted brackets: two checked
        # ends for each of their 2 x 12 elements, plus 43 re-guessed
        # ends, where plain bisection spent 8 * 2 * 12 * 8 = 1,536
        assert fast.resolved[LADDER[0][0]] == 8
        assert fast.device_model_evals == 2 * 8 * 2 * 12 + 43

    @pytest.mark.parametrize("which", ["cell", "lobe0"])
    def test_gate_selects_the_rows(self, paper_cell, paper_space,
                                   monkeypatch, which):
        """Rows whose linearised margin lies just above the gate take
        the window first; rows just below it take only the ladder,
        whose first rung solves all columns."""
        for factor, windowed in ((1 + 1e-9, True), (1 - 1e-9, False)):
            fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
            x = gate_rows(fast, which, factor)
            assert np.array_equal(fast._gated(x, which),
                                  np.full(64, windowed))
            solver = fast.rungs[0][0]
            solves = []
            method = solver.solve_with_state
            monkeypatch.setattr(
                solver, "solve_with_state",
                lambda dvth, columns=None, guess=None, _m=method:
                solves.append((len(dvth), columns is not None))
                or _m(dvth, columns=columns, guess=guess))
            fast.failure_labels(x, which)
            # a window solve of every row, or none at all
            assert ((64, True) in solves) is windowed
            assert sum(cols for _, cols in solves) == int(windowed)


    def test_cell_takes_the_lower_lobe(self, paper_cell, paper_space):
        """Rows whose lobe-1 linearised margin alone falls below the gate
        skip the window under ``cell`` and take it under ``lobe0``."""
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        m, g = fast.gate
        threshold = WINDOW_GATE * fast.rungs[0][2]
        down = -g[1] / np.linalg.norm(g[1])
        step = (m[1] - 0.5 * threshold) / np.linalg.norm(g[1])
        x = np.tile(down * step, (8, 1))
        assert m[0] + np.sum(x[0] * g[0]) > threshold
        assert not fast._gated(x, "cell").any()
        assert fast._gated(x, "lobe0").all()


class TestDerivedOncePerProcess:
    """The window, the gate and the predictor are derived once per
    ``(solve_fingerprint(), space sigmas)`` and shared read-only."""

    def test_equal_inputs_share_the_arrays(self, paper_cell, paper_space,
                                           monkeypatch):
        monkeypatch.setattr(adaptive, "_NOMINAL", {})
        a, b = (AdaptiveMarginEvaluator(paper_cell, paper_space)
                for _ in range(2))
        shared = [a.window, *a.gate, *a.predictor]
        for mine, theirs in zip(shared, [b.window, *b.gate, *b.predictor]):
            assert mine is theirs
            assert not mine.flags.writeable
        assert len(adaptive._NOMINAL) == 1
        wider = VariabilitySpace(paper_space.sigmas * 1.1,
                                 names=paper_space.names)
        others = [AdaptiveMarginEvaluator(paper_cell, paper_space, vdd=0.5),
                  AdaptiveMarginEvaluator(paper_cell, paper_space,
                                          grid_points=41),
                  AdaptiveMarginEvaluator(paper_cell, wider)]
        for other in others:
            mine = [other.window, *other.gate, *other.predictor]
            assert all(x is not y for x, y in zip(mine, shared))
        assert len(adaptive._NOMINAL) == 4

    def test_labels_and_counts_do_not_depend_on_the_table(
            self, paper_cell, paper_space, monkeypatch):
        rng = np.random.default_rng(3)
        exact = CellEvaluator(paper_cell, paper_space)
        x = np.vstack([rng.standard_normal((200, 6)),
                       boundary_points(exact, rng, 20) * 1.001])
        runs = []
        for table in ({}, None):  # a cold table, then the warm one
            if table is not None:
                monkeypatch.setattr(adaptive, "_NOMINAL", table)
            fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
            labels = fast.failure_labels(x, "cell")
            runs.append((labels.tolist(), fast.device_model_evals,
                         dict(fast.resolved)))
        assert runs[0] == runs[1]
        assert runs[0][0] == exact.failure_labels(x, "cell").tolist()


def label_chunk(chunk, evaluator, which):
    """One chunk's labels and gate mask, with the chunk's counter
    deltas: ``device_model_evals`` and the rows resolved per depth."""
    evals, resolved = evaluator.device_model_evals, dict(evaluator.resolved)
    labels = evaluator.failure_labels(chunk, which)
    mask = evaluator._gated(chunk, which)
    stats = {depth: count - resolved[depth]
             for depth, count in evaluator.resolved.items()}
    stats["evals"] = evaluator.device_model_evals - evals
    return np.column_stack([labels, mask]), stats


class TestGateIsARowProperty:
    """The mask, the labels and every counter are the same whether a
    block is labelled whole, in 37-row tiles or on a process pool."""

    @pytest.fixture(scope="class")
    def block(self, paper_cell, paper_space):
        rng = np.random.default_rng(11)
        exact = CellEvaluator(paper_cell, paper_space)
        rtn = RtnModel(TABLE_I, paper_space, alpha=0.5)
        shifts, states = rtn.sample(120, rng)
        near = boundary_points(exact, rng, 60)
        near = near * (1.0 + 0.02 * rng.standard_normal((60, 1)))
        return np.vstack([rng.standard_normal((120, 6)),
                          on_shell(rng, 60, 2.5), near,
                          rtn.mirror(rng.standard_normal((120, 6))
                                     + shifts, states)])

    @pytest.mark.parametrize("which", ["cell", "lobe0"])
    def test_whole_tiled_and_process_agree(self, paper_cell, paper_space,
                                           block, which):
        def fresh():
            return AdaptiveMarginEvaluator(paper_cell, paper_space)

        whole, whole_stats = label_chunk(block, fresh(), which)
        tiled = fresh()
        parts = [label_chunk(block[i:i + 37], tiled, which)
                 for i in range(0, block.shape[0], 37)]
        got_tiled = np.vstack([out for out, _ in parts])

        pooled, wheres = [], []
        with Executor(ExecutionConfig(backend="process",
                                      workers=2)) as executor:
            got_pooled = executor.map_chunks(
                label_chunk, block, fresh(), which,
                stats_sink=lambda stats, where: (pooled.append(stats),
                                                 wheres.append(where)))
        assert "process" in wheres
        assert 0 < whole[:, 1].sum() < block.shape[0]
        for got, stats in ((got_tiled, [s for _, s in parts]),
                           (got_pooled, pooled)):
            assert np.array_equal(got, whole)
            assert {key: sum(s[key] for s in stats)
                    for key in whole_stats} == whole_stats
        assert np.array_equal(whole[:, 0], CellEvaluator(
            paper_cell, paper_space).failure_labels(block, which))


class TestWindowCache:
    def test_warm_cache_answers_window_rows_without_solving(
            self, paper_cell, paper_space, rng):
        exact = CellEvaluator(paper_cell, paper_space)
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        fast.cache = SolveCache(fast.solve_fingerprint())
        x = rng.standard_normal((300, 6))
        for which in ("cell", "lobe0"):
            assert np.array_equal(fast.failure_labels(x, which),
                                  exact.failure_labels(x, which))
            window = fast._gated(x, which)
            hit, _, _ = fast.cache.lookup(
                WINDOW_LEVEL, paper_space.to_physical(x[window]))
            assert hit.all()

        evals = fast.device_model_evals
        resolved = dict(fast.resolved)
        for which in ("lobe0", "cell"):
            assert np.array_equal(fast.failure_labels(x, which),
                                  exact.failure_labels(x, which))
        assert fast.device_model_evals == evals
        assert fast.resolved[LADDER[0][0]] > resolved[LADDER[0][0]]

    def test_window_level_of_the_former_window_still_labels_exactly(
            self, paper_cell, paper_space, rng, tmp_path, monkeypatch):
        """A file whose window level the former 16-column window wrote
        (``WINDOW_HALF = 3``) loads, and its stored bounds, valid
        whichever window produced them, answer today's window rows."""
        exact = CellEvaluator(paper_cell, paper_space)
        x = np.vstack([rng.standard_normal((200, 6)),
                       on_shell(rng, 40, 3.5),
                       boundary_points(exact, rng, 20) * 1.01])
        with monkeypatch.context() as patch:
            # a table of its own, so the former window stays private
            patch.setattr(adaptive, "_NOMINAL", {})
            patch.setattr(adaptive, "WINDOW_HALF", 3)
            former = AdaptiveMarginEvaluator(paper_cell, paper_space)
            former.cache = SolveCache(former.solve_fingerprint())
            assert former.window.size == 16
            for which in ("cell", "lobe0"):
                former.failure_labels(x, which)
        former.cache.save(tmp_path)
        perf_pkg._REGISTERED_CACHES.clear()
        try:
            loaded = build_evaluator(paper_cell, paper_space,
                                     perf=PerfConfig(cache_path=str(
                                         tmp_path)))
            assert loaded.window.size == 12
            assert len(loaded.cache) == len(former.cache)
            for which in ("cell", "lobe0"):
                assert np.array_equal(loaded.failure_labels(x, which),
                                      exact.failure_labels(x, which))
            # every window row was answered by the former window's bound
            assert loaded.device_model_evals == 0
        finally:
            perf_pkg._REGISTERED_CACHES.clear()

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
            # the rows outside the gate hit at depth 8
            outside = int(np.sum(~loaded._gated(x, "cell")))
            assert outside >= 5
            assert loaded.cache.hits >= outside
        finally:
            perf_pkg._REGISTERED_CACHES.clear()
