"""Fused (2B, G) bisection: bit-identity against the per-side solves,
resume from shallower brackets rung by rung, column solves and
predicted brackets, the device-eval accounting, and the side-symmetry
precondition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.adaptive import AdaptiveMarginEvaluator
from repro.spice.model import MosfetModel
from repro.sram.butterfly import (GUESS_DEPTH, ButterflyCurves,
                                  ReadButterflySolver, bracket_edges)
from repro.sram.cell import SramCell
from repro.sram.evaluator import MARGIN_LEVELS, CellEvaluator
from repro.sram.margins import lobe_margins


@pytest.fixture()
def shifts(rng):
    return rng.normal(scale=0.05, size=(48, 6))


def per_side(solver, shifts):
    return solver.solve_side(0, shifts), solver.solve_side(1, shifts)


class TestFusionBitIdentity:
    def test_solve_matches_per_side(self, paper_cell, shifts):
        solver = ReadButterflySolver(paper_cell, grid_points=21)
        curves = solver.solve(shifts)
        want_a, want_b = per_side(solver, shifts)
        assert np.array_equal(curves.vtc_a, want_a)
        assert np.array_equal(curves.vtc_b, want_b)

    def test_state_matches_per_side(self, paper_cell, shifts):
        solver = ReadButterflySolver(paper_cell, grid_points=21,
                                     bisection_iterations=12)
        curves, state = solver.solve_with_state(shifts)
        want_a, want_b = per_side(solver, shifts)
        assert np.array_equal(curves.vtc_a, want_a)
        assert np.array_equal(curves.vtc_b, want_b)
        assert state.iterations == 12
        # the curves are the final bracket midpoints; the brackets keep
        # the fused layout, side A's rows above side B's
        batch = shifts.shape[0]
        assert state.lo.shape == state.hi.shape == (2 * batch, 21)
        for rows, vtc in ((slice(None, batch), want_a),
                          (slice(batch, None), want_b)):
            assert np.array_equal(
                0.5 * (state.lo[rows] + state.hi[rows]), vtc)

    def test_resume_crosses_the_fusion_boundary(self, paper_cell,
                                                shifts):
        # a 12-step state resumed to full depth must land on the
        # from-scratch per-side solves exactly
        coarse = ReadButterflySolver(paper_cell, grid_points=21,
                                     bisection_iterations=12)
        exact = ReadButterflySolver(paper_cell, grid_points=21)
        _, state = coarse.solve_with_state(shifts)
        resumed, _ = exact.resume(shifts, state)
        want_a, want_b = per_side(exact, shifts)
        assert np.array_equal(resumed.vtc_a, want_a)
        assert np.array_equal(resumed.vtc_b, want_b)

    def test_resume_rung_by_rung_matches_scratch_solves(self, paper_cell,
                                                        shifts):
        # the adaptive evaluator's ladder: each rung resumes the previous
        # rung's brackets for a row subset and must land on that depth's
        # from-scratch solve exactly
        state = None
        for depth in (8, 12, 20, 40):
            solver = ReadButterflySolver(paper_cell, grid_points=21,
                                         bisection_iterations=depth)
            if state is None:
                curves, state = solver.solve_with_state(shifts)
            else:
                curves, state = solver.resume(shifts, state)
            want = ReadButterflySolver(paper_cell, grid_points=21,
                                       bisection_iterations=depth
                                       ).solve(shifts)
            assert state.iterations == depth
            assert np.array_equal(curves.vtc_a, want.vtc_a)
            assert np.array_equal(curves.vtc_b, want.vtc_b)
            keep = np.arange(0, shifts.shape[0], 2)
            shifts, state = shifts[keep], state.rows(keep)
        assert shifts.shape[0] == state.batch_size == 3

    def test_resume_rejects_mismatched_state(self, paper_cell, shifts):
        coarse = ReadButterflySolver(paper_cell, grid_points=21,
                                     bisection_iterations=12)
        _, state = coarse.solve_with_state(shifts)
        with pytest.raises(ValueError, match="state holds"):
            ReadButterflySolver(paper_cell, grid_points=21).resume(
                shifts[1:], state)
        with pytest.raises(ValueError, match="cannot resume"):
            ReadButterflySolver(paper_cell, grid_points=21,
                                bisection_iterations=8).resume(shifts,
                                                               state)

    def test_fused_eval_count_matches_legacy(self, paper_cell, shifts):
        fused = ReadButterflySolver(paper_cell, grid_points=21)
        sides = ReadButterflySolver(paper_cell, grid_points=21)
        fused.solve(shifts)
        per_side(sides, shifts)
        assert fused.model_evals == sides.model_evals
        assert fused.model_evals == \
            2 * shifts.shape[0] * 40 * fused.grid.size


GUESS_KINDS = [None, "prediction", "zero", "vdd", "noise"]


@st.composite
def column_cases(draw):
    """Shifts, sorted grid columns of a 61-point grid (``None``: all of
    them), a depth, and a guess kind; a guess takes an 8-step solve."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    scale = draw(st.sampled_from([0.02, 0.05, 0.1]))
    shifts = np.random.default_rng(seed).normal(scale=scale, size=(12, 6))
    columns = draw(st.one_of(
        st.none(), st.lists(st.integers(0, 60), min_size=1, max_size=20,
                            unique=True).map(sorted).map(np.array)))
    guess = draw(st.sampled_from(GUESS_KINDS))
    depth = GUESS_DEPTH if guess else draw(st.sampled_from([8, 40]))
    return shifts, columns, depth, guess, seed


def make_guess(kind, evaluator, shifts, columns, seed):
    """A ``(2B, C)`` guess of ``kind``: the evaluator's prediction, all
    0, all vdd, or uniform noise over ``[-0.1, vdd + 0.1]``."""
    size = 61 if columns is None else len(columns)
    shape = (2 * shifts.shape[0], size)
    vdd = evaluator.vdd
    if kind == "prediction":
        return evaluator._guess(shifts, columns)
    if kind == "noise":
        return np.random.default_rng(seed).uniform(-0.1, vdd + 0.1, shape)
    return np.full(shape, 0.0 if kind == "zero" else vdd)


class TestColumnSolve:
    """``solve_with_state(..., columns=..., guess=...)`` bisects a column
    subset, optionally from predicted brackets: each column bit-identical
    to the same column of a plain full solve."""

    @given(column_cases())
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_columns_match_full_solve(self, paper_cell, paper_space, case):
        shifts, columns, depth, kind, seed = case
        solver = ReadButterflySolver(paper_cell, grid_points=61,
                                     bisection_iterations=depth)
        full, full_state = solver.solve_with_state(shifts)
        guess = None if kind is None else make_guess(
            kind, AdaptiveMarginEvaluator(paper_cell, paper_space),
            shifts, columns, seed)
        part, part_state = solver.solve_with_state(shifts, columns=columns,
                                                   guess=guess)
        columns = np.arange(61) if columns is None else columns
        assert np.array_equal(part.grid, solver.grid[columns])
        # both sides: curves A and B, and the fused (2B, C) brackets
        assert np.array_equal(part.vtc_a, full.vtc_a[:, columns])
        assert np.array_equal(part.vtc_b, full.vtc_b[:, columns])
        assert np.array_equal(part_state.lo, full_state.lo[:, columns])
        assert np.array_equal(part_state.hi, full_state.hi[:, columns])
        assert part_state.iterations == depth

    def test_counts_only_the_columns(self, paper_cell, shifts):
        solver = ReadButterflySolver(paper_cell, grid_points=61,
                                     bisection_iterations=8)
        solver.solve_with_state(shifts, columns=np.arange(20, 36))
        assert solver.model_evals == 2 * shifts.shape[0] * 8 * 16

    def test_column_state_cannot_resume(self, paper_cell, shifts):
        coarse = ReadButterflySolver(paper_cell, grid_points=21,
                                     bisection_iterations=8)
        _, state = coarse.solve_with_state(shifts, columns=np.arange(4))
        with pytest.raises(ValueError, match="column solve"):
            ReadButterflySolver(paper_cell, grid_points=21).resume(
                shifts, state)


class TestPredictedBrackets:
    @pytest.mark.parametrize("vdd", [0.7, 0.5, 0.3])
    def test_edges_are_the_brackets_bisection_reaches(self, paper_cell,
                                                      shifts, vdd):
        edges = bracket_edges(vdd, GUESS_DEPTH)
        assert edges.size == 2 ** GUESS_DEPTH + 1
        assert edges[0] == 0.0 and edges[-1] == vdd
        assert np.all(np.diff(edges) > 0.0)
        _, state = ReadButterflySolver(
            paper_cell, vdd=vdd, grid_points=21,
            bisection_iterations=GUESS_DEPTH).solve_with_state(
                shifts * vdd / 0.7)
        # every plain bracket is a pair of neighbouring edges, bit for bit
        index = np.searchsorted(edges, state.lo)
        assert np.array_equal(edges[index], state.lo)
        assert np.array_equal(edges[index + 1], state.hi)

    def test_a_right_guess_costs_two_evaluations(self, paper_cell, shifts):
        solver = ReadButterflySolver(paper_cell, grid_points=21,
                                     bisection_iterations=GUESS_DEPTH)
        plain, state = solver.solve_with_state(shifts)
        solver.model_evals = 0
        guess = np.vstack([plain.vtc_a, plain.vtc_b])
        curves, checked = solver.solve_with_state(shifts, guess=guess)
        assert np.array_equal(checked.lo, state.lo)
        assert np.array_equal(checked.hi, state.hi)
        assert solver.model_evals == 2 * guess.size
        assert solver.guess_outcomes == {"accepted": guess.size,
                                         "reguessed": 0, "bisected": 0}

    @pytest.mark.parametrize("depth", [12, 40])
    def test_only_an_8_step_solver_takes_a_guess(self, paper_cell, shifts,
                                                 depth):
        solver = ReadButterflySolver(paper_cell, grid_points=21,
                                     bisection_iterations=depth)
        with pytest.raises(ValueError, match="8-step"):
            solver.solve_with_state(shifts,
                                    guess=np.zeros((2 * len(shifts), 21)))

    def test_guess_shape_is_checked(self, paper_cell, shifts):
        solver = ReadButterflySolver(paper_cell, grid_points=21,
                                     bisection_iterations=GUESS_DEPTH)
        with pytest.raises(ValueError, match="guess must have shape"):
            solver.solve_with_state(shifts, columns=np.arange(4),
                                    guess=np.zeros((2 * len(shifts), 21)))


class TestEvaluatorBitIdentity:
    def test_margins_match_per_side_solves(self, paper_cell,
                                           paper_space, rng):
        x = rng.normal(size=(40, 6))
        evaluator = CellEvaluator(paper_cell, paper_space, grid_points=21)
        solver = evaluator.solver
        vtc_a, vtc_b = per_side(solver, paper_space.to_physical(x))
        want = lobe_margins(ButterflyCurves(grid=solver.grid, vtc_a=vtc_a,
                                            vtc_b=vtc_b, vdd=solver.vdd),
                            MARGIN_LEVELS)
        for got, expected in zip(evaluator.margins(x), want):
            assert np.array_equal(got, expected)


class TestSideSymmetry:
    def test_asymmetric_cell_rejected(self):
        class WideA2Cell(SramCell):
            def _build_model(self, name):
                model = super()._build_model(name)
                if name == "A2":
                    return MosfetModel(model.params, 2.0 * model.w_nm,
                                       model.l_nm)
                return model

        with pytest.raises(ValueError, match="side-symmetric"):
            ReadButterflySolver(WideA2Cell())
