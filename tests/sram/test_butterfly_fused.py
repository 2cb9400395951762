"""Fused (2B, G) bisection: bit-identity against the per-side solves,
resume from coarse brackets, the device-eval accounting, and the
side-symmetry precondition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.spice.model import MosfetModel
from repro.sram.butterfly import ButterflyCurves, ReadButterflySolver
from repro.sram.cell import SramCell
from repro.sram.evaluator import CellEvaluator
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
        # the curves are the final bracket midpoints, side by side
        for (lo, hi), vtc in ((state.side_a, want_a),
                              (state.side_b, want_b)):
            assert lo.shape == hi.shape == vtc.shape
            assert np.array_equal(0.5 * (lo + hi), vtc)

    def test_resume_crosses_the_fusion_boundary(self, paper_cell,
                                                shifts):
        # a 12-step state resumed to full depth must land on the
        # from-scratch per-side solves exactly
        coarse = ReadButterflySolver(paper_cell, grid_points=21,
                                     bisection_iterations=12)
        exact = ReadButterflySolver(paper_cell, grid_points=21)
        _, state = coarse.solve_with_state(shifts)
        resumed = exact.resume(shifts, state)
        want_a, want_b = per_side(exact, shifts)
        assert np.array_equal(resumed.vtc_a, want_a)
        assert np.array_equal(resumed.vtc_b, want_b)

    def test_fused_eval_count_matches_legacy(self, paper_cell, shifts):
        fused = ReadButterflySolver(paper_cell, grid_points=21)
        sides = ReadButterflySolver(paper_cell, grid_points=21)
        fused.solve(shifts)
        per_side(sides, shifts)
        assert fused.model_evals == sides.model_evals
        assert fused.model_evals == \
            2 * shifts.shape[0] * 40 * fused.grid.size


class TestEvaluatorBitIdentity:
    def test_margins_match_per_side_solves(self, paper_cell,
                                           paper_space, rng):
        x = rng.normal(size=(40, 6))
        evaluator = CellEvaluator(paper_cell, paper_space, grid_points=21)
        solver = evaluator.solver
        vtc_a, vtc_b = per_side(solver, paper_space.to_physical(x))
        want = lobe_margins(ButterflyCurves(grid=solver.grid, vtc_a=vtc_a,
                                            vtc_b=vtc_b, vdd=solver.vdd),
                            evaluator.margin_levels)
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
