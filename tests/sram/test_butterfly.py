"""Tests for the vectorised butterfly solver."""

import numpy as np
import pytest

from repro.sram.butterfly import ReadButterflySolver

ZERO = np.zeros((1, 6))


@pytest.fixture(scope="module")
def solver(paper_cell):
    return ReadButterflySolver(paper_cell, grid_points=41)


class TestConstruction:
    def test_validation(self, paper_cell):
        with pytest.raises(ValueError):
            ReadButterflySolver(paper_cell, grid_points=4)
        with pytest.raises(ValueError):
            ReadButterflySolver(paper_cell, bisection_iterations=2)
        with pytest.raises(ValueError):
            ReadButterflySolver(paper_cell, vdd=-0.1)

    def test_nan_vdd_rejected(self, paper_cell):
        with pytest.raises(ValueError, match="vdd"):
            ReadButterflySolver(paper_cell, vdd=float("nan"))

    def test_default_vdd_from_cell(self, paper_cell):
        assert ReadButterflySolver(paper_cell).vdd == paper_cell.vdd


class TestVtcShape:
    def test_curves_within_rails(self, solver):
        curves = solver.solve(ZERO)
        for vtc in (curves.vtc_a, curves.vtc_b):
            assert np.all(vtc >= 0.0)
            assert np.all(vtc <= solver.vdd + 1e-9)

    def test_vtc_monotone_decreasing(self, solver):
        curves = solver.solve(ZERO)
        assert np.all(np.diff(curves.vtc_b[0]) <= 1e-9)
        assert np.all(np.diff(curves.vtc_a[0]) <= 1e-9)

    def test_nominal_cell_is_symmetric(self, solver):
        curves = solver.solve(ZERO)
        assert np.allclose(curves.vtc_a, curves.vtc_b, atol=1e-9)

    def test_read_disturb_floor_is_positive(self, solver):
        """Under read bias the output low level sits above ground (the
        access transistor pulls the node up -- the read bump)."""
        curves = solver.solve(ZERO)
        assert curves.vtc_b[0, -1] > 0.01

    def test_output_high_is_full_rail(self, solver):
        curves = solver.solve(ZERO)
        assert curves.vtc_b[0, 0] == pytest.approx(solver.vdd, abs=0.01)


class TestShifts:
    def test_weak_driver_raises_read_bump(self, solver):
        shifts = np.zeros((1, 6))
        shifts[0, 1] = 0.1  # D1 weakened
        bumped = solver.solve_side(0, shifts)[0, -1]
        nominal = solver.solve_side(0, ZERO)[0, -1]
        assert bumped > nominal

    def test_weak_load_lowers_high_level(self, solver):
        shifts = np.zeros((1, 6))
        shifts[0, 0] = 0.3  # L1 weakened hard
        weak = solver.solve_side(0, shifts)[0, 1]
        nominal = solver.solve_side(0, ZERO)[0, 1]
        assert weak <= nominal + 1e-12

    def test_side_isolation(self, solver):
        """Side-0 VTC must not depend on side-1 devices."""
        shifts = np.zeros((1, 6))
        shifts[0, 3:] = 0.2
        assert np.allclose(solver.solve_side(0, shifts),
                           solver.solve_side(0, ZERO))


class TestBatching:
    def test_batch_matches_individual(self, solver, rng):
        shifts = rng.normal(scale=0.03, size=(5, 6))
        batch = solver.solve(shifts)
        for i in range(5):
            single = solver.solve(shifts[i:i + 1])
            assert np.allclose(batch.vtc_a[i], single.vtc_a[0])
            assert np.allclose(batch.vtc_b[i], single.vtc_b[0])

    def test_shape_validation(self, solver):
        with pytest.raises(ValueError, match="B, 6"):
            solver.solve(np.zeros((2, 5)))

    def test_invalid_side(self, solver):
        with pytest.raises(ValueError, match="side"):
            solver.solve_side(2, ZERO)

    def test_1d_input_promoted(self, solver):
        curves = solver.solve(np.zeros(6))
        assert curves.batch_size == 1
