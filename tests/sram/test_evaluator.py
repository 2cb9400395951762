"""Tests for the cell evaluators and indicators."""

import numpy as np
import pytest

from repro.sram.evaluator import (
    CellEvaluator,
    CellReadFailure,
    Lobe0ReadFailure,
    SpiceCellEvaluator,
)
from repro.variability.space import VariabilitySpace


class TestFastEvaluator:
    def test_wrong_dim_space_rejected(self, paper_cell):
        with pytest.raises(ValueError, match="6-D"):
            CellEvaluator(paper_cell, VariabilitySpace(np.ones(3)))

    def test_wrong_point_shape_rejected(self, paper_evaluator):
        with pytest.raises(ValueError, match="B, 6"):
            paper_evaluator.margins(np.zeros((2, 5)))

    def test_lobe0_is_first_margin(self, paper_evaluator, rng):
        x = rng.normal(size=(4, 6))
        assert np.allclose(paper_evaluator.lobe0_margin(x),
                           paper_evaluator.margins(x)[0])

    @pytest.mark.slow
    def test_matches_spice_reference(self, paper_cell, paper_space, rng):
        """The vectorised path agrees with the full MNA engine.  Both
        cut at MARGIN_LEVELS, so the bound is solver error alone."""
        fast = CellEvaluator(paper_cell, paper_space, grid_points=61)
        slow = SpiceCellEvaluator(paper_cell, paper_space, grid_points=61)
        x = rng.normal(scale=1.5, size=(4, 6))
        fast0, fast1 = fast.margins(x)
        slow0, slow1 = slow.margins(x)
        assert np.allclose(fast0, slow0, rtol=0.0, atol=1e-9)
        assert np.allclose(fast1, slow1, rtol=0.0, atol=1e-9)


class TestIndicators:
    def test_nominal_cell_passes(self, paper_evaluator):
        indicator = CellReadFailure(paper_evaluator)
        assert not indicator.evaluate(np.zeros((1, 6)))[0]

    def test_cell_failure_is_either_lobe(self, paper_evaluator, rng):
        cell = CellReadFailure(paper_evaluator)
        lobe = Lobe0ReadFailure(paper_evaluator)
        x = rng.normal(scale=2.5, size=(300, 6))
        rnm0, rnm1 = paper_evaluator.margins(x)
        assert np.array_equal(cell.evaluate(x), (rnm0 < 0) | (rnm1 < 0))
        assert np.array_equal(lobe.evaluate(x), rnm0 < 0)

    def test_margin_accessors(self, paper_evaluator):
        cell = CellReadFailure(paper_evaluator)
        lobe = Lobe0ReadFailure(paper_evaluator)
        x = np.zeros((1, 6))
        assert lobe.margin(x)[0] >= cell.margin(x)[0]

    def test_dim_attribute(self, paper_evaluator):
        assert CellReadFailure(paper_evaluator).dim == 6
