"""Cross-validation: vectorised evaluator vs the MNA SPICE reference.

A seeded 16-point batch spanning the bulk and the far tail is solved by
both engines at the same grid resolution and margin levels
(``MARGIN_LEVELS``), so what separates their margins is solver error
alone: they must agree within 1e-9 V, and the derived failure labels
must be identical.
The adaptive evaluator rides the same batch to show the accelerated
label path inherits the agreement.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf.adaptive import AdaptiveMarginEvaluator
from repro.sram.evaluator import CellEvaluator, SpiceCellEvaluator

GRID_POINTS = 21
ATOL = 1e-9


@pytest.fixture(scope="module")
def batch():
    """16 deterministic points: 8 bulk draws, 8 tail draws."""
    rng = np.random.default_rng(20150309)
    return np.vstack([rng.normal(size=(8, 6)),
                      rng.normal(scale=3.0, size=(8, 6))])


@pytest.fixture(scope="module")
def spice_margins(paper_cell, paper_space, batch):
    slow = SpiceCellEvaluator(paper_cell, paper_space,
                              grid_points=GRID_POINTS)
    return slow.margins(batch)


@pytest.mark.slow
class TestCrossValidation:
    def test_margins_agree_with_spice(self, paper_cell, paper_space,
                                      batch, spice_margins):
        fast = CellEvaluator(paper_cell, paper_space,
                             grid_points=GRID_POINTS)
        fast0, fast1 = fast.margins(batch)
        slow0, slow1 = spice_margins
        assert np.allclose(fast0, slow0, rtol=0.0, atol=ATOL)
        assert np.allclose(fast1, slow1, rtol=0.0, atol=ATOL)

    def test_failure_labels_agree_with_spice(self, paper_cell, paper_space,
                                             batch, spice_margins):
        fast = CellEvaluator(paper_cell, paper_space,
                             grid_points=GRID_POINTS)
        slow0, slow1 = spice_margins
        # SPICE margins sit within ATOL of the fast ones, so any sample
        # whose SPICE margin clears ATOL must label identically
        decided = (np.abs(slow0) > ATOL) & (np.abs(slow1) > ATOL)
        expected = (slow0 < 0) | (slow1 < 0)
        labels = fast.failure_labels(batch, "cell")
        assert np.array_equal(labels[decided], expected[decided])
        assert decided.sum() >= 14  # the batch is not degenerate

    def test_adaptive_labels_agree_with_spice(self, paper_cell, paper_space,
                                              batch, spice_margins):
        adaptive = AdaptiveMarginEvaluator(paper_cell, paper_space,
                                           grid_points=GRID_POINTS)
        slow0, slow1 = spice_margins
        decided = (np.abs(slow0) > ATOL) & (np.abs(slow1) > ATOL)
        expected = (slow0 < 0) | (slow1 < 0)
        labels = adaptive.failure_labels(batch, "cell")
        assert np.array_equal(labels[decided], expected[decided])
