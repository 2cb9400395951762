"""Label slicing is result-neutral: the evaluator's ``max_batch`` stride
changes only how many rows each solver call sees, never a bit of the
margins or labels."""

from __future__ import annotations

import numpy as np

from repro.sram.evaluator import CellEvaluator


class TestLabelBatchingBitIdentity:
    def test_slicing_is_result_neutral(self, paper_cell, paper_space,
                                       rng):
        x = rng.normal(size=(41, 6))
        whole = CellEvaluator(paper_cell, paper_space, grid_points=21)
        sliced = CellEvaluator(paper_cell, paper_space, grid_points=21,
                               max_batch=7)
        for got, want in zip(sliced.margins(x), whole.margins(x)):
            assert np.array_equal(got, want)
        assert np.array_equal(sliced.failure_labels(x, "cell"),
                              whole.failure_labels(x, "cell"))
