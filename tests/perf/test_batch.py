"""Label slicing is result-neutral: the evaluator's ``max_batch`` stride
changes only how many rows each solver call sees, never a bit of the
margins, the labels or the device-model work."""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf.adaptive import AdaptiveMarginEvaluator
from repro.sram.evaluator import CellEvaluator

from .test_adaptive import mixed_batch


@pytest.mark.parametrize("evaluator_cls",
                         [CellEvaluator, AdaptiveMarginEvaluator],
                         ids=lambda cls: cls.__name__)
class TestLabelBatchingBitIdentity:
    def test_slicing_is_result_neutral(self, paper_cell, paper_space,
                                       rng, evaluator_cls):
        # rows straddling the boundary, so rows climb the adaptive
        # ladder inside several 7-row tiles
        x = mixed_batch(rng, 150)
        whole = evaluator_cls(paper_cell, paper_space, grid_points=21,
                              max_batch=x.shape[0])
        sliced = evaluator_cls(paper_cell, paper_space, grid_points=21,
                               max_batch=7)
        for which in ("lobe0", "cell"):
            assert np.array_equal(sliced.failure_labels(x, which),
                                  whole.failure_labels(x, which))
        for got, want in zip(sliced.margins(x), whole.margins(x)):
            assert np.array_equal(got, want)
        assert sliced.device_model_evals == whole.device_model_evals
        if evaluator_cls is AdaptiveMarginEvaluator:
            # every depth labels the same rows either way, and some rows
            # resume past the first rung
            assert sliced.resolved == whole.resolved
            first = min(whole.resolved)
            assert whole.screened + whole.refined \
                - whole.resolved[first] >= 3
