"""Integration: RTN physics produces the paper's qualitative effects.

Checked with direct (naive) Monte Carlo at the reduced supply where
failure counts are high enough for tight binomial statistics.
"""

import numpy as np
import pytest

from repro.config import TABLE_I
from repro.perf import build_evaluator
from repro.rtn.model import RtnModel
from repro.sram.evaluator import Lobe0ReadFailure


@pytest.fixture(scope="module")
def low_vdd_evaluator(paper_cell, paper_space):
    # the production evaluator: its labels are the exact path's, bit
    # for bit, at a fraction of the bisection work
    return build_evaluator(paper_cell, paper_space, vdd=0.5)


def rtn_pfail(evaluator, space, alpha, n=20_000, seed=5,
              convention="physical"):
    model = RtnModel(TABLE_I, space, alpha, convention=convention)
    indicator = Lobe0ReadFailure(evaluator)
    rng = np.random.default_rng(seed)
    fails = 0
    for _ in range(n // 10_000):
        x = rng.standard_normal((10_000, 6))
        shifts, states = model.sample(10_000, rng)
        total = model.mirror(x + shifts, states)
        fails += int(np.sum(indicator.evaluate(total)))
    return fails / n


@pytest.mark.slow
class TestRtnEffect:
    def test_rtn_increases_failure_probability(self, low_vdd_evaluator,
                                               paper_space):
        """RTN shifts only ever weaken devices, so P_fail must rise."""
        no_rtn = rtn_pfail(low_vdd_evaluator, paper_space, alpha=0.5)
        # zero-trap reference: same machinery with the shifts removed
        rng = np.random.default_rng(5)
        indicator = Lobe0ReadFailure(low_vdd_evaluator)
        x = rng.standard_normal((20_000, 6))
        base = float(np.mean(indicator.evaluate(x)))
        assert no_rtn > base

    def test_u_shape_endpoints_worse_than_centre(self, low_vdd_evaluator,
                                                 paper_space):
        """Fig. 8's key shape: alpha in {0, 1} is worse than 0.5."""
        p_zero = rtn_pfail(low_vdd_evaluator, paper_space, alpha=0.0)
        p_half = rtn_pfail(low_vdd_evaluator, paper_space, alpha=0.5)
        p_one = rtn_pfail(low_vdd_evaluator, paper_space, alpha=1.0)
        assert p_zero > p_half
        assert p_one > p_half

    def test_bilateral_symmetry(self, low_vdd_evaluator, paper_space):
        p_03 = rtn_pfail(low_vdd_evaluator, paper_space, alpha=0.3)
        p_07 = rtn_pfail(low_vdd_evaluator, paper_space, alpha=0.7)
        assert p_03 == pytest.approx(p_07, rel=0.35)

    def test_paper_convention_weakens_the_effect(self, low_vdd_evaluator,
                                                 paper_space):
        """Under the literal eq. (10) the always-ON critical devices carry
        almost no occupied traps, so the alpha = 0 penalty collapses
        (DESIGN.md substitution rationale)."""
        physical = rtn_pfail(low_vdd_evaluator, paper_space, alpha=0.0)
        literal = rtn_pfail(low_vdd_evaluator, paper_space, alpha=0.0,
                            convention="paper")
        assert literal < physical
