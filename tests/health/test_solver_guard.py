"""Solver guardrails: a diagnosable ConvergenceError, never retried.

Uses the PTM16 inverter from the SPICE suite.  With ``max_iterations=1``
and ``damping=1e-4`` every continuation stage runs out of budget, which
is the canonical hopeless case.
"""

import numpy as np
import pytest

from repro.core.ecripse import EcripseEstimator
from repro.core.indicator import FunctionIndicator
from repro.errors import ConvergenceError, DegradationError
from repro.health import HealthConfig
from repro.spice import (NMOS_PTM16, PMOS_PTM16, Circuit, DcSolver, Mosfet,
                         MosfetModel, VoltageSource)

from tests.health.conftest import DIM, NULL, SPACE, TINY

NMOS = MosfetModel(NMOS_PTM16, 30.0, 16.0)
PMOS = MosfetModel(PMOS_PTM16, 60.0, 16.0)


def inverter(vin=0.0):
    ckt = Circuit("inv")
    ckt.add(VoltageSource("vdd", "vdd", "0", 0.7))
    ckt.add(VoltageSource("vin", "in", "0", vin))
    ckt.add(Mosfet("mp", "out", "in", "vdd", PMOS))
    ckt.add(Mosfet("mn", "out", "in", "0", NMOS))
    return ckt


def hopeless_solver():
    return DcSolver(inverter(), max_iterations=1, damping=1e-4)


class NeverConverges:
    """Indicator body that fails every batch and counts the batches."""

    def __init__(self):
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        raise ConvergenceError("injected DC non-convergence", residual=1e-3)


class TestConvergenceErrorDiagnostics:
    """Satellite: a failed solve must always be diagnosable."""

    def test_residual_is_finite_and_best_x_carried(self):
        """The error carries the best iterate's finite residual."""
        with pytest.raises(ConvergenceError) as excinfo:
            hopeless_solver().solve()
        exc = excinfo.value
        assert exc.residual is not None
        assert np.isfinite(exc.residual)
        # the residual figure is part of the message for log grepping
        assert f"{exc.residual:.3e}" in str(exc)


class TestSolveWithRecovery:
    """The typed error strict-policy monitors raise."""

    def test_degradation_error_carries_category(self):
        err = DegradationError("boom", category="filter-degeneracy")
        assert err.category == "filter-degeneracy"


class TestNoSolverRetry:
    """Labelling is deterministic, so no policy re-runs a batch."""

    @pytest.mark.parametrize("policy", ["strict", "recover", "permissive"])
    def test_batch_runs_once_and_error_propagates(self, policy):
        body = NeverConverges()
        estimator = EcripseEstimator(
            SPACE, FunctionIndicator(body, dim=DIM), NULL,
            config=TINY.with_(health=HealthConfig(policy=policy)), seed=7)
        with pytest.raises(ConvergenceError, match="injected DC"):
            estimator._simulate_labels(np.zeros((8, DIM)))
        assert body.calls == 1
