"""Solver guardrails: a diagnosable ConvergenceError.

Uses the PTM16 inverter from the SPICE suite.  With ``max_iterations=1``
and ``damping=1e-4`` every continuation stage runs out of budget, which
is the canonical hopeless case.
"""

import numpy as np
import pytest

from repro.errors import ConvergenceError, DegradationError
from repro.spice import (NMOS_PTM16, PMOS_PTM16, Circuit, DcSolver, Mosfet,
                         MosfetModel, VoltageSource)

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
        err = DegradationError("boom", category="solver")
        assert err.category == "solver"
