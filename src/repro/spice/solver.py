"""Newton--Raphson DC operating-point solver with continuation fallbacks.

The solve strategy mirrors what production SPICE engines do, scaled down:

1. plain damped Newton from the initial guess;
2. on failure, **gmin stepping** -- solve with a large conductance from
   every node to ground, then relax it geometrically to zero;
3. on failure, **source stepping** -- ramp all independent sources from
   0 to 100 %.

Each stage starts from the same initial guess; when all three fail,
the :class:`~repro.errors.ConvergenceError` reports the smallest KCL
residual any of them reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConvergenceError
from repro.spice.mna import MnaSystem
from repro.spice.netlist import Circuit


@dataclass
class OperatingPoint:
    """Solved DC operating point.

    Attributes
    ----------
    voltages:
        Node name -> voltage [V].
    aux_currents:
        Voltage-source name -> branch current [A].
    iterations:
        Total Newton iterations spent (including continuation stages).
    strategy:
        Which stage converged: ``"newton"``, ``"gmin"`` or ``"source"``.
    """

    voltages: dict[str, float]
    aux_currents: dict[str, float]
    iterations: int
    strategy: str
    x: np.ndarray = field(repr=False, default=None)

    def __getitem__(self, node: str) -> float:
        return self.voltages[node]


class DcSolver:
    """DC operating-point solver for a :class:`Circuit`.

    Parameters
    ----------
    circuit:
        Netlist to solve.  The solver keeps a reference: element value
        changes (sweeps, Vth shifts) are picked up on the next solve.
    max_iterations:
        Newton iteration cap per continuation stage.
    tolerance:
        Convergence threshold on the voltage update infinity-norm [V].
    damping:
        Maximum allowed per-iteration voltage change [V]; larger updates
        are clipped (simple but effective for strongly nonlinear devices).
    """

    def __init__(self, circuit: Circuit, max_iterations: int = 100,
                 tolerance: float = 1e-9, damping: float = 0.3):
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if damping <= 0:
            raise ValueError("damping must be positive")
        self.system = MnaSystem(circuit)
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.damping = damping

    # ------------------------------------------------------------------
    def solve(self, initial_guess: np.ndarray | dict[str, float] | None = None
              ) -> OperatingPoint:
        """Find the DC operating point.

        ``initial_guess`` may be a previous solution vector (warm start) or
        a node-name -> voltage dict for a partial guess.

        Raises
        ------
        ConvergenceError
            If all continuation strategies fail.
        """
        x0 = self._coerce_guess(initial_guess)

        x, iters, ok = self._newton(x0)
        if ok:
            return self._package(x, iters, "newton")

        x_gmin, iters_gmin, ok = self._gmin_stepping(x0)
        iters += iters_gmin
        if ok:
            return self._package(x_gmin, iters, "gmin")

        x_src, iters_src, ok = self._source_stepping(x0)
        iters += iters_src
        if ok:
            return self._package(x_src, iters, "source")

        # Every stage restores gmin and the source scale on exit, so
        # each iterate's residual is taken on the original circuit.
        best_residual = min(self._finite_residual(candidate)
                            for candidate in (x0, x, x_gmin, x_src))
        raise ConvergenceError(
            f"DC solve failed for {self.system.circuit.name!r} after "
            f"{iters} total Newton iterations "
            f"(best residual {best_residual:.3e} A)",
            residual=best_residual)

    # ------------------------------------------------------------------
    def _finite_residual(self, x: np.ndarray) -> float:
        """KCL residual of ``x``, or the largest finite float for
        iterates the residual cannot be evaluated on.

        Non-finite iterates (diverged Newton steps, singular-system
        fallbacks) therefore never win the best-residual minimum, which
        stays finite: the all-zero initial guess of :meth:`_coerce_guess`
        has a finite residual for any assemblable circuit, and
        user-supplied guesses are validated shapes of finite floats.
        """
        if not np.all(np.isfinite(x)):
            return float(np.finfo(float).max)
        try:
            residual = self.system.residual(x)
        except (np.linalg.LinAlgError, FloatingPointError):
            return float(np.finfo(float).max)
        if not np.isfinite(residual):
            return float(np.finfo(float).max)
        return float(residual)

    # ------------------------------------------------------------------
    def _coerce_guess(self, guess) -> np.ndarray:
        x0 = np.zeros(self.system.size)
        if guess is None:
            return x0
        if isinstance(guess, dict):
            for node, value in guess.items():
                idx = self.system.node_index(node)
                if idx >= 0:
                    x0[idx] = value
            return x0
        guess = np.asarray(guess, dtype=float)
        if guess.shape != (self.system.size,):
            raise ValueError(
                f"initial guess has shape {guess.shape}, "
                f"expected ({self.system.size},)")
        return guess.copy()

    def _newton(self, x0: np.ndarray) -> tuple[np.ndarray, int, bool]:
        x = x0.copy()
        for iteration in range(1, self.max_iterations + 1):
            try:
                x_new = self.system.solve_linearised(x)
            except np.linalg.LinAlgError:
                return x, iteration, False
            delta = x_new - x
            step = np.abs(delta[:self.system.n_nodes]).max(initial=0.0)
            if step > self.damping:
                delta *= self.damping / step
            x = x + delta
            if step < self.tolerance and np.all(np.isfinite(x)):
                return x, iteration, True
            if not np.all(np.isfinite(x)):
                return x0, iteration, False
        return x, self.max_iterations, False

    def _gmin_stepping(self, x0: np.ndarray) -> tuple[np.ndarray, int, bool]:
        x = x0.copy()
        total = 0
        try:
            for gmin in np.geomspace(1e-2, 1e-12, 11):
                self.system.gmin = float(gmin)
                x, iters, ok = self._newton(x)
                total += iters
                if not ok:
                    return x, total, False
            self.system.gmin = 0.0
            x, iters, ok = self._newton(x)
            total += iters
            return x, total, ok
        finally:
            self.system.gmin = 0.0

    def _source_stepping(self, x0: np.ndarray) -> tuple[np.ndarray, int, bool]:
        x = x0.copy()
        total = 0
        try:
            for scale in np.linspace(0.1, 1.0, 10):
                self.system.source_scale = float(scale)
                x, iters, ok = self._newton(x)
                total += iters
                if not ok:
                    return x, total, False
            return x, total, True
        finally:
            self.system.source_scale = 1.0

    # ------------------------------------------------------------------
    def _package(self, x: np.ndarray, iterations: int, strategy: str
                 ) -> OperatingPoint:
        voltages = {node: float(x[self.system.node_index(node)])
                    for node in self.system.circuit.nodes}
        aux = {}
        for source in self.system.circuit.voltage_sources():
            aux[source.name] = float(x[self.system.aux_index(source.name)])
        return OperatingPoint(voltages=voltages, aux_currents=aux,
                              iterations=iterations, strategy=strategy, x=x)
