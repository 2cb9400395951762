"""Factory for the paper's experimental setup.

:func:`paper_setup` wires the Table-I cell, the whitened Pelgrom space and
the appropriate indicator/RTN-model pair together so estimators can be
constructed in one line.  Two indicator conventions exist (see
:mod:`repro.sram.evaluator`):

* RDF-only runs (``alpha=None``) use the *cell-level* indicator (either
  lobe collapsing fails the cell) and the null RTN model;
* RTN runs (``alpha`` given) use the *stored-"0" lobe* indicator; the RTN
  sampler mirrors stored-"1" samples onto it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import TABLE_I, PaperConditions
from repro.perf import PerfConfig, build_evaluator
from repro.rtn.model import RtnModel, ZeroRtnModel
from repro.sram.cell import SramCell
from repro.sram.evaluator import (
    CellEvaluator,
    CellReadFailure,
    Lobe0ReadFailure,
)
from repro.variability.space import VariabilitySpace


@dataclass
class ExperimentSetup:
    """Everything an estimator needs for one bias condition.

    Attributes
    ----------
    conditions:
        The experimental conditions (Table I unless overridden).
    cell, evaluator, space:
        Cell design, vectorised evaluator, whitened variability space.
    indicator:
        Deterministic failure indicator matching the RTN model.
    rtn_model:
        RTN sampler (null model for RDF-only setups).
    vdd:
        Supply voltage.
    alpha:
        Duty ratio, or ``None`` for RDF-only.
    """

    conditions: PaperConditions
    cell: SramCell
    evaluator: CellEvaluator
    space: VariabilitySpace
    indicator: object
    rtn_model: object
    vdd: float
    alpha: float | None

    def with_alpha(self, alpha: float | None,
                   convention: str = "physical") -> "ExperimentSetup":
        """Same cell/supply, different duty ratio (shares the evaluator)."""
        return _build(self.conditions, self.cell, self.evaluator,
                      self.space, self.vdd, alpha, convention)


def paper_setup(vdd: float | None = None, alpha: float | None = None,
                conditions: PaperConditions = TABLE_I,
                convention: str = "physical",
                grid_points: int = 61,
                perf: PerfConfig | None = None) -> ExperimentSetup:
    """Build the paper's experimental setup.

    Parameters
    ----------
    vdd:
        Supply voltage; defaults to the paper's nominal 0.7 V.
    alpha:
        Duty ratio for the RTN model; ``None`` disables RTN (Fig. 6 mode).
    conditions:
        Experimental conditions; Table I by default.
    convention:
        RTN occupancy convention (see :mod:`repro.rtn.traps`).
    grid_points:
        Butterfly grid resolution of the evaluator.
    perf:
        Names the solve-cache directory (see :mod:`repro.perf`);
        ``None`` means no solve cache.  The evaluator always labels on
        the screening ladder.
    """
    vdd = conditions.vdd_nominal if vdd is None else float(vdd)
    space = VariabilitySpace.from_pelgrom(conditions.avth_mv_nm,
                                          conditions.geometry)
    cell = SramCell(geometry=conditions.geometry, vdd=vdd)
    evaluator = build_evaluator(cell, space, vdd=vdd,
                                grid_points=grid_points, perf=perf)
    return _build(conditions, cell, evaluator, space, vdd, alpha, convention)


def _build(conditions, cell, evaluator, space, vdd, alpha, convention
           ) -> ExperimentSetup:
    if alpha is None:
        indicator = CellReadFailure(evaluator)
        rtn_model = ZeroRtnModel(space)
    else:
        indicator = Lobe0ReadFailure(evaluator)
        rtn_model = RtnModel(conditions, space, alpha,
                             convention=convention)
    return ExperimentSetup(
        conditions=conditions, cell=cell, evaluator=evaluator, space=space,
        indicator=indicator, rtn_model=rtn_model, vdd=vdd, alpha=alpha)
