"""Minimum-operating-voltage (Vmin) search -- a design application.

Given a cell-level failure-probability budget (e.g. derived from an array
yield target via :mod:`repro.analysis.array_yield`), find the lowest
supply voltage at which the cell still meets it.  Each probe point is a
full ECRIPSE estimation at that supply; the search bisects on
``log10(P_fail) - log10(budget)``, which is smooth and monotone in VDD
over the range of interest.

This is the kind of downstream use the paper's speed-up enables: a Vmin
search multiplies the per-point cost by the number of probes, just as the
duty-ratio sweep of Fig. 8 multiplies it by the number of bias points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ecripse import EcripseConfig, EcripseEstimator
from repro.core.estimate import FailureEstimate
from repro.experiments.setup import paper_setup
from repro.perf import PerfConfig
from repro.rng import stable_seed


@dataclass
class VminResult:
    """Outcome of a Vmin search.

    Attributes
    ----------
    vmin:
        Lowest probed supply meeting the budget (None if even the highest
        probe fails the budget).
    probes:
        ``(vdd, estimate)`` pairs in probe order.
    budget:
        The cell P_fail budget searched against.
    """

    vmin: float | None
    probes: list[tuple[float, FailureEstimate]] = field(default_factory=list)
    budget: float = 0.0

    @property
    def total_simulations(self) -> int:
        return sum(estimate.n_simulations for _, estimate in self.probes)


def find_vmin(pfail_budget: float, vdd_low: float = 0.45,
              vdd_high: float = 0.8, alpha: float | None = None,
              resolution: float = 0.01,
              target_relative_error: float = 0.10,
              config: EcripseConfig | None = None,
              seed: int = 77,
              perf: PerfConfig | None = None) -> VminResult:
    """Bisect the supply voltage for a target failure budget.

    Parameters
    ----------
    pfail_budget:
        Maximum acceptable cell failure probability.
    vdd_low, vdd_high:
        Search bracket [V]; ``vdd_high`` must meet the budget.
    alpha:
        Duty ratio for RTN-aware search; ``None`` for RDF-only.
    resolution:
        Bisection stops when the bracket is narrower than this [V].
    perf:
        Names the solve-cache directory.  Every probe point runs at a
        different supply (a different solve fingerprint); with
        ``cache_path`` set, only a repeated search with the same seed
        solves the same rows again and hits the cache.
    """
    if pfail_budget <= 0 or pfail_budget >= 1:
        raise ValueError("pfail_budget must lie in (0, 1)")
    if vdd_low >= vdd_high:
        raise ValueError("need vdd_low < vdd_high")
    if resolution <= 0:
        raise ValueError("resolution must be positive")

    config = config if config is not None else EcripseConfig()
    probes: list[tuple[float, FailureEstimate]] = []

    def estimate_at(vdd: float) -> FailureEstimate:
        setup = paper_setup(vdd=vdd, alpha=alpha, perf=perf)
        estimator = EcripseEstimator(
            setup.space, setup.indicator, setup.rtn_model, config=config,
            seed=stable_seed(seed, round(vdd, 4)))
        result = estimator.run(
            target_relative_error=target_relative_error)
        result.metadata["vdd"] = vdd
        probes.append((vdd, result))
        return result

    top = estimate_at(vdd_high)
    if top.pfail > pfail_budget:
        return VminResult(vmin=None, probes=probes, budget=pfail_budget)

    low, high = vdd_low, vdd_high
    bottom = estimate_at(vdd_low)
    if bottom.pfail <= pfail_budget:
        return VminResult(vmin=vdd_low, probes=probes, budget=pfail_budget)

    while high - low > resolution:
        mid = 0.5 * (low + high)
        if estimate_at(mid).pfail <= pfail_budget:
            high = mid
        else:
            low = mid
    return VminResult(vmin=high, probes=probes, budget=pfail_budget)
