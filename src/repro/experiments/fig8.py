"""Experiment E5 -- the paper's Fig. 8.

Failure probability as a function of the stored-data duty ratio alpha at
the nominal supply, with RTN.  The paper's findings, which this harness
checks quantitatively:

* the curve is (approximately) bilaterally symmetric around alpha = 0.5;
* the minimum sits at alpha = 0.5 (the cell stores "0" and "1" with equal
  probability);
* the whole curve sits well above the no-RTN failure probability
  (paper: up to ~6x above the 1.33e-4 floor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import format_table
from repro.checkpoint import CheckpointConfig, run_checkpointed
from repro.core.ecripse import EcripseConfig, EcripseEstimator
from repro.core.estimate import FailureEstimate
from repro.core.sweep import BiasSweep, BiasSweepResult
from repro.experiments.setup import paper_setup
from repro.perf import PerfConfig
from repro.rng import stable_seed

DEFAULT_ALPHAS = tuple(np.round(np.linspace(0.0, 1.0, 11), 2))


@dataclass
class Fig8Result:
    """The duty-ratio sweep plus the no-RTN reference estimate."""

    sweep: BiasSweepResult
    no_rtn: FailureEstimate

    def table(self) -> str:
        rows = []
        for alpha, estimate in zip(self.sweep.alphas, self.sweep.estimates):
            rows.append([f"{alpha:.1f}", f"{estimate.pfail:.3e}",
                         f"{estimate.ci_halfwidth:.1e}",
                         f"{estimate.pfail / self.no_rtn.pfail:.2f}x"])
        rows.append(["no RTN", f"{self.no_rtn.pfail:.3e}",
                     f"{self.no_rtn.ci_halfwidth:.1e}", "1.00x"])
        return format_table(
            ["duty ratio", "Pfail", "CI95", "vs no-RTN"],
            rows, title="Fig. 8: failure probability vs duty ratio")

    @property
    def rtn_penalty(self) -> float:
        """Worst-case RTN degradation factor (paper: ~6x)."""
        _, worst = self.sweep.worst_case()
        return worst.pfail / self.no_rtn.pfail

    @property
    def minimum_alpha(self) -> float:
        """Duty ratio of the minimum failure probability (paper: 0.5)."""
        index = int(np.argmin([e.pfail for e in self.sweep.estimates]))
        return self.sweep.alphas[index]

    def asymmetry(self) -> float:
        """Relative RMS difference between the curve and its mirror image
        (0 = perfectly symmetric)."""
        p = np.array([e.pfail for e in self.sweep.estimates])
        return float(np.sqrt(np.mean((p - p[::-1]) ** 2)) / p.mean())


def run_fig8(alphas=DEFAULT_ALPHAS, target_relative_error: float = 0.05,
             config: EcripseConfig | None = None,
             convention: str = "physical", vdd: float | None = None,
             seed: int = 2015,
             checkpoint: CheckpointConfig | None = None,
             perf: PerfConfig | None = None) -> Fig8Result:
    """Run the duty-ratio sweep plus the no-RTN reference point.

    With a ``checkpoint`` policy the no-RTN reference snapshots under
    ``nortn`` and each sweep point under ``alpha-NN``; an interrupted
    invocation resumes mid-point without repeating finished points.

    ``perf`` names the solve-cache directory (see :mod:`repro.perf`);
    the evaluator is shared across the no-RTN point and every sweep
    point.
    """
    setup = paper_setup(vdd=vdd, perf=perf)
    config = config if config is not None else EcripseConfig()
    crash_budget = (None if checkpoint is None
                    or checkpoint.crash_after is None
                    else [checkpoint.crash_after])

    no_rtn = run_checkpointed(
        checkpoint, "nortn",
        EcripseEstimator(
            setup.space, setup.indicator, setup.rtn_model, config=config,
            seed=stable_seed(seed, "nortn")),
        crash_budget=crash_budget,
        target_relative_error=target_relative_error)

    rtn_setup = setup.with_alpha(0.5, convention=convention)
    sweep = BiasSweep(rtn_setup.space, rtn_setup.indicator,
                      rtn_setup.conditions, config=config,
                      convention=convention,
                      seed=stable_seed(seed, "sweep")).run(
        alphas, target_relative_error=target_relative_error,
        checkpoint=checkpoint, crash_budget=crash_budget)
    return Fig8Result(sweep=sweep, no_rtn=no_rtn)


def main() -> None:  # pragma: no cover - exercised via the CLI
    result = run_fig8()
    print(result.table())
    print()
    print(f"worst-case RTN penalty: {result.rtn_penalty:.1f}x "
          f"(paper: ~6x)")
    print(f"minimum at duty ratio:  {result.minimum_alpha} (paper: 0.5)")
    print(f"curve asymmetry:        {result.asymmetry():.1%}")
    print(f"total simulations:      {result.sweep.total_simulations} "
          f"(paper: ~2e5)")


if __name__ == "__main__":  # pragma: no cover
    main()
