"""Experiment E1/E2 -- the paper's Fig. 6.

RDF-only failure probability at the nominal supply: convergence of the
proposed method vs the conventional particle-filter SIS baseline [8], and
the relative-error-vs-simulations curves from which the paper reads the
"1/36 simulations / 15.6x speed-up at 1 % relative error" numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.convergence import simulations_to_accuracy
from repro.analysis.speedup import SpeedupReport, compare_runs
from repro.analysis.tables import format_table
from repro.core.conventional import ConventionalSisEstimator
from repro.core.ecripse import EcripseConfig, EcripseEstimator
from repro.core.estimate import FailureEstimate
from repro.experiments.setup import paper_setup
from repro.perf import PerfConfig
from repro.rng import stable_seed


@dataclass
class Fig6Result:
    """Both runs plus the speedup comparison."""

    proposed: FailureEstimate
    conventional: FailureEstimate
    report: SpeedupReport

    def table(self, targets=(0.10, 0.05, 0.02, 0.01)) -> str:
        """Simulations-to-accuracy table (the content of Fig. 6b)."""
        rows = []
        for target in targets:
            n_prop = simulations_to_accuracy(self.proposed.trace, target)
            n_conv = simulations_to_accuracy(self.conventional.trace, target)
            ratio = ("-" if not (n_prop and n_conv)
                     else f"{n_conv / n_prop:.1f}x")
            rows.append([f"{target:.0%}", n_conv or "-", n_prop or "-",
                         ratio])
        return format_table(
            ["rel. error", "conventional sims", "proposed sims", "ratio"],
            rows, title="Fig. 6: simulations to reach a relative error")


def run_fig6(target_relative_error: float = 0.02,
             max_conventional_sims: int = 400_000,
             config: EcripseConfig | None = None, vdd: float | None = None,
             seed: int = 2015,
             perf: PerfConfig | None = None) -> Fig6Result:
    """Run both estimators on the RDF-only problem (paper Fig. 6).

    Parameters
    ----------
    target_relative_error:
        Accuracy both methods run to (the paper uses 1 %; the default 2 %
        keeps the conventional run affordable -- pass 0.01 for the full
        experiment).
    max_conventional_sims:
        Safety cap for the baseline.
    perf:
        Names the solve-cache directory (see :mod:`repro.perf`); both
        estimators share the evaluator.
    """
    setup = paper_setup(vdd=vdd, perf=perf)
    config = config if config is not None else EcripseConfig()

    proposed = EcripseEstimator(
        setup.space, setup.indicator, setup.rtn_model, config=config,
        seed=stable_seed(seed, "proposed")).run(
        target_relative_error=target_relative_error)

    conventional = ConventionalSisEstimator(
        setup.space, setup.indicator, setup.rtn_model, config=config,
        seed=stable_seed(seed, "conventional")).run(
        target_relative_error=target_relative_error,
        max_simulations=max_conventional_sims)

    report = compare_runs(conventional, proposed,
                          target_relative_error=target_relative_error)
    return Fig6Result(proposed=proposed, conventional=conventional,
                      report=report)


def main() -> None:  # pragma: no cover - exercised via the CLI
    result = run_fig6()
    print(result.proposed.summary())
    print(result.conventional.summary())
    print()
    print(result.table())
    print()
    print("speedup:", result.report.summary())
    print("estimates agree:", result.report.estimates_agree)


if __name__ == "__main__":  # pragma: no cover
    main()
