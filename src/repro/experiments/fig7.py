"""Experiment E3/E4 -- the paper's Fig. 7.

RDF + RTN at the reduced 0.5 V supply (where naive Monte Carlo converges):

* (a) duty ratio 0.3 -- naive MC vs the proposed method; the paper reads a
  ~40x simulation saving at equal accuracy;
* (b) duty ratio 0.5 -- the proposed method re-run with the *shared*
  initial particles (and classifier), demonstrating the initialisation
  amortisation ("roughly half of the number of transistor-level
  simulations is sufficient").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.checkpoint import CheckpointConfig, run_checkpointed
from repro.core.ecripse import EcripseConfig, EcripseEstimator
from repro.core.estimate import FailureEstimate
from repro.core.naive import NaiveMonteCarlo
from repro.config import TABLE_I
from repro.experiments.setup import paper_setup
from repro.perf import PerfConfig
from repro.rng import stable_seed


@dataclass
class Fig7Result:
    """Naive-vs-proposed comparison (a) plus the shared-init run (b)."""

    naive_a: FailureEstimate
    proposed_a: FailureEstimate
    proposed_b: FailureEstimate
    alpha_a: float
    alpha_b: float

    def table(self) -> str:
        rows = [
            [f"naive MC (a={self.alpha_a})", f"{self.naive_a.pfail:.3e}",
             f"{self.naive_a.ci_halfwidth:.1e}",
             self.naive_a.n_simulations],
            [f"proposed (a={self.alpha_a})", f"{self.proposed_a.pfail:.3e}",
             f"{self.proposed_a.ci_halfwidth:.1e}",
             self.proposed_a.n_simulations],
            [f"proposed (a={self.alpha_b}, shared init)",
             f"{self.proposed_b.pfail:.3e}",
             f"{self.proposed_b.ci_halfwidth:.1e}",
             self.proposed_b.n_simulations],
        ]
        return format_table(["method", "Pfail", "CI95", "simulations"],
                            rows, title="Fig. 7: RDF+RTN at VDD = 0.5 V")

    @property
    def agreement(self) -> bool:
        """Naive MC and the proposed method must overlap (Fig. 7a)."""
        return (self.naive_a.ci_low <= self.proposed_a.ci_high
                and self.proposed_a.ci_low <= self.naive_a.ci_high)

    @property
    def simulation_saving(self) -> float:
        """Naive/proposed simulation ratio at their (comparable) final
        accuracies."""
        return self.naive_a.n_simulations / self.proposed_a.n_simulations

    @property
    def shared_init_saving(self) -> float:
        """Simulations of the shared-init run relative to the first run."""
        return (self.proposed_b.n_simulations
                / max(self.proposed_a.n_simulations, 1))


def run_fig7(alpha_a: float = 0.3, alpha_b: float = 0.5,
             naive_samples: int = 300_000,
             target_relative_error: float = 0.05,
             config: EcripseConfig | None = None,
             seed: int = 2015,
             checkpoint: CheckpointConfig | None = None,
             perf: PerfConfig | None = None) -> Fig7Result:
    """Run the Fig. 7 comparison at VDD = 0.5 V.

    ``naive_samples`` defaults to a scaled-down 3e5 (the paper used 1e6);
    the proposed runs stop at ``target_relative_error``.  With a
    ``checkpoint`` policy each of the three runs snapshots into its own
    subdirectory (``naive``/``prop-a``/``prop-b``) and an interrupted
    invocation resumes where it was killed; completed runs are loaded
    from their result files and their final state restored, so the
    (b) run still reuses the (a) run's boundary and classifier.

    ``perf`` names the solve-cache directory; all three runs (the naive
    baseline included) share one evaluator.
    """
    setup_a = paper_setup(vdd=TABLE_I.vdd_low, alpha=alpha_a, perf=perf)
    config = config if config is not None else EcripseConfig()
    crash_budget = (None if checkpoint is None
                    or checkpoint.crash_after is None
                    else [checkpoint.crash_after])

    # The naive baseline rides the same execution backend as the
    # estimator.
    naive = run_checkpointed(
        checkpoint, "naive",
        NaiveMonteCarlo(
            setup_a.space, setup_a.indicator, setup_a.rtn_model,
            seed=stable_seed(seed, "naive"), execution=config.execution),
        crash_budget=crash_budget, n_samples=naive_samples)
    estimator_a = EcripseEstimator(
        setup_a.space, setup_a.indicator, setup_a.rtn_model, config=config,
        seed=stable_seed(seed, "prop-a"))
    proposed_a = run_checkpointed(
        checkpoint, "prop-a", estimator_a, crash_budget=crash_budget,
        target_relative_error=target_relative_error)

    setup_b = setup_a.with_alpha(alpha_b)
    estimator_b = EcripseEstimator(
        setup_b.space, setup_b.indicator, setup_b.rtn_model, config=config,
        seed=stable_seed(seed, "prop-b"),
        initial_boundary=estimator_a.boundary,
        classifier=estimator_a.blockade)
    proposed_b = run_checkpointed(
        checkpoint, "prop-b", estimator_b, crash_budget=crash_budget,
        target_relative_error=target_relative_error)

    return Fig7Result(naive_a=naive, proposed_a=proposed_a,
                      proposed_b=proposed_b, alpha_a=alpha_a,
                      alpha_b=alpha_b)


def main() -> None:  # pragma: no cover - exercised via the CLI
    result = run_fig7()
    print(result.table())
    print()
    print(f"naive/proposed simulation ratio: "
          f"{result.simulation_saving:.1f}x (paper: ~40x)")
    print(f"shared-init second bias point cost: "
          f"{result.shared_init_saving:.2f} of the first (paper: ~0.5)")
    print("estimates agree:", result.agreement)


if __name__ == "__main__":  # pragma: no cover
    main()
