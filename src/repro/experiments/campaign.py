"""Campaign driver: regenerate every experiment and write a report.

``ecripse campaign --out results/`` runs the Fig. 6/7/8 harnesses (and
optionally the ablations), saves every individual estimate as JSON
(:mod:`repro.analysis.persistence`) and renders a single markdown report
with the paper-vs-measured tables -- the machine-generated counterpart of
EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis.persistence import save_estimate
from repro.checkpoint import CheckpointConfig
from repro.core.ecripse import EcripseConfig
from repro.experiments import fig6, fig7, fig8
from repro.perf import PerfConfig
from repro.runtime import ExecutionConfig


def run_campaign(out_dir, config: EcripseConfig | None = None,
                 target_relative_error: float = 0.05,
                 naive_samples: int = 100_000,
                 alphas=(0.0, 0.25, 0.5, 0.75, 1.0),
                 seed: int = 2015, include=("fig6", "fig7", "fig8"),
                 execution: ExecutionConfig | None = None,
                 checkpoint: CheckpointConfig | None = None,
                 perf: PerfConfig | None = None) -> Path:
    """Run the selected experiments and write ``report.md`` plus per-run
    JSON files into ``out_dir``.  Returns the report path.

    ``execution`` overrides the runtime backend/worker settings of
    ``config`` for every experiment in the campaign (the naive baseline
    included); estimates are backend-invariant for a fixed seed.

    ``checkpoint`` makes the Fig. 7/8 estimator runs crash-safe: a
    killed campaign re-invoked with the same arguments and
    ``resume=True`` skips finished runs and continues the interrupted
    one mid-flight.  A campaign owns its output files, so the JSON
    results are refreshed with an explicit ``overwrite=True``.

    ``perf`` names the solve-cache directory of every experiment (see
    :mod:`repro.perf`).  A ``cache_path``-equipped config saves solved
    margins to disk, but only a rerun with the same seed solves the
    same rows again and hits them.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = config if config is not None else EcripseConfig()
    if execution is not None:
        config = config.with_(execution=execution)
    runtime = config.execution
    sections: list[str] = [
        "# ECRIPSE experiment campaign",
        "",
        f"generated: {time.strftime('%Y-%m-%d %H:%M:%S')}",
        f"budgets: target rel. err. {target_relative_error:.0%}, "
        f"naive samples {naive_samples}, alphas {list(alphas)}",
        f"execution: backend {runtime.backend}, "
        f"{runtime.effective_workers} worker(s)",
        "",
    ]

    if "fig6" in include:
        result = fig6.run_fig6(
            target_relative_error=target_relative_error,
            config=config, seed=seed, perf=perf)
        save_estimate(result.proposed, out / "fig6_proposed.json",
                      overwrite=True)
        save_estimate(result.conventional,
                      out / "fig6_conventional.json", overwrite=True)
        sections += [
            "## Fig. 6 — proposed vs conventional (RDF only)",
            "",
            "```",
            result.proposed.summary(),
            result.conventional.summary(),
            "",
            result.table(),
            "```",
            "",
            f"speedup: {result.report.summary()}",
            f"estimates agree: {result.report.estimates_agree}",
            "",
        ]

    if "fig7" in include:
        result = fig7.run_fig7(
            naive_samples=naive_samples,
            target_relative_error=target_relative_error * 2,
            config=config, seed=seed, checkpoint=checkpoint, perf=perf)
        save_estimate(result.naive_a, out / "fig7_naive.json",
                      overwrite=True)
        save_estimate(result.proposed_a, out / "fig7_proposed_a.json",
                      overwrite=True)
        save_estimate(result.proposed_b, out / "fig7_proposed_b.json",
                      overwrite=True)
        sections += [
            "## Fig. 7 — naive MC vs proposed with RTN (0.5 V)",
            "",
            "```",
            result.table(),
            "```",
            "",
            f"simulation saving: {result.simulation_saving:.1f}x "
            "(paper: ~40x)",
            f"shared-init cost: {result.shared_init_saving:.2f} "
            "(paper: ~0.5)",
            f"estimates agree: {result.agreement}",
            "",
        ]

    if "fig8" in include:
        result = fig8.run_fig8(
            alphas=alphas,
            target_relative_error=target_relative_error * 2,
            config=config, seed=seed, checkpoint=checkpoint, perf=perf)
        for alpha, estimate in zip(result.sweep.alphas,
                                   result.sweep.estimates):
            save_estimate(estimate,
                          out / f"fig8_alpha_{alpha:.2f}.json",
                          overwrite=True)
        save_estimate(result.no_rtn, out / "fig8_no_rtn.json",
                      overwrite=True)
        sections += [
            "## Fig. 8 — failure probability vs duty ratio (0.7 V)",
            "",
            "```",
            result.table(),
            "```",
            "",
            f"worst-case RTN penalty: {result.rtn_penalty:.1f}x "
            "(paper: ~6x)",
            f"minimum at duty ratio: {result.minimum_alpha} (paper: 0.5)",
            f"curve asymmetry: {result.asymmetry():.1%}",
            f"total sweep simulations: {result.sweep.total_simulations} "
            "(paper: ~2e5)",
            "",
        ]

    report = out / "report.md"
    report.write_text("\n".join(sections) + "\n")
    return report
