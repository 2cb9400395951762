"""``ecripse`` command-line entry point.

Regenerates the paper's experiments from the shell::

    ecripse fig6            # proposed vs conventional (Fig. 6)
    ecripse fig7            # proposed vs naive MC with RTN (Fig. 7)
    ecripse fig8            # failure probability vs duty ratio (Fig. 8)
    ecripse ablations       # A1/A3 ablation summaries
    ecripse estimate --vdd 0.7 --alpha 0.3   # one-off estimation
    ecripse array --capacity 128Gb           # array ECC/scrub decision
    ecripse serve --root state/              # job-queue service daemon

All experiments accept ``--quick`` to run with reduced budgets (useful for
a smoke test; the printed numbers then carry wider error bars).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.checkpoint import (
    CheckpointConfig,
    parse_every,
    run_checkpointed,
)
from repro.core.ecripse import EcripseConfig, EcripseEstimator
from repro.errors import CheckpointCrash, ShutdownRequested
from repro.experiments import ablations, fig6, fig7, fig8
from repro.experiments.setup import paper_setup
from repro.health import HealthConfig, HealthPolicy, HealthReport
from repro.perf import (
    PerfConfig,
    collect_runs,
    merge_perf,
    render_text,
    save_registered_caches,
)
from repro.runtime import BACKENDS, ExecutionConfig, default_coordinator

QUICK = EcripseConfig.quick()


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _add_common_args(cmd: argparse.ArgumentParser) -> None:
    """Budget/seed/execution flags shared by every subcommand."""
    cmd.add_argument("--quick", action="store_true",
                     help="reduced budgets for a fast smoke run")
    cmd.add_argument("--seed", type=int, default=2015)
    cmd.add_argument("--backend", choices=BACKENDS, default="serial",
                     help="execution backend for the simulation "
                          "workloads (default: serial; estimates are "
                          "bit-identical across backends for a fixed "
                          "seed)")
    cmd.add_argument("--workers", type=_positive_int, default=None,
                     help="worker-pool size for the process "
                          "backend (default: all cores)")
    cmd.add_argument("--health-policy",
                     choices=[p.value for p in HealthPolicy],
                     default="strict",
                     help="degradation policy: strict fails fast with "
                          "typed errors, recover runs the guardrail "
                          "recovery paths within fixed thresholds, "
                          "permissive runs the same paths under its own "
                          "name (default: strict; see docs/ROBUSTNESS.md)")
    cmd.add_argument("--report", choices=("text", "json"),
                     default=None, metavar="{text,json}",
                     help="print the aggregated health report (events, "
                          "recoveries, bias flags) and perf report "
                          "(stage spans, device-model evaluations, cache "
                          "hit rates) after the run")
    # Test/CI fault injector: deterministically force one fault class
    # (filter | is-weight | one-class, optionally :count:skip)
    # so the recovery paths are exercisable from the shell.
    cmd.add_argument("--inject-fault", default=None,
                     help=argparse.SUPPRESS)
    cmd.add_argument("--exact-eval", action="store_true",
                     help="disable the hot-path acceleration (adaptive "
                          "screening and any solve cache); results are "
                          "bit-identical either way, this is the escape "
                          "hatch / A-B reference")
    cmd.add_argument("--solve-cache", default=None, metavar="DIR",
                     help="attach a solve cache kept in this "
                          "directory; it is reloaded on the next "
                          "invocation and hits when a same-seed rerun "
                          "solves the same rows (ignored with "
                          "--exact-eval)")


def _add_checkpoint_args(cmd: argparse.ArgumentParser) -> None:
    """Crash-safety flags (subcommands with resumable runs)."""
    cmd.add_argument("--checkpoint-dir", default=None,
                     help="directory for crash-safe snapshots; "
                          "omitting it disables checkpointing")
    cmd.add_argument("--checkpoint-every", default=None, metavar="N|Ts",
                     help="snapshot cadence: a simulation count "
                          "('5000') or a duration ('30s'); default "
                          "5000 simulations")
    cmd.add_argument("--checkpoint-keep", type=_positive_int, default=3,
                     help="snapshots retained per run (default: 3)")
    cmd.add_argument("--resume", action="store_true",
                     help="resume from the newest snapshot in "
                          "--checkpoint-dir instead of starting over")
    # Test/CI crash injector: simulate a kill right after the N-th
    # durable snapshot (exit code 3), so kill/resume is scriptable.
    cmd.add_argument("--crash-after-checkpoints", type=_positive_int,
                     default=None, help=argparse.SUPPRESS)


def _checkpoint_config(args) -> CheckpointConfig | None:
    """Build the checkpoint policy from parsed CLI flags."""
    if getattr(args, "checkpoint_dir", None) is None:
        if getattr(args, "resume", False):
            raise SystemExit(
                "--resume requires --checkpoint-dir")
        return None
    every_simulations: int | None = 5000
    every_seconds: float | None = None
    if args.checkpoint_every is not None:
        try:
            every_simulations, every_seconds = parse_every(
                args.checkpoint_every)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
    return CheckpointConfig(
        directory=args.checkpoint_dir,
        every_simulations=every_simulations,
        every_seconds=every_seconds,
        keep=args.checkpoint_keep,
        resume=args.resume,
        crash_after=args.crash_after_checkpoints)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecripse",
        description="Reproduce the experiments of the ECRIPSE paper "
                    "(DATE 2015).")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("fig6", "fig7", "fig8", "ablations"):
        cmd = sub.add_parser(name, help=f"run the {name} experiment")
        _add_common_args(cmd)
        if name in ("fig7", "fig8"):
            _add_checkpoint_args(cmd)

    camp = sub.add_parser("campaign", help="run all figure experiments "
                                           "and write a markdown report")
    camp.add_argument("--out", default="results",
                      help="output directory (JSON + report.md)")
    _add_common_args(camp)
    _add_checkpoint_args(camp)

    vmin = sub.add_parser("vmin", help="minimum-supply search for a "
                                       "failure-probability budget")
    vmin.add_argument("--budget", type=float, required=True,
                      help="cell Pfail budget, e.g. 1e-3")
    vmin.add_argument("--alpha", type=float, default=None,
                      help="duty ratio; omit for RDF-only")
    vmin.add_argument("--low", type=float, default=0.45)
    vmin.add_argument("--high", type=float, default=0.8)
    vmin.add_argument("--resolution", type=float, default=0.02)
    _add_common_args(vmin)

    lint = sub.add_parser(
        "lint",
        help="run the determinism/process-safety linter (REP rules; "
             "see docs/DEVELOPMENT.md)")
    lint.add_argument("lint_args", nargs=argparse.REMAINDER,
                      help="arguments forwarded to python -m repro.lint "
                           "(default: src tests)")

    est = sub.add_parser("estimate",
                         help="one failure-probability estimation")
    est.add_argument("--vdd", type=float, default=None,
                     help="supply voltage [V] (default: 0.7)")
    est.add_argument("--alpha", type=float, default=None,
                     help="duty ratio; omit for RDF-only")
    est.add_argument("--target", type=float, default=0.05,
                     help="target relative error")
    _add_common_args(est)
    _add_checkpoint_args(est)

    arr = sub.add_parser(
        "array",
        help="array-level reliability decision: which ECC scheme and "
             "scrub period meet a FIT target at this cell pfail")
    arr.add_argument("--pfail", type=float, default=None,
                     help="cell failure probability; omit to chain a "
                          "full estimator run (then --vdd/--alpha/"
                          "--target apply)")
    arr.add_argument("--vdd", type=float, default=None,
                     help="supply voltage [V] for the chained "
                          "estimator (default: 0.7)")
    arr.add_argument("--alpha", type=float, default=None,
                     help="duty ratio for the chained estimator; omit "
                          "for RDF-only")
    arr.add_argument("--target", type=float, default=0.05,
                     help="target relative error for the chained "
                          "estimator")
    arr.add_argument("--capacity", default="128Gb",
                     help="array data capacity, e.g. 128Gb, 64Mb "
                          "(decimal units; default: 128Gb)")
    arr.add_argument("--word-bits", type=_positive_int, default=64,
                     help="data bits per ECC word (default: 64)")
    arr.add_argument("--node", default="16nm",
                     help="technology node for the soft-error "
                          "baseline (default: 16nm)")
    arr.add_argument("--environment", default="sea-level",
                     help="operating environment flux multiplier "
                          "(default: sea-level)")
    arr.add_argument("--fit-target", type=float, default=10.0,
                     help="uncorrectable-FIT budget (default: 10)")
    arr.add_argument("--scrub-hours", default=None,
                     help="comma-separated scrub periods in hours "
                          "(default: 0.25,1,4,24,168,720)")
    arr.add_argument("--schemes", default=None,
                     help="comma-separated ECC schemes to compare "
                          "(default: none,parity,secded,taec,dec)")
    arr.add_argument("--json", default=None, metavar="FILE",
                     help="write the full decision report as JSON "
                          "('-' for stdout)")
    _add_common_args(arr)
    _add_checkpoint_args(arr)
    return parser


def _array_config(args):
    """Build an ``ArrayConfig`` from parsed ``array`` flags."""
    from repro.analysis.ecc import (
        DEFAULT_SCHEMES,
        DEFAULT_SCRUB_HOURS,
        ArrayConfig,
        parse_capacity,
    )

    try:
        scrub = DEFAULT_SCRUB_HOURS if args.scrub_hours is None else \
            tuple(float(h) for h in args.scrub_hours.split(","))
        schemes = DEFAULT_SCHEMES if args.schemes is None else \
            tuple(s.strip() for s in args.schemes.split(","))
        return ArrayConfig(
            capacity_mbit=parse_capacity(args.capacity),
            data_bits=args.word_bits,
            node=args.node,
            environment=args.environment,
            fit_target=args.fit_target,
            scrub_hours=scrub,
            schemes=schemes)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _run_array(args, config: EcripseConfig,
               checkpoint: CheckpointConfig | None,
               perf: PerfConfig | None) -> tuple[int, object]:
    """The ``array`` subcommand: decision tables from a pfail."""
    from repro.analysis.ecc import analyze_array, attach_array_report

    array_config = _array_config(args)
    result: object = None
    if args.pfail is not None:
        if not 0.0 <= args.pfail <= 0.5:
            raise SystemExit(
                f"--pfail must lie in [0, 0.5], got {args.pfail}")
        report = analyze_array(array_config, args.pfail)
    else:
        setup = paper_setup(vdd=args.vdd, alpha=args.alpha, perf=perf)
        estimator = EcripseEstimator(setup.space, setup.indicator,
                                     setup.rtn_model, config=config,
                                     seed=args.seed)
        result = run_checkpointed(
            checkpoint, "array", estimator,
            target_relative_error=args.target)
        print(result.summary())
        print()
        report = attach_array_report(array_config, result)
    print(report.render_text())
    if args.json is not None:
        payload = json.dumps(report.as_dict(), indent=2,
                             sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            from pathlib import Path

            Path(args.json).write_text(payload + "\n",
                                       encoding="utf-8")
            print(f"\nJSON report written to {args.json}")
    return 0, result if result is not None else report


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        # forwarded verbatim so lint flags need no "--" escaping
        from repro.lint.cli import main as lint_main

        extra = argv[1:]
        if extra[:1] == ["--"]:
            extra = extra[1:]
        return lint_main(extra)
    if argv[:1] in (["serve"], ["submit"], ["job"], ["jobs"]):
        # the job-queue service has its own flag surface (docs/SERVICE.md)
        from repro.service.cli import main as service_main

        return service_main(argv)
    args = _build_parser().parse_args(argv)
    execution = ExecutionConfig(backend=args.backend, workers=args.workers)
    try:
        health = HealthConfig(policy=args.health_policy,
                              inject=args.inject_fault)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    config = (QUICK if args.quick else EcripseConfig()).with_(
        execution=execution, health=health)
    checkpoint = _checkpoint_config(args)
    perf = (PerfConfig.exact() if args.exact_eval
            else PerfConfig(cache_path=args.solve_cache))

    coordinator = None
    if checkpoint is not None:
        # Checkpointed runs shut down gracefully: SIGTERM/SIGINT drains
        # to the next safe boundary, force-saves a snapshot and unwinds
        # (exit 4); `--resume` then continues bit-identically.
        coordinator = default_coordinator()
        coordinator.reset()
        coordinator.install()
    try:
        code, result = _dispatch(args, config, execution, checkpoint, perf)
    except CheckpointCrash as crash:
        # The kill/resume test harness's simulated crash: the snapshot
        # it announces is durably on disk, so exit distinctly.  An
        # on-disk solve cache is saved too.
        save_registered_caches()
        print(f"injected crash: {crash}", file=sys.stderr)
        return 3
    except ShutdownRequested as stop:
        save_registered_caches()
        print(f"graceful shutdown: {stop} -- snapshot saved, resume "
              f"with --resume", file=sys.stderr)
        return 4
    finally:
        if coordinator is not None:
            coordinator.uninstall()
    save_registered_caches()
    if args.report is not None:
        _print_report(result, args.report, health.policy.value)
    return code


def _print_report(result: object, fmt: str, policy: str) -> None:
    """Print the merged health and perf reports of every run in
    ``result``: text, or one ``{"health": ..., "perf": ...}`` object."""
    reports, perfs = collect_runs(result)
    health = HealthReport.merged(reports)
    if not health.events:
        health.policy = policy
    perf = merge_perf(perfs)
    if fmt == "json":
        print(json.dumps({"health": health.as_dict(), "perf": perf},
                         indent=2))
    else:
        print(health.render_text())
        print(render_text(perf))


def _dispatch(args, config: EcripseConfig, execution: ExecutionConfig,
              checkpoint: CheckpointConfig | None,
              perf: PerfConfig | None = None) -> tuple[int, object]:
    """Run one subcommand; returns (exit code, result object).

    The result object is handed to :func:`repro.perf.collect_runs` so
    ``--report`` can aggregate every estimate the command produced.
    """
    result: object = None
    if args.command == "fig6":
        result = fig6.run_fig6(config=config, seed=args.seed,
                               target_relative_error=0.05 if args.quick
                               else 0.02, perf=perf)
        print(result.proposed.summary())
        print(result.conventional.summary())
        print()
        print(result.table())
        print()
        print("speedup:", result.report.summary())
    elif args.command == "fig7":
        result = fig7.run_fig7(
            config=config, seed=args.seed,
            naive_samples=50_000 if args.quick else 300_000,
            target_relative_error=0.10 if args.quick else 0.05,
            checkpoint=checkpoint, perf=perf)
        print(result.table())
        print(f"\nnaive/proposed ratio: {result.simulation_saving:.1f}x; "
              f"shared-init cost: {result.shared_init_saving:.2f}; "
              f"agree: {result.agreement}")
    elif args.command == "fig8":
        result = fig8.run_fig8(
            config=config, seed=args.seed,
            alphas=(0.0, 0.25, 0.5, 0.75, 1.0) if args.quick
            else fig8.DEFAULT_ALPHAS,
            target_relative_error=0.10 if args.quick else 0.05,
            checkpoint=checkpoint, perf=perf)
        print(result.table())
        print(f"\nRTN penalty {result.rtn_penalty:.1f}x; "
              f"minimum at {result.minimum_alpha}; "
              f"asymmetry {result.asymmetry():.1%}")
    elif args.command == "ablations":
        result = ablations.main(config=config, perf=perf)
    elif args.command == "campaign":
        from repro.experiments.campaign import run_campaign

        report = run_campaign(
            args.out, config=config,
            target_relative_error=0.08 if args.quick else 0.02,
            naive_samples=40_000 if args.quick else 300_000,
            seed=args.seed, checkpoint=checkpoint, perf=perf)
        print(f"report written to {report}")
    elif args.command == "vmin":
        from repro.analysis.tables import format_table
        from repro.experiments.vmin import find_vmin

        result = find_vmin(args.budget, vdd_low=args.low,
                           vdd_high=args.high, alpha=args.alpha,
                           resolution=args.resolution, config=config,
                           seed=args.seed, perf=perf)
        rows = [[f"{vdd:.3f}", f"{e.pfail:.3e}", e.n_simulations]
                for vdd, e in result.probes]
        print(format_table(["VDD [V]", "Pfail", "simulations"], rows,
                           title="Vmin search probes"))
        print(f"\nVmin = {result.vmin} V for budget {args.budget:.1e} "
              f"({result.total_simulations} simulations total)")
    elif args.command == "estimate":
        setup = paper_setup(vdd=args.vdd, alpha=args.alpha, perf=perf)
        estimator = EcripseEstimator(setup.space, setup.indicator,
                                     setup.rtn_model, config=config,
                                     seed=args.seed)
        result = run_checkpointed(
            checkpoint, "estimate", estimator,
            target_relative_error=args.target)
        print(result.summary())
        if execution.is_parallel:
            print()
            print(estimator.executor.aggregate().report())
    elif args.command == "array":
        return _run_array(args, config, checkpoint, perf)
    return 0, result


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
