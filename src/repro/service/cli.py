"""Command-line surface of the job service.

Forwarded from the main ``ecripse`` entry point::

    ecripse serve --root state/               # run the daemon
    ecripse submit --vdd 0.6 --alpha 0.5      # submit one job
    ecripse submit --quick --wait             # submit and block
    ecripse jobs                              # list all jobs
    ecripse job job-000001                    # one record
    ecripse job job-000001 --events --follow  # live progress feed
    ecripse job job-000001 --result           # the finished estimate
    ecripse job job-000001 --cancel           # request cancellation

``submit``/``job``/``jobs`` talk to a running daemon over HTTP
(``--url``, default ``http://127.0.0.1:8765``) and print the server's
JSON, so the output is pipeable into ``jq`` and friends.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ServiceError
from repro.health.policy import HealthPolicy
from repro.service.client import ServiceClient
from repro.service.scheduler import QuotaPolicy

DEFAULT_URL = "http://127.0.0.1:8765"


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecripse service",
        description="Durable job-queue service for ECRIPSE estimations "
                    "(see docs/SERVICE.md).")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the job-service daemon")
    serve.add_argument("--root", required=True,
                       help="state directory (jobs, results, "
                            "checkpoints); safe to reuse across "
                            "restarts -- unfinished jobs resume")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port; 0 picks a free one (printed on "
                            "the readiness line)")
    serve.add_argument("--workers", type=_positive_int, default=2,
                       help="concurrent job slots (default: 2)")
    serve.add_argument("--backend", default="serial",
                       help="runtime backend each job executes under "
                            "(results are backend-invariant)")
    serve.add_argument("--backend-workers", type=_positive_int,
                       default=None,
                       help="pool size for thread/process backends")
    serve.add_argument("--checkpoint-keep", type=_positive_int,
                       default=3,
                       help="snapshots retained per job (default: 3)")
    serve.add_argument("--solve-cache", default=None, metavar="DIR",
                       help="shared on-disk solve-cache directory "
                            "(lock-guarded across jobs)")
    serve.add_argument("--quota-default", type=_positive_int,
                       default=QuotaPolicy.default_simulations,
                       help="simulation budget for jobs that do not "
                            "request one")
    serve.add_argument("--quota-max", type=_positive_int,
                       default=QuotaPolicy.max_simulations,
                       help="hard per-job simulation ceiling (larger "
                            "requests are clamped)")
    serve.add_argument("--lease", type=float, default=60.0,
                       metavar="SECONDS", dest="lease_s",
                       help="worker lease on a running job; the "
                            "watchdog re-queues jobs whose lease "
                            "expired (default: 60)")
    serve.add_argument("--watchdog-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="lease sweep cadence (default: lease/4)")
    serve.add_argument("--max-attempts", type=_positive_int, default=3,
                       help="attempt budget before a repeatedly "
                            "failing job is dead-lettered "
                            "(default: 3)")
    # test/CI only: deterministic filesystem fault schedule, e.g.
    # 'rename:3:fail' (see docs/ROBUSTNESS.md, service chaos)
    serve.add_argument("--inject-fs", default=None,
                       help=argparse.SUPPRESS)

    submit = sub.add_parser("submit", help="submit one estimation job")
    submit.add_argument("--url", default=DEFAULT_URL)
    submit.add_argument("--kind", choices=("estimate", "naive", "array"),
                        default="estimate")
    submit.add_argument("--vdd", type=float, default=None)
    submit.add_argument("--alpha", type=float, default=None)
    submit.add_argument("--seed", type=int, default=2015)
    submit.add_argument("--target", type=float, default=0.05,
                        help="target relative error")
    submit.add_argument("--max-simulations", type=_positive_int,
                        default=None)
    submit.add_argument("--n-samples", type=_positive_int,
                        default=100_000, help="naive-MC sample budget")
    submit.add_argument("--quick", action="store_true")
    submit.add_argument("--grid-points", type=_positive_int, default=61)
    submit.add_argument("--health-policy", default="strict",
                        choices=[p.value for p in HealthPolicy])
    submit.add_argument("--pfail", type=float, default=None,
                        help="array jobs: direct cell pfail (omit to "
                             "chain a full estimator run)")
    submit.add_argument("--capacity", default=None,
                        help="array jobs: data capacity, e.g. 128Gb")
    submit.add_argument("--word-bits", type=_positive_int, default=None,
                        help="array jobs: data bits per ECC word")
    submit.add_argument("--node", default=None,
                        help="array jobs: technology node (e.g. 16nm)")
    submit.add_argument("--environment", default=None,
                        help="array jobs: operating environment")
    submit.add_argument("--fit-target", type=float, default=None,
                        help="array jobs: uncorrectable-FIT budget")
    submit.add_argument("--scrub-hours", default=None,
                        help="array jobs: comma-separated scrub "
                             "periods in hours")
    submit.add_argument("--schemes", default=None,
                        help="array jobs: comma-separated ECC schemes")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--checkpoint-every", type=_positive_int,
                        default=1000)
    submit.add_argument("--max-attempts", type=_positive_int,
                        default=None,
                        help="per-job attempt budget before "
                             "dead-lettering (default: the daemon's)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job is terminal and "
                             "print its final record")
    submit.add_argument("--follow", action="store_true",
                        help="stream the event feed while waiting")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait timeout in seconds")

    jobs = sub.add_parser("jobs", help="list all jobs")
    jobs.add_argument("--url", default=DEFAULT_URL)
    jobs.add_argument("--table", action="store_true",
                      help="render an aligned summary table (id, "
                           "state, attempts, pfail, error) instead "
                           "of JSON")

    job = sub.add_parser("job", help="inspect or act on one job")
    job.add_argument("id")
    job.add_argument("--url", default=DEFAULT_URL)
    action = job.add_mutually_exclusive_group()
    action.add_argument("--result", action="store_true",
                        help="print the finished estimate")
    action.add_argument("--events", action="store_true",
                        help="print the event feed")
    action.add_argument("--cancel", action="store_true",
                        help="request cancellation")
    action.add_argument("--requeue", action="store_true",
                        help="revive a dead-lettered job (resets its "
                             "attempt budget)")
    job.add_argument("--since", type=int, default=0,
                     help="--events: skip the first N events")
    job.add_argument("--follow", action="store_true",
                     help="--events: stream until the job is terminal")
    return parser


def _spec_from_args(args: argparse.Namespace) -> dict:
    spec = {"kind": args.kind, "seed": args.seed,
            "target_relative_error": args.target,
            "n_samples": args.n_samples, "quick": args.quick,
            "grid_points": args.grid_points,
            "health_policy": args.health_policy,
            "priority": args.priority,
            "checkpoint_every": args.checkpoint_every}
    if args.vdd is not None:
        spec["vdd"] = args.vdd
    if args.alpha is not None:
        spec["alpha"] = args.alpha
    if args.max_simulations is not None:
        spec["max_simulations"] = args.max_simulations
    if args.max_attempts is not None:
        spec["max_attempts"] = args.max_attempts
    if args.kind == "array":
        from repro.analysis.ecc import ArrayConfig, parse_capacity

        overrides: dict = {}
        if args.capacity is not None:
            overrides["capacity_mbit"] = parse_capacity(args.capacity)
        if args.word_bits is not None:
            overrides["data_bits"] = args.word_bits
        if args.node is not None:
            overrides["node"] = args.node
        if args.environment is not None:
            overrides["environment"] = args.environment
        if args.fit_target is not None:
            overrides["fit_target"] = args.fit_target
        if args.scrub_hours is not None:
            overrides["scrub_hours"] = tuple(
                float(h) for h in args.scrub_hours.split(","))
        if args.schemes is not None:
            overrides["schemes"] = tuple(
                s.strip() for s in args.schemes.split(","))
        spec["array"] = ArrayConfig(**overrides).as_dict()
        if args.pfail is not None:
            spec["pfail"] = args.pfail
    return spec


def _emit(payload: object) -> None:
    print(json.dumps(payload, indent=1, sort_keys=True))


def _jobs_table(records: list[dict]) -> str:
    """Aligned operator summary of ``ecripse jobs`` output."""
    headers = ("ID", "STATE", "ATTEMPTS", "PFAIL", "ERROR")
    rows = [headers]
    for record in records:
        pfail = record.get("pfail")
        error = record.get("error") or ""
        if len(error) > 40:
            error = error[:37] + "..."
        rows.append((
            str(record.get("id", "?")),
            str(record.get("state", "?")),
            str(record.get("attempts", 0)),
            f"{pfail:.3e}" if pfail is not None else "-",
            error or "-"))
    widths = [max(len(row[col]) for row in rows)
              for col in range(len(headers))]
    lines = ["  ".join(cell.ljust(width)
                       for cell, width in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "serve":
            from repro.chaos.config import ChaosConfig
            from repro.service.scheduler import QuotaPolicy as Quota
            from repro.service.server import ServeConfig, ServiceDaemon

            config = ServeConfig(
                root=args.root, host=args.host, port=args.port,
                workers=args.workers, backend=args.backend,
                backend_workers=args.backend_workers,
                quota=Quota(default_simulations=args.quota_default,
                            max_simulations=args.quota_max),
                checkpoint_keep=args.checkpoint_keep,
                solve_cache=args.solve_cache,
                chaos=ChaosConfig(
                    inject_fs=args.inject_fs,
                    lease_s=args.lease_s,
                    watchdog_interval_s=args.watchdog_interval,
                    max_attempts=args.max_attempts))
            return ServiceDaemon(config).run()

        client = ServiceClient(args.url)
        if args.command == "submit":
            record = client.submit(_spec_from_args(args))
            _emit(record)
            if args.follow:
                for event in client.stream_events(record["id"]):
                    _emit(event)
            if args.wait or args.follow:
                final = client.wait(record["id"], timeout_s=args.timeout)
                _emit(final)
                return 0 if final["state"] == "done" else 1
            return 0
        if args.command == "jobs":
            records = client.jobs()
            if args.table:
                print(_jobs_table(records))
            else:
                _emit(records)
            return 0
        if args.command == "job":
            if args.cancel:
                _emit(client.cancel(args.id))
            elif args.requeue:
                _emit(client.requeue(args.id))
            elif args.result:
                _emit(client.result(args.id))
            elif args.events:
                if args.follow:
                    for event in client.stream_events(args.id,
                                                      since=args.since):
                        _emit(event)
                else:
                    _emit(client.events(args.id, since=args.since))
            else:
                _emit(client.job(args.id))
            return 0
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
