"""End-to-end benchmark of the ECRIPSE estimator and its job service.

    PYTHONPATH=src python benchmarks/e2e/bench_e2e.py \\
        [--workload NAME ...] [--seed N] [--seconds S] [--trace [0|1]] \\
        [--out DIR]

Each workload runs in a fresh subprocess: set up, measure for
``--seconds``, check every output.  Set-up is timed
from the subprocess start to the first timed operation, three times per
untraced run (two set-up-only subprocesses plus the measured one), and
reported as the median.  Peak memory is sampled over the measured
subprocess's whole process tree.

Untraced runs print the end-to-end metrics; ``--trace`` runs print the
per-layer metrics instead (see README.md).  Every metric prints by name
with its unit; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every check passed, and 2 without a result when the
checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness
import layers

#: end-to-end metrics: (name, unit); see README.md for each workload's
#: reading of them
END_TO_END = (("setup_s", "s"), ("estimates_per_s", "1/s"),
              ("sims_per_estimate", "count"), ("peak_rss_mb", "MB"))
SETUP_REPEATS = 3
#: wall-clock budget of one workload, set-up repeats included [s]
TIME_LIMIT_S = 170.0
WORKLOAD_NAMES = ("estimate-rtn", "naive-mc", "service-mixed")


def make_workload(name: str):
    """The workload object for ``name`` (imports its module lazily)."""
    if name == "service-mixed":
        from service_load import ServiceWorkload

        return ServiceWorkload(rate_per_s=4.0, count_ops=12)
    from workloads import EstimateWorkload, NaiveWorkload

    if name == "estimate-rtn":
        return EstimateWorkload(name, 0.5, "rtn-0.5",
                                statistical_samples=18_000, count_ops=8)
    if name == "naive-mc":
        return NaiveWorkload(samples=10_000, workers=2, count_ops=6)
    raise ValueError(f"unknown workload {name!r}")


def default_seconds() -> float:
    config = harness.ROOT / "BENCHMARK.json"
    try:
        return float(json.loads(config.read_text())["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 30.0


# ---------------------------------------------------------------------
# workload subprocess
# ---------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    workload = make_workload(args.child)
    try:
        workload.setup(args.seed, bool(args.trace))
        result: dict = {"setup_s": time.monotonic() - args.spawned_at}
        if args.phase == "run":
            outcome = workload.measure(args.seconds)
            result.update(vars(outcome))
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


def run_child(name: str, seed: int, seconds: float, trace: bool,
              phase: str, deadline: float) -> dict:
    """One workload subprocess; returns its result plus the tree's peak
    resident memory.  Past ``deadline`` (monotonic) the subprocess and
    everything it started are killed.  Its temporary files live in a
    directory next to this file, removed when it ends."""
    tmp_dir = Path(tempfile.mkdtemp(prefix=".tmp-", dir=harness.HERE))
    spawned_at = time.monotonic()
    command = [sys.executable, str(Path(__file__).resolve()),
               "--child", name, "--phase", phase, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(int(trace)),
               "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                env=harness.child_env(tmp_dir),
                                start_new_session=True)
        with harness.TreeRssSampler(proc.pid) as rss:
            try:
                out, _ = proc.communicate(timeout=max(1.0, deadline
                                                      - time.monotonic()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise RuntimeError(f"{name} {phase} subprocess timed out")
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} {phase} subprocess exited "
                           f"{proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["peak_rss_mb"] = rss.peak_mib
    return result


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Measure one workload; returns the result object (``correct``,
    ``attempted``, ``failed``, ``metrics``) plus ``extra_metrics`` (what
    an untraced run measures beyond the end-to-end metrics: the
    service's read latencies), ``digest``, ``errors`` and ``detail``."""
    deadline = time.monotonic() + TIME_LIMIT_S
    repeats = 1 if trace else SETUP_REPEATS
    setups = [
        run_child(name, seed, seconds, trace, "setup", deadline)["setup_s"]
        for _ in range(repeats - 1)]
    main = run_child(name, seed, seconds, trace, "run", deadline)
    units = layers.UNITS if trace else dict(END_TO_END)
    if not trace:
        setups.append(main["setup_s"])
        main["metrics"].update(setup_s=statistics.median(setups),
                               peak_rss_mb=main["peak_rss_mb"])
    errors = list(main["errors"])
    metrics = {}
    for metric, unit in units.items():
        value = main["metrics"].get(metric)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: metric {metric} missing ({value!r})")
            continue
        metrics[metric] = {"value": value, "unit": unit}
    extra = {metric: {"value": value, "unit": layers.UNITS[metric]}
             for metric, value in main["metrics"].items()
             if metric not in units}
    return {"correct": not errors, "attempted": max(1, main["attempted"]),
            "failed": main["failed"] + (len(errors) - len(main["errors"])),
            "metrics": metrics, "extra_metrics": extra,
            "digest": main["digest"], "errors": errors,
            "detail": main["detail"]}


def result_line(result: dict) -> str:
    return json.dumps({key: result[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def print_result(name: str, result: dict) -> None:
    for metric, entry in {**result["metrics"],
                          **result["extra_metrics"]}.items():
        print(f"{name:14s} {metric:34s} {entry['value']:14.6g} "
              f"{entry['unit']}")
    print(f"{name:14s} {'digest':34s} {result['digest']:>14s}")
    for key, value in result["detail"].items():
        print(f"{name:14s} {'(detail) ' + key:34s} {value}")
    for error in result["errors"]:
        print(f"{name}: FAILED {error}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="+", choices=WORKLOAD_NAMES,
                        default=list(WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to write one result file per "
                             "workload into (for compare.py)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--phase", choices=("setup", "run"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        harness.use_repo_sources()
    except harness.SourcesMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    seconds = args.seconds if args.seconds is not None else default_seconds()
    results = {}
    for name in args.workload:
        try:
            result = run_workload(name, args.seed, seconds, bool(args.trace))
        except (RuntimeError, ValueError, OSError) as exc:
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}, "extra_metrics": {}, "digest": "",
                      "errors": [str(exc)], "detail": {}}
        results[name] = result
        print_result(name, result)
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            stamp = time.strftime("%Y%m%dT%H%M%S")
            path = args.out / (f"{name}-seed{args.seed}-trace"
                               f"{int(args.trace)}-{stamp}.json")
            path.write_text(json.dumps(dict(
                result, workload=name, seed=args.seed,
                trace=bool(args.trace), seconds=seconds,
                host=harness.host_info()), indent=1) + "\n")
        if len(args.workload) > 1:
            print(result_line(result))
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": entry
                             for name, r in results.items()
                             for metric, entry in r["metrics"].items()}}
    print(result_line(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
