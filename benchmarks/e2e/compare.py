"""Compare two sets of benchmark result files.

    python benchmarks/e2e/compare.py PARENT_DIR/ CHANGE_DIR/
    python benchmarks/e2e/compare.py --summary RESULTS_DIR/

Both directories hold files written by ``bench_e2e.py --out DIR``
(``--summary`` prints one set's seeds, digests and quartiles).  For
every workload x metric present in both sets this prints each set's
median and quartiles, the change's delta against the parent (positive
means worse), the metric's bound from ``BENCHMARK.json``, the change's
pairwise wins, and a verdict:

* **unresolved** -- either set's quartile spread exceeds the bound, and
  not every change run beats every parent run;
* **worse** -- the change's median is worse than the parent's by more
  than the bound (per-layer metrics, which have no bound: the change
  loses at least 9 of 10 pairs and the medians differ by more than the
  parent's quartile distance);
* **better** -- at least 10 pairs, the change wins at least 9 of 10 of
  them (ties count for neither side), and the medians differ by more
  than the parent's quartile distance;
* **unchanged** -- none of the above.

Counts a seed determines (:data:`EXACT`) are compared seed by seed
instead, with a bound of 0: **unchanged** when every shared seed gives
the same value, else **worse** or **better** by the sign of the change
in their mean.  The service's untraced read latencies (the result
files' ``extra_metrics``) are timings and get the bound of
``estimates_per_s``.  Each workload also reports how many shared seeds
have identical result digests.

Pairs are formed in seed order, so run both sides with the same seeds.
Exits 1 when any bounded metric is worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import harness
from service_load import READ_LATENCIES

MIN_PAIRS = 10
WIN_SHARE = 0.9
#: counts that repeat exactly for a seed
EXACT = ("sims_per_estimate", "spice.device_model_evals")


def load_runs(directory: Path) -> dict[tuple[str, bool], list[dict]]:
    """Result files grouped by ``(workload, traced)``, in seed order."""
    runs: dict[tuple[str, bool], list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text())
        data["_file"] = path.name
        runs.setdefault((data["workload"], data["trace"]), []).append(data)
    for group in runs.values():
        group.sort(key=lambda run: (run["seed"], run["_file"]))
    return runs


def metric_specs() -> dict[str, dict]:
    """``name -> {"better", "bound"}`` from ``BENCHMARK.json``."""
    config = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: {"better": m["better"], "bound": m["bound"]}
             for m in config["end_to_end"]}
    for name in READ_LATENCIES:
        specs[name] = {"better": "lower",
                       "bound": specs["estimates_per_s"]["bound"]}
    for name in EXACT:
        specs[name] = {"better": "lower", "bound": 0.0}
    for metric in config["per_layer"]:
        specs.setdefault(metric["name"], {"better": metric["better"],
                                          "bound": None})
    return specs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> tuple[str, float, str]:
    """``(verdict, worse_share, wins)`` for one workload x metric."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _c_q1, c_med, _c_q3 = quartiles(change)
    worse = sign * (c_med - p_med) / p_med if p_med else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    decisive = abs(c_med - p_med) > (p_q3 - p_q1)
    enough = len(pairs) >= MIN_PAIRS
    tally = f"{wins}/{len(pairs)}"
    if bound is not None:
        if (harness.spread(parent) > bound
                or harness.spread(change) > bound):
            beats_all = all(sign * (c - p) < 0
                            for p in parent for c in change)
            return ("better" if beats_all else "unresolved"), worse, tally
        if worse > bound:
            return "worse", worse, tally
    elif enough and losses >= WIN_SHARE * len(pairs) and decisive:
        return "worse", worse, tally
    if enough and wins >= WIN_SHARE * len(pairs) and decisive:
        return "better", worse, tally
    return "unchanged", worse, tally


def exact_verdict(parent: dict[int, float],
                  change: dict[int, float]) -> tuple[str, float, str]:
    """:func:`verdict` for a count a seed determines, on the seeds both
    sets ran (``seed -> value``)."""
    seeds = sorted(set(parent) & set(change))
    same = sum(1 for seed in seeds if parent[seed] == change[seed])
    tally = f"={same}/{len(seeds)}"
    if not seeds:
        return "unresolved", 0.0, tally
    p_mean = statistics.fmean(parent[seed] for seed in seeds)
    c_mean = statistics.fmean(change[seed] for seed in seeds)
    worse = (c_mean - p_mean) / p_mean if p_mean else 0.0
    if same == len(seeds):
        return "unchanged", worse, tally
    return ("worse" if c_mean > p_mean else "better"), worse, tally


def metric_of(run: dict, name: str) -> float | None:
    entry = run["metrics"].get(name) or run.get("extra_metrics", {}).get(name)
    return None if entry is None else entry["value"]


def values(runs: list[dict], name: str) -> list[float]:
    return [v for v in (metric_of(run, name) for run in runs)
            if v is not None]


def by_seed(runs: list[dict], name: str) -> dict[int, float]:
    return {run["seed"]: v for run in runs
            if (v := metric_of(run, name)) is not None}


def summary(directory: Path) -> dict:
    """Seeds, digests, host and per-metric quartiles of one set of
    result files, per workload (the format of ``baseline.json``)."""
    out = {}
    for (workload, traced), runs in sorted(load_runs(directory).items()):
        metrics = {}
        for name, entry in {**runs[0]["metrics"],
                            **runs[0].get("extra_metrics", {})}.items():
            q1, median, q3 = quartiles(values(runs, name))
            metrics[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": harness.spread(values(runs, name)),
                             "n": len(values(runs, name)),
                             "unit": entry["unit"]}
        out[workload + (" (traced)" if traced else "")] = {
            "seeds": [run["seed"] for run in runs],
            "digests": [run["digest"] for run in runs],
            "host": runs[0]["host"], "metrics": metrics}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--summary", type=Path, metavar="DIR",
                        help="print one set's quartiles as JSON (the "
                             "baseline.json format) instead")
    args = parser.parse_args(argv)
    if args.summary is not None:
        print(json.dumps(summary(args.summary), indent=1))
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE directories are required")
    specs = metric_specs()
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    print(f"{'workload':14s} {'metric':32s} {'parent median [q1, q3] n':>34s}"
          f" {'change median [q1, q3] n':>34s} {'worse':>8s} {'bound':>6s}"
          f" {'wins':>6s}  verdict")
    regressions = 0
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, traced = key
        label = workload + (" (traced)" if traced else "")
        parent_digests = {run["seed"]: run["digest"]
                          for run in parent_runs[key]}
        change_digests = {run["seed"]: run["digest"]
                          for run in change_runs[key]}
        shared = set(parent_digests) & set(change_digests)
        same = sum(1 for seed in shared
                   if parent_digests[seed] == change_digests[seed])
        print(f"{label:14s} {'digest':32s} identical on {same}/"
              f"{len(shared)} shared seeds")
        for name, spec in specs.items():
            parent = values(parent_runs[key], name)
            change = values(change_runs[key], name)
            if not parent or not change:
                continue
            if name in EXACT:
                outcome, worse, tally = exact_verdict(
                    by_seed(parent_runs[key], name),
                    by_seed(change_runs[key], name))
            else:
                outcome, worse, tally = verdict(parent, change,
                                                spec["better"], spec["bound"])
            if outcome == "worse" and spec["bound"] is not None:
                regressions += 1
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            bound = "-" if spec["bound"] is None else f"{spec['bound']:.2f}"
            print(f"{label:14s} {name:32s} "
                  f"{p_med:11.5g} [{p_q1:.4g}, {p_q3:.4g}] {len(parent):2d} "
                  f"{c_med:11.5g} [{c_q1:.4g}, {c_q3:.4g}] {len(change):2d} "
                  f"{worse:+8.1%} {bound:>6s} {tally:>6s}  {outcome}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
