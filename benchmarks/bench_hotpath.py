"""Benchmark the repro.perf hot-path acceleration (PR 5 acceptance gate).

Runs the Fig. 8 duty-ratio sweep twice -- once labelling through the
exact ``CellEvaluator.failure_labels``, once on the program's 8 -> 12
-> 20 -> 40 screening ladder -- and asserts the acceptance criteria:

* every estimate (pfail, CI, simulation count, trace) is bit-identical
  between the two sweeps;
* the accelerated sweep performs >= 2x fewer device-model evaluations;
* a warm on-disk cache (``--solve-cache``) replays the same-seed sweep
  with > 50% hit rate, still bit-identical;
* the process backend and a kill+resume cycle reproduce the serial
  result exactly.

Also micro-benchmarks the butterfly solver's in-place bisection against
an inline reimplementation of the old ``np.where`` formulation (the
before/after note for the PR) and asserts bit-identity there too.

The batched-core gate A/Bs the fused ``(2B, G)`` bisection of
``solve`` against the two per-side ``solve_side`` solves on raw
batches, and passes when the fused solve is >= 1.5x faster on median
wall time OR the sweep-level eval reduction holds >= 2x -- outputs
bit-identical in every case.

The row-tile gate labels a 5,000-row prior block and a near-boundary
block with ``AdaptiveMarginEvaluator`` at the former 4,096-row stride
and at the default tile, and passes when labels and device-model
evaluations are equal; both walls and their ratio are recorded, with
the rows each rung of the screening ladder labelled.

The window gate labels a 5,000-row prior block (``cell``) and an
RTN-shifted one (``lobe0``, alpha 0.5) with ``AdaptiveMarginEvaluator``
and passes when its labels equal ``CellEvaluator``'s and each block
costs at most a tenth of the 8-step floor, 0.1 x 976 device-model
evaluations per row (the window and the first rung start from
predicted brackets); it records the evaluations per row, the rows
the window's linearised-margin gate admits, the rows the window
pre-rung passed, and the share of 8-step elements settled at the
bracket check, on a re-guess and by bisection.

The start-up record runs fresh interpreters and reports ``import
repro``'s wall time and VmRSS, and the deferred scipy.optimize import
the first SVM fit pays; it also times ``analyze_array``.  It passes when
no interpreter has a scipy module loaded after ``import repro``.

Repeated timings are reported as the median (``*_median_s``) with the
lower and upper quartiles (``*_iqr_s``) of their repeats.

Numbers land in root-level ``BENCH_hotpath.json``: the ``latest`` block
plus an appended ``runs`` trajectory.  ``--quick`` shrinks budgets for
CI; set ``ECRIPSE_BENCH_FULL=1`` semantics via no flag for the paper
scale.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

import repro
from repro.analysis.ecc import ArrayConfig, analyze_array
from repro.checkpoint import CheckpointConfig, run_checkpointed
from repro.core.boundary import find_failure_boundary
from repro.core.ecripse import EcripseConfig, EcripseEstimator
from repro.core.indicator import CountingIndicator
from repro.errors import CheckpointCrash
from repro.experiments.fig8 import run_fig8
from repro.experiments.setup import paper_setup
from repro.perf import PerfConfig, save_registered_caches
import repro.perf as perf_pkg
from repro.perf.adaptive import LADDER, AdaptiveMarginEvaluator
from repro.perf.report import collect_runs, merge_perf
from repro.runtime import BACKENDS, ExecutionConfig
from repro.sram.butterfly import ReadButterflySolver
from repro.sram.cell import SramCell
from repro.sram.evaluator import CellEvaluator

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_hotpath.json"

QUICK = {
    "alphas": (0.0, 0.5, 1.0),
    "target": 0.5,
    "config": EcripseConfig(n_particles=40, n_iterations=3, k_train=64,
                            stage2_batch=400, min_stage2_batches=2,
                            max_statistical_samples=4000),
}
FULL = {
    "alphas": (0.0, 0.3, 0.5, 0.7, 1.0),
    "target": 0.10,
    "config": EcripseConfig(n_particles=60, n_iterations=8, k_train=160,
                            stage2_batch=1500,
                            max_statistical_samples=400_000),
}
SEED = 2015

#: one fresh interpreter's start-up: ``import repro`` (wall, VmRSS and
#: the scipy modules it loaded), then two SVM fits -- the first one
#: also imports scipy.optimize and pins its OpenBLAS
STARTUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import repro
import_s = time.perf_counter() - t0
rss_kb = next(int(line.split()[1]) for line in open("/proc/self/status")
              if line.startswith("VmRSS:"))
scipy = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
import numpy as np
from repro.ml.svm import LinearSvm
x = np.random.default_rng(0).standard_normal((40, 3))
y = np.where(x[:, 0] > 0.0, 1.0, -1.0)
fits = []
for _ in range(2):
    t0 = time.perf_counter()
    LinearSvm().fit(x, y)
    fits.append(time.perf_counter() - t0)
print(json.dumps({"import_s": import_s, "rss_mb": rss_kb / 1024,
                  "scipy": scipy, "deferred_s": fits[0] - fits[1]}))
"""


# ----------------------------------------------------------------------
def same_estimate(a, b) -> bool:
    return (a.pfail == b.pfail and a.ci_halfwidth == b.ci_halfwidth
            and a.n_simulations == b.n_simulations
            and len(a.trace) == len(b.trace)
            and all(pa.estimate == pb.estimate
                    and pa.n_simulations == pb.n_simulations
                    for pa, pb in zip(a.trace, b.trace)))


def same_fig8(a, b) -> bool:
    return (same_estimate(a.no_rtn, b.no_rtn)
            and a.sweep.alphas == b.sweep.alphas
            and all(same_estimate(ea, eb) for ea, eb
                    in zip(a.sweep.estimates, b.sweep.estimates)))


def quartiles(walls: list[float]) -> tuple[float, list[float]]:
    """Median and ``[lower, upper]`` quartiles of repeated walls [s]."""
    q1, median, q3 = np.percentile(walls, [25, 50, 75])
    return float(median), [float(q1), float(q3)]


def timed(fn, repeats: int):
    """``fn()``'s last output with the median and quartiles of its
    wall time over ``repeats`` calls."""
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        walls.append(time.perf_counter() - t0)
    return (out, *quartiles(walls))


def sweep_once(scale, perf, checkpoint=None):
    t0 = time.perf_counter()
    result = run_fig8(alphas=scale["alphas"],
                      target_relative_error=scale["target"],
                      config=scale["config"], seed=SEED,
                      checkpoint=checkpoint, perf=perf)
    wall = time.perf_counter() - t0
    return result, merge_perf(collect_runs(result)[1]), wall


# ----------------------------------------------------------------------
def bench_sweep(scale) -> dict:
    """Exact vs accelerated Fig. 8 sweep: identity + >=2x eval saving."""
    print("== Fig. 8 sweep: exact vs accelerated ==")
    # the program builds only the ladder evaluator; for this one sweep
    # it labels through the exact base-class path instead
    with mock.patch.object(AdaptiveMarginEvaluator, "failure_labels",
                           CellEvaluator.failure_labels):
        exact, exact_perf, exact_wall = sweep_once(scale, PerfConfig())
    fast, fast_perf, fast_wall = sweep_once(scale, PerfConfig())

    assert same_fig8(exact, fast), \
        "accelerated sweep is not bit-identical to the exact sweep"
    ratio = exact_perf["device_model_evals"] / fast_perf["device_model_evals"]
    print(f"  exact: {exact_perf['device_model_evals']:>12,} device evals  "
          f"{exact_wall:6.1f} s")
    print(f"  fast:  {fast_perf['device_model_evals']:>12,} device evals  "
          f"{fast_wall:6.1f} s")
    print(f"  eval reduction {ratio:.2f}x, screened fraction "
          f"{fast_perf['screened_fraction']:.1%}")
    assert ratio >= 2.0, f"device-model eval reduction {ratio:.2f}x < 2x"
    return {
        "exact_device_model_evals": exact_perf["device_model_evals"],
        "fast_device_model_evals": fast_perf["device_model_evals"],
        "eval_reduction": ratio,
        "exact_wall_s": exact_wall,
        "fast_wall_s": fast_wall,
        "screened_fraction": fast_perf["screened_fraction"],
        "cache_hit_rate": fast_perf["cache_hit_rate"],
    }


def bench_warm_cache(scale) -> dict:
    """Replay the sweep against a persisted cache: >50% hits, identical."""
    print("== warm on-disk cache replay ==")
    with tempfile.TemporaryDirectory() as cache_dir:
        perf = PerfConfig(cache_path=cache_dir)
        cold, cold_perf, cold_wall = sweep_once(scale, perf)
        save_registered_caches()
        # drop the in-process registry so the second sweep must reload
        # the cache from disk, as a fresh process would
        perf_pkg._REGISTERED_CACHES.clear()
        warm, warm_perf, warm_wall = sweep_once(scale, perf)

    assert same_fig8(cold, warm), "warm-cache sweep diverged"
    hit_rate = warm_perf["cache_hit_rate"]
    print(f"  cold: {cold_perf['device_model_evals']:>12,} device evals  "
          f"{cold_wall:6.1f} s")
    print(f"  warm: {warm_perf['device_model_evals']:>12,} device evals  "
          f"{warm_wall:6.1f} s  hit rate {hit_rate:.1%}")
    assert hit_rate > 0.5, f"warm hit rate {hit_rate:.1%} <= 50%"
    return {
        "cold_device_model_evals": cold_perf["device_model_evals"],
        "warm_device_model_evals": warm_perf["device_model_evals"],
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "warm_hit_rate": hit_rate,
    }


def bench_backends(scale) -> dict:
    """Accelerated single-point runs must agree across backends."""
    print("== backend bit-identity (accelerated) ==")
    rows = {}
    results = {}
    for backend in BACKENDS:
        setup = paper_setup(alpha=0.3, perf=PerfConfig())
        config = scale["config"].with_(execution=ExecutionConfig(
            backend=backend, workers=2))
        estimator = EcripseEstimator(setup.space, setup.indicator,
                                     setup.rtn_model, config=config,
                                     seed=SEED)
        t0 = time.perf_counter()
        results[backend] = estimator.run(
            target_relative_error=scale["target"])
        rows[backend] = {
            "wall_time_s": time.perf_counter() - t0,
            "pfail": results[backend].pfail,
            "device_model_evals":
                results[backend].metadata["perf"]["device_model_evals"],
        }
        print(f"  {backend:8s} pfail {results[backend].pfail:.4e}  "
              f"{rows[backend]['wall_time_s']:6.1f} s")
    assert same_estimate(results["serial"], results["process"])
    return rows


def bench_resume(scale) -> dict:
    """Kill mid-run and resume: bit-identical to the uninterrupted run."""
    print("== kill + resume ==")

    def estimator_for(setup):
        return EcripseEstimator(setup.space, setup.indicator,
                                setup.rtn_model, config=scale["config"],
                                seed=SEED)

    baseline = estimator_for(paper_setup(alpha=0.3, perf=PerfConfig())).run(
        target_relative_error=scale["target"])

    with tempfile.TemporaryDirectory() as ckpt_dir:
        crashing = CheckpointConfig(directory=ckpt_dir,
                                    every_simulations=400, crash_after=2)
        crashed = False
        try:
            run_checkpointed(crashing, "run",
                             estimator_for(paper_setup(alpha=0.3,
                                                       perf=PerfConfig())),
                             crash_budget=[2],
                             target_relative_error=scale["target"])
        except CheckpointCrash:
            crashed = True
        assert crashed, "crash_after=2 did not fire"

        setup = paper_setup(alpha=0.3, perf=PerfConfig())
        estimator = estimator_for(setup)
        resuming = CheckpointConfig(directory=ckpt_dir,
                                    every_simulations=400, resume=True)
        manager = resuming.manager("run")
        manager.restore_into(estimator)
        resumed = estimator.run(checkpoint=manager,
                                target_relative_error=scale["target"])

    assert same_estimate(baseline, resumed), "resumed run diverged"
    print(f"  resumed pfail {resumed.pfail:.4e} == baseline")
    return {"pfail": resumed.pfail}


def bench_butterfly(quick: bool) -> dict:
    """Before/after note for the in-place bisection micro-cleanup."""
    print("== butterfly solver: np.where loop vs in-place buffers ==")
    solver = ReadButterflySolver(SramCell(), grid_points=61)
    rng = np.random.default_rng(SEED)
    delta_vth = rng.normal(scale=0.05, size=(200 if quick else 2000, 6))
    repeats = 5 if quick else 10

    def legacy_solve_side(side):
        # the pre-PR formulation: fresh np.where allocations per step
        load, driver, access = (solver.cell.model(n)
                                for n in solver._side_names[side])
        idx = solver._sides[side]
        dv = [delta_vth[:, i, None] for i in idx]
        vdd = solver.vdd
        vin = solver.grid[None, :]
        lo = np.zeros((delta_vth.shape[0], solver.grid.size))
        hi = np.full((delta_vth.shape[0], solver.grid.size), vdd)
        for _ in range(solver.bisection_iterations):
            mid = 0.5 * (lo + hi)
            # net current into the node: load, driver, access
            f = (-load.ids(vin, mid, vdd, dv[0])
                 + -driver.ids(vin, mid, 0.0, dv[1])
                 + access.ids(vdd, vdd, mid, dv[2]))
            above = f > 0.0
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        return 0.5 * (lo + hi)

    legacy_out, legacy_s, legacy_iqr = timed(
        lambda: legacy_solve_side(0), repeats)
    current_out, current_s, current_iqr = timed(
        lambda: solver._solve_side(0, delta_vth), repeats)
    assert np.array_equal(legacy_out, current_out), \
        "in-place bisection is not bit-identical to the np.where loop"
    speedup = legacy_s / current_s
    print(f"  legacy  {legacy_s * 1e3:7.1f} ms")
    print(f"  current {current_s * 1e3:7.1f} ms  ({speedup:.2f}x)")
    return {"legacy_median_s": legacy_s, "legacy_iqr_s": legacy_iqr,
            "current_median_s": current_s, "current_iqr_s": current_iqr,
            "speedup": speedup,
            "note": "in-place buffer reuse vs per-step np.where; "
                    "outputs bit-identical"}


def bench_batched(quick: bool, sweep: dict) -> dict:
    """Gate: fused (2B, G) bisection vs the two per-side solves.

    Fusion halves the fixed per-step cost (one Python-level bisection
    loop instead of two), so its wall win lives where that cost
    dominates: the single-sample solves of the adaptive refinement
    path.  Large batches are array-bound and roughly wall-neutral --
    they are still checked for bit-identity and their ratio reported.
    """
    print("== batched solver: fused (2B, G) vs per-side ==")
    solver = ReadButterflySolver(SramCell(), grid_points=101)
    rng = np.random.default_rng(SEED)

    def fused(shifts):
        curves = solver.solve(shifts)
        return curves.vtc_a, curves.vtc_b

    def per_side(shifts):
        return solver.solve_side(0, shifts), solver.solve_side(1, shifts)

    # the hot-path shape: one sample per solve (adaptive refinement)
    single = rng.normal(scale=0.05, size=(1, 6))
    _, side_1_s, side_1_iqr = timed(lambda: per_side(single),
                                    20 if quick else 50)
    _, fused_1_s, fused_1_iqr = timed(lambda: fused(single),
                                      20 if quick else 50)
    raw_speedup = side_1_s / fused_1_s

    delta_vth = rng.normal(scale=0.05, size=(512 if quick else 2048, 6))
    side_curves, side_s, side_iqr = timed(lambda: per_side(delta_vth),
                                          5)
    fused_curves, fused_s, fused_iqr = timed(lambda: fused(delta_vth), 5)
    assert all(np.array_equal(side, fuse)
               for side, fuse in zip(side_curves, fused_curves)), \
        "fused solve is not bit-identical to the per-side solve"
    print(f"  single sample: per-side {side_1_s * 1e3:6.2f} ms  "
          f"fused {fused_1_s * 1e3:6.2f} ms  ({raw_speedup:.2f}x)")
    print(f"  batch {delta_vth.shape[0]}: per-side {side_s * 1e3:7.1f} ms  "
          f"fused {fused_s * 1e3:7.1f} ms  ({side_s / fused_s:.2f}x)")

    assert raw_speedup >= 1.5 or sweep["eval_reduction"] >= 2.0, (
        f"batched gate failed: fused speedup {raw_speedup:.2f}x < 1.5x "
        f"and sweep eval reduction {sweep['eval_reduction']:.2f}x < 2x")
    return {"single_per_side_median_s": side_1_s,
            "single_per_side_iqr_s": side_1_iqr,
            "single_fused_median_s": fused_1_s,
            "single_fused_iqr_s": fused_1_iqr,
            "single_speedup": raw_speedup,
            "batch_per_side_median_s": side_s,
            "batch_per_side_iqr_s": side_iqr,
            "batch_fused_median_s": fused_s,
            "batch_fused_iqr_s": fused_iqr,
            "batch_speedup": side_s / fused_s,
            "sweep_eval_reduction": sweep["eval_reduction"],
            "note": "fused (2B, G) solve vs solve_side(0) + "
                    "solve_side(1); outputs bit-identical"}


def bench_tiles(quick: bool) -> dict:
    """Gate: the evaluator's row tile changes no label and no work.

    Labels one 5,000-row prior block and one near-boundary block (rows
    jittered 1 % radially about boundary points, so rows climb the
    screening ladder in every tile) at the former 4,096-row stride and
    at the default tile, interleaving the repeats.
    """
    print("== evaluator row tile: 4096 vs default ==")
    setup = paper_setup()
    rng = np.random.default_rng(SEED)
    boundary = find_failure_boundary(CountingIndicator(setup.indicator),
                                     500, rng)
    near = boundary.sample(5000, rng)
    near *= 1.0 + 0.01 * rng.standard_normal((near.shape[0], 1))
    blocks = {"prior": rng.standard_normal((5000, 6)),
              "near_boundary": near}
    default = setup.evaluator.max_batch
    repeats = 3 if quick else 7
    record = {"default_max_batch": default}
    for name, x in blocks.items():
        evaluators = {tile: AdaptiveMarginEvaluator(
            setup.cell, setup.space, max_batch=tile)
            for tile in (4096, default)}
        walls = {tile: [] for tile in evaluators}
        labels = {}
        for _ in range(repeats):
            for tile, evaluator in evaluators.items():
                t0 = time.perf_counter()
                labels[tile] = evaluator.failure_labels(x, "cell")
                walls[tile].append(time.perf_counter() - t0)
        assert np.array_equal(labels[4096], labels[default]), \
            f"{name}: labels differ between 4096-row and {default}-row tiles"
        evals = {tile: ev.device_model_evals // repeats
                 for tile, ev in evaluators.items()}
        assert evals[4096] == evals[default], \
            f"{name}: device-model evals differ: {evals}"
        old_s, old_iqr = quartiles(walls[4096])
        new_s, new_iqr = quartiles(walls[default])
        refined = evaluators[default].refined // repeats
        resolved = {str(depth): count // repeats for depth, count
                    in evaluators[default].resolved.items()}
        print(f"  {name:13s} {x.shape[0]} rows  4096: {old_s:6.2f} s  "
              f"{default}: {new_s:6.2f} s  ({old_s / new_s:.2f}x)  "
              f"refined {refined}")
        print(f"  {'':13s} rows labelled at depth "
              + ", ".join(f"{depth}: {count}"
                          for depth, count in resolved.items()))
        record[name] = {
            "rows": x.shape[0],
            "refined": refined,
            "resolved_by_depth": resolved,
            "device_model_evals": evals[default],
            "wall_4096_median_s": old_s, "wall_4096_iqr_s": old_iqr,
            "wall_default_median_s": new_s, "wall_default_iqr_s": new_iqr,
            "speedup": old_s / new_s,
        }
    return record


def bench_window(quick: bool) -> dict:
    """Gate: the window pre-rung keeps every label and costs at most a
    tenth of the 8-step floor on prior and on RTN-shifted rows.

    The floor is what the 8-step rung alone costs a row: 2 sides x 61
    columns x 8 steps = 976 device-model evaluations.  The window's 8
    steps on 12 columns would cost 192; predicted brackets check two
    ends per element instead, and the record keeps the share of
    elements settled at that check, on a re-guess, and by bisection.
    """
    print("== window pre-rung: prior and RTN-shifted blocks ==")
    setup = paper_setup(alpha=0.5)
    rng = np.random.default_rng(SEED)
    prior = rng.standard_normal((5000, 6))
    shifts, states = setup.rtn_model.sample(5000, rng)
    blocks = {"prior": (prior, "cell"),
              "rtn_shifted": (setup.rtn_model.mirror(
                  rng.standard_normal((5000, 6)) + shifts, states),
                  "lobe0")}
    floor = 2 * setup.evaluator.solver.grid.size * LADDER[0][0]
    exact = CellEvaluator(setup.cell, setup.space)
    repeats = 3 if quick else 7
    record = {"floor_evals_per_row": floor}
    for name, (x, which) in blocks.items():
        want = exact.failure_labels(x, which)
        walls = []
        for _ in range(repeats):
            evaluator = AdaptiveMarginEvaluator(setup.cell, setup.space)
            t0 = time.perf_counter()
            labels = evaluator.failure_labels(x, which)
            walls.append(time.perf_counter() - t0)
            assert np.array_equal(labels, want), \
                f"{name}: window labels differ from the exact path's"
        per_row = evaluator.device_model_evals / x.shape[0]
        outcomes = evaluator.rungs[0][0].guess_outcomes
        shares = {key: count / sum(outcomes.values())
                  for key, count in outcomes.items()}
        admitted = np.flatnonzero(evaluator._gated(x, which))
        passed = AdaptiveMarginEvaluator(setup.cell, setup.space) \
            ._window_rung(setup.space.to_physical(x), admitted, which).size
        wall, wall_iqr = quartiles(walls)
        print(f"  {name:11s} {x.shape[0]} rows ({which})  "
              f"{per_row:6.1f} evals/row ({per_row / floor:.2f} of the "
              f"8-step floor)  {wall:5.2f} s")
        print(f"  {'':11s} admitted by the gate: {admitted.size}, "
              f"passed by the window: {passed}")
        print(f"  {'':11s} 8-step elements accepted at the check "
              f"{shares['accepted']:.1%}, re-guessed "
              f"{shares['reguessed']:.1%}, bisected "
              f"{shares['bisected']:.1%}")
        record[name] = {
            "rows": x.shape[0], "criterion": which,
            "evals_per_row": per_row,
            "rows_gate_admitted": int(admitted.size),
            "rows_window_passed": passed,
            "guess_shares": shares,
            "resolved_by_depth": {str(depth): count for depth, count
                                  in evaluator.resolved.items()},
            "wall_median_s": wall, "wall_iqr_s": wall_iqr,
        }
    for name in blocks:
        assert record[name]["evals_per_row"] <= 0.1 * floor, (
            f"{name} block costs {record[name]['evals_per_row']:.1f} "
            f"evals/row > a tenth of the 8-step floor ({0.1 * floor:.1f})")
    return record


def bench_startup(quick: bool) -> dict:
    """Gate: ``import repro`` loads no scipy module.

    Times start-up in fresh interpreters, as every CLI call, pool
    worker and service daemon pays it, and ``analyze_array`` on the
    default config (272 binomial tails) in this process.
    """
    print("== start-up: fresh-interpreter import repro ==")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probes = [json.loads(subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE], env=env, check=True,
        capture_output=True, text=True, timeout=120).stdout)
        for _ in range(7 if quick else 15)]
    loaded = sorted({m for probe in probes for m in probe["scipy"]})
    assert not loaded, f"import repro loaded scipy modules: {loaded}"
    import_s, import_iqr = quartiles([p["import_s"] for p in probes])
    rss_mb, rss_iqr = quartiles([p["rss_mb"] for p in probes])
    deferred_s, deferred_iqr = quartiles([p["deferred_s"] for p in probes])

    analyze_array(ArrayConfig(), 1e-9)  # scipy.special, loaded once
    _, array_s, array_iqr = timed(
        lambda: analyze_array(ArrayConfig(), 1e-9), 20 if quick else 50)
    print(f"  import repro  {import_s:6.3f} s  {rss_mb:6.1f} MB VmRSS  "
          f"({len(probes)} interpreters, no scipy)")
    print(f"  first fit's deferred scipy.optimize import "
          f"{deferred_s:6.3f} s")
    print(f"  analyze_array {array_s * 1e3:6.2f} ms")
    return {"interpreters": len(probes),
            "import_median_s": import_s, "import_iqr_s": import_iqr,
            "import_rss_median_mb": rss_mb, "import_rss_iqr_mb": rss_iqr,
            "first_fit_deferred_median_s": deferred_s,
            "first_fit_deferred_iqr_s": deferred_iqr,
            "analyze_array_median_s": array_s,
            "analyze_array_iqr_s": array_iqr,
            "scipy_modules_after_import": loaded,
            "note": "import repro in fresh interpreters; deferred = "
                    "first LinearSvm.fit minus the second"}


# ----------------------------------------------------------------------
def save_record(record: dict) -> None:
    data = (json.loads(JSON_PATH.read_text()) if JSON_PATH.exists()
            else {"runs": []})
    data.setdefault("runs", []).append(record)
    data["latest"] = record
    JSON_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {JSON_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-scale budgets (a couple of minutes)")
    args = parser.parse_args(argv)
    scale = QUICK if args.quick else FULL

    startup = bench_startup(args.quick)
    sweep = bench_sweep(scale)
    record = {
        "mode": "quick" if args.quick else "full",
        "startup": startup,
        "sweep": sweep,
        "batched": bench_batched(args.quick, sweep),
        "tiles": bench_tiles(args.quick),
        "window": bench_window(args.quick),
        "warm_cache": bench_warm_cache(scale),
        "backends": bench_backends(scale),
        "resume": bench_resume(scale),
        "butterfly": bench_butterfly(args.quick),
    }
    save_record(record)
    print("bench_hotpath: all acceptance gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
