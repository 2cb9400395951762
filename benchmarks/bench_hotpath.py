"""Benchmark the repro.perf hot-path acceleration (PR 5 acceptance gate).

Runs the Fig. 8 duty-ratio sweep twice -- once with the legacy exact
evaluator, once with the accelerated one (adaptive labelling + solve
cache) -- and asserts the acceptance criteria:

* every estimate (pfail, CI, simulation count, trace) is bit-identical
  between the two sweeps;
* the accelerated sweep performs >= 2x fewer device-model evaluations;
* a warm on-disk cache replays the sweep with > 50% hit rate, still
  bit-identical;
* thread/process backends and a kill+resume cycle (cache restored from
  the checkpoint) reproduce the serial result exactly.

Also micro-benchmarks the butterfly solver's in-place bisection against
an inline reimplementation of the old ``np.where`` formulation (the
before/after note for the PR) and asserts bit-identity there too.

The batched-core gate A/Bs the fused ``(2B, G)`` bisection of
``solve`` against the two per-side ``solve_side`` solves on raw
batches, and passes when the fused solve is >= 1.5x faster on wall
time OR the sweep-level eval reduction holds >= 2x -- outputs
bit-identical in every case.

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
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.checkpoint import CheckpointConfig, run_checkpointed
from repro.core.ecripse import EcripseConfig, EcripseEstimator
from repro.errors import CheckpointCrash
from repro.experiments.fig8 import run_fig8
from repro.experiments.setup import paper_setup
from repro.perf import PerfConfig, save_registered_caches
import repro.perf as perf_pkg
from repro.perf.report import collect_perf, merge_perf
from repro.runtime import ExecutionConfig
from repro.sram.butterfly import ReadButterflySolver
from repro.sram.cell import SramCell

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


def sweep_once(scale, perf, checkpoint=None):
    t0 = time.perf_counter()
    result = run_fig8(alphas=scale["alphas"],
                      target_relative_error=scale["target"],
                      config=scale["config"], seed=SEED,
                      checkpoint=checkpoint, perf=perf)
    wall = time.perf_counter() - t0
    return result, merge_perf(collect_perf(result)), wall


# ----------------------------------------------------------------------
def bench_sweep(scale) -> dict:
    """Exact vs accelerated Fig. 8 sweep: identity + >=2x eval saving."""
    print("== Fig. 8 sweep: exact vs accelerated ==")
    exact, exact_perf, exact_wall = sweep_once(scale, PerfConfig.exact())
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
    for backend in ("serial", "thread", "process"):
        setup = paper_setup(alpha=0.3, perf=PerfConfig())
        config = scale["config"].with_(execution=ExecutionConfig(
            backend=backend, workers=2, chunk_size=500))
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
    assert same_estimate(results["serial"], results["thread"])
    assert same_estimate(results["serial"], results["process"])
    return rows


def bench_resume(scale) -> dict:
    """Kill mid-run, resume with the cache restored from the snapshot."""
    print("== kill + resume with cache restored ==")

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
        restored_entries = len(setup.evaluator.cache)
        assert restored_entries > 0, "snapshot restored a cold cache"
        resumed = estimator.run(checkpoint=manager,
                                target_relative_error=scale["target"])

    assert same_estimate(baseline, resumed), "resumed run diverged"
    print(f"  cache entries restored from snapshot: {restored_entries:,}")
    print(f"  resumed pfail {resumed.pfail:.4e} == baseline")
    return {"restored_cache_entries": restored_entries,
            "pfail": resumed.pfail}


def bench_butterfly(quick: bool) -> dict:
    """Before/after note for the in-place bisection micro-cleanup."""
    print("== butterfly solver: np.where loop vs in-place buffers ==")
    solver = ReadButterflySolver(SramCell(), grid_points=61)
    rng = np.random.default_rng(SEED)
    delta_vth = rng.normal(scale=0.05, size=(200 if quick else 2000, 6))
    repeats = 3 if quick else 10

    def legacy_solve_side(side):
        # the pre-PR formulation: fresh np.where allocations per step
        names = solver._side_names[side]
        idx = solver._sides[side]
        dv = [delta_vth[:, i, None] for i in idx]
        vin = solver.grid[None, :]
        lo = np.zeros((delta_vth.shape[0], solver.grid.size))
        hi = np.full((delta_vth.shape[0], solver.grid.size), solver.vdd)
        for _ in range(solver.bisection_iterations):
            mid = 0.5 * (lo + hi)
            f = solver._node_current(names, vin, mid, dv[0], dv[1], dv[2],
                                     solver.vdd, solver.vdd)
            above = f > 0.0
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        return 0.5 * (lo + hi)

    def time_fn(fn):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - t0)
        return out, best

    legacy_out, legacy_s = time_fn(lambda: legacy_solve_side(0))
    current_out, current_s = time_fn(lambda: solver._solve_side(0, delta_vth))
    assert np.array_equal(legacy_out, current_out), \
        "in-place bisection is not bit-identical to the np.where loop"
    speedup = legacy_s / current_s
    print(f"  legacy  {legacy_s * 1e3:7.1f} ms")
    print(f"  current {current_s * 1e3:7.1f} ms  ({speedup:.2f}x)")
    return {"legacy_best_s": legacy_s, "current_best_s": current_s,
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

    def time_solve(solve, shifts, repeats):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            curves = solve(shifts)
            best = min(best, time.perf_counter() - t0)
        return curves, best

    # the hot-path shape: one sample per solve (adaptive refinement)
    single = rng.normal(scale=0.05, size=(1, 6))
    _, side_1_s = time_solve(per_side, single, 20 if quick else 50)
    _, fused_1_s = time_solve(fused, single, 20 if quick else 50)
    raw_speedup = side_1_s / fused_1_s

    delta_vth = rng.normal(scale=0.05, size=(512 if quick else 2048, 6))
    side_curves, side_s = time_solve(per_side, delta_vth,
                                     3 if quick else 5)
    fused_curves, fused_s = time_solve(fused, delta_vth,
                                       3 if quick else 5)
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
    return {"single_per_side_best_s": side_1_s,
            "single_fused_best_s": fused_1_s,
            "single_speedup": raw_speedup,
            "batch_per_side_best_s": side_s,
            "batch_fused_best_s": fused_s,
            "batch_speedup": side_s / fused_s,
            "sweep_eval_reduction": sweep["eval_reduction"],
            "note": "fused (2B, G) solve vs solve_side(0) + "
                    "solve_side(1); outputs bit-identical"}


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

    sweep = bench_sweep(scale)
    record = {
        "mode": "quick" if args.quick else "full",
        "sweep": sweep,
        "batched": bench_batched(args.quick, sweep),
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
