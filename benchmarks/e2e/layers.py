"""The layer map and the per-layer metrics of a traced run.

:data:`TARGETS` names the ``repro`` callables whose calls become spans,
grouped into layers named after the package's modules.  Self times of
those spans partition each root span (one estimate, job or request), so
``<layer>.share`` over all layers plus ``trace.unattributed_frac`` is 1.

:data:`PER_LAYER` lists every per-layer metric with its unit, in the
order ``BENCHMARK.json`` does; :func:`layer_metrics` computes them.
``/op`` means per operation of the workload: per estimate for the
estimate and naive-MC workloads, per cold job for the service.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from pathlib import Path

import numpy as np

from tracer import NameStats, TraceSummary, Tracer

LAYERS = ("spice", "sram", "perf", "ml", "rtn", "core", "runtime",
          "checkpoint", "service", "analysis")


def _rows(args, kwargs, result):
    return len(args[1])


def _dir_bytes(args, kwargs, result):
    return sum(p.stat().st_size for p in Path(result).iterdir())


#: ``(layer, span name, target, work)``; ``work`` counts what one call
#: did.  ``spice.ids`` gets its work function from :func:`install`.
TARGETS = (
    ("spice", "spice.ids", "repro.spice.model:MosfetModel.ids_into", None),
    ("sram", "sram.solve", "repro.sram.butterfly:ReadButterflySolver.solve",
     _rows),
    ("sram", "sram.solve",
     "repro.sram.butterfly:ReadButterflySolver.solve_with_state", _rows),
    ("sram", "sram.solve",
     "repro.sram.butterfly:ReadButterflySolver.resume", _rows),
    ("sram", "sram.margins", "repro.sram.margins:lobe_margins", None),
    ("perf", "perf.label",
     "repro.perf.adaptive:AdaptiveMarginEvaluator.failure_labels", _rows),
    ("perf", "perf.cache", "repro.perf.cache:SolveCache.lookup", None),
    ("perf", "perf.cache", "repro.perf.cache:SolveCache.store", None),
    ("ml", "ml.fit", "repro.ml.svm:LinearSvm.fit", _rows),
    ("ml", "ml.predict", "repro.ml.blockade:ClassifierBlockade.predict",
     _rows),
    ("ml", "ml.update", "repro.ml.blockade:ClassifierBlockade.update", None),
    ("ml", "ml.update", "repro.ml.blockade:ClassifierBlockade.train", None),
    ("rtn", "rtn.sample", "repro.rtn.model:RtnModel.sample", None),
    ("rtn", "rtn.sample", "repro.rtn.model:RtnModel.mirror", None),
    ("rtn", "rtn.sample", "repro.rtn.model:ZeroRtnModel.sample", None),
    ("rtn", "rtn.sample", "repro.rtn.model:ZeroRtnModel.mirror", None),
    ("core", "core.run", "repro.core.ecripse:EcripseEstimator.run", None),
    ("core", "core.run", "repro.core.naive:NaiveMonteCarlo.run", None),
    ("core", "core.boundary", "repro.core.boundary:find_failure_boundary",
     None),
    ("core", "core.filter",
     "repro.core.filter:ParticleFilterBank.predict_all", None),
    ("core", "core.filter",
     "repro.core.filter:ParticleFilterBank.resample_all", None),
    ("core", "core.is", "repro.core.importance:DefensiveMixture.sample",
     None),
    ("core", "core.is", "repro.core.importance:importance_ratios", None),
    ("runtime", "runtime.map_chunks",
     "repro.runtime.executor:Executor.map_chunks", None),
    ("runtime", "runtime.close", "repro.runtime.executor:Executor.close",
     None),
    ("checkpoint", "checkpoint.save",
     "repro.checkpoint.manager:CheckpointManager.maybe_save", None),
    ("checkpoint", "checkpoint.save",
     "repro.checkpoint.manager:CheckpointManager.save_final", None),
    ("checkpoint", "checkpoint.save",
     "repro.checkpoint.manager:CheckpointManager.save_result", None),
    ("checkpoint", "checkpoint.write",
     "repro.checkpoint.store:CheckpointStore.save", _dir_bytes),
    ("service", "service.job", "repro.service.server:ServiceDaemon._run_job",
     None),
    ("service", "service.submit", "repro.service.server:ServiceDaemon.submit",
     None),
    ("service", "service.sweep",
     "repro.service.server:ServiceDaemon.sweep_leases", None),
    ("service", "service.stats", "repro.service.server:ServiceDaemon.stats",
     None),
    ("service", "service.fingerprint", "repro.service.spec:JobSpec.fingerprint",
     None),
    ("service", "service.store_write", "repro.service.store:JobStore.save",
     None),
    ("service", "service.store_write",
     "repro.service.store:JobStore.append_event", None),
    ("service", "service.store_write",
     "repro.service.store:JobStore.store_result", None),
    ("service", "service.store_read", "repro.service.store:JobStore.load",
     None),
    ("service", "service.store_read",
     "repro.service.store:JobStore.read_events", None),
    ("service", "service.store_read",
     "repro.service.store:JobStore.load_result", None),
    ("analysis", "analysis.array", "repro.analysis.ecc:analyze_array", None),
)


def install(tracer: Tracer) -> Counter:
    """Patch every target; returns the ``ids_into`` output-shape tally
    (elements per shape) the roofline row uses.

    Forked pool workers inherit the patches; they stop recording at the
    fork, since their spans could never reach the parent.
    """
    shapes: Counter = Counter()

    def ids_work(args, kwargs, result):
        out = kwargs["out"] if "out" in kwargs else args[5]
        shapes[out.shape] += out.size
        return out.size

    for layer, name, target, work in TARGETS:
        tracer.patch(target, name, layer,
                     ids_work if name == "spice.ids" else work)

    def stop_in_child() -> None:
        tracer.enabled = False

    os.register_at_fork(after_in_child=stop_in_child)
    return shapes


# ---------------------------------------------------------------------
# device-model roofline
# ---------------------------------------------------------------------
def _device_pass(v: np.ndarray, out: np.ndarray, a: np.ndarray,
                 b: np.ndarray, c: np.ndarray) -> None:
    """The ufunc sequence of one ``MosfetModel.ids_into`` call on
    ``(N, G)`` buffers, without the model around it."""
    np.subtract(v, 0.3, out=a)                   # vds
    np.multiply(a, 0.5, out=b)                   # dibl * vds
    np.subtract(0.42, b, out=b)                  # vth
    np.subtract(v, b, out=c)                     # vp
    np.divide(c, 1.7, out=c)
    for _ in range(3):                           # forward, reverse, vov
        np.subtract(c, v, out=out)
        np.divide(out, 0.05, out=out)
        np.abs(out, out=a)                       # softplus
        np.negative(a, out=a)
        np.exp(a, out=a)
        np.log1p(a, out=a)
        np.maximum(out, 0.0, out=out)
        np.add(out, a, out=out)
        np.square(out, out=out)
    np.multiply(out, 1.6, out=out)               # gain
    np.add(out, 1.0, out=out)
    np.divide(3.2e-4, out, out=out)
    for factor in (3.4, 0.026, 0.026, 2.0):      # ispec
        np.multiply(out, factor, out=out)
    np.subtract(c, a, out=b)                     # forward - reverse
    np.multiply(out, b, out=out)
    np.multiply(a, 0.55, out=a)                  # clm
    np.add(a, 1.0, out=a)
    np.multiply(out, a, out=out)


#: full-array ufunc passes of one device evaluation (three per triplet)
DEVICE_PASSES = 5 + 3 * 9 + 3 + 4 + 5
#: computed, not measured: every pass reads two float64 operands and
#: writes one (scalar operands make this an upper bound)
BYTES_PER_EVAL = 3 * DEVICE_PASSES * 3 * 8


def numpy_ref_evals_per_s(shape: tuple[int, ...],
                          min_time_s: float = 0.3) -> float:
    """Triplet evaluations per second of plain in-place numpy running
    the device model's op mix on ``shape`` (median of three timings)."""
    rng = np.random.default_rng(0)
    v = rng.uniform(0.0, 0.7, shape)
    out, a, b, c = (np.empty(shape) for _ in range(4))
    rates = []
    for _ in range(3):
        passes, start = 0, time.perf_counter()
        while True:
            for _device in range(3):
                _device_pass(v, out, a, b, c)
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_time_s / 3:
                break
        rates.append(passes * v.size / elapsed)
    return sorted(rates)[1]


# ---------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.partition_error_frac", "ratio"),
    ("trace.spans_per_op", "count/op"),
    *((f"{layer}.share", "ratio") for layer in LAYERS),
    ("spice.ids_calls", "count/op"),
    ("spice.ids_s", "s/op"),
    ("spice.device_model_evals", "count/op"),
    ("spice.evals_per_s", "1/s"),
    ("spice.numpy_ref_evals_per_s", "1/s"),
    ("spice.roofline_frac", "ratio"),
    ("spice.computed_bytes_per_eval", "B"),
    ("sram.solve_calls", "count/op"),
    ("sram.rows_solved", "count/op"),
    ("sram.solve_self_s", "s/op"),
    ("sram.margins_s", "s/op"),
    ("perf.label_self_s", "s/op"),
    ("perf.cache_s", "s/op"),
    ("perf.screened_fraction", "ratio"),
    ("perf.refined", "count/op"),
    ("perf.cache_hit_rate", "ratio"),
    ("ml.fit_calls", "count/op"),
    ("ml.fit_s", "s/op"),
    ("ml.update_s", "s/op"),
    ("ml.predict_rows", "count/op"),
    ("ml.predict_s", "s/op"),
    ("ml.classified_fraction", "ratio"),
    ("rtn.sample_s", "s/op"),
    ("core.boundary_s", "s/op"),
    ("core.filter_s", "s/op"),
    ("core.is_s", "s/op"),
    ("core.self_s", "s/op"),
    ("runtime.map_chunks_calls", "count/op"),
    ("runtime.dispatch_s", "s/op"),
    ("runtime.pool_start_s", "s"),
    ("runtime.shm_bytes", "B/op"),
    ("runtime.fallbacks", "count/op"),
    ("runtime.serial_samples_per_s", "1/s"),
    ("runtime.parallel_speedup", "ratio"),
    ("checkpoint.saves", "count/op"),
    ("checkpoint.save_s", "s/op"),
    ("checkpoint.bytes", "B/op"),
    ("service.fingerprint_s", "s"),
    ("service.store_write_s", "s/op"),
    ("service.queue_wait_s.p50", "s"),
    ("service.sweep_s", "s"),
    ("service.healthz_s", "s"),
    ("service.jobs_in_store", "count"),
    ("service.cached_latency_s.p50", "s"),
    ("service.cached_latency_s.p80", "s"),
    ("service.array_latency_s.p50", "s"),
    ("service.array_latency_s.p80", "s"),
    ("analysis.array_s", "s"),
    ("load.late_s.p90", "s"),
)
UNITS = dict(PER_LAYER)
#: per-layer metrics where higher is better (all others: lower)
HIGHER = frozenset({
    "spice.evals_per_s", "spice.numpy_ref_evals_per_s",
    "spice.roofline_frac", "perf.screened_fraction", "perf.cache_hit_rate",
    "ml.classified_fraction", "runtime.serial_samples_per_s",
    "runtime.parallel_speedup"})

def perf_counters(meta: dict) -> dict[str, float]:
    """Program counters one finished estimate's metadata reports; the
    traced operations' sums feed :func:`layer_metrics` (``label_rows``
    comes from :func:`label_rows`)."""
    perf = meta.get("perf", {})
    execution = meta.get("execution", {})
    counts = {key: float(perf.get(key, 0)) for key in
              ("device_model_evals", "screened", "refined", "cache_hits",
               "cache_misses")}
    counts["shm_bytes"] = float(execution.get("shm_bytes", 0))
    counts["fallbacks"] = float(execution.get("n_fallbacks", 0))
    if "stage1_simulations" in meta:
        counts["label_sims"] = float(meta["stage1_simulations"]
                                     + meta["stage2_simulations"])
    return counts


def label_rows(config, rtn_is_null: bool, statistical_samples: int) -> int:
    """Rows an ECRIPSE run labelled (simulated or classified), excluding
    the boundary search."""
    m1 = 1 if rtn_is_null else config.m_rtn
    m2 = 1 if rtn_is_null else config.m_rtn_stage2
    stage1 = (config.n_iterations * config.n_filters * config.n_particles
              * m1)
    return stage1 + statistical_samples * m2


def layer_metrics(summary: TraceSummary, ops: int,
                  counters: dict[str, float],
                  extra: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric; ``extra`` supplies those measured
    outside the spans, and anything a workload does not exercise is 0."""
    def get(name: str) -> NameStats:
        return summary.names.get(name, NameStats(""))

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    wall = summary.root_wall_s
    layers = summary.layers
    ids = get("spice.ids")
    evals = counters.get("device_model_evals", 0.0)
    out = {
        "trace.unattributed_frac": ratio(layers.get("root", 0.0), wall),
        "trace.partition_error_frac": ratio(
            abs(sum(layers.values()) - wall), wall),
        "trace.spans_per_op": per_op(summary.spans),
        "spice.ids_calls": per_op(ids.calls),
        "spice.ids_s": per_op(ids.total_s),
        "spice.device_model_evals": per_op(evals),
        "spice.evals_per_s": ratio(evals, ids.total_s),
        "spice.computed_bytes_per_eval": float(BYTES_PER_EVAL),
        "sram.solve_calls": per_op(get("sram.solve").calls),
        "sram.rows_solved": per_op(get("sram.solve").work),
        "sram.solve_self_s": per_op(get("sram.solve").self_s),
        "sram.margins_s": per_op(get("sram.margins").self_s),
        "perf.label_self_s": per_op(get("perf.label").self_s),
        "perf.cache_s": per_op(get("perf.cache").self_s),
        "perf.screened_fraction": ratio(
            counters.get("screened", 0.0),
            counters.get("screened", 0.0) + counters.get("refined", 0.0)),
        "perf.refined": per_op(counters.get("refined", 0.0)),
        "perf.cache_hit_rate": ratio(
            counters.get("cache_hits", 0.0),
            counters.get("cache_hits", 0.0)
            + counters.get("cache_misses", 0.0)),
        "ml.fit_calls": per_op(get("ml.fit").calls),
        "ml.fit_s": per_op(get("ml.fit").self_s),
        "ml.update_s": per_op(get("ml.update").self_s),
        "ml.predict_rows": per_op(get("ml.predict").work),
        "ml.predict_s": per_op(get("ml.predict").self_s),
        "ml.classified_fraction": ratio(
            counters.get("label_rows", 0.0) - counters.get("label_sims", 0.0),
            counters.get("label_rows", 0.0)),
        "rtn.sample_s": per_op(get("rtn.sample").self_s),
        "core.boundary_s": per_op(get("core.boundary").self_s),
        "core.filter_s": per_op(get("core.filter").self_s),
        "core.is_s": per_op(get("core.is").self_s),
        "core.self_s": per_op(get("core.run").self_s),
        "runtime.map_chunks_calls": per_op(get("runtime.map_chunks").calls),
        "runtime.shm_bytes": per_op(counters.get("shm_bytes", 0.0)),
        "runtime.fallbacks": per_op(counters.get("fallbacks", 0.0)),
        "checkpoint.saves": per_op(get("checkpoint.write").calls),
        "checkpoint.save_s": per_op(layers.get("checkpoint", 0.0)),
        "checkpoint.bytes": per_op(get("checkpoint.write").work),
        "service.fingerprint_s": ratio(get("service.fingerprint").total_s,
                                       get("service.fingerprint").calls),
        "service.store_write_s": per_op(get("service.store_write").self_s),
        "service.sweep_s": ratio(get("service.sweep").total_s,
                                 get("service.sweep").calls),
        "analysis.array_s": ratio(get("analysis.array").total_s,
                                  get("analysis.array").calls),
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = ratio(layers.get(layer, 0.0), wall)
    ref = extra.get("spice.numpy_ref_evals_per_s", 0.0)
    out["spice.roofline_frac"] = ratio(out["spice.evals_per_s"], ref)
    out.update(extra)
    return {name: float(out.get(name, 0.0)) for name, _unit in PER_LAYER}
