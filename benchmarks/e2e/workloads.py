"""The estimate and naive-MC workloads.

Each workload is a closed loop with one caller.  It runs inside the
workload subprocess: :meth:`setup` imports and prepares, :meth:`measure`
runs operations back to back until ``seconds`` have passed (and at
least ``count_ops`` have run, so per-operation counts always cover the
same seeds), then checks every output.

Untraced runs report the end-to-end metrics.  Traced estimate runs
instead run ``count_ops`` pairs, a traced operation after an untraced
one on the same seed: the pair must give bit-identical estimates, and
their wall times give the tracing overhead.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import harness
import layers
from reference import load_references
from tracer import Tracer, summarize

#: estimate workloads run with a target no fixed budget reaches, so
#: every estimate spends exactly ``max_statistical_samples`` samples
UNREACHABLE_TARGET = 1e-3


@dataclass
class Outcome:
    """What one measured run produced."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    detail: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def reference_check(pfail: float, ci_halfwidth: float,
                    reference: dict) -> str | None:
    """``None`` when ``pfail`` lies within 4 sigma of the reference, the
    sigmas of estimate and reference combined from their 95 % CIs.

    Used for naive Monte Carlo, whose binomial CI holds; an ECRIPSE
    estimate's CI does not (see :func:`pooled_check`).
    """
    sigma = math.hypot(ci_halfwidth, reference["ci_halfwidth"]) / 1.96
    z = abs(pfail - reference["pfail"]) / sigma
    if z <= 4.0:
        return None
    return (f"pfail {pfail:.4g} is {z:.1f} sigma from the reference "
            f"{reference['pfail']:.4g}")


def pooled_z(pfails: list[float], reference: dict) -> float:
    """Distance of the mean of ``pfails`` from the reference in sigmas,
    from the estimates' own spread and the reference CI."""
    ratios = [p / reference["pfail"] for p in pfails]
    if len(ratios) < 2:
        return math.inf
    error = statistics.stdev(ratios) / math.sqrt(len(ratios))
    ref_error = reference["ci_halfwidth"] / 1.96 / reference["pfail"]
    return abs(statistics.fmean(ratios) - 1.0) / math.hypot(error,
                                                            ref_error)


def pooled_check(outcome: Outcome, what: str, pfails: list[float],
                 reference: dict) -> float:
    """Hold a run's ECRIPSE estimates to 4 sigma *as a set*.

    Their own CIs under-cover: of 300 fixed-budget RDF estimates, 13
    fell beyond 3 sigma and 9 beyond 4, mostly seeds whose two particle
    filters settled on the same failure lobe (README, "Findings").  The
    mean of a run's estimates against its standard error does not have
    that tail, and still catches an estimator that is off.
    """
    z = pooled_z(pfails, reference)
    if not z <= 4.0:
        outcome.fail(f"{what}: mean pfail of {len(pfails)} estimates is "
                     f"{z:.1f} sigma from the reference "
                     f"{reference['pfail']:.4g}")
    return z


def sane(outcome: Outcome, what: str, row: tuple) -> None:
    pfail, ci_halfwidth, _n = row
    if not (0.0 < pfail < 1.0 and 0.0 < ci_halfwidth < math.inf):
        outcome.fail(f"{what}: estimate {row} is not a finite pfail "
                     f"with a CI")


def estimate_row(estimate) -> tuple[float, float, int]:
    return (float(estimate.pfail), float(estimate.ci_halfwidth),
            int(estimate.n_simulations))


def closed_loop(op, seeds, seconds: float, count_ops: int) -> tuple:
    """Run ``op(seed)`` back to back; returns ``(results, elapsed_s)``."""
    results = []
    start = time.perf_counter()
    for seed in seeds:
        if (len(results) >= count_ops
                and time.perf_counter() - start >= seconds):
            break
        results.append(op(seed))
    return results, time.perf_counter() - start


def e2e_metrics(ops: int, elapsed: float,
                sims: list[int]) -> dict[str, float]:
    """Throughput of a closed loop and the simulations one operation
    costs.  A run holds too few operations for a latency median with ten
    samples beyond it, so the per-operation median is only a detail."""
    return {"estimates_per_s": ops / elapsed,
            "sims_per_estimate": statistics.fmean(sims)}


class EstimateWorkload:
    """A fresh ``paper_setup`` plus one quick ECRIPSE estimate with a
    fixed statistical-sample budget per operation, serial backend,
    default ``PerfConfig``: the solve cache starts cold each time, as it
    does for each CLI call."""

    def __init__(self, name: str, alpha: float | None, problem: str,
                 statistical_samples: int, count_ops: int) -> None:
        self.name = name
        self.alpha = alpha
        self.problem = problem
        self.statistical_samples = statistical_samples
        self.count_ops = count_ops

    def setup(self, seed: int, trace: bool) -> None:
        from repro.core.ecripse import EcripseConfig, EcripseEstimator
        from repro.experiments.setup import paper_setup

        self._estimator = EcripseEstimator
        self._paper_setup = paper_setup
        self.config = EcripseConfig.quick(
            max_statistical_samples=self.statistical_samples)
        self.reference = load_references()[self.problem]
        self.seed = seed
        self.tracer = Tracer(enabled=False)
        self.shapes = layers.install(self.tracer) if trace else None

    def op(self, seed: int):
        start = time.perf_counter()
        setup = self._paper_setup(alpha=self.alpha)
        estimate = self._estimator(
            setup.space, setup.indicator, setup.rtn_model, self.config,
            seed=seed).run(target_relative_error=UNREACHABLE_TARGET)
        return estimate, time.perf_counter() - start

    def measure(self, seconds: float) -> Outcome:
        seeds = harness.seed_stream(self.seed, self.name)
        if self.shapes is not None:
            return self._measure_traced(seeds)
        outcome = Outcome()

        def op(seed):
            try:
                return seed, *self.op(seed)
            except Exception as exc:  # an exception is a failed operation
                outcome.fail(f"{self.name} seed {seed}: "
                             f"{type(exc).__name__}: {exc}")
                return None

        results, elapsed = closed_loop(op, seeds, seconds, self.count_ops)
        outcome.attempted = len(results) + 1  # + the pooled check
        done = [r for r in results if r is not None]
        if not done:
            return outcome
        rows = [estimate_row(estimate) for _s, estimate, _w in done]
        for (seed, _e, _w), row in zip(done, rows):
            sane(outcome, f"{self.name} seed {seed}", row)
        z = pooled_check(outcome, self.name, [row[0] for row in rows],
                         self.reference)
        prefix = rows[:self.count_ops]
        outcome.metrics = e2e_metrics(len(done), elapsed,
                                      [row[2] for row in prefix])
        outcome.digest = harness.digest(prefix)
        outcome.detail = {"ops": len(done), "estimate_s.p50":
                          statistics.median(w for _s, _e, w in done),
                          "pooled_z": z,
                          "rel_err.p50": statistics.median(
                              ci / p for p, ci, _n in rows)}
        return outcome

    def _measure_traced(self, seeds) -> Outcome:
        outcome = Outcome()
        counters: Counter = Counter()
        walls = {False: 0.0, True: 0.0}

        def pair(seed):
            results = {}
            for traced in (False, True):
                self.tracer.enabled = traced
                with self.tracer.root("op"):
                    results[traced] = self.op(seed)
                self.tracer.enabled = False
                walls[traced] += results[traced][1]
            return seed, results[False][0], results[True][0]

        # a fixed number of pairs, so per-operation counts repeat exactly
        pairs = [pair(next(seeds)) for _ in range(self.count_ops)]
        rows = []
        for seed, plain, traced in pairs:
            outcome.attempted += 2
            rows.append(estimate_row(traced))
            if estimate_row(plain) != rows[-1]:
                outcome.fail(f"{self.name} seed {seed}: traced estimate "
                             f"{rows[-1]} differs from untraced "
                             f"{estimate_row(plain)}")
            sane(outcome, f"{self.name} seed {seed}", rows[-1])
            counters.update(layers.perf_counters(traced.metadata))
            counters["label_rows"] += layers.label_rows(
                self.config, self.alpha is None,
                traced.n_statistical_samples)
        outcome.attempted += 1
        pooled_check(outcome, self.name, [row[0] for row in rows],
                     self.reference)
        shape = max(self.shapes, key=self.shapes.get)
        extra = {"trace.overhead_frac": walls[True] / walls[False] - 1.0,
                 "spice.numpy_ref_evals_per_s":
                     layers.numpy_ref_evals_per_s(shape)}
        outcome.metrics = layers.layer_metrics(
            summarize(self.tracer.spans), len(pairs), counters, extra)
        outcome.digest = harness.digest(rows[:self.count_ops])
        outcome.detail = {"ops": len(pairs), "ids_shape": list(shape)}
        return outcome

    def close(self) -> None:
        if self.shapes is not None:
            self.tracer.restore()


class NaiveWorkload:
    """Chunked naive Monte Carlo, RDF only, on the process backend with
    two workers; one serial run of the first seed is the single-threaded
    baseline and must give the bit-identical estimate."""

    name = "naive-mc"

    def __init__(self, samples: int, workers: int, count_ops: int) -> None:
        self.samples = samples
        self.workers = workers
        self.count_ops = count_ops

    def setup(self, seed: int, trace: bool) -> None:
        from repro.core.naive import NaiveMonteCarlo
        from repro.experiments.setup import paper_setup
        from repro.runtime import ExecutionConfig

        self._naive = NaiveMonteCarlo
        self._paper_setup = paper_setup
        self._execution = {
            "process": ExecutionConfig(backend="process",
                                       workers=self.workers),
            "serial": ExecutionConfig()}
        self.reference = load_references()["rdf"]
        self.seed = seed
        self.trace = trace
        self.tracer = Tracer(enabled=False)
        if trace:
            self.shapes = layers.install(self.tracer)

    def op(self, seed: int, backend: str = "process"):
        start = time.perf_counter()
        setup = self._paper_setup(alpha=None)
        estimate = self._naive(
            setup.space, setup.indicator, setup.rtn_model, seed=seed,
            execution=self._execution[backend]).run(self.samples)
        return estimate, time.perf_counter() - start

    def measure(self, seconds: float) -> Outcome:
        outcome = Outcome()
        seeds = harness.seed_stream(self.seed, self.name)
        ops, elapsed = closed_loop(lambda s: (s, *self.op(s)), seeds,
                                   seconds, self.count_ops)
        outcome.attempted = len(ops) + 1
        for seed, estimate, _wall in ops:
            error = reference_check(estimate.pfail, estimate.ci_halfwidth,
                                    self.reference)
            if error:
                outcome.fail(f"naive-mc seed {seed}: {error}")
        first_seed, first, _wall = ops[0]
        serial, serial_wall = self.op(first_seed, "serial")
        if estimate_row(serial) != estimate_row(first):
            outcome.fail(f"naive-mc seed {first_seed}: serial estimate "
                         f"{estimate_row(serial)} differs from process "
                         f"{estimate_row(first)}")
        walls = [wall for _s, _e, wall in ops]
        process_rate = self.samples * len(ops) / sum(walls)
        serial_rate = self.samples / serial_wall
        rows = [estimate_row(e) for _s, e, _w in ops[:self.count_ops]]
        outcome.digest = harness.digest(rows)
        if self.trace:
            return self._traced(outcome, ops, first_seed, serial,
                                process_rate, serial_rate)
        outcome.metrics = e2e_metrics(len(ops), elapsed,
                                      [row[2] for row in rows])
        outcome.detail = {"ops": len(ops),
                          "estimate_s.p50": statistics.median(walls),
                          "samples_per_s": process_rate,
                          "serial_samples_per_s": serial_rate}
        return outcome

    def _traced(self, outcome: Outcome, ops, seed: int, serial,
                process_rate: float, serial_rate: float) -> Outcome:
        """Layer split of the work itself from a traced serial run of
        the first seed (worker-side spans are out of reach); executor
        numbers from the process runs' chunk records."""
        self.tracer.enabled = True
        with self.tracer.root("op"):
            traced, traced_wall = self.op(seed, "serial")
        self.tracer.enabled = False
        outcome.attempted += 1
        if estimate_row(traced) != estimate_row(serial):
            outcome.fail(f"naive-mc seed {seed}: traced estimate differs "
                         f"from untraced")
        executions = [e.metadata["execution"] for _s, e, _w in ops]
        shape = max(self.shapes, key=self.shapes.get)
        extra = {
            "trace.overhead_frac": traced_wall * serial_rate / self.samples
            - 1.0,
            "spice.numpy_ref_evals_per_s":
                layers.numpy_ref_evals_per_s(shape),
            "runtime.dispatch_s": statistics.fmean(
                x["wall_time_s"] - x["chunk_time_s"] / self.workers
                for x in executions),
            "runtime.pool_start_s": self.pool_start_s(),
            "runtime.shm_bytes": statistics.fmean(
                x["shm_bytes"] for x in executions),
            "runtime.fallbacks": statistics.fmean(
                x["n_fallbacks"] for x in executions),
            "runtime.serial_samples_per_s": serial_rate,
            "runtime.parallel_speedup": process_rate / serial_rate}
        outcome.metrics = layers.layer_metrics(
            summarize(self.tracer.spans), 1,
            layers.perf_counters(traced.metadata), extra)
        outcome.detail = {"ops": len(ops)}
        return outcome

    def pool_start_s(self) -> float:
        """Median time for a fresh two-worker pool to answer one task
        per worker."""
        import os

        from repro.runtime.backends import ProcessBackend

        times = []
        for _ in range(3):
            start = time.perf_counter()
            backend = ProcessBackend(self.workers)
            try:
                for future in [backend.submit(os.getpid)
                               for _ in range(self.workers)]:
                    future.result()
                times.append(time.perf_counter() - start)
            finally:
                backend.close()
        return statistics.median(times)

    def close(self) -> None:
        if self.trace:
            self.tracer.restore()
