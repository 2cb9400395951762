"""Naive Monte Carlo over the joint (RDF, RTN) space.

The reference method (paper eq. 2 and the black curves of Fig. 7): draw
process variability from the prior, RTN shifts and the stored state from
the RTN model, simulate every sample.  Confidence intervals use the Wilson
score, which stays sensible at small failure counts.

The sample block is split into chunks, each drawn from its own child
generator and simulated as one runtime task.  The chunk decomposition is
backend-independent, so for a fixed seed the ``serial`` and ``process``
backends produce the bit-identical estimate.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.stats import wilson_interval
from repro.core.estimate import FailureEstimate, TracePoint
from repro.core.indicator import (
    CountingIndicator,
    Indicator,
    SimulationCounter,
)
from repro.errors import CheckpointError
from repro.rng import (
    as_generator,
    rng_from_state,
    rng_state,
    spawn,
    stable_seed,
)
from repro.runtime import (
    ExecutionConfig,
    Executor,
    absorb_perf_stats,
    evaluate_indicator_stats,
    indicator_perf_stats,
    perf_metadata,
)
from repro.runtime.chunking import chunk_sizes
from repro.variability.space import VariabilitySpace


def sample_and_label_chunk_stats(n: int, rng: np.random.Generator,
                                 space, indicator, rtn_model
                                 ) -> tuple[tuple[int, int], dict]:
    """Draw and simulate one naive-MC chunk; returns ``(failures,
    samples)`` and the evaluator-counter delta.

    Module-level so the process backend can pickle it.  The indicator is
    the raw (non-counting) one -- the parent accounts for simulations as
    it consumes chunk results, and merges the counter delta back with
    :func:`~repro.runtime.tasks.absorb_perf_stats`.
    """
    x = space.sample(n, rng)
    shifts, states = rtn_model.sample(n, rng)
    labels, delta = evaluate_indicator_stats(
        rtn_model.mirror(x + shifts, states), indicator)
    return (int(np.sum(labels)), n), delta


class NaiveMonteCarlo:
    """Plain Monte-Carlo failure-probability estimator.

    Parameters
    ----------
    space:
        The whitened RDF space.
    indicator:
        Failure indicator in the *total-shift* space.  For RTN runs pass
        the stored-"0" lobe indicator (the sampler mirrors states onto it);
        for RDF-only runs pass the cell-level indicator and a
        :class:`~repro.rtn.model.ZeroRtnModel`.
    rtn_model:
        RTN sampler (or the null model).
    batch_size:
        Samples per chunk; each chunk draws from its own child RNG, so
        the chunking is part of the run's statistical definition (and
        of its fingerprint).
    execution:
        :class:`~repro.runtime.config.ExecutionConfig` the chunks run
        through (default: serial, one task per chunk).
    """

    #: per-run perf-counter baseline, recaptured at the top of every
    #: :meth:`run` -- never checkpoint state.
    _SNAPSHOT_EXCLUDED = ("_perf_baseline",)

    def __init__(self, space: VariabilitySpace, indicator: Indicator,
                 rtn_model, batch_size: int = 5000, seed=None,
                 execution: ExecutionConfig | None = None) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.space = space
        self.rtn_model = rtn_model
        self.batch_size = batch_size
        self.rng = as_generator(seed)
        self.counter = SimulationCounter()
        self.indicator = CountingIndicator(indicator, self.counter)
        self.execution = (execution if execution is not None
                          else ExecutionConfig())
        self.executor = Executor(self.execution, counter=self.counter)
        # Resumable-run progress (see state_snapshot); ``_n_samples`` is
        # 0 until run() starts.
        self._n_samples = 0
        self._fails = 0
        self._drawn = 0
        self._cursor = 0
        self._stopped = False
        self._entry_rng: dict | None = None
        self._trace: list[TracePoint] = []
        self._perf_baseline: dict = {}

    # ------------------------------------------------------------------
    def run(self, n_samples: int,
            target_relative_error: float | None = None,
            checkpoint=None) -> FailureEstimate:
        """Estimate P_fail from up to ``n_samples`` simulations.

        Stops early if ``target_relative_error`` (CI95 half-width over
        estimate) is reached.  The stopping rule is evaluated on the
        ordered chunk prefix, so the consumed sample count -- and
        therefore the estimate -- does not depend on the backend or on
        out-of-order completion (chunks speculatively computed past an
        early stop are discarded and not counted).

        ``checkpoint`` (a
        :class:`~repro.checkpoint.manager.CheckpointManager`) snapshots
        after every consumed chunk; a restored estimator must be re-run
        with the same ``n_samples``.  The parent generator state is
        captured *before* the chunk RNGs are spawned, so a resumed run
        re-derives the identical chunk streams and simply skips the
        ``_cursor`` chunks already consumed.
        """
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        if self._n_samples and self._n_samples != n_samples:
            raise CheckpointError(
                f"snapshot was taken for n_samples="
                f"{self._n_samples}, cannot resume with {n_samples}")
        self._n_samples = n_samples
        raw = self.indicator.indicator
        self._perf_baseline = indicator_perf_stats(raw)
        start = time.perf_counter()
        if self._entry_rng is None:
            self._entry_rng = rng_state(self.rng)
        sizes = chunk_sizes(n_samples, self.batch_size)
        rngs = spawn(rng_from_state(self._entry_rng), len(sizes))
        tasks = [(n, rng, self.space, raw, self.rtn_model)
                 for n, rng in zip(sizes, rngs)]

        try:
            if not self._stopped and self._cursor < len(sizes):
                results = self.executor.iter_tasks(
                    sample_and_label_chunk_stats, tasks[self._cursor:],
                    sizes=sizes[self._cursor:], label="naive-mc")
                try:
                    for ((n_fail, n), stats), record in results:
                        absorb_perf_stats(raw, stats, record.where)
                        self.counter.add(n)
                        self._fails += n_fail
                        self._drawn += n
                        self._cursor += 1
                        estimate, halfwidth = wilson_interval(
                            self._fails, self._drawn)
                        self._trace.append(TracePoint(
                            n_simulations=self.counter.count,
                            estimate=estimate, ci_halfwidth=halfwidth,
                            n_statistical_samples=self._drawn))
                        if (target_relative_error is not None
                                and estimate > 0.0
                                and halfwidth / estimate
                                <= target_relative_error):
                            self._stopped = True
                        if checkpoint is not None:
                            checkpoint.maybe_save(self, self.counter.count)
                        if self._stopped:
                            break
                finally:
                    results.close()
        finally:
            self.executor.close()

        estimate, halfwidth = wilson_interval(self._fails, self._drawn)
        return FailureEstimate(
            pfail=estimate, ci_halfwidth=halfwidth,
            n_simulations=self.counter.count,
            n_statistical_samples=self._drawn,
            method="naive-mc", wall_time_s=time.perf_counter() - start,
            trace=list(self._trace),
            metadata={"failures": self._fails,
                      "execution": self.executor.aggregate().as_dict(),
                      "perf": perf_metadata(raw, self._perf_baseline, {})})

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable hex id of the estimation problem (backend excluded)."""
        return format(stable_seed(
            "naive-mc", self.space.dim, self.batch_size,
            type(self.rtn_model).__name__,
            getattr(self.rtn_model, "alpha", None)), "016x")

    def state_snapshot(self) -> dict:
        """Complete resumable state at a batch/chunk boundary."""
        return {
            "n_samples": self._n_samples,
            "fails": self._fails,
            "drawn": self._drawn,
            "cursor": self._cursor,
            "stopped": self._stopped,
            "chunk": (None if self._entry_rng is None
                      else self.batch_size),
            "counter": self.counter.state(),
            "rng": rng_state(self.rng),
            "entry_rng": self._entry_rng,
            "trace": [point.as_dict() for point in self._trace],
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state_snapshot`; continues bit-identically.

        Older snapshots carry a ``mode`` and a ``solve_cache`` entry;
        both are ignored, except that a snapshot of the removed
        single-stream loop is refused: its fingerprint matches, but its
        random stream is not the chunked one.  So is a snapshot chunked
        at a size other than ``batch_size``.
        """
        try:
            if "mode" in state and state["mode"] == "legacy":
                raise CheckpointError(
                    "naive-mc snapshot comes from the removed "
                    "single-stream path and cannot resume on the chunked "
                    "one; start the run over")
            self._n_samples = int(state["n_samples"])
            self._fails = int(state["fails"])
            self._drawn = int(state["drawn"])
            self._cursor = int(state["cursor"])
            self._stopped = bool(state["stopped"])
            chunk = state["chunk"]
            if chunk is not None and int(chunk) != self.batch_size:
                # older runs could chunk at an execution-level size other
                # than batch_size; their streams differ under one
                # fingerprint
                raise CheckpointError(
                    f"snapshot was chunked at {int(chunk)} samples, "
                    f"cannot resume with chunk size {self.batch_size}")
            self.counter.restore_state(state["counter"])
            self.rng = rng_from_state(state["rng"])
            self._entry_rng = state["entry_rng"]
            self._trace = [TracePoint.from_dict(point)
                           for point in state["trace"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"invalid naive-mc snapshot: {exc}") from exc
