"""The pluggable execution engine.

:class:`Executor` runs estimator workloads as ordered task lists on a
configurable backend (serial / thread pool / process pool) with

* **deterministic decomposition** -- :meth:`map_chunks` splits a sample
  block with :func:`~repro.runtime.chunking.plan_chunks` and spawns one
  child generator per chunk via :func:`repro.rng.spawn`, so for a fixed
  seed and chunking the concatenated result is bit-identical on every
  backend (results are always collected in plan order, regardless of
  completion order);
* **fault tolerance** -- a chunk that raises on the backend is retried
  with bounded linear backoff and finally re-run serially in the parent
  process; a broken pool (killed worker, unpicklable task) demotes the
  whole run to serial instead of failing it;
* **telemetry** -- every call appends a
  :class:`~repro.runtime.metrics.RunMetrics` (per-chunk wall time,
  attempts, fallbacks, plus the simulation-count delta of an attached
  :class:`~repro.core.indicator.SimulationCounter`) to :attr:`history`.

The task callable and its arguments must be picklable for the process
backend; module-level functions and the repro indicator / RTN-model /
space objects all are.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, Future
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from repro.errors import ExecutionError
from repro.rng import spawn
from repro.runtime.backends import make_backend
from repro.runtime.signals import shutdown_requested
from repro.runtime.chunking import plan_chunks
from repro.runtime.config import ExecutionConfig
from repro.runtime.metrics import ChunkRecord, RunMetrics

if TYPE_CHECKING:  # avoid a runtime repro.core <-> repro.runtime cycle
    from repro.core.indicator import SimulationCounter


def _timed(fn: Callable, /, *args) -> tuple[Any, float]:
    """Run ``fn(*args)`` and return ``(result, wall_time_s)``.

    Module-level so it pickles for the process backend.
    """
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


class Executor:
    """Backend-pluggable, fault-tolerant, ordered task execution.

    Parameters
    ----------
    config:
        :class:`~repro.runtime.config.ExecutionConfig`; default serial.
    counter:
        Optional :class:`~repro.core.indicator.SimulationCounter` whose
        before/after delta is recorded per run in the metrics.
    """

    def __init__(self, config: ExecutionConfig | None = None,
                 counter: "SimulationCounter | None" = None) -> None:
        self.config = config if config is not None else ExecutionConfig()
        self.counter = counter
        self.history: list[RunMetrics] = []
        self._backend = make_backend(self.config)
        self._broken = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def map_chunks(self, fn, block: np.ndarray, *extra, rng=None,
                   chunk_size: int | None = None,
                   simulations: int | None = None,
                   label: str = "map_chunks",
                   stats_sink=None) -> np.ndarray:
        """Apply ``fn`` to row-chunks of ``block``, concatenated in order.

        ``fn`` is called as ``fn(chunk, *extra)``, or
        ``fn(chunk, child_rng, *extra)`` when ``rng`` is given -- one
        statistically independent child generator per chunk, spawned in
        plan order from ``rng`` so the decomposition (and hence the
        result) is identical on every backend.  An empty block short-cuts
        to one in-process call so result dtype/shape still come from
        ``fn``.

        ``simulations`` declares how many transistor-level simulations
        this run stands for: the count is added to the attached
        :class:`~repro.core.indicator.SimulationCounter` *before* any
        work is dispatched -- so a budget circuit-breaker trips before
        spending compute -- and recorded in the run's metrics.

        ``stats_sink`` marks ``fn`` as a stats-reporting task returning
        ``(result, stats_dict)`` pairs: the sink is called as
        ``stats_sink(stats, where)`` per chunk -- ``where`` being the
        :class:`~repro.runtime.metrics.ChunkRecord` location -- so
        callers can merge worker-side perf counters that only
        process-pool chunks accumulate out of the parent's sight.
        """
        block = np.asarray(block)
        n = block.shape[0]
        size = (chunk_size if chunk_size is not None
                else self.config.resolve_chunk_size(
                    n, rng_dependent=rng is not None))
        slices = plan_chunks(n, size)
        if not slices:
            pre = self._pre_count(simulations)
            child = spawn(rng, 1)[0] if rng is not None else None
            args = ((block, child) + extra if child is not None
                    else (block,) + extra)
            result, _ = _timed(fn, *args)
            result = self._apply_stats(result, "serial", stats_sink)
            self._record(label, [], n_items=0, n_simulations=pre)
            return np.asarray(result)
        sizes = [sl.stop - sl.start for sl in slices]
        rngs = spawn(rng, len(slices)) if rng is not None else None
        tasks = []
        for i, sl in enumerate(slices):
            chunk = block[sl]
            if rngs is not None:
                tasks.append((chunk, rngs[i]) + extra)
            else:
                tasks.append((chunk,) + extra)
        outputs = []
        for result, record in self.iter_tasks(
                fn, tasks, sizes=sizes, label=label,
                simulations=simulations, with_records=True):
            outputs.append(self._apply_stats(result, record.where,
                                             stats_sink))
        return np.concatenate([np.asarray(r) for r in outputs])

    @staticmethod
    def _apply_stats(result, where: str, stats_sink):
        """Unpack a stats task's ``(payload, stats)`` pair into the sink."""
        if stats_sink is None:
            return result
        payload, stats = result
        stats_sink(stats if isinstance(stats, dict) else {}, where)
        return payload

    def map_tasks(self, fn, tasks: list[tuple], sizes=None,
                  simulations: int | None = None,
                  label: str = "map_tasks") -> list:
        """Run ``fn(*args)`` for every argument tuple, results in order."""
        return list(self.iter_tasks(fn, tasks, sizes=sizes, label=label,
                                    simulations=simulations))

    def iter_tasks(self, fn, tasks: list[tuple], sizes=None,
                   simulations: int | None = None,
                   label: str = "iter_tasks",
                   with_records: bool = False) -> Iterator[Any]:
        """Yield results of ``fn(*args)`` in task order, lazily.

        Stopping the iteration early abandons the remaining tasks (on the
        serial backend they never start; on pooled backends outstanding
        futures are cancelled best-effort -- already-running ones finish
        and are discarded, so early stopping never changes the consumed
        prefix).  Telemetry is finalised when the generator exhausts or
        is closed.

        ``with_records=True`` yields ``(result, ChunkRecord)`` pairs
        instead, exposing per-chunk provenance (``record.where``) to
        callers that must know whether a result was produced in the
        parent process or on a pool worker.
        """
        tasks = list(tasks)
        if sizes is None:
            sizes = [1] * len(tasks)
        pre = self._pre_count(simulations)
        return self._run_ordered(fn, tasks, list(sizes), label, pre,
                                 with_records)

    def aggregate(self, label: str = "aggregate") -> RunMetrics:
        """All runs of this executor merged into one metrics object."""
        merged = RunMetrics.merge(self.history, label=label)
        if not self.history:
            merged.backend = self.config.backend
            merged.workers = self.config.effective_workers
        return merged

    @property
    def last_metrics(self) -> RunMetrics | None:
        return self.history[-1] if self.history else None

    def close(self) -> None:
        """Shut the worker pool down (it is re-created on next use)."""
        if self._backend is not None:
            self._backend.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _pre_count(self, simulations: int | None) -> int:
        """Account declared simulations up-front (budget trips here)."""
        if not simulations:
            return 0
        if self.counter is not None:
            self.counter.add(simulations)
        return int(simulations)

    def _run_ordered(self, fn, tasks, sizes, label,
                     pre_simulations: int = 0,
                     with_records: bool = False) -> Iterator[Any]:
        start = time.perf_counter()
        count0 = self.counter.count if self.counter is not None else 0
        records: list[ChunkRecord] = []
        futures: list[Future | None] = []

        def emit(result):
            # the helper that produced `result` appended its record
            return (result, records[-1]) if with_records else result

        try:
            if self._backend is None or self._broken:
                for index, args in enumerate(tasks):
                    yield emit(self._run_serial(fn, index, args,
                                                sizes[index], records))
                return
            for args in tasks:
                futures.append(self._submit_safe(fn, args))
            for index, (args, future) in enumerate(zip(tasks, futures)):
                futures[index] = None  # consumed; no cancel on close
                yield emit(self._collect(fn, index, args, sizes[index],
                                         future, records))
        finally:
            for future in futures:
                if future is not None:
                    future.cancel()
            elapsed = time.perf_counter() - start
            count1 = self.counter.count if self.counter is not None else 0
            self._record(label, records, n_items=sum(
                r.size for r in records), wall_time_s=elapsed,
                n_simulations=(count1 - count0) + pre_simulations)

    def _submit_safe(self, fn, args) -> Future:
        """Submit to the pool; a submit-time failure (shut-down or broken
        pool) is converted into a failed future so the per-chunk retry /
        fallback path handles it uniformly."""
        try:
            return self._backend.submit(_timed, fn, *args)
        except (RuntimeError, BrokenExecutor) as exc:
            failed: Future = Future()
            failed.set_exception(exc)
            return failed

    def _collect(self, fn, index, args, size, future, records) -> Any:
        """Resolve one chunk: retries on the backend, then serial fallback."""
        cfg = self.config
        attempts = 1
        while True:
            try:
                result, wall = future.result()
                records.append(ChunkRecord(
                    index=index, size=size, attempts=attempts,
                    wall_time_s=wall, where=self._backend.name))
                return result
            except Exception as exc:
                if isinstance(exc, BrokenExecutor):
                    self._broken = True
                if self._broken or attempts > cfg.max_retries:
                    return self._fallback(fn, index, args, size, attempts,
                                          records, exc)
                # Drain fast under a pending graceful shutdown: the
                # retry itself still happens (the chunk must complete
                # for the result to stay deterministic), but the
                # backoff sleep would only delay the final checkpoint.
                if not shutdown_requested():
                    time.sleep(cfg.retry_backoff_s * attempts)
                attempts += 1
                future = self._submit_safe(fn, args)

    def _fallback(self, fn, index, args, size, attempts, records,
                  cause) -> Any:
        if not self.config.fallback_serial:
            raise ExecutionError(
                f"chunk {index} failed after {attempts} attempt(s) on the "
                f"{self.config.backend} backend: {cause}",
                chunk_index=index) from cause
        try:
            result, wall = _timed(fn, *args)
        except Exception as exc:
            raise ExecutionError(
                f"chunk {index} failed on the {self.config.backend} "
                f"backend and in the serial fallback: {exc}",
                chunk_index=index) from exc
        records.append(ChunkRecord(
            index=index, size=size, attempts=attempts, wall_time_s=wall,
            where="serial-fallback", fell_back=True))
        return result

    def _run_serial(self, fn, index, args, size, records) -> Any:
        result, wall = _timed(fn, *args)
        records.append(ChunkRecord(
            index=index, size=size, attempts=1, wall_time_s=wall,
            where="serial"))
        return result

    def _record(self, label, records, n_items, wall_time_s: float = 0.0,
                n_simulations: int = 0) -> None:
        self.history.append(RunMetrics(
            label=label, backend=self.config.backend,
            workers=self.config.effective_workers,
            wall_time_s=wall_time_s, n_items=n_items,
            n_simulations=n_simulations, records=records))
