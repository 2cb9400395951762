"""Tests for the pluggable Executor: correctness on every backend,
retry/fallback fault tolerance, chunking edge cases, telemetry."""

import os

import numpy as np
import pytest

from repro.core.indicator import SimulationCounter
from repro.errors import BudgetExceededError, ExecutionError
from repro.rng import spawn
from repro.runtime import BACKENDS, ExecutionConfig, Executor
from repro.runtime import executor as executor_module
from repro.runtime.config import MIN_PURE_CHUNK as CHUNK


def _cfg(backend):
    # on two workers a block of k * CHUNK rows (k <= 8) runs as k chunks
    # on a pool, and as one chunk on the serial backend
    return ExecutionConfig(backend=backend, workers=2)


# module-level task bodies so the process backend can pickle them
def double(chunk):
    return chunk * 2


def draw_normals(chunk, rng):
    return chunk + rng.standard_normal(chunk.shape)


def fail_outside_pid(chunk, pid):
    if os.getpid() != pid:
        raise RuntimeError("injected worker failure")
    return chunk * 2


def count_into(chunk, calls):
    calls.append(chunk.shape[0])
    return chunk


def always_broken(chunk):
    raise RuntimeError("always broken")


def row_sums(chunk):
    return chunk.sum(axis=1)


def row_sums_with_stats(chunk):
    return chunk.sum(axis=1), {"rows": int(chunk.shape[0])}


@pytest.mark.parametrize("backend", BACKENDS)
class TestMapChunks:
    def test_pure_map_matches_direct_call(self, backend):
        block = np.arange(101, dtype=float).reshape(-1, 1)
        with Executor(_cfg(backend)) as ex:
            out = ex.map_chunks(double, block)
        assert np.array_equal(out, block * 2)

    def test_empty_block(self, backend):
        with Executor(_cfg(backend)) as ex:
            out = ex.map_chunks(double, np.empty((0, 3)))
        assert out.shape == (0, 3)

    def test_block_smaller_than_chunk(self, backend):
        block = np.arange(3, dtype=float)
        with Executor(_cfg(backend)) as ex:
            out = ex.map_chunks(double, block)
            assert ex.last_metrics.n_chunks == 1
        assert np.array_equal(out, block * 2)


class TestFaultTolerance:
    @pytest.fixture(autouse=True)
    def _no_backoff(self, monkeypatch):
        monkeypatch.setattr(executor_module, "RETRY_BACKOFF_S", 0.0)

    def test_process_failure_retried_then_falls_back(self):
        """A chunk that raises on the pool is retried, then recomputed
        serially in the parent without corrupting the result."""
        block = np.arange(4 * CHUNK, dtype=float)
        with Executor(_cfg("process")) as ex:
            out = ex.map_chunks(fail_outside_pid, block, os.getpid())
            metrics = ex.last_metrics
        assert np.array_equal(out, block * 2)
        assert metrics.n_fallbacks == metrics.n_chunks == 4
        assert metrics.n_retries == 4 * executor_module.MAX_RETRIES
        assert all(r.where == "serial-fallback" for r in metrics.records)

    def test_unpicklable_task_degrades_to_serial(self):
        """A lambda cannot cross the process boundary; the run must
        still complete via the in-parent fallback."""
        block = np.arange(3 * CHUNK, dtype=float)
        with Executor(_cfg("process")) as ex:
            # the lambda IS the fixture: it must not pickle
            out = ex.map_chunks(lambda c: c + 1,  # repro: allow-exec-lambda
                                block)
            assert ex.last_metrics.n_fallbacks == 3
        assert np.array_equal(out, block + 1)

    def test_fallback_failure_chains_execution_error(self):
        def boom(chunk):
            raise RuntimeError("always broken")

        # unpicklable closure fails on the pool AND in the fallback
        with Executor(_cfg("process")) as ex:
            with pytest.raises(ExecutionError,
                               match="serial fallback") as info:
                ex.map_chunks(boom,  # repro: allow-exec-lambda
                              np.arange(4.0))
        assert info.value.chunk_index == 0

    def test_serial_backend_raises_task_error_directly(self):
        with Executor(_cfg("serial")) as ex:
            with pytest.raises(RuntimeError, match="always broken"):
                ex.map_chunks(always_broken, np.arange(4.0))


class TestLazyIteration:
    def test_serial_iteration_is_lazy(self):
        calls = []
        tasks = [(np.zeros(4), calls) for _ in range(10)]
        with Executor(ExecutionConfig()) as ex:
            results = ex.iter_tasks(count_into, tasks, sizes=[1] * 10)
            for i, _ in enumerate(results):
                if i == 2:
                    results.close()
                    break
        assert len(calls) == 3  # tasks 3..9 never ran

    def test_early_stop_prefix_is_backend_invariant(self):
        """Consuming only k ordered results gives the same prefix
        everywhere, no matter how many speculative chunks a pool had
        already completed when the consumer stopped."""

        def prefix(backend):
            rngs = spawn(np.random.default_rng(1), 8)
            tasks = [(np.zeros((50, 1)), r) for r in rngs]
            with Executor(_cfg(backend)) as ex:
                results = ex.iter_tasks(draw_normals, tasks,
                                        sizes=[50] * 8)
                out = [next(results)[0], next(results)[0]]
                results.close()
            return np.concatenate(out)

        assert np.array_equal(prefix("serial"), prefix("process"))


class TestTelemetry:
    def test_declared_simulations_counted_and_recorded(self):
        counter = SimulationCounter()
        n = 3 * CHUNK
        with Executor(_cfg("process"), counter=counter) as ex:
            ex.map_chunks(double, np.zeros((n, 1)), simulations=n)
        assert counter.count == n
        assert ex.last_metrics.n_simulations == n
        assert ex.last_metrics.n_items == n
        assert ex.last_metrics.n_chunks == 3

    def test_counter_delta_during_consumption_recorded(self):
        counter = SimulationCounter()

        def evaluate(chunk):
            counter.add(chunk.shape[0])
            return chunk

        with Executor(ExecutionConfig(), counter=counter) as ex:
            # closure over counter is fine: serial backend, no pickling
            ex.map_chunks(evaluate,  # repro: allow-exec-lambda
                          np.zeros((25, 1)))
        assert ex.last_metrics.n_simulations == 25

    def test_budget_trips_before_any_work(self):
        counter = SimulationCounter(budget=10)
        calls = []
        with Executor(ExecutionConfig(), counter=counter) as ex:
            with pytest.raises(BudgetExceededError):
                ex.map_chunks(count_into, np.zeros((25, 1)), calls,
                              simulations=25)
        assert calls == []  # the breaker fired before dispatch

    def test_history_aggregates(self):
        with Executor(_cfg("process")) as ex:
            ex.map_chunks(double, np.zeros((2 * CHUNK, 1)))
            ex.map_chunks(double, np.zeros((3 * CHUNK, 1)))
            total = ex.aggregate()
        assert len(ex.history) == 2
        assert total.n_items == 5 * CHUNK
        assert total.n_chunks == 5

    def test_chunk_records_have_timing(self):
        with Executor(_cfg("process")) as ex:
            ex.map_chunks(double, np.zeros((8, 1)))
            record = ex.last_metrics.records[0]
        assert record.wall_time_s >= 0.0
        assert record.where == "process"
        assert record.attempts == 1

    def test_executor_reusable_after_close(self):
        ex = Executor(_cfg("process"))
        out1 = ex.map_chunks(double, np.arange(8.0))
        ex.close()
        out2 = ex.map_chunks(double, np.arange(8.0))
        ex.close()
        assert np.array_equal(out1, out2)


class TestStatsSink:
    @pytest.mark.parametrize("backend,where", [
        ("serial", "serial"), ("process", "process")])
    def test_sink_sees_every_chunk_with_provenance(self, rng,
                                                   backend, where):
        chunks = 1 if backend == "serial" else 4
        block = rng.normal(size=(4 * CHUNK, 6))
        seen = []

        def sink(stats, origin):
            seen.append((stats, origin))

        with Executor(_cfg(backend)) as ex:
            got = ex.map_chunks(row_sums_with_stats, block,
                                stats_sink=sink)
        assert np.array_equal(got, row_sums(block))
        assert len(seen) == chunks
        assert all(origin == where for _, origin in seen)
        assert sum(stats["rows"] for stats, _ in seen) == block.shape[0]

    def test_empty_block_reports_through_the_sink(self):
        seen = []

        def sink(stats, origin):
            seen.append((stats, origin))

        with Executor(ExecutionConfig()) as ex:
            got = ex.map_chunks(row_sums_with_stats,
                                np.empty((0, 6)), stats_sink=sink)
        assert got.shape == (0,)
        assert seen == [({"rows": 0}, "serial")]


class TestWithRecords:
    def test_iter_tasks_yields_provenance(self):
        with Executor(ExecutionConfig()) as ex:
            pairs = list(ex.iter_tasks(
                row_sums, [(np.ones((2, 3)),), (np.ones((4, 3)),)],
                sizes=[2, 4]))
        assert [record.size for _, record in pairs] == [2, 4]
        assert all(record.where == "serial" for _, record in pairs)
        assert np.array_equal(pairs[0][0], np.full(2, 3.0))
