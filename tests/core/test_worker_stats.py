"""Process-backend perf accounting: pool workers solve on evaluator
*copies*, so their device-model counters must travel back with each
chunk and be absorbed by the estimator -- a process-backend run reports
the same nonzero ``device_model_evals`` as the serial run (and the same
estimate, bit for bit)."""

from __future__ import annotations

import pytest

from repro.core.ecripse import EcripseConfig, EcripseEstimator
from repro.core.naive import NaiveMonteCarlo
from repro.experiments.setup import paper_setup
from repro.perf import PerfConfig
from repro.runtime import ExecutionConfig

pytestmark = pytest.mark.slow


def _execution(backend, **kw):
    return ExecutionConfig(backend=backend, workers=2, max_retries=1,
                           retry_backoff_s=0.0, **kw)


def _fresh_setup():
    # a fresh setup per run: a shared solve cache would let the second
    # run skip solves and trivially break the eval-count comparison
    return paper_setup(grid_points=21,
                       perf=PerfConfig(cache_entries=0))


def _ecripse_run(execution):
    setup = _fresh_setup()
    config = EcripseConfig.quick(max_statistical_samples=40_000,
                                 execution=execution)
    estimator = EcripseEstimator(setup.space, setup.indicator,
                                 setup.rtn_model, config=config,
                                 seed=2015)
    result = estimator.run(target_relative_error=0.3,
                           max_simulations=4000)
    return result, setup.evaluator.perf_stats()


def _naive_run(execution):
    setup = _fresh_setup()
    estimator = NaiveMonteCarlo(setup.space, setup.indicator,
                                setup.rtn_model, seed=2015,
                                execution=execution)
    result = estimator.run(n_samples=2000)
    return result, setup.evaluator.perf_stats()


class TestEcripseWorkerStats:
    def test_process_run_matches_serial_counters(self):
        serial_result, serial_stats = _ecripse_run(_execution("serial"))
        process_result, process_stats = _ecripse_run(_execution("process"))
        assert process_result.pfail == serial_result.pfail
        assert serial_stats["device_model_evals"] > 0
        assert process_stats["device_model_evals"] == \
            serial_stats["device_model_evals"]


class TestNaiveWorkerStats:
    def test_process_run_matches_serial_counters(self):
        # same chunking both times: the chunk plan fixes the RNG
        # decomposition, so only matched plans are comparable bitwise
        serial_result, serial_stats = _naive_run(
            _execution("serial", chunk_size=500))
        process_result, process_stats = _naive_run(
            _execution("process", chunk_size=500))
        assert process_result.pfail == serial_result.pfail
        assert serial_stats["device_model_evals"] > 0
        assert process_stats["device_model_evals"] == \
            serial_stats["device_model_evals"]
