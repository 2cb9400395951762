"""End-to-end determinism of the parallel runtime.

The acceptance contract of the runtime subsystem: for a fixed seed, the
``process`` backend reproduces the ``serial`` estimate bit-for-bit --
including when workers fail and chunks fall back to the parent process.
"""

import os

import numpy as np

from repro.core.ecripse import EcripseConfig, EcripseEstimator
from repro.core.indicator import FunctionIndicator
from repro.core.naive import NaiveMonteCarlo
from repro.rtn.model import ZeroRtnModel
from repro.runtime import ExecutionConfig
from repro.variability.space import VariabilitySpace

DIM = 4
SPACE = VariabilitySpace(np.ones(DIM))
NULL = ZeroRtnModel(SPACE)

FAST = EcripseConfig(n_particles=60, k_train=128, stage2_batch=1500,
                     max_statistical_samples=400_000)


# module-level (picklable) indicator bodies for the process backend
def two_lobes(x):
    return np.abs(x[:, 0]) > 3.5


def common_event(x):
    return x[:, 0] > 1.5  # p ~ 6.7e-2: frequent enough to stop early


class FailsInWorkers:
    """Indicator that raises everywhere except the parent process.

    Exercises the full fault path: every chunk dispatched to a process
    pool fails, is retried, and finally falls back to in-parent serial
    evaluation -- which must leave the estimate untouched.
    """

    def __init__(self, dim: int, parent_pid: int):
        self.dim = dim
        self.parent_pid = parent_pid

    def evaluate(self, x):
        if os.getpid() != self.parent_pid:
            raise RuntimeError("injected worker failure")
        return two_lobes(np.asarray(x))


def _execution(backend):
    return ExecutionConfig(backend=backend, workers=2)


def _ecripse_estimator(execution=None, indicator=None):
    config = FAST if execution is None else FAST.with_(execution=execution)
    if indicator is None:
        indicator = FunctionIndicator(two_lobes, DIM)
    return EcripseEstimator(SPACE, indicator, NULL, config=config, seed=7)


def _ecripse_result(execution=None, indicator=None):
    estimator = _ecripse_estimator(execution, indicator)
    return estimator.run(target_relative_error=0.2)


class TestEcripseAcrossBackends:
    def test_parallel_backends_match_serial_bitwise(self):
        serial = _ecripse_result(_execution("serial"))
        result = _ecripse_result(_execution("process"))
        assert result.pfail == serial.pfail  # bit-identical, no tol
        assert result.n_simulations == serial.n_simulations
        assert result.n_statistical_samples == \
            serial.n_statistical_samples

    def test_default_config_unchanged_by_runtime(self):
        """The executor wiring must not perturb the plain serial path."""
        default = _ecripse_result()
        explicit = _ecripse_result(_execution("serial"))
        assert default.pfail == explicit.pfail
        assert default.n_simulations == explicit.n_simulations

    def test_execution_metadata_recorded(self):
        result = _ecripse_result(_execution("process"))
        runtime = result.metadata["execution"]
        assert runtime["backend"] == "process"
        assert runtime["workers"] == 2
        # boundary-stage simulations run outside the executor; everything
        # else (stage-1 + stage-2 labelling) is accounted by the runtime
        assert runtime["n_simulations"] == (
            result.n_simulations - result.metadata["boundary_simulations"])

    def test_filter_prediction_runs_inline(self):
        """Stage-1 prediction never reaches the pool: a process run
        records only simulation batches and matches serial bit for
        bit."""
        serial = _ecripse_result(_execution("serial"))
        estimator = _ecripse_estimator(_execution("process"))
        result = estimator.run(target_relative_error=0.2)
        labels = {run.label for run in estimator.executor.history}
        assert labels == {"simulate-labels"}
        assert result.pfail == serial.pfail
        assert result.ci_halfwidth == serial.ci_halfwidth
        assert result.n_simulations == serial.n_simulations
        assert [p.as_dict() for p in result.trace] == \
            [p.as_dict() for p in serial.trace]

    def test_worker_faults_do_not_corrupt_estimate(self):
        """Fault injection: chunks that raise on the pool are recomputed
        serially, and the final estimate is bit-identical to the healthy
        serial run."""
        healthy = _ecripse_result(_execution("serial"))
        faulty = _ecripse_result(
            _execution("process"),
            indicator=FailsInWorkers(DIM, os.getpid()))
        assert faulty.pfail == healthy.pfail
        assert faulty.n_simulations == healthy.n_simulations
        assert faulty.metadata["execution"]["n_fallbacks"] > 0


class TestNaiveAcrossBackends:
    def _run(self, backend, target=None, indicator=two_lobes):
        mc = NaiveMonteCarlo(SPACE, FunctionIndicator(indicator, DIM),
                             NULL, batch_size=64, seed=3,
                             execution=_execution(backend))
        return mc.run(4000, target_relative_error=target)

    def test_backends_match_bitwise(self):
        serial = self._run("serial")
        result = self._run("process")
        assert result.pfail == serial.pfail
        assert result.n_simulations == serial.n_simulations
        assert result.metadata["failures"] == serial.metadata["failures"]

    def test_early_stop_consumes_identical_prefix(self):
        """The stopping rule runs on the ordered chunk prefix, so the
        consumed sample count is backend-independent even though a pool
        may have speculatively computed further chunks."""
        serial = self._run("serial", target=0.3, indicator=common_event)
        process = self._run("process", target=0.3, indicator=common_event)
        assert process.n_simulations == serial.n_simulations
        assert process.n_simulations < 4000  # the stop actually fired
        assert process.pfail == serial.pfail
