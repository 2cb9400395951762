"""Kill/resume integration: the tentpole invariant.

A run killed at any checkpoint boundary and resumed from disk must
produce a *bit-identical* FailureEstimate -- same pfail, same
n_simulations, same convergence trace -- on every runtime backend.
These tests inject a crash at checkpoint boundary N (for several N),
resume from the surviving snapshot and compare against an
uninterrupted reference run.
"""

import numpy as np
import pytest

from repro.checkpoint import CheckpointConfig, run_checkpointed
from repro.core.ecripse import EcripseConfig, EcripseEstimator
from repro.core.indicator import FunctionIndicator
from repro.core.naive import NaiveMonteCarlo
from repro.errors import CheckpointCrash, CheckpointError
from repro.rtn.model import ZeroRtnModel
from repro.runtime import BACKENDS, ExecutionConfig
from repro.variability.space import VariabilitySpace

DIM = 4
SPACE = VariabilitySpace(np.ones(DIM))
NULL = ZeroRtnModel(SPACE)

#: small budgets so a full run finishes in ~1 s even on one core.
TINY = EcripseConfig(n_particles=40, n_iterations=3, k_train=64,
                     stage2_batch=600, max_statistical_samples=50_000,
                     n_boundary_directions=24, n_bisections=8)


# module-level (picklable) indicator body for the process backend
def two_lobes(x):
    return np.abs(x[:, 0]) > 3.5


def indicator():
    return FunctionIndicator(two_lobes, dim=DIM)


def _execution(backend):
    if backend == "serial":
        return None
    return ExecutionConfig(backend=backend, workers=2)


def _config(backend):
    execution = _execution(backend)
    return TINY if execution is None else TINY.with_(execution=execution)


def _signature(estimate):
    return (estimate.pfail, estimate.n_simulations,
            [point.as_dict() for point in estimate.trace])


def _ecripse(backend, seed=7):
    return EcripseEstimator(SPACE, indicator(), NULL,
                            config=_config(backend), seed=seed)


def _run_crash_resume(make_estimator, crash_after, tmp_path,
                      **run_kwargs):
    """Crash after the N-th snapshot, then resume; returns the resumed
    estimate (and asserts the crash actually fired)."""
    crash_cp = CheckpointConfig(directory=tmp_path,
                                every_simulations=None,
                                crash_after=crash_after)
    with pytest.raises(CheckpointCrash):
        run_checkpointed(crash_cp, "run", make_estimator(), **run_kwargs)
    resume_cp = CheckpointConfig(directory=tmp_path,
                                 every_simulations=None, resume=True)
    return run_checkpointed(resume_cp, "run", make_estimator(),
                            **run_kwargs)


class TestEcripseKillResume:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("crash_after", [1, 3, 6])
    def test_bit_identical_after_crash(self, backend, crash_after,
                                       tmp_path):
        reference = _ecripse(backend).run(target_relative_error=0.2)
        resumed = _run_crash_resume(
            lambda: _ecripse(backend), crash_after, tmp_path,
            target_relative_error=0.2)
        assert _signature(resumed) == _signature(reference)

    def test_cross_backend_resume(self, tmp_path):
        """The fingerprint excludes the execution config, so a run
        crashed under one backend legally resumes under another."""
        reference = _ecripse("serial").run(target_relative_error=0.2)
        crash_cp = CheckpointConfig(directory=tmp_path,
                                    every_simulations=None, crash_after=4)
        with pytest.raises(CheckpointCrash):
            run_checkpointed(crash_cp, "run", _ecripse("serial"),
                             target_relative_error=0.2)
        resume_cp = CheckpointConfig(directory=tmp_path,
                                     every_simulations=None, resume=True)
        resumed = run_checkpointed(resume_cp, "run", _ecripse("process"),
                                   target_relative_error=0.2)
        assert _signature(resumed) == _signature(reference)

    def test_completed_run_resumes_from_result(self, tmp_path):
        cp = CheckpointConfig(directory=tmp_path, every_simulations=None)
        first = run_checkpointed(cp, "run", _ecripse("serial"),
                                 target_relative_error=0.2)
        resume_cp = CheckpointConfig(directory=tmp_path,
                                     every_simulations=None, resume=True)
        again = _ecripse("serial")
        second = run_checkpointed(resume_cp, "run", again,
                                  target_relative_error=0.2)
        assert _signature(second) == _signature(first)
        # the final snapshot restored the finished estimator, so its
        # boundary/classifier are reusable without new simulations
        assert again.boundary is not None
        assert again.counter.count == first.n_simulations

    def test_fingerprint_mismatch_refused(self, tmp_path):
        crash_cp = CheckpointConfig(directory=tmp_path,
                                    every_simulations=None, crash_after=2)
        with pytest.raises(CheckpointCrash):
            run_checkpointed(crash_cp, "run", _ecripse("serial"),
                             target_relative_error=0.2)
        other_space = VariabilitySpace(np.ones(DIM + 1))
        other = EcripseEstimator(
            other_space, FunctionIndicator(two_lobes, dim=DIM + 1),
            ZeroRtnModel(other_space), config=TINY, seed=7)
        resume_cp = CheckpointConfig(directory=tmp_path,
                                     every_simulations=None, resume=True)
        with pytest.raises(CheckpointError, match="refusing to resume"):
            run_checkpointed(resume_cp, "run", other,
                             target_relative_error=0.2)


class TestNaiveKillResume:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bit_identical_after_crash(self, backend, tmp_path):
        def make():
            return NaiveMonteCarlo(SPACE, indicator(), NULL,
                                   batch_size=500, seed=3,
                                   execution=_execution(backend))

        reference = make().run(n_samples=5000)
        resumed = _run_crash_resume(make, 2, tmp_path, n_samples=5000)
        assert _signature(resumed) == _signature(reference)

    def test_resume_with_different_n_samples_refused(self, tmp_path):
        def make():
            return NaiveMonteCarlo(SPACE, indicator(), NULL,
                                   batch_size=500, seed=3)

        crash_cp = CheckpointConfig(directory=tmp_path,
                                    every_simulations=None, crash_after=1)
        with pytest.raises(CheckpointCrash):
            run_checkpointed(crash_cp, "run", make(), n_samples=5000)
        resume_cp = CheckpointConfig(directory=tmp_path,
                                     every_simulations=None, resume=True)
        with pytest.raises(CheckpointError, match="n_samples"):
            run_checkpointed(resume_cp, "run", make(), n_samples=6000)
