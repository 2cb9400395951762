"""Job execution: build wiring, interrupt/resume bit-identity."""

import pytest

from repro.core.ecripse import EcripseEstimator
from repro.core.naive import NaiveMonteCarlo
from repro.errors import ShutdownRequested
from repro.service.spec import JobSpec
from repro.service.worker import build_estimator, execute_job, \
    job_setup, run_kwargs

NAIVE = JobSpec(kind="naive", n_samples=3000, seed=11,
                target_relative_error=1e-9, checkpoint_every=800)
QUICK = JobSpec(kind="estimate", quick=True, seed=1,
                target_relative_error=0.5, checkpoint_every=300)


def comparable(estimate) -> dict:
    """The result fields that must be bit-identical (wall time and perf
    telemetry legitimately differ between runs)."""
    return {"pfail": estimate.pfail,
            "ci_halfwidth": estimate.ci_halfwidth,
            "n_simulations": estimate.n_simulations,
            "n_statistical_samples": estimate.n_statistical_samples,
            "trace": [(p.n_simulations, p.estimate, p.ci_halfwidth)
                      for p in estimate.trace]}


class TestBuildWiring:
    def test_estimate_spec_builds_ecripse(self):
        setup = job_setup(QUICK)
        estimator = build_estimator(QUICK, setup)
        assert isinstance(estimator, EcripseEstimator)
        assert estimator.config.health.policy.value == "strict"
        # quick=True must match the CLI --quick preset bit-for-bit
        assert estimator.config.n_particles == 60

    def test_naive_spec_builds_chunked_naive(self):
        setup = job_setup(NAIVE)
        estimator = build_estimator(NAIVE, setup)
        assert isinstance(estimator, NaiveMonteCarlo)
        # always the chunked (backend-invariant) path, never legacy
        assert estimator.execution is not None

    def test_run_kwargs_by_kind(self):
        assert run_kwargs(QUICK) == {
            "target_relative_error": 0.5, "max_simulations": None}
        assert run_kwargs(NAIVE) == {
            "n_samples": 3000, "target_relative_error": 1e-9}


class TestExecuteJob:
    def test_fresh_run_produces_estimate(self, tmp_path):
        estimate = execute_job(NAIVE, tmp_path, resume=False)
        assert estimate.n_statistical_samples == 3000
        assert estimate.method == "naive-mc"

    def test_interrupted_then_resumed_is_bit_identical(self, tmp_path):
        reference = execute_job(NAIVE, tmp_path / "ref", resume=False)

        # interrupt at the first safe boundary: force-save + unwind
        with pytest.raises(ShutdownRequested, match="drain"):
            execute_job(NAIVE, tmp_path / "cut", resume=False,
                        interrupt=lambda: "drain")
        resumed = execute_job(NAIVE, tmp_path / "cut", resume=True)
        assert comparable(resumed) == comparable(reference)

    def test_estimate_kind_interrupt_resume_bit_identical(self, tmp_path):
        reference = execute_job(QUICK, tmp_path / "ref", resume=False)

        calls = []

        def interrupt_once():
            calls.append(1)
            return "drain" if len(calls) == 2 else None

        with pytest.raises(ShutdownRequested):
            execute_job(QUICK, tmp_path / "cut", resume=False,
                        interrupt=interrupt_once)
        resumed = execute_job(QUICK, tmp_path / "cut", resume=True)
        assert comparable(resumed) == comparable(reference)

    def test_finished_run_short_circuits_on_resume(self, tmp_path):
        first = execute_job(NAIVE, tmp_path, resume=False)
        listener_calls = []
        again = execute_job(NAIVE, tmp_path, resume=True,
                            listener=lambda n, kind:
                            listener_calls.append((n, kind)))
        # served from result.json: no run, no snapshots, same numbers
        assert listener_calls == []
        assert comparable(again) == comparable(first)

    def test_listener_fires_per_durable_save(self, tmp_path):
        saves = []
        execute_job(NAIVE, tmp_path, resume=False,
                    listener=lambda n, kind: saves.append((n, kind)))
        assert saves, "expected at least one durable snapshot"
        assert saves[-1][1] == "final"
        assert all(kind in ("periodic", "final") for _, kind in saves)

    def test_cancel_reason_propagates(self, tmp_path):
        with pytest.raises(ShutdownRequested) as exc_info:
            execute_job(NAIVE, tmp_path, resume=False,
                        interrupt=lambda: "cancel")
        assert exc_info.value.reason == "cancel"
