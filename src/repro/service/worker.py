"""Turning a :class:`~repro.service.spec.JobSpec` into an estimate.

Three responsibilities:

* :func:`build_estimator` -- construct the estimator a spec describes
  (two-stage ECRIPSE or the chunked naive reference), mirroring the CLI
  flag-to-object wiring bit-for-bit (``quick`` uses the same
  :meth:`~repro.core.ecripse.EcripseConfig.quick` preset as
  ``ecripse --quick``);
* :func:`spec_fingerprint` -- the durable result-cache key: estimator
  checkpoint fingerprint + evaluator solve fingerprint + the spec's
  result fields.  Equal keys mean bit-identical estimates, so the cache
  may answer without simulating;
* :func:`execute_job` -- one checkpointed run with the full resume
  protocol, wired to the service's cancellation hook and progress
  listener through the :class:`~repro.checkpoint.manager.CheckpointManager`
  seam (the same safe-boundary seam the kill/resume harness uses, so
  every interruption resumes bit-identically).

Naive jobs always run the *chunked* path (a real
:class:`~repro.runtime.config.ExecutionConfig`, never ``None``): the
chunk decomposition is backend-invariant, so the cached result is valid
whatever backend a later daemon happens to serve it under.
"""

from __future__ import annotations

from typing import Callable

from repro.checkpoint.config import CheckpointConfig
from repro.core.ecripse import EcripseConfig, EcripseEstimator
from repro.core.estimate import FailureEstimate
from repro.core.naive import NaiveMonteCarlo
from repro.errors import ServiceError
from repro.experiments.setup import ExperimentSetup, paper_setup
from repro.health import HealthConfig
from repro.perf import PerfConfig
from repro.rng import stable_seed
from repro.runtime import ExecutionConfig
from repro.service.spec import SPEC_SCHEMA, JobSpec


def job_setup(spec: JobSpec,
              perf: PerfConfig | None = None) -> ExperimentSetup:
    """The paper setup a spec describes."""
    return paper_setup(vdd=spec.vdd, alpha=spec.alpha,
                       grid_points=spec.grid_points, perf=perf)


def build_estimator(spec: JobSpec, setup: ExperimentSetup,
                    execution: ExecutionConfig | None = None):
    """Construct the estimator for ``spec`` over ``setup``."""
    execution = ExecutionConfig() if execution is None else execution
    if spec.kind in ("estimate", "array"):
        health = HealthConfig(policy=spec.health_policy)
        config = (EcripseConfig.quick() if spec.quick
                  else EcripseConfig()).with_(execution=execution,
                                              health=health)
        return EcripseEstimator(setup.space, setup.indicator,
                                setup.rtn_model, config=config,
                                seed=spec.seed)
    if spec.kind == "naive":
        return NaiveMonteCarlo(setup.space, setup.indicator,
                               setup.rtn_model, seed=spec.seed,
                               execution=execution)
    raise ServiceError(f"unknown job kind {spec.kind!r}")


def run_kwargs(spec: JobSpec) -> dict:
    """The ``estimator.run`` arguments a spec implies."""
    if spec.kind in ("estimate", "array"):
        return {"target_relative_error": spec.target_relative_error,
                "max_simulations": spec.max_simulations}
    return {"n_samples": spec.n_samples,
            "target_relative_error": spec.target_relative_error}


def spec_fingerprint(spec: JobSpec) -> str:
    """Stable hex id of the *result* ``spec`` computes.

    Three layers, deliberately overlapping:

    * the estimator's checkpoint fingerprint (method, configuration
      including the health policy, RTN model class + alpha; execution
      backend excluded by construction);
    * the evaluator's solve fingerprint (cell parameter cards,
      geometry, supply, grid resolution, margin levels, bisection
      depths);
    * the spec's own result fields (seed, budgets, target) -- the
      knobs the estimator fingerprints do not see.

    Scheduling hints (priority, checkpoint cadence) never enter: by the
    kill/resume bit-identity guarantee they cannot change the estimate.
    """
    setup = job_setup(spec)
    estimator = build_estimator(spec, setup)
    return format(stable_seed(
        "service-job", SPEC_SCHEMA,
        estimator.fingerprint(),
        setup.evaluator.solve_fingerprint(),
        spec.result_fields()), "016x")


def execute_job(spec: JobSpec, checkpoint_dir, *, resume: bool,
                execution: ExecutionConfig | None = None,
                perf: PerfConfig | None = None,
                keep: int = 3,
                interrupt: Callable[[], str | None] | None = None,
                listener: Callable[[int, str], None] | None = None
                ) -> FailureEstimate:
    """Run (or resume) one job to completion.

    ``interrupt`` is polled at every checkpoint-safe boundary; a
    non-``None`` reason force-saves the boundary and unwinds with
    :class:`~repro.errors.ShutdownRequested` carrying that reason
    (the process-wide signal coordinator is honoured the same way).
    ``listener(n_simulations, kind)`` fires after each durable save.

    The resume protocol matches
    :func:`repro.checkpoint.integrate.run_checkpointed`: a finished
    run's ``result.json`` short-circuits, an interrupted run restores
    the newest snapshot and continues bit-identically, and the final
    estimator state is snapshotted before the result is published.
    """
    if spec.kind == "array" and spec.pfail is not None:
        # the decision question with a directly supplied pfail is pure
        # arithmetic -- no simulations, nothing to checkpoint
        return _direct_array_estimate(spec)
    setup = job_setup(spec, perf=perf)
    estimator = build_estimator(spec, setup, execution=execution)
    cp = CheckpointConfig(directory=checkpoint_dir,
                          every_simulations=spec.checkpoint_every,
                          keep=keep, resume=resume)
    manager = cp.manager("run")
    manager.interrupt = interrupt
    manager.listener = listener
    if resume:
        result = manager.load_result()
        if result is not None:
            manager.restore_into(estimator)
            return result
        manager.restore_into(estimator)
    estimate = estimator.run(checkpoint=manager, **run_kwargs(spec))
    if spec.kind == "array":
        _attach_array_report(spec, estimate)
    manager.save_final(estimator, estimate.n_simulations)
    manager.save_result(estimate)
    return estimate


def _attach_array_report(spec: JobSpec,
                         estimate: FailureEstimate) -> None:
    """Evaluate the decision chain on a finished estimate (robustness
    is judged at the CI upper bound) and ride it on the metadata, so
    the fingerprint-keyed result cache serves the full decision."""
    from repro.analysis.ecc import analyze_array

    assert spec.array is not None
    pfail = min(float(estimate.pfail), 0.5)
    upper = min(pfail + float(estimate.ci_halfwidth), 0.5)
    report = analyze_array(spec.array, pfail, cell_pfail_upper=upper)
    estimate.metadata["array"] = report.as_dict()


def _direct_array_estimate(spec: JobSpec) -> FailureEstimate:
    from repro.analysis.ecc import analyze_array

    assert spec.array is not None and spec.pfail is not None
    report = analyze_array(spec.array, float(spec.pfail))
    estimate = FailureEstimate(
        pfail=float(spec.pfail), ci_halfwidth=0.0, n_simulations=0,
        n_statistical_samples=0, method="array-direct",
        wall_time_s=0.0)
    estimate.metadata["array"] = report.as_dict()
    return estimate
