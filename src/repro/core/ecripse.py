"""ECRIPSE: the paper's two-stage, classifier-assisted estimator.

Algorithm 1 of the paper:

1. **Initial sample selection** -- particles are placed on the failure
   boundary found by radial bisection (:mod:`repro.core.boundary`); an
   existing boundary can be passed in to share initialisation across bias
   conditions (Fig. 7b / Fig. 8).
2-4. **Particle filtering** -- a bank of filters tracks the failure lobes;
   candidate weights are ``P_fail^RTN(x) * P_RDF(x)`` (eq. 16-17) where
   the inner RTN failure probability is estimated from M RTN draws whose
   labels come mostly from the classifier: only K randomly chosen draws
   per iteration are simulated and used as training data (Section III-B,
   step 3).  Label errors here only perturb the alternative distribution,
   never the estimate.
5. **Importance sampling** -- the final particles define a Gaussian-mixture
   alternative distribution (eq. 18) from which statistical samples are
   drawn in batches; each batch's RTN draws are labelled by the classifier
   except inside an uncertainty band around the hyperplane, which is
   simulated and fed back as incremental training data (eq. 19).

Transistor-level simulations are counted by a
:class:`~repro.core.indicator.SimulationCounter`; classifier evaluations
are free, which is the entire point of the method.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from repro.core.boundary import BoundarySearchResult, find_failure_boundary
from repro.core.estimate import FailureEstimate, RunningMean, TracePoint
from repro.core.filter import ParticleFilterBank
from repro.core.importance import (
    DefensiveMixture,
    GaussianMixture,
    importance_ratios,
)
from repro.core.indicator import (
    CountingIndicator,
    Indicator,
    SimulationCounter,
)
from repro.errors import CheckpointError, EstimationError
from repro.health import HealthConfig, HealthMonitor
from repro.perf.profile import StageProfiler
from repro.ml.blockade import ClassifierBlockade
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
from repro.variability.space import VariabilitySpace


@dataclass(frozen=True)
class EcripseConfig:
    """Tuning knobs of :class:`EcripseEstimator`.

    Stage-1 (particle filter) parameters
    ------------------------------------
    n_filters:
        Independent particle filters (paper: several, to cover both
        symmetric failure lobes; 1 reproduces the degeneracy failure mode).
    n_particles:
        Particles per filter.
    n_iterations:
        Predict/measure/resample rounds ("ten times of repetition is
        enough" -- Section III-B).
    kernel_sigma:
        Proposal / mixture kernel standard deviation, whitened units.
    m_rtn:
        RTN draws per candidate for the eq. (17) inner estimate (forced to
        1 for the null RTN model).
    k_train:
        Simulated (labelled) samples per particle-filter iteration.

    Initialisation parameters
    -------------------------
    n_boundary_directions, boundary_r_max, n_bisections:
        Radial boundary search (step 1).

    Stage-2 (importance sampling) parameters
    ----------------------------------------
    stage2_batch:
        Statistical samples per stage-2 batch.
    defensive_fraction:
        Prior mass blended into the stage-2 alternative distribution
        (bounds importance weights by its reciprocal).
    is_sigma_scale:
        Stage-2 kernel sigma relative to the particle-filter kernel; >1
        widens the mixture so it covers the optimal distribution's spread
        in the directions the particles under-explore.
    m_rtn_stage2:
        RTN draws per statistical sample in stage 2.
    max_statistical_samples:
        Hard cap on stage-2 statistical samples.
    min_stage2_batches:
        Batches to run before the stopping rule may fire.

    Classifier parameters
    ---------------------
    use_classifier:
        ``False`` simulates every label (the conventional baseline and the
        A1 ablation).
    classifier_degree:
        Polynomial degree of the feature map (paper: 4).
    classifier_c:
        SVM cost.
    band_quantile:
        Training-|decision| quantile defining the stage-2 uncertainty
        band.
    retrain_trigger:
        Incremental-retrain threshold (new labels).

    Execution parameters
    --------------------
    execution:
        :class:`~repro.runtime.config.ExecutionConfig` selecting the
        backend and worker count of the transistor-level simulation
        batches.
        The default (serial) reproduces the single-core behaviour; for a
        fixed seed every backend returns the bit-identical estimate.

    Health parameters
    -----------------
    health:
        :class:`~repro.health.policy.HealthConfig` selecting the
        degradation policy and fault injection (see
        :mod:`repro.health`).  The default (``strict``, no injection)
        reproduces the legacy behaviour exactly on healthy runs.  Part
        of the config, so it participates in the checkpoint
        fingerprint: an injected or recovering run can never resume
        from an incompatible snapshot.
    """

    n_filters: int = 2
    n_particles: int = 100
    n_iterations: int = 10
    kernel_sigma: float = 0.35
    m_rtn: int = 8
    k_train: int = 256
    n_boundary_directions: int = 64
    boundary_r_max: float = 8.0
    n_bisections: int = 12
    stage2_batch: int = 2000
    m_rtn_stage2: int = 4
    max_statistical_samples: int = 2_000_000
    min_stage2_batches: int = 4
    defensive_fraction: float = 0.1
    is_sigma_scale: float = 2.5
    use_classifier: bool = True
    classifier_degree: int = 4
    classifier_c: float = 10.0
    band_quantile: float = 0.12
    retrain_trigger: int = 500
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    health: HealthConfig = field(default_factory=HealthConfig)

    def __post_init__(self) -> None:
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if self.m_rtn < 1 or self.m_rtn_stage2 < 1:
            raise ValueError("RTN draw counts must be >= 1")
        if self.k_train < 2:
            raise ValueError("k_train must be >= 2")
        if self.stage2_batch < 2:
            raise ValueError("stage2_batch must be >= 2")
        if self.min_stage2_batches < 1:
            raise ValueError("min_stage2_batches must be >= 1")
        if not 0.0 < self.defensive_fraction < 1.0:
            raise ValueError("defensive_fraction must lie in (0, 1)")
        if self.is_sigma_scale <= 0:
            raise ValueError("is_sigma_scale must be positive")

    def with_(self, **changes) -> "EcripseConfig":
        """Return a copy with ``changes`` applied (dataclass replace)."""
        return replace(self, **changes)

    @classmethod
    def quick(cls, **changes) -> "EcripseConfig":
        """The reduced-budget smoke configuration (``--quick``).

        One definition shared by the CLI and the service job builder,
        so a job submitted with ``"quick": true`` reproduces the CLI's
        ``--quick`` estimate bit-for-bit.
        """
        return cls(n_particles=60, n_iterations=6, k_train=128,
                   stage2_batch=1500,
                   max_statistical_samples=300_000).with_(**changes)


class _FixedRepr:
    """A value whose ``repr`` is a fixed string."""

    def __init__(self, text: str) -> None:
        self._text = text

    def __repr__(self) -> str:
        return self._text


#: Stand-in hashed for the execution config by
#: :meth:`EcripseEstimator.fingerprint`.  The backend never changes a
#: result, so any constant would do; this one is the repr the default
#: ``ExecutionConfig`` had when stored checkpoint and result-cache
#: fingerprints were computed, kept verbatim so adding or removing an
#: execution knob never orphans them.
_EXECUTION_IN_FINGERPRINT = _FixedRepr(
    "ExecutionConfig(backend='serial', workers=None, chunk_size=None, "
    "max_retries=2, retry_backoff_s=0.05, fallback_serial=True, "
    "shm_threshold_bytes=1048576)")

#: Template of the stand-in hashed for the health config.  It is the
#: repr ``HealthConfig`` had when its thresholds were fields and stored
#: fingerprints were computed; only ``policy`` and ``inject`` are still
#: settable, so their reprs fill the two slots and the rest stays
#: verbatim.
_HEALTH_IN_FINGERPRINT = (
    "HealthConfig(policy={policy!r}, solver_retries=2, "
    "solver_accept_residual=1e-06, stage1_ess_floor=0.02, "
    "stage1_patience=2, max_reseeds=2, stage2_ess_floor=0.02, "
    "stage2_patience=2, sigma_widen=1.5, max_widenings=2, "
    "weight_clip_factor=1.000001, inject={inject!r})")


class EcripseEstimator:
    """The proposed failure-probability estimator.

    Parameters
    ----------
    space:
        Whitened RDF variability space.
    indicator:
        Deterministic failure indicator in the total-shift space (for RTN
        runs: the stored-"0" lobe indicator; states are mirrored onto it).
    rtn_model:
        RTN sampler (:class:`~repro.rtn.model.RtnModel`) or the null model.
    config:
        :class:`EcripseConfig`.
    initial_boundary:
        A previous run's :attr:`boundary` to skip step (1) (bias sweeps).
    classifier:
        A previous run's :attr:`blockade` to reuse accumulated training
        data (valid across bias conditions at a fixed supply because the
        deterministic indicator does not depend on the duty ratio).
    """

    method = "ecripse"

    #: mutable state that deliberately does not ride snapshots:
    #: ``mixture`` is a pure function of the filter bank, rebuilt by
    #: :meth:`_finalize_stage1` on restore; ``_perf_baseline`` is
    #: recaptured at the top of every :meth:`run`.
    _SNAPSHOT_EXCLUDED = ("mixture", "_perf_baseline")

    def __init__(self, space: VariabilitySpace, indicator: Indicator,
                 rtn_model, config: EcripseConfig | None = None, seed=None,
                 initial_boundary: BoundarySearchResult | None = None,
                 classifier: ClassifierBlockade | None = None) -> None:
        self.space = space
        self.rtn_model = rtn_model
        self.config = config if config is not None else EcripseConfig()
        self.counter = SimulationCounter()
        self.indicator = CountingIndicator(indicator, self.counter)
        # The initial boundary search must cover every failure lobe the
        # (possibly state-mirrored) weight function can reach; indicators
        # that only score one lobe advertise a wider boundary indicator.
        boundary_source = getattr(indicator, "boundary_indicator", None)
        self.boundary_search_indicator = CountingIndicator(
            boundary_source if boundary_source is not None else indicator,
            self.counter)
        self.executor = Executor(self.config.execution,
                                 counter=self.counter)
        rng = as_generator(seed)
        (self._rng_boundary, self._rng_bank, self._rng_stage1,
         self._rng_stage2, rng_clf) = spawn(rng, 5)
        self.boundary = initial_boundary
        if classifier is not None:
            self.blockade = classifier
        else:
            self.blockade = ClassifierBlockade(
                dim=space.dim, degree=self.config.classifier_degree,
                band_quantile=self.config.band_quantile,
                c=self.config.classifier_c,
                retrain_trigger=self.config.retrain_trigger,
                seed=int(rng_clf.integers(2**31)))
        self.filter_bank: ParticleFilterBank | None = None
        self.mixture: DefensiveMixture | None = None
        self.health = HealthMonitor(self.config.health)
        self.profiler = StageProfiler()
        self._perf_baseline: dict = {}
        # Resumable-run progress markers (see state_snapshot); a fresh
        # estimator starts in phase "init" with empty accumulators.
        self._phase = "init"
        self._stage1_iter = 0
        self._stage2_batches = 0
        self._stage2_done = False
        self._sims_boundary = 0
        self._sims_stage1 = 0
        self._accumulator = RunningMean()
        self._trace: list[TracePoint] = []

    # ------------------------------------------------------------------
    def run(self, target_relative_error: float = 0.01,
            max_simulations: int | None = None,
            checkpoint=None) -> FailureEstimate:
        """Estimate P_fail.

        Stops when the 95 % CI relative error drops below the target (after
        a minimum number of batches), when ``max_simulations`` is exceeded,
        or when the statistical-sample cap is reached -- whichever first.

        ``checkpoint`` (a
        :class:`~repro.checkpoint.manager.CheckpointManager`) snapshots
        the full estimator state at every safe boundary -- after the
        boundary search, after each particle-filter iteration and after
        each stage-2 batch -- so a killed run, restored via
        ``restore_into`` and re-``run``, finishes with the bit-identical
        estimate and trace the uninterrupted run produces.
        """
        if not target_relative_error > 0:
            raise ValueError("target_relative_error must be positive")
        start = time.perf_counter()
        cfg = self.config
        # Perf counters live on the (possibly sweep-shared) evaluator,
        # so this run's contribution is reported as a delta over the
        # baseline captured here.
        self._perf_baseline = indicator_perf_stats(self.indicator.indicator)

        try:
            if self._phase == "init":
                if self.boundary is None:
                    with self.profiler.span("boundary-search"):
                        self.boundary = find_failure_boundary(
                            self.boundary_search_indicator,
                            cfg.n_boundary_directions,
                            self._rng_boundary, r_max=cfg.boundary_r_max,
                            n_bisections=cfg.n_bisections)
                self._sims_boundary = self.counter.count
                self._phase = "stage1"
                if checkpoint is not None:
                    checkpoint.maybe_save(self, self.counter.count)
            if self._phase == "stage1":
                self._run_stage1(checkpoint)
            estimate = self._run_stage2(
                target_relative_error, max_simulations, checkpoint)
        finally:
            self.executor.close()

        estimate.wall_time_s = time.perf_counter() - start
        estimate.trace = list(self._trace)
        estimate.metadata.update({
            "boundary_simulations": self._sims_boundary,
            "stage1_simulations": self._sims_stage1,
            "stage2_simulations": (self.counter.count
                                   - self._sims_stage1
                                   - self._sims_boundary),
            "classifier_trainings": self.blockade.train_count,
            "classifier_samples": self.blockade.n_training_samples,
            "use_classifier": cfg.use_classifier,
            "n_filters": cfg.n_filters,
            "execution": self.executor.aggregate().as_dict(),
            "perf": perf_metadata(self.indicator.indicator,
                                  self._perf_baseline,
                                  self.profiler.as_dict()),
        })
        estimate.health = self.health.report
        return estimate

    # ------------------------------------------------------------------
    # stage 1: particle filtering
    # ------------------------------------------------------------------
    def _run_stage1(self, checkpoint=None) -> None:
        cfg = self.config
        if self.filter_bank is None:
            self.filter_bank = ParticleFilterBank(
                self.boundary.points, cfg.n_filters, cfg.n_particles,
                cfg.kernel_sigma, self._rng_bank)
        m = 1 if self.rtn_model.is_null else cfg.m_rtn
        while self._stage1_iter < cfg.n_iterations:
            with self.profiler.span("stage1-predict"):
                candidates = self.filter_bank.predict_all()
            total = self._total_shift_samples(candidates, m,
                                              self._rng_stage1)
            with self.profiler.span("stage1-label"):
                labels = self._labels_stage1(total)
            p_fail_rtn = labels.reshape(candidates.shape[0], m).mean(axis=1)
            weights = p_fail_rtn * self.space.pdf(candidates)
            weights = self.health.stage1_weights(weights, cfg.n_particles)
            with self.profiler.span("stage1-resample"):
                self.filter_bank.resample_all(candidates, weights)
            self._stage1_iter += 1
            self.health.check_stage1(self.filter_bank, weights,
                                     self.boundary, self._stage1_iter)
            if checkpoint is not None:
                checkpoint.maybe_save(self, self.counter.count)
        self._sims_stage1 = self.counter.count - self._sims_boundary
        self._phase = "stage2"
        self._finalize_stage1()
        if checkpoint is not None:
            checkpoint.maybe_save(self, self.counter.count)

    def _finalize_stage1(self) -> None:
        """Build the stage-2 mixture from the finished filter bank.

        Deterministic in the bank's particles, so it is *recomputed*
        (not stored) when a stage-2 snapshot is restored.
        """
        cfg = self.config
        if self.filter_bank is None:
            raise EstimationError("stage 2 requires a completed stage 1")
        # Filters whose lobe carries no weight under this bias condition
        # (e.g. the mirrored lobe at duty ratio 0) never resampled; their
        # kernels would only dilute the mixture, so they are dropped --
        # the defensive prior still guards anything they might have seen.
        # Filters the health monitor quarantined (collapsed beyond the
        # re-seed budget) are dropped for the same reason.
        quarantined = self.health.quarantined_filters
        live = [f.positions
                for j, f in enumerate(self.filter_bank.filters)
                if j not in quarantined
                and f.history and f.history[-1].mean_weight > 0.0]
        positions = (np.vstack(live) if live
                     else self.filter_bank.positions())
        kernel = GaussianMixture(positions,
                                 cfg.kernel_sigma * cfg.is_sigma_scale
                                 * self.health.sigma_multiplier)
        self.mixture = DefensiveMixture(self.space, kernel,
                                        cfg.defensive_fraction)

    def _total_shift_samples(self, x: np.ndarray, m: int,
                             rng: np.random.Generator) -> np.ndarray:
        """Combine RDF points with RTN draws, mirrored to the canonical
        stored-"0" frame; returns (len(x) * m, D)."""
        shifts, states = self.rtn_model.sample((x.shape[0], m), rng)
        total = self.rtn_model.mirror(x[:, None, :] + shifts, states)
        return total.reshape(x.shape[0] * m, self.space.dim)

    def _simulate_labels(self, total: np.ndarray) -> np.ndarray:
        """Transistor-level labels for ``total``, chunk-parallel.

        Counts every row as a simulation *before* dispatch (preserving
        the budget circuit-breaker semantics of
        :class:`~repro.core.indicator.CountingIndicator`) and labels the
        chunks through the executor.  Labelling is pure per row, so the
        result is independent of both the chunking and the backend.
        The stats task + sink keep the parent's perf counters honest on
        the process backend.
        """
        total = np.atleast_2d(np.asarray(total, dtype=float))
        raw = self.indicator.indicator
        return self.executor.map_chunks(
            evaluate_indicator_stats, total, raw,
            simulations=total.shape[0], label="simulate-labels",
            stats_sink=partial(absorb_perf_stats, raw))

    def _labels_stage1(self, total: np.ndarray) -> np.ndarray:
        """Fail labels for stage-1 samples: K simulated, rest classified."""
        cfg = self.config
        n = total.shape[0]
        if not cfg.use_classifier:
            return self._simulate_labels(total)
        if n <= cfg.k_train:
            labels = self._simulate_labels(total)
            self._feed_classifier(total, labels, "stage1")
            return labels

        picks = self._rng_stage1.choice(n, size=cfg.k_train, replace=False)
        simulated = self._simulate_labels(total[picks])
        self._feed_classifier(total[picks], simulated, "stage1")

        labels = np.zeros(n, dtype=bool)
        labels[picks] = simulated
        rest = np.ones(n, dtype=bool)
        rest[picks] = False
        if self.blockade.is_trained and not self.health.blockade_active:
            with self.profiler.span("classifier-predict"):
                labels[rest] = self.blockade.predict(total[rest]).labels
        else:
            # Single-class training data so far (or the health layer's
            # classifier blockade engaged): simulate everything.
            labels[rest] = self._simulate_labels(total[rest])
        return labels

    def _feed_classifier(self, x: np.ndarray, labels: np.ndarray,
                         stage: str) -> None:
        """Feed simulated labels to the blockade through the health seam.

        The monitor may thin the batch (one-class fault injection) and
        watches the fed labels for degenerate single-class batches: the
        strict policy raises on an injected one, the others engage
        blockade mode until both classes reappear.
        """
        x_fed, fed = self.health.training_batch(x, labels)
        with self.profiler.span("classifier-train"):
            self.blockade.update(x_fed, fed, force_retrain=True)
        self.health.check_training_batch(self.blockade, fed, stage)

    # ------------------------------------------------------------------
    # stage 2: importance sampling
    # ------------------------------------------------------------------
    def _run_stage2(self, target_relative_error: float,
                    max_simulations: int | None,
                    checkpoint=None) -> FailureEstimate:
        cfg = self.config
        if self._phase != "stage2":
            raise EstimationError("stage 2 requires a completed stage 1")
        if self.mixture is None:
            self._finalize_stage1()
        m = 1 if self.rtn_model.is_null else cfg.m_rtn_stage2
        accumulator = self._accumulator
        while (not self._stage2_done
               and accumulator.count < cfg.max_statistical_samples):
            with self.profiler.span("stage2-sample"):
                x = self.mixture.sample(cfg.stage2_batch, self._rng_stage2)
                ratios = importance_ratios(self.space, self.mixture, x)
                ratios = self.health.clip_ratios(
                    ratios, self.mixture.weight_bound,
                    self._stage2_batches + 1)
                total = self._total_shift_samples(x, m, self._rng_stage2)
            with self.profiler.span("stage2-label"):
                labels = self._labels_stage2(total)
            y = labels.reshape(x.shape[0], m).mean(axis=1)
            accumulator.update(ratios * y)
            self._stage2_batches += 1
            if self.health.check_stage2_batch(ratios, self._stage2_batches):
                # ESS collapse: rebuild the mixture with the widened
                # kernel; subsequent batches sample the wider proposal.
                self._finalize_stage1()

            self._trace.append(TracePoint(
                n_simulations=self.counter.count,
                estimate=accumulator.mean,
                ci_halfwidth=accumulator.ci95_halfwidth,
                n_statistical_samples=accumulator.count))
            # The stop decision is taken *before* the snapshot below, so
            # a resumed run never executes a batch the uninterrupted run
            # would have skipped.
            if (self._stage2_batches >= cfg.min_stage2_batches
                    and accumulator.mean > 0
                    and accumulator.ci95_halfwidth / accumulator.mean
                    <= target_relative_error):
                self._stage2_done = True
            elif (max_simulations is not None
                    and self.counter.count >= max_simulations):
                self._stage2_done = True
            if checkpoint is not None:
                checkpoint.maybe_save(self, self.counter.count)

        if accumulator.mean <= 0.0:
            # Strict keeps the historical EstimationError; the other
            # policies degrade to a rule-of-three upper bound.
            return self.health.zero_failure_estimate(
                accumulator, self.counter.count, self.method)
        return FailureEstimate(
            pfail=accumulator.mean,
            ci_halfwidth=accumulator.ci95_halfwidth,
            n_simulations=self.counter.count,
            n_statistical_samples=accumulator.count,
            method=self.method)

    def _labels_stage2(self, total: np.ndarray) -> np.ndarray:
        """Fail labels for stage-2 samples: classifier everywhere except
        the uncertainty band, which is simulated and fed back."""
        cfg = self.config
        if not cfg.use_classifier:
            return self._simulate_labels(total)
        if not self.blockade.is_trained or self.health.blockade_active:
            labels = self._simulate_labels(total)
            if not cfg.health.strict:
                # Blockade mode: keep feeding true labels so the
                # classifier can train the moment both classes appear.
                # (Strict preserves the legacy simulate-only path.)
                self._feed_classifier(total, labels, "stage2")
            return labels
        with self.profiler.span("classifier-predict"):
            prediction = self.blockade.predict(total)
        labels = prediction.labels.copy()
        uncertain = prediction.uncertain
        if np.any(uncertain):
            simulated = self._simulate_labels(total[uncertain])
            labels[uncertain] = simulated
            self.blockade.update(total[uncertain], simulated)
        return labels

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable hex id of the estimation *problem*.

        Covers the method, the space dimensionality, the configuration
        and the RTN model -- but not the execution backend, so a run
        checkpointed under one backend may legally resume under another
        (the estimate is backend-invariant by construction).  The
        execution and health configs are hashed as the pinned stand-ins
        above, so stored fingerprints survive changes to their fields.
        """
        health = _FixedRepr(_HEALTH_IN_FINGERPRINT.format(
            policy=self.config.health.policy,
            inject=self.config.health.inject))
        cfg = self.config.with_(execution=_EXECUTION_IN_FINGERPRINT,
                                health=health)
        return format(stable_seed(
            self.method, self.space.dim, cfg,
            type(self.rtn_model).__name__,
            getattr(self.rtn_model, "alpha", None)), "016x")

    def state_snapshot(self) -> dict:
        """Complete resumable state at a safe boundary.

        The stage-2 mixture is deliberately absent: it is a pure
        function of the filter bank and is rebuilt by
        :meth:`_finalize_stage1` on restore.
        """
        return {
            "phase": self._phase,
            "stage1_iter": self._stage1_iter,
            "stage2_batches": self._stage2_batches,
            "stage2_done": self._stage2_done,
            "sims_boundary": self._sims_boundary,
            "sims_stage1": self._sims_stage1,
            "counter": self.counter.state(),
            "rngs": {
                "boundary": rng_state(self._rng_boundary),
                "bank": rng_state(self._rng_bank),
                "stage1": rng_state(self._rng_stage1),
                "stage2": rng_state(self._rng_stage2),
            },
            "boundary": (None if self.boundary is None
                         else self.boundary.as_dict()),
            "filter_bank": (None if self.filter_bank is None
                            else self.filter_bank.state()),
            "blockade": self.blockade.state(),
            "accumulator": self._accumulator.state(),
            "trace": [point.as_dict() for point in self._trace],
            "health": self.health.state(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state_snapshot`; continues bit-identically.

        Raises :class:`~repro.errors.CheckpointError` when the snapshot
        tree does not have the expected shape.  Older snapshots also
        carry a ``solve_cache`` entry, which is ignored.
        """
        try:
            phase = str(state["phase"])
            if phase not in ("init", "stage1", "stage2"):
                raise ValueError(f"unknown phase {phase!r}")
            self._phase = phase
            self._stage1_iter = int(state["stage1_iter"])
            self._stage2_batches = int(state["stage2_batches"])
            self._stage2_done = bool(state["stage2_done"])
            self._sims_boundary = int(state["sims_boundary"])
            self._sims_stage1 = int(state["sims_stage1"])
            self.counter.restore_state(state["counter"])
            rngs = state["rngs"]
            self._rng_boundary = rng_from_state(rngs["boundary"])
            self._rng_bank = rng_from_state(rngs["bank"])
            self._rng_stage1 = rng_from_state(rngs["stage1"])
            self._rng_stage2 = rng_from_state(rngs["stage2"])
            self.boundary = (
                None if state["boundary"] is None
                else BoundarySearchResult.from_dict(state["boundary"]))
            self.filter_bank = (
                None if state["filter_bank"] is None
                else ParticleFilterBank.from_state(state["filter_bank"]))
            self.blockade.restore_state(state["blockade"])
            self._accumulator.restore_state(state["accumulator"])
            self._trace = [TracePoint.from_dict(point)
                           for point in state["trace"]]
            # The monitor must come back before the mixture rebuild
            # below: the rebuild consults its widening multiplier and
            # quarantine set.
            self.health.restore_state(state["health"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"invalid {self.method} snapshot: {exc}") from exc
        self.mixture = None
        if self._phase == "stage2":
            self._finalize_stage1()
