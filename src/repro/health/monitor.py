"""The health monitor: guardrails + graceful degradation for ECRIPSE.

One :class:`HealthMonitor` accompanies one
:class:`~repro.core.ecripse.EcripseEstimator` run.  The estimator calls
it at three seams -- stage-1 resampling, classifier training batches,
stage-2 importance-weight batches -- and the monitor detects
degradation, runs the policy-appropriate recovery and records every
event into a :class:`~repro.health.events.HealthReport`.

Everything here is deterministic: detections are pure functions of the
values the estimator already computed, recoveries consume randomness
only from the estimator's own generators, and the monitor's complete
state (events, per-filter quarantine counters, widening count,
cumulative weight moments, injector counters) rides inside the
estimator's checkpoint snapshot -- so a killed and resumed run replays
the identical recovery sequence and finishes with the identical report.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.estimate import FailureEstimate
from repro.core.importance import effective_sample_size
from repro.errors import (
    ClassifierError,
    DegradationError,
    EstimationError,
    HealthyDegradation,
)
from repro.health.events import HealthEvent, HealthReport
from repro.health.inject import FaultInjector
from repro.health.policy import HealthConfig

#: ESS fraction below which a live filter's iteration is logged as
#: starved (diagnostic only; the zero-weight streak drives quarantine).
STAGE1_ESS_FLOOR = 0.02
#: consecutive zero-weight iterations after which a previously live
#: filter counts as collapsed.
STAGE1_PATIENCE = 2
#: re-seeds granted to a collapsed filter before it is quarantined.
MAX_RESEEDS = 2
#: Kish ESS fraction of a stage-2 weight batch below which the batch
#: counts against STAGE2_PATIENCE.
STAGE2_ESS_FLOOR = 0.02
#: consecutive sub-floor stage-2 batches that trigger a widening.
STAGE2_PATIENCE = 2
#: stage-2 kernel sigma multiplier per widening.
SIGMA_WIDEN = 1.5
#: widenings granted before further ESS-floor breaches are only recorded.
MAX_WIDENINGS = 2
#: weights above WEIGHT_CLIP_FACTOR times their defensive-mixture bound
#: are clipped; just above 1 so a weight exactly at the bound never is.
WEIGHT_CLIP_FACTOR = 1.000001


class HealthMonitor:
    """Per-run guardrail state machine (see module docstring)."""

    #: transient intra-step flag: set by :meth:`training_batch` and
    #: consumed by :meth:`check_training_batch` within one estimator
    #: step, so it is always ``False`` at checkpoint-safe boundaries.
    _SNAPSHOT_EXCLUDED = ("_last_training_injected",)

    def __init__(self, config: HealthConfig | None = None) -> None:
        self.config = config if config is not None else HealthConfig()
        self.injector = FaultInjector(self.config.inject)
        self.report = HealthReport(policy=self.config.policy.value)
        #: per-filter recovery state, created lazily at the first
        #: stage-1 check (the bank does not exist before then).
        self._filters: list[dict] | None = None
        self._stage2_low_streak = 0
        self._widenings = 0
        self._sum_w = 0.0
        self._sum_w2 = 0.0
        self._stage2_batches = 0
        self._blockade_active = False
        self._one_class_noted = False
        self._last_training_injected = False

    # ------------------------------------------------------------------
    def _record(self, stage: str, category: str, severity: str,
                message: str, recovered: bool = False,
                warn: bool = False, **details) -> None:
        self.report.events.append(HealthEvent(
            stage=stage, category=category, severity=severity,
            message=message, recovered=recovered, details=details))
        if warn:
            warnings.warn(message, HealthyDegradation, stacklevel=3)

    @property
    def blockade_active(self) -> bool:
        """Classifier blockade engaged: simulate everything and feed the
        labels back until both classes reappear."""
        return self._blockade_active

    @property
    def quarantined_filters(self) -> set[int]:
        """Indices of permanently quarantined particle filters."""
        if self._filters is None:
            return set()
        return {j for j, state in enumerate(self._filters)
                if state["quarantined"]}

    @property
    def sigma_multiplier(self) -> float:
        """Accumulated stage-2 kernel widening factor."""
        return float(SIGMA_WIDEN ** self._widenings)

    # ------------------------------------------------------------------
    # seam 1: stage-1 particle filters
    # ------------------------------------------------------------------
    def stage1_weights(self, weights: np.ndarray,
                       n_particles: int) -> np.ndarray:
        """Fault-injection hook for the stacked stage-1 weights.

        The ``filter`` fault zeroes the first filter's slice, which the
        resampler answers by keeping its particles (lobe collapse) and
        the subsequent :meth:`check_stage1` detects.
        """
        if self.injector.fire("filter"):
            weights = weights.copy()
            weights[:n_particles] = 0.0
        return weights

    def check_stage1(self, bank, weights: np.ndarray, boundary,
                     iteration: int) -> None:
        """Per-iteration ESS and lobe-collapse monitor on the bank.

        A filter that has *never* carried weight is a dead lobe (a
        legitimate state at extreme duty ratios) and is left alone.  A
        previously live filter whose weights stay all-zero for
        :data:`STAGE1_PATIENCE` consecutive iterations has collapsed:
        ``strict`` raises :class:`~repro.errors.DegradationError`; the
        other policies re-seed it deterministically from the boundary
        cache, then quarantine it once :data:`MAX_RESEEDS` is
        exhausted.
        """
        n = bank.n_particles
        if self._filters is None:
            self._filters = [
                {"alive": False, "zero_streak": 0, "reseeds": 0,
                 "quarantined": False}
                for _ in range(bank.n_filters)]
        for j, state in enumerate(self._filters):
            if state["quarantined"]:
                continue
            w = weights[j * n:(j + 1) * n]
            if np.any(w > 0):
                state["alive"] = True
                state["zero_streak"] = 0
                ess_fraction = effective_sample_size(w) / n
                if ess_fraction < STAGE1_ESS_FLOOR:
                    self._record(
                        "stage1", "filter-degeneracy", "info",
                        f"filter {j} ESS fraction {ess_fraction:.4f} "
                        f"below floor {STAGE1_ESS_FLOOR} at "
                        f"iteration {iteration}",
                        filter=j, iteration=iteration,
                        ess_fraction=float(ess_fraction))
                continue
            if not state["alive"]:
                continue  # dead lobe: never carried weight
            state["zero_streak"] += 1
            if state["zero_streak"] < STAGE1_PATIENCE:
                continue
            if self.config.strict:
                self._record(
                    "stage1", "filter-degeneracy", "critical",
                    f"filter {j} collapsed: zero weights for "
                    f"{state['zero_streak']} consecutive iterations",
                    filter=j, iteration=iteration)
                raise DegradationError(
                    f"particle filter {j} collapsed at stage-1 "
                    f"iteration {iteration} (zero weights for "
                    f"{state['zero_streak']} consecutive iterations)",
                    category="filter-degeneracy")
            if state["reseeds"] >= MAX_RESEEDS:
                state["quarantined"] = True
                self._record(
                    "stage1", "filter-degeneracy", "warning",
                    f"filter {j} quarantined after {state['reseeds']} "
                    f"failed re-seeds; it no longer contributes to the "
                    f"stage-2 mixture",
                    warn=True, filter=j, iteration=iteration,
                    reseeds=state["reseeds"])
                continue
            bank.reseed_filter(j, boundary)
            state["reseeds"] += 1
            state["zero_streak"] = 0
            self._record(
                "stage1", "filter-degeneracy", "warning",
                f"filter {j} re-seeded from the boundary cache "
                f"(re-seed {state['reseeds']}/{MAX_RESEEDS}) at "
                f"iteration {iteration}",
                recovered=True, warn=True, filter=j,
                iteration=iteration, reseeds=state["reseeds"])

    # ------------------------------------------------------------------
    # seam 2: classifier training batches
    # ------------------------------------------------------------------
    def training_batch(self, x: np.ndarray, labels: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Fault-injection hook for the batch *fed to the classifier*.

        The ``one-class`` fault keeps only one class of the batch (the
        pass side, or the fail side for an all-fail batch), so the
        classifier sees a degenerate single-class batch while every fed
        label stays *true* -- the injection degrades availability, never
        the training data, and the labels the estimator uses for
        particle weights are untouched anyway.
        """
        self._last_training_injected = False
        if self.injector.fire("one-class"):
            self._last_training_injected = True
            labels = np.asarray(labels, dtype=bool)
            keep = ~labels if not np.all(labels) else labels
            return x[keep], labels[keep]
        return x, labels

    def check_training_batch(self, blockade, fed: np.ndarray,
                             stage: str) -> None:
        """Degenerate-batch monitor + blockade-mode state machine."""
        fed = np.asarray(fed, dtype=bool)
        one_class = fed.size > 0 and (bool(np.all(fed))
                                      or not bool(np.any(fed)))
        injected = self._last_training_injected
        self._last_training_injected = False
        if self._blockade_active:
            if blockade.is_trained and not one_class:
                self._blockade_active = False
                self._record(
                    "classifier", "one-class", "info",
                    f"both classes reappeared in a {stage} batch; "
                    f"classification resumed",
                    recovered=True, stage_name=stage)
            return
        if not one_class or blockade.is_trained:
            return
        if self.config.strict:
            if injected:
                self._record(
                    "classifier", "one-class", "critical",
                    "injected one-class training batch under strict "
                    "policy", stage_name=stage)
                raise ClassifierError(
                    "degenerate one-class training batch (injected) "
                    "under HealthPolicy.strict")
            if not self._one_class_noted:
                self._one_class_noted = True
                self._record(
                    "classifier", "one-class", "info",
                    f"one-class {stage} training batch before first "
                    f"fit; simulating until both classes appear",
                    stage_name=stage)
            return
        self._blockade_active = True
        self._record(
            "classifier", "one-class", "warning",
            f"degenerate one-class {stage} training batch: classifier "
            f"blockade engaged (simulate everything until both classes "
            f"reappear)", recovered=True, warn=True, stage_name=stage)

    # ------------------------------------------------------------------
    # seam 3: stage-2 importance weights
    # ------------------------------------------------------------------
    def clip_ratios(self, ratios: np.ndarray, weight_bound: float,
                    batch_index: int) -> np.ndarray:
        """Clip importance weights above their mathematical bound.

        The defensive mixture bounds every weight by
        ``1 / defensive_fraction``; anything above it means broken
        numerics.  ``strict`` raises; otherwise the weights are clipped
        and the estimate is permanently flagged *biased*.
        """
        bound = WEIGHT_CLIP_FACTOR * weight_bound
        over = int(np.count_nonzero(ratios > bound))
        if not over:
            return ratios
        if self.config.strict:
            self._record(
                "stage2", "is-weight", "critical",
                f"{over} importance weight(s) above the defensive bound "
                f"{bound:.3e} in batch {batch_index}",
                batch=batch_index, clipped=over)
            raise DegradationError(
                f"{over} importance weight(s) exceeded the defensive "
                f"bound {bound:.3e} in stage-2 batch {batch_index}",
                category="is-weight")
        self.report.biased = True
        self._record(
            "stage2", "is-weight", "warning",
            f"clipped {over} importance weight(s) at {bound:.3e} in "
            f"batch {batch_index}; estimate flagged biased",
            recovered=True, warn=True, batch=batch_index, clipped=over)
        return np.minimum(ratios, bound)

    def check_stage2_batch(self, ratios: np.ndarray,
                           batch_index: int) -> bool:
        """ESS-floor monitor; returns True when the mixture must be
        rebuilt with a widened kernel (the caller owns the rebuild)."""
        ratios = np.asarray(ratios, dtype=float)
        self._sum_w += float(ratios.sum())
        self._sum_w2 += float(np.sum(ratios * ratios))
        self._stage2_batches += 1
        n = ratios.size
        ess_fraction = (effective_sample_size(ratios) / n) if n else 0.0
        injected = self.injector.fire("is-weight")
        if injected:
            ess_fraction = 0.0
        if ess_fraction >= STAGE2_ESS_FLOOR:
            self._stage2_low_streak = 0
            return False
        self._stage2_low_streak += 1
        if self._stage2_low_streak < STAGE2_PATIENCE:
            return False
        if self.config.strict:
            self._record(
                "stage2", "is-weight", "critical",
                f"importance-weight ESS fraction {ess_fraction:.4f} "
                f"below floor {STAGE2_ESS_FLOOR} for "
                f"{self._stage2_low_streak} consecutive batches",
                batch=batch_index, ess_fraction=float(ess_fraction))
            raise DegradationError(
                f"stage-2 importance-weight ESS collapsed (fraction "
                f"{ess_fraction:.4f} below floor {STAGE2_ESS_FLOOR} "
                f"for {self._stage2_low_streak} consecutive batches)",
                category="is-weight")
        self._stage2_low_streak = 0
        if self._widenings >= MAX_WIDENINGS:
            self._record(
                "stage2", "is-weight", "critical",
                f"ESS floor still breached after {self._widenings} "
                f"widenings; continuing with the current mixture",
                batch=batch_index, widenings=self._widenings)
            return False
        self._widenings += 1
        self._record(
            "stage2", "is-weight", "warning",
            f"importance-weight ESS degenerate at batch {batch_index}; "
            f"widening the mixture kernel to "
            f"{self.sigma_multiplier:.3g}x "
            f"(widening {self._widenings}/{MAX_WIDENINGS})",
            recovered=True, warn=True, batch=batch_index,
            widenings=self._widenings)
        return True

    def zero_failure_estimate(self, accumulator, n_simulations: int,
                              method: str) -> FailureEstimate:
        """Policy response to zero stage-2 failure samples.

        ``strict`` keeps the historical
        :class:`~repro.errors.EstimationError`; ``recover`` and
        ``permissive`` return a rule-of-three upper bound on the Kish
        effective sample count of all importance weights seen.
        """
        message = ("importance sampling found no failing samples; the "
                   "alternative distribution missed the failure region")
        if self.config.strict:
            self._record("stage2", "zero-failures", "critical", message,
                         statistical_samples=accumulator.count)
            raise EstimationError(message)
        ess_total = (self._sum_w * self._sum_w / self._sum_w2
                     if self._sum_w2 > 0.0 else float(accumulator.count))
        ess_total = max(float(ess_total), 1.0)
        bound = min(3.0 / ess_total, 1.0)
        self.report.upper_bound = True
        self._record(
            "stage2", "zero-failures", "warning",
            f"{message}; returning the rule-of-three upper bound "
            f"3/{ess_total:.1f} = {bound:.3e} on the effective sample "
            f"count", recovered=True, warn=True,
            effective_samples=float(ess_total), upper_bound=float(bound))
        return FailureEstimate(
            pfail=bound, ci_halfwidth=bound,
            n_simulations=n_simulations,
            n_statistical_samples=accumulator.count,
            method=method,
            metadata={"upper_bound": True,
                      "effective_sample_count": float(ess_total)})

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Complete monitor state for the estimator snapshot."""
        return {
            "report": self.report.as_dict(),
            "filters": (None if self._filters is None
                        else [dict(s) for s in self._filters]),
            "stage2": {
                "low_streak": self._stage2_low_streak,
                "widenings": self._widenings,
                "sum_w": self._sum_w,
                "sum_w2": self._sum_w2,
                "batches": self._stage2_batches,
            },
            "blockade_active": self._blockade_active,
            "one_class_noted": self._one_class_noted,
            "injector": self.injector.state(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state` snapshot bit-exactly."""
        self.report = HealthReport.from_dict(state["report"])
        filters = state["filters"]
        self._filters = (None if filters is None else [
            {"alive": bool(s["alive"]),
             "zero_streak": int(s["zero_streak"]),
             "reseeds": int(s["reseeds"]),
             "quarantined": bool(s["quarantined"])}
            for s in filters])
        stage2 = state["stage2"]
        self._stage2_low_streak = int(stage2["low_streak"])
        self._widenings = int(stage2["widenings"])
        self._sum_w = float(stage2["sum_w"])
        self._sum_w2 = float(stage2["sum_w2"])
        self._stage2_batches = int(stage2["batches"])
        self._blockade_active = bool(state["blockade_active"])
        self._one_class_noted = bool(state["one_class_noted"])
        self.injector.restore_state(state["injector"])
