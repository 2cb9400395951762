"""The classifier "blockade": skip simulations outside an uncertainty band.

This wraps the polynomial-feature linear SVM into the role it plays in the
paper (Section III-B):

* **rough mode** (stage 1, particle weights): classify *everything* that is
  not in the training subset -- misclassifications only perturb the
  alternative distribution, not the estimate;
* **banded mode** (stage 2, importance sampling): trust the classifier only
  outside an uncertainty band around the hyperplane; points inside the band
  are simulated, and those labels are fed back via :meth:`update` to
  incrementally retrain (warm-started L-BFGS on the squared hinge).

The band half-width is maintained as a quantile of the |decision-function|
values seen at training time, so it adapts as the classifier sharpens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ClassifierError
from repro.ml.features import PolynomialFeatures
from repro.ml.scaler import StandardScaler
from repro.ml.svm import LinearSvm
from repro.rng import as_generator, rng_from_state, rng_state

#: rows per :meth:`ClassifierBlockade.predict` tile: a (512, 210)
#: degree-4 feature block stays in the per-core L2 cache.  A multiple of
#: the gemv kernel's row block, so every decision is bit for bit what
#: one whole-batch product gives.
PREDICT_TILE = 512


@dataclass
class BlockadePrediction:
    """Classifier verdicts for a batch.

    Attributes
    ----------
    labels:
        Boolean failure predictions (True = fail).
    uncertain:
        Mask of points inside the uncertainty band (should be simulated).
    decision:
        Raw decision-function values (positive = fail).
    """

    labels: np.ndarray
    uncertain: np.ndarray
    decision: np.ndarray


class ClassifierBlockade:
    """Degree-``degree`` polynomial SVM with an uncertainty band.

    Parameters
    ----------
    dim:
        Input dimensionality (6 for the SRAM cell).
    degree:
        Polynomial degree; the paper uses 4.
    band_quantile:
        Fraction of training points whose |decision| defines the band
        half-width; 0 disables the band (trust everything).
    c:
        SVM cost parameter.
    retrain_trigger:
        Incremental updates re-run the solver once at least this many new
        labelled samples have accumulated since the last train.
    """

    def __init__(self, dim: int, degree: int = 4, band_quantile: float = 0.1,
                 c: float = 10.0, retrain_trigger: int = 200,
                 max_training_samples: int = 20_000, seed=0):
        if not 0.0 <= band_quantile < 1.0:
            raise ValueError(
                f"band_quantile must lie in [0, 1), got {band_quantile}")
        if retrain_trigger < 1:
            raise ValueError("retrain_trigger must be >= 1")
        if max_training_samples < 10:
            raise ValueError("max_training_samples must be >= 10")
        self.features = PolynomialFeatures(dim=dim, degree=degree)
        self.scaler = StandardScaler()
        self.svm = LinearSvm(c=c, seed=seed)
        self.band_quantile = band_quantile
        self.retrain_trigger = retrain_trigger
        self.max_training_samples = max_training_samples
        self._subsample_rng = as_generator(seed)
        self.band_halfwidth = 0.0
        self._x_train: np.ndarray | None = None
        self._y_train: np.ndarray | None = None
        self._pending = 0
        #: number of times the underlying SVM has been (re)trained.
        self.train_count = 0
        # Trust envelope (see predict): polynomial features extrapolate
        # violently, so predictions are only trusted at radii the training
        # set has covered.
        self._fail_norm_min = np.inf
        self._train_norm_max = 0.0

    @property
    def is_trained(self) -> bool:
        return self.svm.is_fitted

    @property
    def n_training_samples(self) -> int:
        return 0 if self._x_train is None else self._x_train.shape[0]

    # ------------------------------------------------------------------
    def train(self, x: np.ndarray, fails: np.ndarray) -> None:
        """(Re)train from scratch on points ``x`` (B, dim) with boolean
        failure labels ``fails``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        fails = np.asarray(fails, dtype=bool)
        if fails.shape != (x.shape[0],):
            raise ClassifierError(
                f"labels shape {fails.shape} does not match {x.shape[0]} "
                "samples")
        self._x_train = x.copy()
        self._y_train = np.where(fails, 1.0, -1.0)
        self._pending = 0
        self._refit(warm_start=False)

    def update(self, x: np.ndarray, fails: np.ndarray,
               force_retrain: bool = False) -> None:
        """Append newly simulated samples; retrain lazily.

        Labels are accumulated immediately but the (comparatively costly)
        solver re-run happens only every ``retrain_trigger`` samples (or
        immediately with ``force_retrain``), with a warm start from the
        previous solution.
        """
        if self._x_train is None:
            self.train(x, fails)
            return
        x = np.atleast_2d(np.asarray(x, dtype=float))
        fails = np.asarray(fails, dtype=bool)
        if fails.shape != (x.shape[0],):
            raise ClassifierError(
                f"labels shape {fails.shape} does not match {x.shape[0]} "
                "samples")
        if x.size == 0:
            return
        self._x_train = np.vstack([self._x_train, x])
        self._y_train = np.concatenate(
            [self._y_train, np.where(fails, 1.0, -1.0)])
        self._pending += x.shape[0]
        self._enforce_capacity()
        # Retrain cost grows with the accumulated set, so the effective
        # trigger scales with it: late in a long run the classifier is
        # already good and refreshing it less often loses nothing.
        trigger = max(self.retrain_trigger, self.n_training_samples // 10)
        if force_retrain or self._pending >= trigger:
            self._refit(warm_start=not force_retrain)
            self._pending = 0

    def _enforce_capacity(self) -> None:
        """Random-subsample the training set down to the configured cap.

        Both classes are kept in proportion; without a cap the periodic
        refits would slow down linearly over a long stage-2 run.
        """
        n = self.n_training_samples
        if n <= self.max_training_samples:
            return
        keep = self._subsample_rng.choice(n, size=self.max_training_samples,
                                          replace=False)
        keep.sort()
        self._x_train = self._x_train[keep]
        self._y_train = self._y_train[keep]

    def _refit(self, warm_start: bool) -> None:
        if np.unique(self._y_train).size < 2:
            # Keep the previous model (if any) until both classes exist.
            return
        phi = self.features.transform(self._x_train)
        if warm_start and self.scaler.is_fitted:
            # Keep the existing scaling so the previous solution.stays
            # meaningful, then refit with the enlarged set.
            phi_scaled = self.scaler.transform(phi)
            self.svm.fit(phi_scaled, self._y_train, warm_start=True)
        else:
            phi_scaled = self.scaler.fit_transform(phi)
            self.svm.fit(phi_scaled, self._y_train, warm_start=False)
        self.train_count += 1
        decision = self.svm.decision_function(phi_scaled)
        if self.band_quantile > 0.0:
            base = float(np.quantile(np.abs(decision), self.band_quantile))
            # Widen the band to cover where the classifier is *observed* to
            # err: take a high quantile of |decision| over misclassified
            # training points, so residual errors concentrate inside the
            # simulated band instead of biasing the estimate.
            mistakes = (decision >= 0.0) != (self._y_train > 0.0)
            cover = 0.0
            if np.any(mistakes):
                cover = float(np.quantile(np.abs(decision[mistakes]), 0.95))
            self.band_halfwidth = max(base, cover)
        else:
            self.band_halfwidth = 0.0
        norms = np.linalg.norm(self._x_train, axis=1)
        fail_norms = norms[self._y_train > 0]
        self._fail_norm_min = (float(fail_norms.min()) if fail_norms.size
                               else np.inf)
        self._train_norm_max = float(norms.max())

    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> BlockadePrediction:
        """Classify points ``x`` (B, dim).

        Predictions are only trusted inside the radius envelope the
        training set has covered; polynomial features extrapolate
        violently, so

        * points well inside the smallest failing training radius are
          auto-passed (the failure region cannot reach them while the
          margin varies continuously);
        * points beyond the largest training radius are flagged uncertain
          and should be simulated.
        """
        if not self.is_trained:
            raise ClassifierError("blockade used before training")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n = x.shape[0]
        starts = list(range(0, n, PREDICT_TILE))
        if n > 1 and n % PREDICT_TILE == 1:
            # numpy takes a 1-row product through a dot kernel that
            # rounds differently from gemv: the lone last row joins the
            # tile before it
            starts.pop()
        decision = np.empty(n)
        for lo, hi in zip(starts, starts[1:] + [n]):
            phi = self.scaler.transform(self.features.transform(x[lo:hi]))
            decision[lo:hi] = self.svm.decision_function(phi)
        labels = decision >= 0.0
        uncertain = np.abs(decision) < self.band_halfwidth

        norms = np.linalg.norm(x, axis=1)
        core = norms < 0.8 * self._fail_norm_min
        labels[core] = False
        uncertain[core] = False
        beyond = norms > 1.05 * self._train_norm_max
        uncertain[beyond] = True
        return BlockadePrediction(labels=labels, uncertain=uncertain,
                                  decision=decision)

    def state(self) -> dict:
        """Checkpoint snapshot: training set, model, band, trust radii.

        Non-finite trust radii (the pristine ``inf`` sentinel) are
        stored as ``None`` because the checkpoint codec forbids
        non-finite floats.
        """
        return {
            "dim": self.features.dim,
            "degree": self.features.degree,
            "x_train": (None if self._x_train is None
                        else self._x_train.copy()),
            "y_train": (None if self._y_train is None
                        else self._y_train.copy()),
            "pending": self._pending,
            "train_count": self.train_count,
            "band_halfwidth": self.band_halfwidth,
            "fail_norm_min": (None if not np.isfinite(self._fail_norm_min)
                              else float(self._fail_norm_min)),
            "train_norm_max": float(self._train_norm_max),
            "subsample_rng": rng_state(self._subsample_rng),
            "scaler": self.scaler.state(),
            "svm": self.svm.state(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state` snapshot bit-exactly.

        The snapshot must come from a blockade over the same feature
        space (``dim``/``degree``); anything else is a configuration
        mismatch and raises :class:`ClassifierError`.
        """
        if (int(state["dim"]) != self.features.dim
                or int(state["degree"]) != self.features.degree):
            raise ClassifierError(
                f"snapshot is for a degree-{state['degree']} blockade "
                f"over {state['dim']} inputs; this one is degree-"
                f"{self.features.degree} over {self.features.dim}")

        def _arr(value):
            return None if value is None else np.asarray(value,
                                                         dtype=float)

        self._x_train = _arr(state["x_train"])
        self._y_train = _arr(state["y_train"])
        self._pending = int(state["pending"])
        self.train_count = int(state["train_count"])
        self.band_halfwidth = float(state["band_halfwidth"])
        fail_norm_min = state["fail_norm_min"]
        self._fail_norm_min = (np.inf if fail_norm_min is None
                               else float(fail_norm_min))
        self._train_norm_max = float(state["train_norm_max"])
        self._subsample_rng = rng_from_state(state["subsample_rng"])
        self.scaler.restore_state(state["scaler"])
        self.svm.restore_state(state["svm"])

    def training_accuracy(self) -> float:
        """Fraction of the accumulated training set currently classified
        correctly (diagnostic)."""
        if not self.is_trained or self._x_train is None:
            raise ClassifierError("blockade used before training")
        phi = self.scaler.transform(self.features.transform(self._x_train))
        predicted = self.svm.decision_function(phi) >= 0.0
        return float(np.mean(predicted == (self._y_train > 0)))
