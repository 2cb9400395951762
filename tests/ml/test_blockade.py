"""Tests for the classifier blockade."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClassifierError
from repro.ml.blockade import PREDICT_TILE, ClassifierBlockade


def ring_labels(x):
    """Failure region = outside a circle of radius 2 (degree-2 separable)."""
    return np.sum(x * x, axis=1) > 4.0


@pytest.fixture()
def trained(rng):
    blockade = ClassifierBlockade(dim=2, degree=2, band_quantile=0.1)
    x = rng.normal(scale=2.0, size=(800, 2))
    blockade.train(x, ring_labels(x))
    return blockade


@pytest.fixture(scope="module")
def cell_shaped():
    """Degree 4 over 6 inputs: the estimator's 210 features."""
    rng = np.random.default_rng(7)
    blockade = ClassifierBlockade(dim=6, degree=4)
    x = rng.normal(scale=2.0, size=(600, 6))
    blockade.train(x, np.abs(x[:, 0]) > 2.5)
    return blockade


def whole_batch_decision(blockade, x):
    """``predict``'s decision as one product, as before row tiling: the
    bit-exact reference."""
    phi = blockade.scaler.transform(blockade.features.transform(x))
    return blockade.svm.decision_function(phi)


class TestTraining:
    def test_learns_quadratic_region(self, trained, rng):
        x = rng.normal(scale=2.0, size=(2000, 2))
        prediction = trained.predict(x)
        accuracy = np.mean(prediction.labels == ring_labels(x))
        assert accuracy > 0.95

    def test_training_accuracy_reported(self, trained):
        assert trained.training_accuracy() > 0.95

    def test_single_class_keeps_blockade_untrained(self, rng):
        blockade = ClassifierBlockade(dim=2, degree=2)
        x = rng.normal(scale=0.1, size=(50, 2))
        blockade.train(x, ring_labels(x))  # all pass
        assert not blockade.is_trained

    def test_predict_before_training_rejected(self):
        with pytest.raises(ClassifierError, match="before training"):
            ClassifierBlockade(dim=2).predict(np.zeros((1, 2)))

    def test_label_shape_checked(self, rng):
        blockade = ClassifierBlockade(dim=2)
        with pytest.raises(ClassifierError, match="labels"):
            blockade.train(np.zeros((5, 2)), np.zeros(4, dtype=bool))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ClassifierBlockade(dim=2, band_quantile=1.0)
        with pytest.raises(ValueError):
            ClassifierBlockade(dim=2, retrain_trigger=0)


class TestBand:
    def test_band_flags_points_near_boundary(self, trained):
        # exactly on the circle of radius 2 -> decision near zero
        angles = np.linspace(0, 2 * np.pi, 50, endpoint=False)
        boundary = 2.0 * np.column_stack([np.cos(angles), np.sin(angles)])
        deep_inside = np.zeros((1, 2))
        pred_boundary = trained.predict(boundary)
        pred_inside = trained.predict(deep_inside)
        assert np.abs(pred_boundary.decision).mean() < np.abs(
            pred_inside.decision[0])

    def test_zero_quantile_disables_band(self, rng):
        blockade = ClassifierBlockade(dim=2, degree=2, band_quantile=0.0)
        x = rng.normal(scale=2.0, size=(400, 2))
        blockade.train(x, ring_labels(x))
        assert blockade.band_halfwidth == 0.0
        assert not np.any(blockade.predict(x).uncertain)


class TestIncremental:
    def test_update_accumulates_and_retrains_lazily(self, trained, rng):
        initial_trainings = trained.train_count
        initial_samples = trained.n_training_samples
        small = rng.normal(scale=2.0, size=(10, 2))
        trained.update(small, ring_labels(small))
        assert trained.n_training_samples == initial_samples + 10
        assert trained.train_count == initial_trainings  # below trigger

    def test_update_force_retrain(self, trained, rng):
        initial = trained.train_count
        small = rng.normal(scale=2.0, size=(10, 2))
        trained.update(small, ring_labels(small), force_retrain=True)
        assert trained.train_count == initial + 1

    def test_update_trigger_fires(self, rng):
        blockade = ClassifierBlockade(dim=2, degree=2, retrain_trigger=50)
        x = rng.normal(scale=2.0, size=(200, 2))
        blockade.train(x, ring_labels(x))
        count = blockade.train_count
        batch = rng.normal(scale=2.0, size=(60, 2))
        blockade.update(batch, ring_labels(batch))
        assert blockade.train_count == count + 1

    def test_update_on_untrained_becomes_train(self, rng):
        blockade = ClassifierBlockade(dim=2, degree=2)
        x = rng.normal(scale=2.0, size=(300, 2))
        blockade.update(x, ring_labels(x))
        assert blockade.is_trained

    def test_empty_update_is_noop(self, trained):
        samples = trained.n_training_samples
        trained.update(np.zeros((0, 2)), np.zeros(0, dtype=bool))
        assert trained.n_training_samples == samples


class TestPredictTiles:
    """Row splits that break the gemv kernel's row blocks round
    differently, so the tiles are checked against one whole-batch
    product rather than against arbitrary splits."""

    @pytest.mark.parametrize("n", [1, 2, PREDICT_TILE - 1, PREDICT_TILE,
                                   PREDICT_TILE + 1, 2 * PREDICT_TILE + 1,
                                   6000])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=3, deadline=None, derandomize=True)
    def test_tiles_match_whole_batch(self, cell_shaped, n, seed):
        x = np.random.default_rng(seed).normal(scale=2.0, size=(n, 6))
        assert np.array_equal(cell_shaped.predict(x).decision,
                              whole_batch_decision(cell_shaped, x))
