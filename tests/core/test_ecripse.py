"""Tests for the ECRIPSE estimator on synthetic problems with exact
answers."""

import numpy as np
import pytest
from scipy.stats import norm

from repro.core.ecripse import EcripseConfig, EcripseEstimator
from repro.core.indicator import FunctionIndicator
from repro.rtn.model import ZeroRtnModel
from repro.variability.space import VariabilitySpace

DIM = 4
SPACE = VariabilitySpace(np.ones(DIM))
NULL = ZeroRtnModel(SPACE)
EXACT = 2 * norm.sf(3.5)  # two symmetric half-spaces at |x1| > 3.5

TWO_LOBES = FunctionIndicator(lambda x: np.abs(x[:, 0]) > 3.5, dim=DIM)

FAST = EcripseConfig(n_particles=60, k_train=128, stage2_batch=1500,
                     max_statistical_samples=400_000)


class TestSyntheticAccuracy:
    @pytest.mark.slow
    def test_recovers_two_lobe_probability(self):
        estimator = EcripseEstimator(SPACE, TWO_LOBES, NULL, config=FAST,
                                     seed=5)
        result = estimator.run(target_relative_error=0.03)
        assert result.pfail == pytest.approx(EXACT, rel=0.10)

    @pytest.mark.slow
    def test_classifier_saves_simulations(self):
        with_clf = EcripseEstimator(SPACE, TWO_LOBES, NULL, config=FAST,
                                    seed=5).run(target_relative_error=0.05)
        without = EcripseEstimator(
            SPACE, TWO_LOBES, NULL,
            config=FAST.with_(use_classifier=False),
            seed=5).run(target_relative_error=0.05)
        assert without.pfail == pytest.approx(with_clf.pfail, rel=0.15)
        assert with_clf.n_simulations < without.n_simulations / 2

    @pytest.mark.slow
    def test_boundary_sharing_skips_initialisation(self):
        first = EcripseEstimator(SPACE, TWO_LOBES, NULL, config=FAST, seed=5)
        first.run(target_relative_error=0.10)
        shared = EcripseEstimator(SPACE, TWO_LOBES, NULL, config=FAST,
                                  seed=6, initial_boundary=first.boundary,
                                  classifier=first.blockade)
        result = shared.run(target_relative_error=0.10)
        assert result.metadata["boundary_simulations"] == 0
        assert result.pfail == pytest.approx(EXACT, rel=0.15)


class TestMechanics:
    def test_trace_and_metadata_populated(self):
        estimator = EcripseEstimator(SPACE, TWO_LOBES, NULL, config=FAST,
                                     seed=1)
        result = estimator.run(target_relative_error=0.2)
        assert result.trace
        assert result.method == "ecripse"
        for key in ("boundary_simulations", "stage1_simulations",
                    "stage2_simulations", "classifier_trainings"):
            assert key in result.metadata
        assert (result.metadata["boundary_simulations"]
                + result.metadata["stage1_simulations"]
                + result.metadata["stage2_simulations"]
                == result.n_simulations)

    def test_max_simulations_respected(self):
        estimator = EcripseEstimator(SPACE, TWO_LOBES, NULL, config=FAST,
                                     seed=1)
        result = estimator.run(target_relative_error=1e-6,
                               max_simulations=6000)
        # one batch may overshoot slightly, but not by more than a batch
        slack = FAST.stage2_batch + FAST.k_train
        assert result.n_simulations <= 6000 + slack

    def test_unreachable_region_raises(self):
        nothing = FunctionIndicator(lambda x: np.zeros(len(x), bool), DIM)
        estimator = EcripseEstimator(SPACE, nothing, NULL, config=FAST,
                                     seed=1)
        with pytest.raises(ValueError, match="no failures"):
            estimator.run()

    def test_invalid_target_rejected(self):
        estimator = EcripseEstimator(SPACE, TWO_LOBES, NULL, config=FAST)
        with pytest.raises(ValueError):
            estimator.run(target_relative_error=0.0)

    def test_nan_target_rejected(self):
        estimator = EcripseEstimator(SPACE, TWO_LOBES, NULL, config=FAST)
        with pytest.raises(ValueError, match="target_relative_error"):
            estimator.run(target_relative_error=float("nan"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EcripseConfig(n_iterations=0)
        with pytest.raises(ValueError):
            EcripseConfig(m_rtn=0)
        with pytest.raises(ValueError):
            EcripseConfig(defensive_fraction=1.5)
        with pytest.raises(ValueError):
            EcripseConfig(is_sigma_scale=-1.0)

    def test_config_with(self):
        cfg = EcripseConfig().with_(n_filters=5)
        assert cfg.n_filters == 5
        assert EcripseConfig().n_filters == 2
