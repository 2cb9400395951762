"""Tests for the mixture alternative distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from repro.core.importance import (
    LOG_PDF_TILE,
    DefensiveMixture,
    GaussianMixture,
    effective_sample_size,
    importance_ratios,
)
from repro.variability.space import VariabilitySpace

SPACE = VariabilitySpace(np.ones(2))


def reference_log_pdf(mixture, x):
    densities = np.zeros(len(x))
    for mean in mixture.means:
        densities += multivariate_normal(
            mean=mean, cov=np.diag(mixture.sigma ** 2)).pdf(x)
    return np.log(densities / mixture.n_kernels)


def whole_batch_log_pdf(mixture, x):
    """``log_pdf`` in one (B, K, D) block, as before row tiling: the
    bit-exact reference."""
    diff = (x[:, None, :] - mixture.means[None, :, :]) / mixture.sigma
    sq = np.einsum("bkd,bkd->bk", diff, diff)
    log_k = mixture._log_norm - 0.5 * sq
    peak = log_k.max(axis=1)
    return peak + np.log(np.mean(np.exp(log_k - peak[:, None]), axis=1))


class TestGaussianMixture:
    def test_log_pdf_matches_scipy(self, rng):
        means = rng.normal(size=(5, 2))
        mixture = GaussianMixture(means, 0.7)
        x = rng.normal(size=(50, 2))
        assert np.allclose(mixture.log_pdf(x), reference_log_pdf(mixture, x))

    def test_diagonal_sigma(self, rng):
        mixture = GaussianMixture(np.zeros((1, 2)), np.array([0.5, 2.0]))
        x = rng.normal(size=(20, 2))
        reference = multivariate_normal(
            mean=np.zeros(2), cov=np.diag([0.25, 4.0])).logpdf(x)
        assert np.allclose(mixture.log_pdf(x), reference)

    def test_log_pdf_stable_in_deep_tail(self):
        mixture = GaussianMixture(np.zeros((3, 2)), 0.3)
        value = mixture.log_pdf(np.array([[50.0, 50.0]]))
        assert np.isfinite(value[0])
        assert value[0] < -1000

    def test_samples_cover_kernels(self, rng):
        means = np.array([[-10.0, 0.0], [10.0, 0.0]])
        mixture = GaussianMixture(means, 0.1)
        samples = mixture.sample(1000, rng)
        left = np.sum(samples[:, 0] < 0)
        assert 350 < left < 650  # uniform kernel choice

    def test_sample_moments(self, rng):
        mixture = GaussianMixture(np.zeros((1, 2)), 0.5)
        samples = mixture.sample(50_000, rng)
        assert np.allclose(samples.std(axis=0), 0.5, atol=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianMixture(np.zeros((0, 2)), 1.0)
        with pytest.raises(ValueError):
            GaussianMixture(np.zeros((2, 2)), -1.0)
        with pytest.raises(ValueError):
            GaussianMixture(np.zeros((2, 2)), np.ones(3))
        mixture = GaussianMixture(np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError, match="dimension"):
            mixture.log_pdf(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            mixture.sample(-1, np.random.default_rng(0))


class TestLogPdfTiles:
    @pytest.mark.parametrize("n", [1, LOG_PDF_TILE - 1, LOG_PDF_TILE,
                                   LOG_PDF_TILE + 1, 6000])
    @given(kernels=st.integers(1, 120), cut=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=5, deadline=None, derandomize=True)
    def test_tiles_and_splits_match_whole_batch(self, n, kernels, cut,
                                                seed):
        rng = np.random.default_rng(seed)
        mixture = GaussianMixture(rng.normal(scale=3.0, size=(kernels, 6)),
                                  rng.uniform(0.2, 1.5, size=6))
        x = rng.normal(scale=4.0, size=(n, 6))
        full = mixture.log_pdf(x)
        assert np.array_equal(full, whole_batch_log_pdf(mixture, x))
        cut = round(cut * n)
        assert np.array_equal(full, np.concatenate(
            [mixture.log_pdf(x[:cut]), mixture.log_pdf(x[cut:])]))


class TestDefensiveMixture:
    def make(self, fraction=0.1):
        kernel = GaussianMixture(np.array([[4.0, 0.0]]), 0.5)
        return DefensiveMixture(SPACE, kernel, fraction)

    def test_weights_bounded_by_inverse_fraction(self, rng):
        defensive = self.make(0.1)
        x = rng.normal(size=(5000, 2)) * 3.0
        ratios = importance_ratios(SPACE, defensive, x)
        assert np.all(ratios <= 10.0 + 1e-9)

    def test_log_pdf_is_mixture(self, rng):
        defensive = self.make(0.25)
        x = rng.normal(size=(100, 2))
        expected = np.log(0.25 * SPACE.pdf(x)
                          + 0.75 * defensive.mixture.pdf(x))
        assert np.allclose(defensive.log_pdf(x), expected)

    def test_sampling_includes_prior_mass(self, rng):
        defensive = self.make(0.5)
        samples = defensive.sample(4000, rng)
        near_origin = np.sum(np.linalg.norm(samples, axis=1) < 2.0)
        assert near_origin > 1000  # half the draws come from the prior

    def test_fraction_validation(self):
        kernel = GaussianMixture(np.zeros((1, 2)), 1.0)
        with pytest.raises(ValueError):
            DefensiveMixture(SPACE, kernel, 0.0)
        with pytest.raises(ValueError):
            DefensiveMixture(SPACE, kernel, 1.0)

    def test_dim_mismatch_rejected(self):
        kernel = GaussianMixture(np.zeros((1, 3)), 1.0)
        with pytest.raises(ValueError, match="dim"):
            DefensiveMixture(SPACE, kernel, 0.1)


class TestImportanceMath:
    def test_is_estimator_is_unbiased_on_known_probability(self, rng):
        """Estimate P(|x1| > 3) by IS from a shifted mixture; compare to
        the exact normal tail."""
        from scipy.stats import norm

        means = np.array([[3.2, 0.0], [-3.2, 0.0]])
        mixture = DefensiveMixture(SPACE, GaussianMixture(means, 0.8), 0.2)
        x = mixture.sample(200_000, rng)
        ratios = importance_ratios(SPACE, mixture, x)
        y = (np.abs(x[:, 0]) > 3.0).astype(float)
        estimate = np.mean(ratios * y)
        exact = 2 * norm.sf(3.0)
        assert estimate == pytest.approx(exact, rel=0.05)

    def test_effective_sample_size(self):
        assert effective_sample_size(np.ones(10)) == pytest.approx(10.0)
        ess = effective_sample_size(np.array([1.0, 0.0]))
        assert ess == pytest.approx(1.0)
        assert effective_sample_size(np.zeros(3)) == 0.0
        assert effective_sample_size(np.array([])) == 0.0
        with pytest.raises(ValueError):
            effective_sample_size(np.array([-1.0]))
