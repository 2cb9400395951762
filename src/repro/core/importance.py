"""Importance-sampling machinery: mixture alternative distributions.

The estimated optimal alternative distribution is a uniform-weight mixture
of isotropic Gaussian kernels centred on the final particles (paper
eq. 18).  :class:`GaussianMixture` supports sampling and stable
log-density evaluation; importance ratios are computed in log space to
survive the deep tails the particles live in.
"""

from __future__ import annotations

import numpy as np

from repro.variability.space import VariabilitySpace

_LOG_2PI = float(np.log(2.0 * np.pi))

#: rows per :meth:`GaussianMixture.log_pdf` tile: the (tile, K, D)
#: difference block stays cache-sized (2.9 MB at K = 120) instead of
#: growing with the batch.  Every row's density is computed alone, so
#: tiling moves no bit.
LOG_PDF_TILE = 512


class GaussianMixture:
    """Uniform-weight mixture of isotropic/diagonal Gaussian kernels.

    Parameters
    ----------
    means:
        Kernel centres, shape (K, D).
    sigma:
        Kernel standard deviation: a scalar or a (D,) diagonal.
    """

    def __init__(self, means, sigma) -> None:
        means = np.atleast_2d(np.asarray(means, dtype=float))
        if means.ndim != 2 or means.size == 0:
            raise ValueError("means must be a non-empty (K, D) array")
        self.means = means
        self.n_kernels, self.dim = means.shape
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim == 0:
            sigma = np.full(self.dim, float(sigma))
        if sigma.shape != (self.dim,):
            raise ValueError(
                f"sigma must be scalar or ({self.dim},), got {sigma.shape}")
        if np.any(sigma <= 0):
            raise ValueError("sigma must be positive")
        self.sigma = sigma
        self._log_norm = -0.5 * (self.dim * _LOG_2PI
                                 + 2.0 * np.sum(np.log(sigma)))

    # ------------------------------------------------------------------
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` points, shape (n, D)."""
        if n < 0:
            raise ValueError(f"cannot draw {n} samples")
        choice = rng.integers(0, self.n_kernels, size=n)
        noise = rng.standard_normal((n, self.dim)) * self.sigma
        return self.means[choice] + noise

    def log_pdf(self, x) -> np.ndarray:
        """Log density at points ``x`` (B, D) via log-sum-exp."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.dim:
            raise ValueError(
                f"expected points of dimension {self.dim}, got {x.shape[1]}")
        out = np.empty(x.shape[0])
        for lo in range(0, x.shape[0], LOG_PDF_TILE):
            # (tile, K) squared Mahalanobis distances to each kernel.
            diff = ((x[lo:lo + LOG_PDF_TILE, None, :]
                     - self.means[None, :, :]) / self.sigma)
            sq = np.einsum("bkd,bkd->bk", diff, diff)
            log_k = self._log_norm - 0.5 * sq
            peak = log_k.max(axis=1)
            out[lo:lo + LOG_PDF_TILE] = peak + np.log(
                np.mean(np.exp(log_k - peak[:, None]), axis=1))
        return out

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.log_pdf(x))


class DefensiveMixture:
    """Alternative distribution blended with the prior.

    ``Q'(x) = f * P(x) + (1 - f) * Q(x)`` with a small defensive fraction
    ``f``.  This bounds the importance weight by ``1/f``, which removes the
    weight-variance blow-up that a too-narrow particle mixture would
    otherwise cause in the dimensions orthogonal to the failure boundary
    (a standard defensive-importance-sampling construction; the paper does
    not spell out its safeguard, this is ours and is ablated in
    ``bench_ablation_defensive``).
    """

    def __init__(self, space: VariabilitySpace, mixture: GaussianMixture,
                 defensive_fraction: float = 0.1) -> None:
        if not 0.0 < defensive_fraction < 1.0:
            raise ValueError(
                f"defensive fraction must lie in (0, 1), got "
                f"{defensive_fraction}")
        if space.dim != mixture.dim:
            raise ValueError(
                f"space dim {space.dim} != mixture dim {mixture.dim}")
        self.space = space
        self.mixture = mixture
        self.fraction = float(defensive_fraction)
        self.dim = mixture.dim

    @property
    def weight_bound(self) -> float:
        """Mathematical upper bound on importance weights, ``1/f``.

        ``P/Q' = P / (f*P + (1-f)*Q) <= 1/f`` pointwise; any weight
        above it indicates broken numerics, which is what the health
        layer's clip guard checks against.
        """
        return 1.0 / self.fraction

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        from_prior = rng.random(n) < self.fraction
        out = self.mixture.sample(n, rng)
        n_prior = int(from_prior.sum())
        if n_prior:
            out[from_prior] = self.space.sample(n_prior, rng)
        return out

    def log_pdf(self, x) -> np.ndarray:
        log_p = self.space.log_pdf(np.atleast_2d(np.asarray(x, dtype=float)))
        log_q = self.mixture.log_pdf(x)
        return np.logaddexp(np.log(self.fraction) + log_p,
                            np.log1p(-self.fraction) + log_q)

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.log_pdf(x))


def importance_ratios(space: VariabilitySpace, mixture,
                      x: np.ndarray) -> np.ndarray:
    """Importance weights P(x)/Q(x) for points drawn from ``mixture``.

    Computed as ``exp(logP - logQ)`` so that points deep in the tail do not
    underflow to 0/0.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.exp(space.log_pdf(x) - mixture.log_pdf(x))


def effective_sample_size(weights: np.ndarray) -> float:
    """Kish effective sample size of a weight vector."""
    weights = np.asarray(weights, dtype=float)
    if weights.size == 0:
        return 0.0
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0.0:
        return 0.0
    return float(total * total / np.sum(weights * weights))
