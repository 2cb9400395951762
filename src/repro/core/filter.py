"""Steps (2)-(4): the particle filter bank.

Each :class:`ParticleFilter` tracks one failure lobe: *prediction* draws
candidates from the mixture-of-Gaussians proposal centred on the current
particles (paper eq. 15), *measurement* assigns the weights computed by
the caller (eq. 16), and *resampling* draws the next generation inside
that filter only.  Running several filters side by side
(:class:`ParticleFilterBank`) is the paper's fix for particle degeneracy:
with a single filter the ensemble collapses onto one of the two symmetric
failure regions and the failure probability is underestimated (the A2
ablation benchmark demonstrates exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.particles import (
    kmeans_directions,
    systematic_resample,
    unique_fraction,
)
from repro.rng import rng_from_state, rng_state, spawn


@dataclass
class FilterDiagnostics:
    """Per-iteration health metrics of one filter."""

    iteration: int
    mean_weight: float
    unique_ancestors: float
    centroid_norm: float

    def as_dict(self) -> dict:
        """Plain-dict form for checkpoint snapshots."""
        return {"iteration": self.iteration,
                "mean_weight": self.mean_weight,
                "unique_ancestors": self.unique_ancestors,
                "centroid_norm": self.centroid_norm}

    @classmethod
    def from_dict(cls, data: dict) -> "FilterDiagnostics":
        """Inverse of :meth:`as_dict`."""
        return cls(**data)


class ParticleFilter:
    """One particle filter over the whitened variability space."""

    def __init__(self, positions: np.ndarray, kernel_sigma: float,
                 rng: np.random.Generator) -> None:
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        if positions.size == 0:
            raise ValueError("a filter needs at least one initial particle")
        if kernel_sigma <= 0:
            raise ValueError(
                f"kernel_sigma must be positive, got {kernel_sigma}")
        self.positions = positions
        self.n_particles = positions.shape[0]
        self.kernel_sigma = float(kernel_sigma)
        self.rng = rng
        self.history: list[FilterDiagnostics] = []
        self._iteration = 0

    # ------------------------------------------------------------------
    def predict(self) -> np.ndarray:
        """Draw candidate particles from the mixture proposal (eq. 15)."""
        n = self.positions.shape[0]
        parents = self.rng.integers(0, n, size=n)
        noise = self.rng.standard_normal(self.positions.shape)
        return self.positions[parents] + self.kernel_sigma * noise

    def resample(self, candidates: np.ndarray, weights: np.ndarray) -> None:
        """Resample the next generation from ``candidates`` by ``weights``.

        If every weight is zero (no candidate touches the failure region)
        the filter keeps its current particles instead of collapsing.
        """
        candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (candidates.shape[0],):
            raise ValueError(
                f"weights shape {weights.shape} does not match "
                f"{candidates.shape[0]} candidates")
        self._iteration += 1
        if not np.any(weights > 0):
            self.history.append(FilterDiagnostics(
                iteration=self._iteration, mean_weight=0.0,
                unique_ancestors=1.0,
                centroid_norm=float(
                    np.linalg.norm(self.positions.mean(axis=0)))))
            return
        indices = systematic_resample(weights, self.n_particles, self.rng)
        self.positions = candidates[indices]
        self.history.append(FilterDiagnostics(
            iteration=self._iteration,
            mean_weight=float(weights.mean()),
            unique_ancestors=unique_fraction(indices),
            centroid_norm=float(np.linalg.norm(self.positions.mean(axis=0)))))

    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Checkpoint snapshot: particles, kernel, RNG stream, history."""
        return {
            "positions": self.positions.copy(),
            "kernel_sigma": self.kernel_sigma,
            "rng": rng_state(self.rng),
            "iteration": self._iteration,
            "history": [d.as_dict() for d in self.history],
        }

    @classmethod
    def from_state(cls, state: dict) -> "ParticleFilter":
        """Rebuild a filter mid-run from a :meth:`state` snapshot."""
        flt = cls(np.asarray(state["positions"], dtype=float),
                  float(state["kernel_sigma"]),
                  rng_from_state(state["rng"]))
        flt._iteration = int(state["iteration"])
        flt.history = [FilterDiagnostics.from_dict(d)
                       for d in state["history"]]
        return flt


class ParticleFilterBank:
    """A set of independent particle filters iterated in lock step.

    Parameters
    ----------
    boundary_points:
        Points on the failure boundary (from
        :func:`repro.core.boundary.find_failure_boundary`).
    n_filters:
        Number of independent filters; boundary points are split between
        them by directional k-means so each starts on its own lobe.
    n_particles:
        Particles per filter.
    kernel_sigma:
        Proposal kernel standard deviation (the paper's diagonal sigma).
    """

    def __init__(self, boundary_points: np.ndarray, n_filters: int,
                 n_particles: int, kernel_sigma: float,
                 rng: np.random.Generator) -> None:
        boundary_points = np.atleast_2d(
            np.asarray(boundary_points, dtype=float))
        if n_filters < 1:
            raise ValueError(f"n_filters must be >= 1, got {n_filters}")
        if n_particles < 2:
            raise ValueError(f"n_particles must be >= 2, got {n_particles}")
        labels = kmeans_directions(boundary_points, n_filters, rng)
        child_rngs = spawn(rng, n_filters + 1)
        seed_rng = child_rngs[-1]

        self.filters: list[ParticleFilter] = []
        for j in range(n_filters):
            members = boundary_points[labels == j]
            if members.shape[0] == 0:
                members = boundary_points  # degenerate cluster: share all
            picks = seed_rng.integers(0, members.shape[0], size=n_particles)
            self.filters.append(ParticleFilter(
                members[picks], kernel_sigma, child_rngs[j]))
        self.n_filters = n_filters
        self.n_particles = n_particles

    # ------------------------------------------------------------------
    def predict_all(self) -> np.ndarray:
        """Candidates from every filter, stacked to (F * N, D)."""
        return np.vstack([f.predict() for f in self.filters])

    def resample_all(self, candidates: np.ndarray,
                     weights: np.ndarray) -> None:
        """Distribute stacked candidates/weights back to their filters."""
        n = self.n_particles
        expected = self.n_filters * n
        if candidates.shape[0] != expected or weights.shape[0] != expected:
            raise ValueError(
                f"expected {expected} stacked candidates/weights, got "
                f"{candidates.shape[0]}/{weights.shape[0]}")
        for j, flt in enumerate(self.filters):
            flt.resample(candidates[j * n:(j + 1) * n],
                         weights[j * n:(j + 1) * n])

    def positions(self) -> np.ndarray:
        """All particles of all filters, shape (F * N, D)."""
        return np.vstack([f.positions for f in self.filters])

    def reseed_filter(self, index: int, boundary) -> None:
        """Re-seed one collapsed filter from the boundary cache.

        Replaces the filter's particles with fresh draws from the
        :class:`~repro.core.boundary.BoundarySearchResult` seed bank,
        consuming only the filter's *own* generator -- the other
        filters' streams are untouched, so recovery of one lobe leaves
        the rest of the run bit-identical.  Costs no simulations and
        keeps the filter's history/iteration counters (the collapse
        stays visible in the diagnostics).
        """
        if not 0 <= index < self.n_filters:
            raise ValueError(
                f"filter index {index} out of range 0..{self.n_filters - 1}")
        flt = self.filters[index]
        flt.positions = boundary.sample(self.n_particles, flt.rng)

    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Checkpoint snapshot of the whole bank."""
        return {
            "n_filters": self.n_filters,
            "n_particles": self.n_particles,
            "filters": [f.state() for f in self.filters],
        }

    @classmethod
    def from_state(cls, state: dict) -> "ParticleFilterBank":
        """Rebuild a bank mid-run without re-running k-means/seeding.

        Bypasses ``__init__`` (which would consume fresh randomness);
        each member filter is restored from its own snapshot.
        """
        bank = cls.__new__(cls)
        bank.n_filters = int(state["n_filters"])
        bank.n_particles = int(state["n_particles"])
        bank.filters = [ParticleFilter.from_state(s)
                        for s in state["filters"]]
        if len(bank.filters) != bank.n_filters:
            raise ValueError(
                f"snapshot holds {len(bank.filters)} filters, "
                f"expected {bank.n_filters}")
        return bank
