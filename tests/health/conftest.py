"""Shared fixtures/helpers for the health-layer test suite.

Mirrors the tiny-problem setup of ``tests/checkpoint/test_resume.py``:
a 4-D whitened space with a two-lobe indicator, budgets small enough
that a full estimator run takes ~1 s, and module-level (picklable)
indicator bodies so the process backend works.
"""

import numpy as np

from repro.core.ecripse import EcripseConfig, EcripseEstimator
from repro.core.indicator import FunctionIndicator
from repro.rtn.model import ZeroRtnModel
from repro.runtime import ExecutionConfig
from repro.variability.space import VariabilitySpace

DIM = 4
SPACE = VariabilitySpace(np.ones(DIM))
NULL = ZeroRtnModel(SPACE)

#: five stage-1 iterations so the default ``filter`` fault spec
#: (fires on iterations 3 and 4) completes its collapse streak with an
#: iteration to spare for the re-seed to act.
TINY = EcripseConfig(n_particles=40, n_iterations=5, k_train=64,
                     stage2_batch=600, max_statistical_samples=50_000,
                     n_boundary_directions=24, n_bisections=8)


# module-level (picklable) indicator body for the process backend
def two_lobes(x):
    return np.abs(x[:, 0]) > 3.5


def indicator():
    return FunctionIndicator(two_lobes, dim=DIM)


def execution(backend):
    if backend == "serial":
        return ExecutionConfig()
    return ExecutionConfig(backend=backend, workers=2)


def make_estimator(backend="serial", health=None, seed=7, config=TINY):
    cfg = config.with_(execution=execution(backend))
    if health is not None:
        cfg = cfg.with_(health=health)
    return EcripseEstimator(SPACE, indicator(), NULL, config=cfg,
                            seed=seed)


def signature(estimate):
    """Bit-identity signature: estimate, budget, trace -- and health."""
    health = (None if estimate.health is None
              else estimate.health.as_dict())
    return (estimate.pfail, estimate.n_simulations,
            [p.as_dict() for p in estimate.trace], health)
