"""repro.health -- numerical guardrails and graceful degradation.

The health layer turns fatal numerical failures in the two-stage
ECRIPSE estimator into detected, recovered and reported events.  Four
recovery paths sit behind a :class:`HealthPolicy`:

1. **solver** -- convergence failures retry with escalating damping /
   continuation and may accept a best iterate under a residual bound
   (:func:`solve_with_recovery`);
2. **particle filters** -- per-step ESS and lobe-collapse monitors with
   deterministic re-seeding from the boundary cache and quarantine;
3. **stage-2 importance sampling** -- ESS floor on the importance
   weights with automatic mixture widening and a bias flag when weight
   clipping engages;
4. **classifier** -- degenerate one-class training batches fall back to
   a simulate-everything blockade until both classes reappear.

Everything flows into a structured :class:`HealthReport` attached to
the :class:`~repro.core.estimate.FailureEstimate`, serialised through
checkpoints and rendered by the CLI's ``--report`` flag.  The
deterministic :class:`FaultInjector` exercises every recovery path in
tests and CI.  See ``docs/ROBUSTNESS.md`` for the full contract.
"""

from repro.health.events import (
    CATEGORIES,
    SEVERITIES,
    HealthEvent,
    HealthReport,
)
from repro.health.inject import FAULT_KINDS, FaultInjector, parse_fault_spec
from repro.health.monitor import HealthMonitor
from repro.health.policy import HealthConfig, HealthPolicy
from repro.health.solver import solve_with_recovery

__all__ = [
    "CATEGORIES",
    "FAULT_KINDS",
    "SEVERITIES",
    "FaultInjector",
    "HealthConfig",
    "HealthEvent",
    "HealthMonitor",
    "HealthPolicy",
    "HealthReport",
    "parse_fault_spec",
    "solve_with_recovery",
]
