"""Glue between experiments and the checkpoint machinery.

:func:`run_checkpointed` wraps one named estimator run with the full
resume protocol:

1. already-finished run (``result.json`` present, ``resume``): restore
   the final snapshot (so downstream runs can reuse boundary/classifier
   state) and return the saved result without spending simulations;
2. interrupted run: restore the newest snapshot and continue;
3. fresh run: start from scratch.

In every case the final estimator state is snapshotted *before* the
result file is written, so the "finished" state on disk is always
restorable.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.checkpoint.config import CheckpointConfig


def run_checkpointed(cp: CheckpointConfig | None, name: str,
                     estimator: Any, *,
                     crash_budget: list[int] | None = None,
                     interrupt: Callable[[], str | None] | None = None,
                     listener: Callable[[int, str], None] | None = None,
                     **run_kwargs: Any) -> Any:
    """Run ``estimator.run(**run_kwargs)`` under checkpoint policy
    ``cp``; with ``cp=None`` this is a plain ``estimator.run``.

    ``crash_budget`` (a single-element list) threads one
    ``--crash-after-checkpoints`` countdown across the sequential runs
    of a campaign; the element is decremented by the saves this run
    performs.  ``interrupt`` and ``listener`` become the manager's
    hooks of the same names (see
    :class:`~repro.checkpoint.manager.CheckpointManager`): the job
    service's cancellation poll and progress feed.
    """
    if cp is None:
        return estimator.run(**run_kwargs)

    manager = cp.manager(name, crash_budget=crash_budget)
    manager.interrupt = interrupt
    manager.listener = listener
    try:
        if cp.resume:
            result = manager.load_result()
            if result is not None:
                manager.restore_into(estimator)
                return result
            manager.restore_into(estimator)
        estimate = estimator.run(checkpoint=manager, **run_kwargs)
        # Final state first, result second: a consumer that finds the
        # result can always also restore the finished estimator (fig. 7b
        # and the bias sweep reuse its boundary/classifier that way).
        manager.save_final(estimator, estimate.n_simulations)
        manager.save_result(estimate)
        return estimate
    finally:
        if crash_budget is not None:
            crash_budget[0] -= manager.saves
