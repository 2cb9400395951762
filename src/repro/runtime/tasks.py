"""Module-level task bodies and the perf accounting around them.

Task bodies must live at module scope (not as closures or lambdas) so
the process backend can pickle them by qualified name.  Workload-specific
tasks live next to their callers (e.g. the naive-MC chunk task in
:mod:`repro.core.naive`); only the generic ones are collected here, with
the one implementation of the evaluator-counter accounting every
estimator shares.
"""

from __future__ import annotations

import numpy as np


def indicator_perf_stats(indicator) -> dict:
    """The perf counters of the evaluator behind ``indicator`` (or {}).

    Test-double indicators without an ``evaluator`` attribute degrade
    to an empty dict, which makes every stats delta empty too.
    """
    evaluator = getattr(indicator, "evaluator", None)
    stats = getattr(evaluator, "perf_stats", None)
    return stats() if callable(stats) else {}


def perf_stats_delta(before: dict, after: dict) -> dict:
    """Additive-counter delta between two perf snapshots.

    ``cache_entries`` is a gauge (current cache size), not a counter,
    so it is dropped rather than differenced.
    """
    return {key: int(value) - int(before.get(key, 0))
            for key, value in after.items() if key != "cache_entries"}


def perf_metadata(indicator, baseline: dict, spans: dict) -> dict:
    """One run's ``metadata["perf"]``: its spans plus the counter delta
    over ``baseline`` (the gauge as it stands now).

    Counters live on the (possibly sweep-shared) evaluator and are
    process-local telemetry: a run resumed in a fresh process reports
    only the work done since the restore.
    """
    after = indicator_perf_stats(indicator)
    delta = perf_stats_delta(baseline, after)
    return {"spans": spans,
            **{key: delta.get(key, value) for key, value in after.items()}}


def absorb_perf_stats(indicator, stats: dict, where: str) -> None:
    """Merge one executed chunk's counter delta into the parent.

    Only process-pool chunks carry counts the parent's evaluator never
    saw (the worker labelled on its own unpickled copy); serial and
    fallback chunks ran on the parent's evaluator object, so merging
    them would double count.
    """
    if where != "process" or not stats:
        return
    absorb = getattr(getattr(indicator, "evaluator", None),
                     "absorb_stats", None)
    if callable(absorb):
        absorb(stats)


def evaluate_indicator_stats(chunk: np.ndarray, indicator
                             ) -> tuple[np.ndarray, dict]:
    """Label one chunk with a (raw, non-counting) indicator; returns the
    labels and the evaluator-counter delta.

    Simulation accounting stays in the parent process: callers add the
    chunk sizes to their :class:`~repro.core.indicator.SimulationCounter`
    *before* dispatch, preserving the budget circuit-breaker semantics of
    :class:`~repro.core.indicator.CountingIndicator`.  The delta is
    measured inside the task, against whatever counter values the
    evaluator copy started with, so it is exactly this chunk's
    contribution; the parent merges it with :func:`absorb_perf_stats`.
    """
    before = indicator_perf_stats(indicator)
    labels = np.asarray(indicator.evaluate(chunk), dtype=bool)
    return labels, perf_stats_delta(before, indicator_perf_stats(indicator))
