"""repro.perf -- hot-path acceleration for estimator workloads.

Three cooperating pieces, all result-neutral:

* :class:`~repro.perf.adaptive.AdaptiveMarginEvaluator` -- labels
  batches on a screening ladder of bisection depths (8 -> 12 -> 20,
  then the exact 40): each rung labels the samples outside its provably
  safe guard band and resumes the rest from its brackets, after a
  window pre-rung that passes the rows its linearised-margin gate
  admits from 8 steps on 12 of the 61 grid columns (labels
  bit-identical to the exact path);
* :class:`~repro.perf.cache.SolveCache` -- an opt-in LRU memo of
  butterfly solves keyed on exact ΔVth bytes plus a solve-configuration
  fingerprint, kept in the ``--solve-cache`` directory; it hits only
  when the same rows are solved again (a same-seed rerun);
* :class:`~repro.perf.profile.StageProfiler` -- ``perf_counter`` spans
  around the estimator stages, surfaced through ``--report``.

:func:`build_evaluator` builds the one evaluator the program labels
through, with the solve cache a :class:`~repro.perf.config.PerfConfig`
names.  The exact :class:`~repro.sram.evaluator.CellEvaluator` remains
the base class and the reference tests build directly.
"""

from __future__ import annotations

from pathlib import Path

from repro.perf.adaptive import AdaptiveMarginEvaluator, margin_guard_band
from repro.perf.cache import SolveCache
from repro.perf.config import PerfConfig
from repro.perf.profile import StageProfiler, merge_spans
from repro.perf.report import collect_runs, merge_perf, render_text
from repro.sram.cell import SramCell
from repro.sram.evaluator import CellEvaluator
from repro.variability.space import VariabilitySpace

__all__ = [
    "AdaptiveMarginEvaluator",
    "CellEvaluator",
    "PerfConfig",
    "SolveCache",
    "StageProfiler",
    "build_evaluator",
    "collect_runs",
    "margin_guard_band",
    "merge_perf",
    "merge_spans",
    "render_text",
    "save_registered_caches",
]

#: caches opened with on-disk persistence, keyed by (directory,
#: fingerprint) so repeated builds under one CLI run share the instance.
_REGISTERED_CACHES: dict[tuple[str, str], SolveCache] = {}


def build_evaluator(cell: SramCell, space: VariabilitySpace,
                    vdd: float | None = None, grid_points: int = 61,
                    perf: PerfConfig | None = None
                    ) -> AdaptiveMarginEvaluator:
    """The screening-ladder evaluator, with a solve cache when
    ``perf.cache_path`` names its directory (``perf=None``: no cache).
    """
    evaluator = AdaptiveMarginEvaluator(cell, space, vdd=vdd,
                                        grid_points=grid_points)
    if perf is not None and perf.cache_path is not None:
        # Attach the cache after construction: its file is keyed on
        # the finished evaluator's solve fingerprint.
        fingerprint = evaluator.solve_fingerprint()
        key = (str(Path(perf.cache_path).resolve()), fingerprint)
        cache = _REGISTERED_CACHES.get(key)
        if cache is None:
            cache = SolveCache.load(perf.cache_path, fingerprint)
            _REGISTERED_CACHES[key] = cache
        evaluator.cache = cache
    return evaluator


def save_registered_caches() -> list[Path]:
    """Persist every on-disk cache opened via :func:`build_evaluator`.

    The CLI calls this once after each subcommand finishes, so a sweep
    warms the cache file for the next invocation.  Returns the written
    paths.
    """
    written = []
    for (directory, _), cache in _REGISTERED_CACHES.items():
        written.append(cache.save(directory))
    return written
