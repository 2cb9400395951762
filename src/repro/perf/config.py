"""Where the hot path keeps its solve cache.

:class:`PerfConfig` names the directory of the opt-in
:class:`~repro.perf.cache.SolveCache`, and nothing else: the evaluator
always labels on the screening ladder of
:mod:`repro.perf.adaptive`, whose labels are bit-identical to the exact
solve's, and the cache returns the exact floats a fresh solve would
produce.  Estimates are therefore the same with or without a cache
directory, so the config deliberately does **not** participate in
checkpoint fingerprints, just like
:class:`~repro.runtime.config.ExecutionConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PerfConfig:
    """The solve-cache directory of the margin-evaluation hot path.

    Parameters
    ----------
    cache_path:
        Optional directory for the :class:`~repro.perf.cache.SolveCache`
        (``--solve-cache``).  Without it the evaluator has no cache;
        with it the cache is loaded from the directory at evaluator
        construction and saved back by
        :func:`repro.perf.save_registered_caches` (the CLI does this
        after every run), one file per solve fingerprint.
    """

    cache_path: str | None = None
