"""Hot-path acceleration knobs.

:class:`PerfConfig` selects how aggressively the margin evaluator may
trade per-sample work for speed.  Every setting is *result-neutral* by
construction: the adaptive screen refines anything inside a provably
safe guard band (see :mod:`repro.perf.adaptive`) and the solve cache
returns the exact floats a fresh solve would produce, so estimates are
bit-identical whether acceleration is on or off.  The config therefore
deliberately does **not** participate in checkpoint fingerprints, just
like :class:`~repro.runtime.config.ExecutionConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PerfConfig:
    """Acceleration policy for the margin-evaluation hot path.

    Parameters
    ----------
    adaptive:
        Screen every batch on a reduced-bisection-depth solve and refine
        only samples whose coarse margin falls inside the guard band
        (default on; ``False`` restores the fixed-budget exact path).
        The screening depth and the guard-band safety factor are the
        keyword defaults of
        :class:`~repro.perf.adaptive.AdaptiveMarginEvaluator`.
    cache_path:
        Optional directory for the :class:`~repro.perf.cache.SolveCache`
        (``--solve-cache``).  Without it the evaluator has no cache;
        with it the cache is loaded from the directory at evaluator
        construction and saved back by
        :func:`repro.perf.save_registered_caches` (the CLI does this
        after every run), one file per solve fingerprint.
    """

    adaptive: bool = True
    cache_path: str | None = None

    @classmethod
    def exact(cls) -> "PerfConfig":
        """The unaccelerated legacy path (``--exact-eval``).

        Disables adaptivity, reproducing the fixed-budget solve -- the
        reference every acceleration is gated bit-identical against in
        ``bench_hotpath``.
        """
        return cls(adaptive=False)
