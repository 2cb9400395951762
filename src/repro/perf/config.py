"""Hot-path acceleration knobs.

:class:`PerfConfig` selects how aggressively the margin evaluator may
trade per-sample work for speed.  Every setting is *result-neutral* by
construction: each rung of the adaptive screening ladder labels only
rows outside a provably safe guard band and passes the rest to a deeper
rung (see :mod:`repro.perf.adaptive`), and the solve cache
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
        Label every batch on the screening ladder of
        :class:`~repro.perf.adaptive.AdaptiveMarginEvaluator` -- 8, 12
        and 20 bisection steps, then the exact 40 for rows no rung could
        label (default on; ``False`` restores the fixed-budget exact
        path).  The ladder and the guard band's safety factor are
        module constants, not settings.
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
