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

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class PerfConfig:
    """Acceleration policy for the margin-evaluation hot path.

    Parameters
    ----------
    adaptive:
        Screen every batch on a reduced-bisection-depth solve and refine
        only samples whose coarse margin falls inside the guard band
        (default on; ``False`` restores the fixed-budget exact path).
    coarse_iterations:
        Bisection depth of the screening solve (the exact path uses the
        solver default of 40).  Lower is cheaper but widens the guard
        band, refining more samples; the floor of 8 is the solver's own.
    guard_safety:
        Multiplier on the analytic coarse-vs-exact margin error bound.
        Must be >= 1 for the label-exactness guarantee; the default 2
        doubles the (already conservative) bound to cover the
        interpolation corner cases discussed in ``docs/PERFORMANCE.md``
        -- empirically the bound itself has >3x headroom over the worst
        observed coarse error.
    cache_path:
        Optional directory for the :class:`~repro.perf.cache.SolveCache`
        (``--solve-cache``).  Without it the evaluator has no cache;
        with it the cache is loaded from the directory at evaluator
        construction and saved back by
        :func:`repro.perf.save_registered_caches` (the CLI does this
        after every run), one file per solve fingerprint.
    """

    adaptive: bool = True
    coarse_iterations: int = 12
    guard_safety: float = 2.0
    cache_path: str | None = None

    def __post_init__(self) -> None:
        if self.coarse_iterations < 8:
            raise ValueError("coarse_iterations must be >= 8")
        if self.guard_safety < 1.0:
            raise ValueError(
                "guard_safety must be >= 1 (the guard band may only be "
                "widened beyond the analytic bound, never narrowed)")

    @classmethod
    def exact(cls) -> "PerfConfig":
        """The unaccelerated legacy path (``--exact-eval``).

        Disables adaptivity, reproducing the fixed-budget solve -- the
        reference every acceleration is gated bit-identical against in
        ``bench_hotpath``.
        """
        return cls(adaptive=False)

    def with_(self, **changes) -> "PerfConfig":
        """Return a copy with ``changes`` applied (dataclass replace)."""
        return replace(self, **changes)
