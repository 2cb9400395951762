"""Aggregation and rendering of a command's run reports.

Every estimator attaches a :class:`~repro.health.events.HealthReport`
to ``FailureEstimate.health`` and a perf dict (profiling spans plus
device-model-evaluation and cache counters, all measured as deltas over
the run) to ``FailureEstimate.metadata["perf"]``.  The CLI's
``--report`` walks whatever result object a subcommand produced with
:func:`collect_runs`, merges the health reports and the perf dicts
(:func:`merge_perf`) and prints both, as text or as one JSON object.
"""

from __future__ import annotations

from repro.perf.profile import merge_spans

#: additive counter keys (summed across runs when merging).
_COUNTERS = ("device_model_evals", "cache_hits", "cache_misses",
             "cache_evictions", "screened", "refined")


def collect_runs(result: object) -> tuple[list, list[dict]]:
    """Harvest the health reports and perf dicts of every run in
    ``result``.

    Walks dataclass-like result objects (``fig6``/``fig7``/... results,
    lists of estimates, vmin probe tuples), lists, tuples and dict
    values down to depth 6, and collects the ``health`` report and the
    ``metadata["perf"]`` dict of every estimate encountered; a bare
    :class:`~repro.health.events.HealthReport` counts as one report.
    Returns ``(health_reports, perf_dicts)`` in walk order.
    """
    # deferred: repro.health imports repro.core, which imports repro.perf
    from repro.health.events import HealthReport

    reports: list[HealthReport] = []
    perfs: list[dict] = []

    def walk(node: object, depth: int) -> None:
        if depth > 6 or node is None:
            return
        if isinstance(node, HealthReport):
            reports.append(node)
            return
        health = getattr(node, "health", None)
        if isinstance(health, HealthReport):
            reports.append(health)
        metadata = getattr(node, "metadata", None)
        if isinstance(metadata, dict) and isinstance(
                metadata.get("perf"), dict):
            perfs.append(metadata["perf"])
        if isinstance(node, dict):
            children = list(node.values())
        elif isinstance(node, (list, tuple)):
            children = list(node)
        elif hasattr(node, "__dataclass_fields__"):
            children = [getattr(node, name)
                        for name in node.__dataclass_fields__]
        else:
            children = []
        for child in children:
            # the attached report is already collected
            if child is not health and not isinstance(
                    child, (str, bytes, int, float, bool)):
                walk(child, depth + 1)

    walk(result, 0)
    return reports, perfs


def merge_perf(perfs: list[dict]) -> dict:
    """Combine several runs' perf dicts into one summary.

    Counters add up; spans merge by name; derived rates (cache hit
    rate, screened fraction) are recomputed from the merged counters.
    """
    merged: dict = {"runs": len(perfs),
                    "spans": {}}
    for key in _COUNTERS:
        merged[key] = 0
    entries = 0
    for perf in perfs:
        for key in _COUNTERS:
            value = perf.get(key)
            if isinstance(value, (int, float)):
                merged[key] += int(value)
        if isinstance(perf.get("cache_entries"), int):
            entries = max(entries, perf["cache_entries"])
        if isinstance(perf.get("spans"), dict):
            merge_spans(merged["spans"], perf["spans"])
    merged["cache_entries"] = entries
    lookups = merged["cache_hits"] + merged["cache_misses"]
    merged["cache_hit_rate"] = (
        merged["cache_hits"] / lookups if lookups else 0.0)
    labelled = merged["screened"] + merged["refined"]
    merged["screened_fraction"] = (
        merged["screened"] / labelled if labelled else 0.0)
    return merged


def render_text(merged: dict) -> str:
    """Human-readable multi-line perf summary."""
    lines = [f"perf report ({merged['runs']} run(s))",
             f"  device-model evals  {merged['device_model_evals']}",
             f"  cache               {merged['cache_hits']} hits / "
             f"{merged['cache_misses']} misses "
             f"({merged['cache_hit_rate']:.1%} hit rate, "
             f"{merged['cache_entries']} entries, "
             f"{merged['cache_evictions']} evictions)",
             f"  adaptive screen     {merged['screened']} screened / "
             f"{merged['refined']} refined "
             f"({merged['screened_fraction']:.1%} screened)"]
    if merged["spans"]:
        lines.append("  spans:")
        for name, stat in merged["spans"].items():
            lines.append(f"    {name:20s} {stat['total_s']:9.3f} s "
                         f"({stat['count']} call(s))")
    return "\n".join(lines)
