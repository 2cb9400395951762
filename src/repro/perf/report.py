"""Aggregation and rendering of per-run perf telemetry.

Every estimator attaches a perf dict (profiling spans plus
device-model-evaluation and cache counters, all measured as deltas over
the run) to ``FailureEstimate.metadata["perf"]``.  The CLI's
``--perf-report`` walks whatever result object a subcommand produced,
merges every perf dict it finds and renders one text or JSON summary --
the perf twin of ``--health-report``.
"""

from __future__ import annotations

import json

from repro.perf.profile import merge_spans

#: additive counter keys (summed across runs when merging).
_COUNTERS = ("device_model_evals", "cache_hits", "cache_misses",
             "cache_evictions", "screened", "refined")


def collect_perf(result: object, _depth: int = 0) -> list[dict]:
    """Recursively harvest perf dicts from a result container.

    Mirrors :func:`repro.health.events.collect_reports`: walks
    dataclass-like result objects, lists and dicts, and collects the
    ``metadata["perf"]`` entry of every estimate encountered.
    """
    if _depth > 6 or result is None:
        return []
    perfs: list[dict] = []
    metadata = getattr(result, "metadata", None)
    own = None
    if isinstance(metadata, dict) and isinstance(
            metadata.get("perf"), dict):
        own = metadata["perf"]
        perfs.append(own)
    if isinstance(result, dict):
        children = list(result.values())
    elif isinstance(result, (list, tuple)):
        children = list(result)
    elif hasattr(result, "__dataclass_fields__"):
        children = [getattr(result, name)
                    for name in result.__dataclass_fields__]
    else:
        children = []
    for child in children:
        if isinstance(child, (str, bytes, int, float, bool)):
            continue
        perfs.extend(collect_perf(child, _depth + 1))
    return perfs


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


def render_json(merged: dict) -> str:
    return json.dumps(merged, indent=2)


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
