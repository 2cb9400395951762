"""Tests of the benchmark's own machinery (``pytest benchmarks/e2e``)."""

from __future__ import annotations

import json
import re
import threading
import time

import pytest

import bench_e2e
import compare
import harness
import layers
import service_load
from service_load import ServiceWorkload
from tracer import Span, Tracer, self_times, summarize
from workloads import Outcome

harness.use_repo_sources()


def span(id, parent, start, end, thread=1, layer="x"):
    return Span(id=id, name=f"s{id}", layer=layer, parent=parent,
                trace=1, thread=thread, start=start, end=end)


# -- self time ----------------------------------------------------------
def test_self_times_partition_a_nested_tree():
    spans = [span(1, None, 0.0, 10.0, layer="root"),
             span(2, 1, 1.0, 4.0, layer="a"),
             span(3, 1, 5.0, 9.0, layer="b"),
             span(4, 3, 6.0, 7.0, layer="a")]
    assert self_times(spans) == {1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0}
    summary = summarize(spans)
    assert summary.layers == {"root": 3.0, "a": 4.0, "b": 3.0}
    assert summary.root_wall_s == 10.0
    assert sum(summary.layers.values()) == summary.root_wall_s


def test_overlapping_children_are_not_counted_twice():
    spans = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 6.0),
             span(3, 1, 4.0, 12.0)]
    assert self_times(spans)[1] == pytest.approx(1.0)


def test_two_threads_build_separate_trees():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def leaf():
        time.sleep(0.01)

    def outer():
        barrier.wait()
        for _ in range(3):
            traced_leaf()
        time.sleep(0.005)

    traced_leaf = tracer.wrap(leaf, "leaf", "inner")
    traced_outer = tracer.wrap(outer, "outer", "outer")
    threads = [threading.Thread(target=traced_outer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_id = {s.id: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == 2 and len({r.trace for r in roots}) == 2
    for s in tracer.spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.thread == s.thread and parent.trace == s.trace
    summary = summarize(tracer.spans)
    assert summary.names["leaf"].calls == 6
    assert sum(summary.layers.values()) == pytest.approx(
        summary.root_wall_s, rel=1e-9)
    assert summary.layers["outer"] < summary.layers["inner"]


def test_a_raising_call_closes_its_span_and_reraises():
    tracer = Tracer()

    def fail():
        raise KeyError("boom")

    traced = tracer.wrap(fail, "fail", "x", work=lambda a, k, r: r.size)
    with pytest.raises(KeyError, match="boom"):
        traced()
    assert [s.name for s in tracer.spans] == ["fail"]
    assert tracer._stack() == []


def test_patching_a_function_rebinds_every_alias():
    import repro.core.ecripse as ecripse
    import repro.core.importance as importance

    original = importance.importance_ratios
    tracer = Tracer()
    tracer.patch("repro.core.importance:importance_ratios", "core.is",
                 "core")
    try:
        assert ecripse.importance_ratios is importance.importance_ratios
        assert ecripse.importance_ratios is not original
    finally:
        tracer.restore()
    assert ecripse.importance_ratios is original


# -- percentiles and spreads -------------------------------------------
def test_tail_percentile_needs_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    assert harness.tail_percentile(values, 90) == 89.0
    assert harness.tail_percentile(values[:99], 90) is None
    assert harness.tail_percentile(values[:20], 50) == 9.0
    assert harness.tail_percentile(values[:19], 50) is None
    assert harness.tail_percentile([], 50) is None


def test_spread_is_quartile_distance_over_median():
    assert harness.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert harness.spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx(0.15)


# -- open loop ------------------------------------------------------------
def test_open_loop_times_reads_from_their_due_time(monkeypatch):
    monkeypatch.setattr(service_load, "MIN_READS", 10)
    workload = ServiceWorkload(rate_per_s=100.0, count_ops=1)
    stall_s = 0.045

    def send(index):
        if index == 0:
            time.sleep(stall_s)  # a stalled send delays every later one

    workload._send = send
    reads = {"cached": [], "array": []}
    late: list[float] = []
    outcome = Outcome()
    workload._reader(outcome, 0.1, reads, late, [], threading.Lock())
    assert outcome.attempted == 10 and outcome.failed == 0
    assert late[0] < 0.01
    # request 1 was due 10 ms in but could only start after the stall
    assert late[1] >= stall_s - 0.01 - 0.002
    for latency, lateness in zip(reads["cached"], late):
        assert latency >= lateness
    assert reads["cached"][0] >= stall_s


def test_reader_runs_at_least_min_reads(monkeypatch):
    monkeypatch.setattr(service_load, "MIN_READS", 6)
    workload = ServiceWorkload(rate_per_s=200.0, count_ops=1)
    workload._send = lambda index: None
    reads = {"cached": [], "array": []}
    outcome = Outcome()
    workload._reader(outcome, 0.01, reads, [], [], threading.Lock())
    assert outcome.attempted == 6 and len(reads["cached"]) == 6


def test_slow_array_jobs_do_not_hold_up_later_sends(monkeypatch):
    monkeypatch.setattr(service_load, "MIN_READS", 10)
    workload = ServiceWorkload(rate_per_s=100.0, count_ops=1)
    job_s = 0.05  # five periods
    sent_at = {}

    def send(index):
        if index % 2 == 0:
            return None
        sent_at[f"job{index}"] = time.perf_counter()
        return f"job{index}"

    def collect(job_id, due):
        if job_id == "job9":
            raise RuntimeError("array job ended failed")
        if time.perf_counter() - sent_at[job_id] < job_s:
            return None
        return {"id": job_id}

    workload._send, workload._collect = send, collect
    reads = {"cached": [], "array": []}
    late: list[float] = []
    records: list[dict] = []
    outcome = Outcome()
    workload._reader(outcome, 0.1, reads, late, records, threading.Lock())
    assert outcome.attempted == 10 and outcome.failed == 1
    assert "job ended failed" in outcome.errors[0]
    assert len(reads["cached"]) == 5 and len(records) == 4
    assert max(late) < job_s
    assert min(reads["array"]) >= job_s


def test_read_stats_fail_a_backlogged_or_thin_run():
    reads = {"cached": [0.01] * 60, "array": [0.07] * 60}
    outcome = Outcome()
    stats = ServiceWorkload._read_stats(outcome, reads, [0.001] * 120)
    assert outcome.failed == 0
    assert stats["service.array_latency_s.p80"] == 0.07
    outcome = Outcome()
    ServiceWorkload._read_stats(outcome, reads, [0.06] * 120)
    assert outcome.failed == 1 and "fell behind" in outcome.errors[0]
    outcome = Outcome()
    thin = {"cached": [0.01] * 40, "array": [0.07] * 60}
    assert ServiceWorkload._read_stats(outcome, thin, [0.0] * 100) is None
    assert outcome.failed == 1 and "cached_latency_s.p80" in outcome.errors[0]


# -- names ----------------------------------------------------------------
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_and_benchmark_json_agree():
    config = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in config["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"])
                 for m in config["per_layer"]]
    assert e2e == list(bench_e2e.END_TO_END)
    assert per_layer == [(n, u, "higher" if n in layers.HIGHER else "lower")
                         for n, u in layers.PER_LAYER]
    names = [n for n, _u in e2e] + [n for n, _u, _b in per_layer]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in config["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in config["workloads"]] == list(
        bench_e2e.WORKLOAD_NAMES)


# -- seeds ----------------------------------------------------------------
def test_same_seed_same_inputs():
    first = harness.seed_stream(7, "estimate-rtn")
    again = harness.seed_stream(7, "estimate-rtn")
    a = [next(first) for _ in range(5)]
    assert a == [next(again) for _ in range(5)]
    assert a == [harness.derive_seed(7, "estimate-rtn", i) for i in range(5)]
    assert a != [harness.derive_seed(8, "estimate-rtn", i) for i in range(5)]
    assert a != [harness.derive_seed(7, "naive-mc", i) for i in range(5)]
    assert all(0 <= s < 2**31 for s in a)


# -- compare ----------------------------------------------------------------
@pytest.mark.parametrize("change, expected", [
    ([0.80 + 0.001 * i for i in range(10)], "better"),
    ([1.20 + 0.001 * i for i in range(10)], "worse"),
    ([1.00 + 0.001 * i for i in range(10)], "unchanged"),
    ([0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1], "unresolved"),
])
def test_compare_verdicts(change, expected):
    parent = [1.0 + 0.001 * i for i in range(10)]
    assert compare.verdict(parent, change, "lower", 0.1)[0] == expected


def test_compare_counts_seed_by_seed():
    parent = {1: 100.0, 2: 110.0, 3: 120.0}

    def with_seed(seed, value):
        return {**parent, seed: value}

    assert compare.exact_verdict(parent, with_seed(4, 1.0))[0] == "unchanged"
    assert compare.exact_verdict(parent, with_seed(2, 111.0))[0] == "worse"
    assert compare.exact_verdict(parent, with_seed(2, 109.0))[0] == "better"
    assert compare.exact_verdict(parent, {7: 100.0})[0] == "unresolved"


# -- traced vs untraced ---------------------------------------------------
def test_traced_estimate_is_bit_identical():
    from repro.core.ecripse import EcripseConfig, EcripseEstimator
    from repro.experiments.setup import paper_setup

    config = EcripseConfig(n_particles=20, n_iterations=2, k_train=32,
                           n_boundary_directions=16, stage2_batch=300,
                           max_statistical_samples=1200)

    def estimate():
        setup = paper_setup(alpha=None)
        result = EcripseEstimator(setup.space, setup.indicator,
                                  setup.rtn_model, config,
                                  seed=3).run(target_relative_error=1e-3)
        return harness.digest([(result.pfail, result.ci_halfwidth,
                                result.n_simulations)])

    plain = estimate()
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = estimate()
    finally:
        tracer.restore()
    assert traced == plain
    names = summarize(tracer.spans).names
    for name in ("spice.ids", "sram.solve", "ml.fit", "core.is",
                 "core.boundary"):
        assert names[name].calls > 0, name
