"""End-to-end result-neutrality of the hot-path acceleration.

The contract under test: for a fixed seed, an accelerated run (adaptive
labelling, with or without the opt-in solve cache) produces the
bit-identical ``pfail``, ``n_simulations`` and trace the exact run
produces -- on every backend, and across a kill/resume cycle.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.checkpoint import CheckpointConfig, run_checkpointed
from repro.core.ecripse import EcripseConfig, EcripseEstimator
from repro.core.naive import NaiveMonteCarlo
from repro.errors import CheckpointCrash
from repro.experiments.setup import paper_setup
from repro.perf import PerfConfig, SolveCache, save_registered_caches
from repro.runtime import ExecutionConfig
from repro.sram.evaluator import CellEvaluator

TINY = EcripseConfig(n_particles=40, n_iterations=3, k_train=64,
                     stage2_batch=400, min_stage2_batches=2,
                     max_statistical_samples=4000)


def exact_setup():
    """``paper_setup(alpha=0.3)`` labelled by the exact
    :class:`CellEvaluator`, the reference every accelerated run must
    match bit for bit."""
    setup = paper_setup(alpha=0.3)
    evaluator = CellEvaluator(setup.cell, setup.space, vdd=setup.vdd)
    return dataclasses.replace(setup, evaluator=evaluator).with_alpha(0.3)


def run_once(perf=None, seed=99, execution=None, checkpoint=None,
             crash_budget=None, setup=None):
    if setup is None:
        setup = paper_setup(alpha=0.3, perf=perf)
    config = TINY if execution is None else TINY.with_(execution=execution)
    estimator = EcripseEstimator(setup.space, setup.indicator,
                                 setup.rtn_model, config=config, seed=seed)
    estimate = run_checkpointed(checkpoint, "run", estimator,
                                crash_budget=crash_budget,
                                target_relative_error=0.5)
    return estimate, estimator


def assert_same_result(a, b):
    assert a.pfail == b.pfail
    assert a.ci_halfwidth == b.ci_halfwidth
    assert a.n_simulations == b.n_simulations
    assert a.n_statistical_samples == b.n_statistical_samples
    assert len(a.trace) == len(b.trace)
    for pa, pb in zip(a.trace, b.trace):
        assert pa.n_simulations == pb.n_simulations
        assert pa.estimate == pb.estimate


class TestEcripseBitIdentity:
    @pytest.fixture(scope="class")
    def exact(self):
        return run_once(setup=exact_setup())[0]

    def test_adaptive_plus_cache_matches_exact(self, exact, tmp_path):
        fast, estimator = run_once(PerfConfig(cache_path=str(tmp_path)))
        assert_same_result(exact, fast)
        perf = fast.metadata["perf"]
        assert perf["device_model_evals"] > 0
        assert perf["screened"] > 0

    def test_acceleration_saves_device_model_evals(self, exact):
        # ECRIPSE concentrates samples near the boundary, so a single
        # run refines more than a bulk workload; the >=2x gate lives in
        # benchmarks/bench_hotpath.py on the full Fig. 8 sweep, where
        # the shared cache compounds the saving.
        fast, _ = run_once()
        ratio = (exact.metadata["perf"]["device_model_evals"]
                 / fast.metadata["perf"]["device_model_evals"])
        assert ratio > 1.5

    def test_cache_only_matches_exact(self, exact):
        setup = exact_setup()
        setup.evaluator.cache = SolveCache(
            setup.evaluator.solve_fingerprint())
        cached, _ = run_once(setup=setup)
        assert_same_result(exact, cached)
        perf = cached.metadata["perf"]
        assert perf["cache_misses"] > 0
        assert perf["cache_entries"] > 0

    def test_repeat_run_on_shared_setup_hits_cache(self, tmp_path):
        """A same-seed repeat through one solve-cache directory
        re-labels the same samples: the second run must be all hits and
        bit-identical."""
        setup = paper_setup(alpha=0.3,
                            perf=PerfConfig(cache_path=str(tmp_path)))

        def repeat():
            estimator = EcripseEstimator(setup.space, setup.indicator,
                                         setup.rtn_model, config=TINY,
                                         seed=99)
            return estimator.run(target_relative_error=0.5)

        first, second = repeat(), repeat()
        assert_same_result(first, second)
        perf = second.metadata["perf"]
        assert perf["cache_hits"] > 0
        assert perf["device_model_evals"] < \
            0.2 * first.metadata["perf"]["device_model_evals"]

    @pytest.mark.parametrize("backend", ["process"])
    def test_parallel_backends_match_serial(self, backend):
        execution = ExecutionConfig(backend=backend, workers=2)
        serial, _ = run_once()
        parallel, _ = run_once(execution=execution)
        assert_same_result(serial, parallel)

    def test_metadata_perf_spans_present(self):
        estimate, _ = run_once()
        spans = estimate.metadata["perf"]["spans"]
        assert "boundary-search" in spans
        assert "stage2-label" in spans


class TestCheckpointCacheRide:
    def test_cache_state_resumes_from_snapshot(self, tmp_path):
        """The cache's one home is its --solve-cache directory: a killed
        run's cache is saved there, not in the snapshot, and the
        resumed run still finishes bit-identically."""
        baseline, _ = run_once()

        perf = PerfConfig(cache_path=str(tmp_path / "cache"))
        crashing = CheckpointConfig(directory=tmp_path / "ckpt",
                                    every_simulations=400, crash_after=2)
        with pytest.raises(CheckpointCrash):
            run_once(perf, checkpoint=crashing, crash_budget=[2])
        save_registered_caches()

        setup = paper_setup(alpha=0.3, perf=perf)
        estimator = EcripseEstimator(setup.space, setup.indicator,
                                     setup.rtn_model, config=TINY, seed=99)
        resuming = CheckpointConfig(directory=tmp_path / "ckpt",
                                    every_simulations=400, resume=True)
        manager = resuming.manager("run")
        manager.restore_into(estimator)
        saved = SolveCache.load(perf.cache_path,
                                setup.evaluator.solve_fingerprint())
        assert len(saved) > 0

        resumed = estimator.run(checkpoint=manager,
                                target_relative_error=0.5)
        assert_same_result(baseline, resumed)

    def test_exact_run_snapshot_has_no_cache(self, tmp_path):
        checkpoint = CheckpointConfig(directory=tmp_path,
                                      every_simulations=400)
        _, estimator = run_once(setup=exact_setup(), checkpoint=checkpoint)
        assert "solve_cache" not in estimator.state_snapshot()

    def test_default_snapshots_have_no_solve_cache(self):
        setup = paper_setup(alpha=0.3)
        estimator = EcripseEstimator(setup.space, setup.indicator,
                                     setup.rtn_model, config=TINY, seed=99)
        mc = NaiveMonteCarlo(setup.space, setup.indicator, setup.rtn_model,
                             seed=5)
        for snapshot in (estimator.state_snapshot(), mc.state_snapshot()):
            assert "solve_cache" not in snapshot


class TestNaiveMonteCarlo:
    def test_accelerated_matches_exact(self):
        results = {}
        for name, setup in (("exact", exact_setup()),
                            ("fast", paper_setup(alpha=0.3))):
            mc = NaiveMonteCarlo(setup.space, setup.indicator,
                                 setup.rtn_model, batch_size=2000, seed=5)
            results[name] = mc.run(6000)
        assert_same_result(results["exact"], results["fast"])
        perf_meta = results["fast"].metadata["perf"]
        assert perf_meta["device_model_evals"] > 0
        assert perf_meta["screened"] > 0


class TestCliFlags:
    def test_perf_report_text(self, capsys):
        from repro.experiments.runner import main

        code = main(["estimate", "--quick", "--target", "0.5",
                     "--seed", "7", "--report", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "perf report" in out
        assert "device-model evals" in out

    def test_report_json_carries_health_and_perf(self, capsys):
        import json

        from repro.experiments.runner import main

        code = main(["estimate", "--quick", "--target", "0.5",
                     "--seed", "7", "--report", "json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out[out.index("{"):])
        assert set(payload) == {"health", "perf"}
        assert payload["health"]["policy"] == "strict"
        assert payload["health"]["events"] == []
        assert payload["perf"]["runs"] == 1
        assert payload["perf"]["device_model_evals"] > 0

    def test_solve_cache_flag_writes_cache_file(self, tmp_path, capsys):
        from repro.experiments.runner import main

        code = main(["estimate", "--quick", "--target", "0.5",
                     "--seed", "7", "--solve-cache", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        assert list(tmp_path.glob("solve-cache-*.npz"))
