"""Array-reliability jobs through the service layer.

The ``array`` job kind is the decision question as a durable job: with
a directly supplied ``pfail`` it is pure arithmetic (zero simulations,
instantly cacheable); without one it chains a full estimator run and
rides the decision tables on the estimate metadata, so a cache hit
serves the complete report without re-simulating.
"""

import json

import pytest

from repro.analysis.ecc import ArrayConfig
from repro.errors import ServiceError
from repro.service.cli import _build_parser, _spec_from_args
from repro.service.model import JobState
from repro.service.server import ServeConfig, ServiceDaemon
from repro.service.spec import JobSpec
from repro.service.worker import execute_job, spec_fingerprint

ARRAY_CFG = {"capacity_mbit": 1000.0, "node": "16nm",
             "scrub_hours": [1.0, 24.0, 720.0],
             "schemes": ["none", "secded", "dec"]}

DIRECT = {"kind": "array", "pfail": 1e-9, "array": ARRAY_CFG}

CHAINED = {"kind": "array", "quick": True, "seed": 5,
           "target_relative_error": 0.2, "max_simulations": 50_000,
           "array": ARRAY_CFG}


@pytest.fixture()
def daemon(tmp_path):
    return ServiceDaemon(ServeConfig(root=tmp_path / "state", port=0,
                                     workers=1))


class TestSpecValidation:
    def test_array_dict_is_coerced_to_config(self):
        spec = JobSpec.from_dict(DIRECT)
        assert isinstance(spec.array, ArrayConfig)
        assert spec.array.scrub_hours == (1.0, 24.0, 720.0)

    def test_array_kind_defaults_to_canonical_question(self):
        spec = JobSpec(kind="array")
        assert spec.array == ArrayConfig()

    def test_wire_round_trip_preserves_fingerprint(self):
        spec = JobSpec.from_dict(DIRECT)
        wire = json.loads(json.dumps(spec.as_dict()))
        assert JobSpec.from_dict(wire) == spec
        assert JobSpec.from_dict(wire).fingerprint() \
            == spec.fingerprint()

    def test_array_config_rejected_for_other_kinds(self):
        with pytest.raises(ServiceError, match="only valid for"):
            JobSpec(kind="estimate", array=ArrayConfig())

    def test_pfail_rejected_for_other_kinds(self):
        with pytest.raises(ServiceError, match="only valid for"):
            JobSpec(kind="naive", pfail=1e-9)

    def test_pfail_out_of_range_rejected(self):
        with pytest.raises(ServiceError, match="pfail"):
            JobSpec(kind="array", pfail=0.7)

    def test_invalid_array_config_rejected(self):
        with pytest.raises(ServiceError, match="invalid array config"):
            JobSpec(kind="array", array={"bogus_knob": 1})
        with pytest.raises(ServiceError, match="invalid array config"):
            JobSpec(kind="array", array={"node": "3nm"})


class TestDirectArrayJobs:
    def test_runs_with_zero_simulations(self, daemon):
        record = daemon.submit(dict(DIRECT))
        daemon._run_job(daemon.scheduler.pop(0))
        done = daemon.store.load(record.id)
        assert done.state is JobState.DONE
        assert done.n_simulations == 0
        assert done.pfail == pytest.approx(1e-9)

    def test_result_carries_the_decision_report(self, daemon):
        record = daemon.submit(dict(DIRECT))
        daemon._run_job(daemon.scheduler.pop(0))
        result = daemon.store.load_result(
            daemon.store.load(record.id).fingerprint)
        report = result.metadata["array"]
        assert report["schema_version"] == 1
        assert report["decision"]["feasible"] is True
        assert report["decision"]["scheme"] == "secded"
        assert len(report["schemes"]) == len(ARRAY_CFG["schemes"])

    def test_duplicate_submit_is_a_pure_cache_hit(self, daemon):
        first = daemon.submit(dict(DIRECT))
        daemon._run_job(daemon.scheduler.pop(0))
        duplicate = daemon.submit(dict(DIRECT))
        assert duplicate.state is JobState.DONE
        assert duplicate.cached is True
        assert duplicate.n_simulations == 0
        assert duplicate.fingerprint \
            == daemon.store.load(first.id).fingerprint
        kinds = [e["kind"]
                 for e in daemon.store.read_events(duplicate.id)]
        assert kinds == ["cache-hit"]
        assert duplicate.id not in daemon.scheduler

    def test_different_questions_do_not_collide(self, daemon):
        daemon.submit(dict(DIRECT))
        daemon._run_job(daemon.scheduler.pop(0))
        other = dict(DIRECT, array=dict(ARRAY_CFG, node="7nm"))
        second = daemon.submit(other)
        # different node -> different fingerprint -> a fresh job
        assert second.cached is False
        assert second.state is JobState.QUEUED

    def test_execute_job_direct_path(self, tmp_path):
        estimate = execute_job(JobSpec.from_dict(DIRECT),
                               tmp_path / "cp", resume=False)
        assert estimate.method == "array-direct"
        assert estimate.n_simulations == 0
        assert estimate.ci_halfwidth == 0.0
        assert "array" in estimate.metadata


class TestChainedArrayJobs:
    def test_estimator_run_feeds_the_decision(self, daemon):
        record = daemon.submit(dict(CHAINED))
        daemon._run_job(daemon.scheduler.pop(0))
        done = daemon.store.load(record.id)
        assert done.state is JobState.DONE
        assert done.n_simulations > 0
        result = daemon.store.load_result(done.fingerprint)
        report = result.metadata["array"]
        # robustness was judged at pfail + ci_halfwidth
        assert report["cell_pfail"] == pytest.approx(result.pfail)
        assert report["cell_pfail_upper"] == pytest.approx(
            min(result.pfail + result.ci_halfwidth, 0.5))
        assert report["decision"]["required_cell_pfail"] >= 0.0

    def test_duplicate_chained_submit_skips_the_simulation(self,
                                                           daemon):
        first = daemon.submit(dict(CHAINED))
        daemon._run_job(daemon.scheduler.pop(0))
        n_before = daemon.store.load(first.id).n_simulations
        duplicate = daemon.submit(dict(CHAINED))
        assert duplicate.cached is True
        assert duplicate.n_simulations == n_before
        # the cached result still carries the full decision report
        cached = daemon.store.load_result(duplicate.fingerprint)
        assert "array" in cached.metadata

    def test_finished_run_resumes_with_the_decision(self, tmp_path):
        """A job whose ``result.json`` was saved before its record
        settled resumes from that file; the decision is attached after
        the run, so the short-circuit carries it too."""
        spec = JobSpec.from_dict(CHAINED)
        first = execute_job(spec, tmp_path, resume=False)
        again = execute_job(spec, tmp_path, resume=True)
        assert again.n_simulations == first.n_simulations
        assert json.dumps(again.metadata["array"], sort_keys=True) \
            == json.dumps(first.metadata["array"], sort_keys=True)


class TestServiceCliSpecs:
    def _parse(self, argv):
        return _build_parser().parse_args(argv)

    def test_submit_parser_builds_array_spec(self):
        args = self._parse([
            "submit", "--kind", "array", "--pfail", "1e-9",
            "--capacity", "1Gb", "--word-bits", "32",
            "--node", "7nm", "--environment", "space",
            "--fit-target", "2.5", "--scrub-hours", "1,24",
            "--schemes", "secded,dec"])
        spec = _spec_from_args(args)
        assert spec["pfail"] == pytest.approx(1e-9)
        cfg = ArrayConfig.from_dict(spec["array"])
        assert cfg.capacity_mbit == pytest.approx(1000.0)
        assert cfg.data_bits == 32
        assert cfg.node == "7nm"
        assert cfg.environment == "space"
        assert cfg.fit_target == pytest.approx(2.5)
        assert cfg.scrub_hours == (1.0, 24.0)
        assert cfg.schemes == ("secded", "dec")
        # the wire dict is a valid, fingerprintable submission
        assert len(spec_fingerprint(JobSpec.from_dict(spec))) == 16

    def test_array_flags_default_to_canonical_question(self):
        args = self._parse(["submit", "--kind", "array"])
        spec = _spec_from_args(args)
        assert ArrayConfig.from_dict(spec["array"]) == ArrayConfig()
        assert "pfail" not in spec

    def test_non_array_submissions_carry_no_array_payload(self):
        args = self._parse(["submit", "--kind", "estimate"])
        spec = _spec_from_args(args)
        assert "array" not in spec and "pfail" not in spec
