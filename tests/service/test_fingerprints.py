"""Fingerprint discrimination matrix (the result-cache key).

The cache serves a hit with *zero new simulations*, so the fingerprint
must separate every knob that can change the estimate -- and must NOT
separate knobs that provably cannot (scheduling hints, execution
backend).  One false collision silently returns the wrong physics.
"""

import json

import pytest

from repro.analysis.ecc import ArrayConfig
from repro.core.ecripse import EcripseConfig, EcripseEstimator
from repro.experiments.setup import paper_setup
from repro.health import HealthConfig
from repro.service.spec import JobSpec
from repro.service.worker import spec_fingerprint

BASE = JobSpec(kind="estimate", quick=True, seed=5,
               target_relative_error=0.2, max_simulations=50_000)

ARRAY_BASE = JobSpec(kind="array", quick=True, seed=5,
                     target_relative_error=0.2, max_simulations=50_000,
                     pfail=1e-9, array=ArrayConfig())


class TestStability:
    def test_identical_specs_share_a_fingerprint(self):
        assert spec_fingerprint(BASE) == spec_fingerprint(
            JobSpec(**{f: getattr(BASE, f)
                       for f in BASE.__dataclass_fields__}))

    def test_fingerprint_is_hex16(self):
        fingerprint = spec_fingerprint(BASE)
        assert len(fingerprint) == 16
        int(fingerprint, 16)

    def test_repeated_computation_is_stable(self):
        assert spec_fingerprint(BASE) == spec_fingerprint(BASE)

    @pytest.mark.parametrize("spec, pinned", [
        (JobSpec(), "72c5144e85ba1205"),
        (JobSpec(kind="array"), "668da7d07c78ddc3"),
    ], ids=["estimate-default", "array-default"])
    def test_default_fingerprints_are_pinned(self, spec, pinned):
        # the durable result cache is keyed on these values: a drift
        # makes every result computed before it miss the cache
        assert spec.fingerprint() == pinned

    @pytest.mark.parametrize("spec, pinned", [
        (JobSpec(health_policy="recover"), "32dd9983fc2758f3"),
        (JobSpec(kind="array", health_policy="recover"),
         "64a4632e97667281"),
        (JobSpec(health_policy="permissive"), "078fc7007f01444f"),
        (JobSpec(kind="array", health_policy="permissive"),
         "68b9732b921fa03d"),
    ], ids=["estimate-recover", "array-recover", "estimate-permissive",
            "array-permissive"])
    def test_policy_fingerprints_are_pinned(self, spec, pinned):
        assert spec.fingerprint() == pinned

    @pytest.mark.parametrize("config, health, pinned", [
        (EcripseConfig.quick(), {}, "439c7bcd996b4865"),
        (EcripseConfig.quick(), {"policy": "permissive"},
         "524293ff1f41a8a9"),
        (EcripseConfig.quick(), {"policy": "recover",
                                 "inject": "filter:2:1"},
         "68dcbeacdb14da7e"),
        (EcripseConfig.quick(),
         {"policy": "strict", "inject": "one-class"},
         "6c9ab2ec41055964"),
        (EcripseConfig(), {}, "5836b10f6acdea12"),
    ], ids=["quick", "quick-permissive", "quick-recover-filter",
            "quick-strict-one-class", "full"])
    def test_estimator_fingerprints_are_pinned(self, config, health,
                                               pinned):
        # checkpoints are keyed on these values: the health config
        # enters through a stand-in that must keep its historical repr
        setup = paper_setup(alpha=0.5)
        estimator = EcripseEstimator(
            setup.space, setup.indicator, setup.rtn_model,
            config=config.with_(health=HealthConfig(**health)), seed=1)
        assert estimator.fingerprint() == pinned


class TestDiscrimination:
    @pytest.mark.parametrize("changes", [
        {"kind": "naive"},
        {"vdd": 0.65},
        {"alpha": 0.5},
        {"seed": 6},
        {"target_relative_error": 0.1},
        {"max_simulations": 60_000},
        {"n_samples": 12_345},
        {"quick": False},
        {"grid_points": 41},
        {"health_policy": "recover"},
    ], ids=lambda c: next(iter(c)))
    def test_result_knobs_change_the_fingerprint(self, changes):
        assert spec_fingerprint(BASE.with_(**changes)) \
            != spec_fingerprint(BASE)

    def test_alpha_none_vs_zero_are_distinct(self):
        # RDF-only (null RTN model) and alpha=0 RTN are different
        # indicator conventions, not the same job
        assert spec_fingerprint(BASE.with_(alpha=None)) \
            != spec_fingerprint(BASE.with_(alpha=0.0))


class TestArrayDiscrimination:
    """Every ArrayConfig knob changes the decision tables, so every
    one must change the fingerprint -- plus the pfail input itself."""

    def test_array_kind_is_distinct_from_estimate(self):
        assert spec_fingerprint(ARRAY_BASE) != spec_fingerprint(BASE)

    def test_pfail_changes_the_fingerprint(self):
        assert spec_fingerprint(ARRAY_BASE.with_(pfail=2e-9)) \
            != spec_fingerprint(ARRAY_BASE)

    def test_direct_vs_chained_are_distinct(self):
        assert spec_fingerprint(ARRAY_BASE.with_(pfail=None)) \
            != spec_fingerprint(ARRAY_BASE)

    @pytest.mark.parametrize("changes", [
        {"capacity_mbit": 64_000.0},
        {"data_bits": 32},
        {"node": "7nm"},
        {"environment": "space"},
        {"fit_target": 100.0},
        {"scrub_hours": (1.0, 24.0)},
        {"schemes": ("secded", "dec")},
    ], ids=lambda c: next(iter(c)))
    def test_every_array_config_knob_discriminates(self, changes):
        varied = ARRAY_BASE.with_(
            array=ARRAY_BASE.array.with_(**changes))
        assert spec_fingerprint(varied) != spec_fingerprint(ARRAY_BASE)

    def test_json_round_trip_is_invariant(self):
        # tuples become lists on the wire; canonicalisation must keep
        # the fingerprint identical or the cache would never hit
        wire = json.loads(json.dumps(ARRAY_BASE.as_dict()))
        assert spec_fingerprint(JobSpec.from_dict(wire)) \
            == spec_fingerprint(ARRAY_BASE)


class TestInvariance:
    @pytest.mark.parametrize("changes", [
        {"priority": 9},
        {"checkpoint_every": 17},
        {"max_attempts": 1},
        {"max_attempts": 7},
        {"priority": 3, "checkpoint_every": 250, "max_attempts": 2},
    ], ids=lambda c: "+".join(c))
    def test_scheduling_hints_do_not_change_the_fingerprint(self,
                                                            changes):
        # cadence/priority change *how* a job runs, never what it
        # computes (the kill/resume bit-identity guarantee)
        assert spec_fingerprint(BASE.with_(**changes)) \
            == spec_fingerprint(BASE)

    def test_array_jobs_share_the_scheduling_invariance(self):
        assert spec_fingerprint(ARRAY_BASE.with_(priority=9)) \
            == spec_fingerprint(ARRAY_BASE)

    def test_spec_fingerprint_method_agrees(self):
        assert BASE.fingerprint() == spec_fingerprint(BASE)
