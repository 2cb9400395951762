"""HealthPolicy / HealthConfig surface."""

from dataclasses import fields

import pytest

from repro.health import HealthConfig, HealthPolicy


class TestPolicyCoercion:
    @pytest.mark.parametrize("value,expected", [
        ("strict", HealthPolicy.STRICT),
        ("Recover", HealthPolicy.RECOVER),
        ("  PERMISSIVE ", HealthPolicy.PERMISSIVE),
        (HealthPolicy.RECOVER, HealthPolicy.RECOVER),
    ])
    def test_coerce_accepts_names_and_instances(self, value, expected):
        assert HealthPolicy.coerce(value) is expected

    @pytest.mark.parametrize("value", ["lenient", 3, None])
    def test_coerce_rejects_unknown(self, value):
        with pytest.raises(ValueError, match="unknown health policy"):
            HealthPolicy.coerce(value)

    def test_config_coerces_policy_string(self):
        cfg = HealthConfig(policy="recover")
        assert cfg.policy is HealthPolicy.RECOVER
        assert not cfg.strict

    def test_default_is_strict(self):
        cfg = HealthConfig()
        assert cfg.strict
        assert cfg.inject is None


class TestConfigValidation:
    def test_only_policy_and_inject_are_settable(self):
        # the thresholds are monitor constants, not per-run settings
        assert [f.name for f in fields(HealthConfig)] == ["policy",
                                                           "inject"]

    def test_malformed_inject_spec_fails_fast(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            HealthConfig(inject="meteor")
        with pytest.raises(ValueError, match="malformed"):
            HealthConfig(inject="one-class:one")

    def test_valid_inject_spec_accepted(self):
        assert HealthConfig(inject="filter:2:1").inject == "filter:2:1"
