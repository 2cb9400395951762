"""JobSpec validation and wire format."""

import pytest

from repro.errors import ServiceError
from repro.service.spec import SPEC_SCHEMA, JobSpec


class TestValidation:
    def test_defaults_are_valid(self):
        spec = JobSpec()
        assert spec.kind == "estimate"
        assert spec.seed == 2015

    @pytest.mark.parametrize("changes, match", [
        ({"kind": "figment"}, "unknown job kind"),
        ({"vdd": -0.1}, "vdd"),
        ({"vdd": 3.0}, "vdd"),
        ({"alpha": 1.5}, "alpha"),
        ({"target_relative_error": 0.0}, "target_relative_error"),
        ({"max_simulations": 0}, "max_simulations"),
        ({"n_samples": 0}, "n_samples"),
        ({"grid_points": 2}, "grid_points"),
        ({"health_policy": "yolo"}, "health_policy"),
        ({"checkpoint_every": 0}, "checkpoint_every"),
    ])
    def test_bad_values_rejected(self, changes, match):
        with pytest.raises(ServiceError, match=match):
            JobSpec(**changes)


class TestWireFormat:
    def test_roundtrip(self):
        spec = JobSpec(kind="naive", vdd=0.6, alpha=0.5, seed=7,
                       n_samples=1234, priority=3)
        assert JobSpec.from_dict(spec.as_dict()) == spec

    def test_as_dict_is_schema_tagged(self):
        assert JobSpec().as_dict()["schema"] == SPEC_SCHEMA

    def test_unknown_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown spec field.*vddd"):
            JobSpec.from_dict({"vddd": 0.7})

    def test_wrong_schema_rejected(self):
        with pytest.raises(ServiceError, match="schema"):
            JobSpec.from_dict({"schema": SPEC_SCHEMA + 1})

    def test_non_object_rejected(self):
        with pytest.raises(ServiceError, match="JSON object"):
            JobSpec.from_dict([1, 2, 3])

    def test_missing_fields_fall_back_to_defaults(self):
        spec = JobSpec.from_dict({"vdd": 0.65})
        assert spec.vdd == 0.65
        assert spec.seed == JobSpec().seed


class TestResultFields:
    def test_scheduling_hints_excluded(self):
        fields = JobSpec().result_fields()
        assert "priority" not in fields
        assert "checkpoint_every" not in fields
        assert "seed" in fields
        assert "kind" in fields

    def test_order_is_canonical(self):
        assert list(JobSpec().result_fields()) \
            == sorted(JobSpec().result_fields())

    def test_with_applies_changes(self):
        spec = JobSpec().with_(seed=99, priority=2)
        assert spec.seed == 99
        assert spec.priority == 2
