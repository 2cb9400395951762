"""The crash-consistency harness on a reduced workload.

The full sweep runs in CI (``python -m repro.chaos --quick``); here a
smaller job keeps tier-1 fast while still exercising the recording
pass, the case grid, and a handful of real injected crashes.
"""

import dataclasses

import pytest

from repro.chaos.config import ChaosConfig
from repro.chaos.harness import (
    CaseResult,
    enumerate_cases,
    record_write_points,
    run_case,
    run_harness,
)
from repro.service.spec import JobSpec

#: at 0.5 V the reference run fails on 2 of its 600 samples, so a
#: resume that redrew samples would move pfail
SPEC = JobSpec(kind="naive", n_samples=600, seed=13, vdd=0.5,
               target_relative_error=1e-9, checkpoint_every=300)


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    root = tmp_path_factory.mktemp("chaos-recording")
    return record_write_points(root, SPEC)


class TestRecording:
    def test_reference_run_enumerates_durable_points(self, recording):
        points, reference = recording
        ops = {point.op for point in points}
        # one lifecycle crosses all three durable publish kinds
        assert ops == {"replace", "rename", "append"}
        assert reference["n_simulations"] == 600
        assert reference["pfail"] == 2 / 600
        assert len(reference["fingerprint"]) == 16

    def test_ordinals_count_per_op(self, recording):
        points, _ = recording
        for op in ("replace", "rename", "append"):
            ordinals = [p.ordinal for p in points if p.op == op]
            assert ordinals == list(range(1, len(ordinals) + 1))

    def test_case_grid(self, recording):
        points, _ = recording
        quick = enumerate_cases(points, quick=True)
        full = enumerate_cases(points, quick=False)
        assert len(quick) == len(points)
        assert all(mode == "kill" for _, mode in quick)
        appends = sum(1 for p in points if p.op == "append")
        assert len(full) == 2 * len(points) + appends


class TestInjectedCrashes:
    @pytest.mark.parametrize("op, mode", [
        ("replace", "kill"),   # die before the record publish
        ("rename", "kill"),    # die before the checkpoint publish
        ("append", "torn-kill"),  # tear the event log mid-append
        ("replace", "fail"),   # injected failure -> retry path
    ])
    def test_invariants_hold(self, tmp_path, recording, op, mode):
        points, reference = recording
        # the last point of each op sits deepest in the lifecycle
        point = [p for p in points if p.op == op][-1]
        result = run_case(tmp_path / "state", SPEC, point, mode,
                          reference)
        assert isinstance(result, CaseResult)
        assert result.ok, result.detail
        assert result.outcome in ("done-identical", "dead", "unacked")

    def test_mini_sweep_passes(self, tmp_path):
        mini = JobSpec(kind="naive", n_samples=200, seed=13, vdd=0.5,
                       target_relative_error=1e-9,
                       checkpoint_every=200)
        report = run_harness(tmp_path, spec=mini, quick=True)
        assert report.passed
        assert report.cases
        assert report.reference_pfail == 2 / 200
        assert report.reference_simulations == 200

    def test_zero_failure_reference_is_refused(self, tmp_path):
        """At 0.7 V the same 200 samples never fail, so no case could
        tell a redrawn resume from a faithful one."""
        blind = JobSpec(kind="naive", n_samples=200, seed=13,
                        target_relative_error=1e-9,
                        checkpoint_every=200)
        with pytest.raises(ValueError, match="no failing sample"):
            record_write_points(tmp_path, blind)


class TestChaosConfig:
    def test_defaults_and_derived_interval(self):
        config = ChaosConfig()
        assert config.sweep_interval_s == config.lease_s / 4

    def test_fields_are_fault_schedule_lease_and_attempts(self):
        """The heartbeat is a server constant and the sweep cadence
        derives from the lease; a new knob needs a caller that sets
        it."""
        assert [f.name for f in dataclasses.fields(ChaosConfig)] == [
            "inject_fs", "lease_s", "max_attempts"]

    @pytest.mark.parametrize("kwargs", [
        {"lease_s": 0.0},
        {"max_attempts": 0},
        {"lease_s": float("nan")},
        {"lease_s": float("inf")},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChaosConfig(**kwargs)
