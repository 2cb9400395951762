"""Deterministic fault injector: spec grammar and firing windows."""

import pytest

from repro.health import FAULT_KINDS, FaultInjector, parse_fault_spec


class TestSpecGrammar:
    def test_bare_kind_uses_defaults(self):
        for kind, (count, skip) in FAULT_KINDS.items():
            assert parse_fault_spec(kind) == (kind, count, skip)

    def test_count_and_skip_overrides(self):
        assert parse_fault_spec("one-class:3") == ("one-class", 3, 0)
        assert parse_fault_spec("filter:1:4") == ("filter", 1, 4)
        assert parse_fault_spec(" IS-WEIGHT:2:0 ") == ("is-weight", 2, 0)

    # "solver" was a fault kind while simulation batches were retried;
    # it is rejected like any unknown kind, whatever its suffix
    @pytest.mark.parametrize("spec", ["gamma-ray", "solver", "solver:x",
                                      "solver:1:2:3", "solver:0",
                                      "one-class:x", "one-class:1:2:3",
                                      "one-class:0", "filter:1:-1"])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_fault_spec(spec)


class TestFiringWindow:
    def test_disabled_injector_never_fires(self):
        injector = FaultInjector(None)
        assert not any(injector.fire("one-class") for _ in range(10))
        assert injector.fired == 0

    def test_fires_exactly_count_after_skip(self):
        injector = FaultInjector("filter:2:3")
        fired = [injector.fire("filter") for _ in range(8)]
        assert fired == [False, False, False, True, True,
                         False, False, False]
        assert injector.fired == 2

    def test_other_kinds_are_not_opportunities(self):
        injector = FaultInjector("one-class:1:1")
        assert not injector.fire("filter")     # not even counted
        assert not injector.fire("one-class")  # opportunity 0: skipped
        assert injector.fire("one-class")      # opportunity 1: fires

    def test_state_round_trip_resumes_sequence(self):
        a = FaultInjector("is-weight:2:1")
        assert [a.fire("is-weight") for _ in range(2)] == [False, True]
        b = FaultInjector("is-weight:2:1")
        b.restore_state(a.state())
        # b continues exactly where a stood: one more fire, then dry
        assert b.fire("is-weight")
        assert not b.fire("is-weight")
        assert b.fired == 2
