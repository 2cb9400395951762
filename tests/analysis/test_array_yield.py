"""Tests for array-level yield arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.array_yield import (
    CacheSpec,
    array_failure_probability,
    expected_failures,
    failures_quantile,
    required_cell_pfail,
    yield_with_ecc,
    yield_with_row_redundancy,
)


class TestArrayFailure:
    def test_small_probability_linearises(self):
        assert array_failure_probability(1e-9, 1_000_000) == pytest.approx(
            1e-3, rel=1e-3)

    def test_certain_failure(self):
        assert array_failure_probability(1.0, 10) == 1.0

    def test_zero_probability(self):
        assert array_failure_probability(0.0, 10) == 0.0

    def test_numerically_stable_for_tiny_p(self):
        """Naive 1-(1-p)^N underflows; the log1p/expm1 form must not."""
        value = array_failure_probability(1e-18, 1000)
        assert value == pytest.approx(1e-15, rel=1e-6)

    @given(st.floats(min_value=0, max_value=1), st.integers(1, 10**9))
    @settings(max_examples=100)
    def test_is_a_probability(self, p, n):
        value = array_failure_probability(p, n)
        assert 0.0 <= value <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            array_failure_probability(-0.1, 10)
        with pytest.raises(ValueError):
            array_failure_probability(0.1, 0)


class TestRedundancy:
    def test_spares_improve_yield(self):
        base = yield_with_row_redundancy(1e-6, rows=1024,
                                         cells_per_row=1024, spare_rows=0)
        repaired = yield_with_row_redundancy(1e-6, rows=1024,
                                             cells_per_row=1024,
                                             spare_rows=4)
        assert repaired > base

    def test_zero_spares_matches_plain_array(self):
        plain = 1.0 - array_failure_probability(1e-6, 1024 * 1024)
        zero_spare = yield_with_row_redundancy(1e-6, 1024, 1024, 0)
        assert zero_spare == pytest.approx(plain, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            yield_with_row_redundancy(0.1, 0, 10, 1)
        with pytest.raises(ValueError):
            yield_with_row_redundancy(0.1, 10, 10, -1)


class TestEcc:
    def test_ecc_improves_yield(self):
        p = 1e-5
        plain = 1.0 - array_failure_probability(p, 72 * 100_000)
        ecc = yield_with_ecc(p, words=100_000, bits_per_word=72)
        assert ecc > plain

    def test_zero_correction_matches_plain(self):
        p = 1e-6
        plain = 1.0 - array_failure_probability(p, 72 * 1000)
        ecc0 = yield_with_ecc(p, 1000, 72, correctable_bits=0)
        assert ecc0 == pytest.approx(plain, rel=1e-6)

    def test_more_correction_never_hurts(self):
        p = 1e-4
        yields = [yield_with_ecc(p, 10_000, 72, correctable_bits=k)
                  for k in range(3)]
        assert yields == sorted(yields)


class TestSpecTargets:
    def test_required_pfail_roundtrip(self):
        n = 10**8
        p = required_cell_pfail(0.99, n)
        achieved = 1.0 - array_failure_probability(p, n)
        assert achieved == pytest.approx(0.99, rel=1e-9)

    def test_paper_motivation_magnitude(self):
        """Tens of MB of cache need cell Pfail far below anything naive
        MC can resolve -- the paper's opening argument."""
        cells = 32 * 2**20 * 8  # 32 MiB
        assert required_cell_pfail(0.9, cells) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            required_cell_pfail(1.0, 100)


class TestCacheSpec:
    def test_report_keys_and_ordering(self):
        spec = CacheSpec(capacity_bits=2**20, rows=1024, spare_rows=4)
        report = spec.yield_report(1e-7)
        assert set(report) == {"no_protection", "row_redundancy",
                               "secded_ecc"}
        assert report["row_redundancy"] >= report["no_protection"]
        assert report["secded_ecc"] >= report["no_protection"]

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheSpec(capacity_bits=0)


class TestCounts:
    def test_expected_failures(self):
        assert expected_failures(1e-6, 10**6) == pytest.approx(1.0)

    def test_quantile_monotone(self):
        q50 = failures_quantile(1e-6, 10**7, 0.5)
        q99 = failures_quantile(1e-6, 10**7, 0.99)
        assert q99 >= q50

    def test_quantile_never_exceeds_the_cell_count(self):
        # the Poisson quantile alone has no upper limit: 18 of 10 cells
        assert failures_quantile(1.0, 10) == 10
        assert failures_quantile(0.5, 1, 0.999) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            failures_quantile(1e-6, 100, 1.5)
