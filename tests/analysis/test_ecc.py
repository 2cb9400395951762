"""Unit tests for the array-reliability engine (repro.analysis.ecc)."""

import json
import math

import pytest
from scipy.stats import binom

from repro.analysis.ecc import (
    DEFAULT_SCHEMES,
    ArrayConfig,
    analyze_array,
    annual_error_count,
    bit_upset_rate,
    combined_bit_error_probability,
    format_capacity,
    get_scheme,
    hamming_check_bits,
    log1mexp,
    log_array_uncorrectable,
    log_binom_sf,
    log_word_uncorrectable,
    max_capacity_under_fit,
    parse_capacity,
    pattern_correctable,
    raw_fit,
    required_cell_pfail_for_policy,
    residual_fit,
    soft_error_probability,
)


class TestLogPrimitives:
    def test_log1mexp_matches_naive_in_easy_range(self):
        for x in (-0.1, -0.7, -2.0, -10.0):
            assert log1mexp(x) == pytest.approx(
                math.log(1.0 - math.exp(x)), rel=1e-12)

    def test_log1mexp_edges(self):
        assert log1mexp(0.0) == -math.inf
        assert log1mexp(-math.inf) == 0.0
        with pytest.raises(ValueError):
            log1mexp(0.5)

    def test_log1mexp_tiny_argument_keeps_precision(self):
        # naive log(1 - exp(x)) would lose x ~ -1e-18 entirely
        x = -1e-18
        assert log1mexp(x) == pytest.approx(math.log(1e-18), rel=1e-9)

    def test_log_binom_sf_matches_scipy_in_overlap(self):
        for k, n, p in [(0, 10, 0.3), (1, 72, 1e-4), (2, 79, 1e-6),
                        (8, 8192, 1.3e-4), (1, 72, 0.9), (5, 6, 0.99)]:
            assert log_binom_sf(k, n, p) == pytest.approx(
                math.log(float(binom.sf(k, n, p))), rel=1e-10)

    def test_log_binom_sf_deep_tail_is_finite_and_ordered(self):
        deep = log_binom_sf(2, 72, 1e-15)
        deeper = log_binom_sf(2, 72, 1e-16)
        assert math.isfinite(deep) and math.isfinite(deeper)
        # three orders of magnitude in p ~ nine orders in the k=3 tail
        assert deeper < deep < -80.0
        # past the linear floor the gammaln series takes over; in that
        # regime the tail is the single j = 3 term to float precision
        abyss = log_binom_sf(2, 72, 1e-90)
        assert abyss == pytest.approx(
            math.log(math.comb(72, 3)) + 3 * math.log(1e-90), rel=1e-9)

    def test_log_binom_sf_edges(self):
        assert log_binom_sf(-1, 10, 0.5) == 0.0
        assert log_binom_sf(10, 10, 0.5) == -math.inf
        assert log_binom_sf(1, 10, 0.0) == -math.inf
        assert log_binom_sf(1, 10, 1.0) == 0.0
        with pytest.raises(ValueError):
            log_binom_sf(1, 10, 1.5)
        with pytest.raises(ValueError):
            log_binom_sf(1, 0, 0.5)


class TestSchemes:
    def test_hamming_check_bits_classic_values(self):
        assert [hamming_check_bits(k) for k in (4, 8, 16, 32, 64, 128)] \
            == [3, 4, 5, 6, 7, 8]

    def test_word_sizes_for_64_bit_data(self):
        expect = {"none": 64, "parity": 65, "secded": 72, "taec": 73,
                  "dec": 79}
        for name, bits in expect.items():
            assert get_scheme(name).word_bits(64) == bits, name

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown ECC scheme"):
            get_scheme("reed-solomon")

    def test_scheme_nesting_at_equal_word_size(self):
        # larger correctable sets leave less uncorrectable mass
        n, p = 72, 1e-6
        none = log_word_uncorrectable(get_scheme("none"), n, p)
        parity = log_word_uncorrectable(get_scheme("parity"), n, p)
        secded = log_word_uncorrectable(get_scheme("secded"), n, p)
        taec = log_word_uncorrectable(get_scheme("taec"), n, p)
        dec = log_word_uncorrectable(get_scheme("dec"), n, p)
        assert none == parity           # parity only detects
        assert secded < none
        assert taec < secded
        assert dec < secded

    def test_taec_mass_is_exact_combinatorics(self):
        # small geometry: compare against a direct linear-space sum
        n, p, q = 8, 0.01, 0.99
        non_run2 = math.comb(n, 2) - (n - 1)
        non_run3 = math.comb(n, 3) - (n - 2)
        expected = (non_run2 * p ** 2 * q ** (n - 2)
                    + non_run3 * p ** 3 * q ** (n - 3)
                    + float(binom.sf(3, n, p)))
        got = math.exp(log_word_uncorrectable(get_scheme("taec"), n, p))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_taec_mass_near_half_stays_a_log_probability(self):
        """Regression: near p = 0.5 the TAEC logaddexp sum used to
        round ~1e-17 above 0, making log1mexp (and thus the array
        chain) raise on legitimate inputs."""
        taec = get_scheme("taec")
        for n, p in [(64, 0.49), (72, 0.5), (79, 0.45), (128, 0.4)]:
            log_word = log_word_uncorrectable(taec, n, p)
            assert log_word <= 0.0, (n, p)
            # the array chain must accept it too
            assert log_array_uncorrectable(taec, 2 ** 30, n, p) <= 0.0

    def test_pattern_correctability_matrix(self):
        cases = {
            "none": (False, False, False, False),
            "parity": (False, False, False, False),
            "secded": (True, False, False, False),
            "taec": (True, True, True, False),
            "dec": (True, True, False, True),
        }
        patterns = ("single", "double_adjacent", "triple_adjacent",
                    "random_double")
        for name, expect in cases.items():
            scheme = get_scheme(name)
            got = tuple(pattern_correctable(scheme, p)
                        for p in patterns)
            assert got == expect, name


class TestFitChain:
    def test_raw_fit_scales_linearly(self):
        assert raw_fit(1.0, "16nm") == 5.0
        assert raw_fit(128_000.0, "16nm") == pytest.approx(640_000.0)
        assert raw_fit(1.0, "16nm", "avionics") == pytest.approx(1500.0)

    def test_bit_rate_times_capacity_recovers_fit(self):
        rate = bit_upset_rate("28nm", "space")
        mbit = 64.0
        fit = rate * mbit * 1e6 * 1e9
        assert fit == pytest.approx(raw_fit(mbit, "28nm", "space"))

    def test_annual_errors_and_capacity_inverse(self):
        assert annual_error_count(1000.0, "28nm") \
            == pytest.approx(74_000.0 * 8760 / 1e9)
        assert max_capacity_under_fit(10.0, "16nm") == pytest.approx(2.0)

    def test_soft_error_probability_small_rate(self):
        assert soft_error_probability(1e-12, 24.0) \
            == pytest.approx(2.4e-11, rel=1e-6)

    def test_unknown_node_and_environment_rejected(self):
        with pytest.raises(ValueError, match="technology node"):
            raw_fit(1.0, "3nm")
        with pytest.raises(ValueError, match="environment"):
            raw_fit(1.0, "16nm", "mars")


class TestCapacityParsing:
    def test_suffixes(self):
        assert parse_capacity("128Gb") == pytest.approx(128_000.0)
        assert parse_capacity("64Mb") == pytest.approx(64.0)
        assert parse_capacity("1.5Tb") == pytest.approx(1.5e6)
        assert parse_capacity("512kb") == pytest.approx(0.512)
        assert parse_capacity("128 Gbit") == pytest.approx(128_000.0)
        assert parse_capacity("100") == pytest.approx(100.0)
        assert parse_capacity(64) == pytest.approx(64.0)

    def test_format_round_trip(self):
        assert format_capacity(128_000.0) == "128 Gb"
        assert format_capacity(64.0) == "64 Mb"
        assert format_capacity(1.5e6) == "1.5 Tb"

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_capacity("lots")


class TestArrayConfig:
    def test_defaults_are_the_headline_question(self):
        cfg = ArrayConfig()
        assert cfg.capacity_mbit == 128_000.0
        assert cfg.fit_target == 10.0
        assert cfg.schemes == DEFAULT_SCHEMES

    def test_sequences_canonicalised_to_tuples(self):
        cfg = ArrayConfig(scrub_hours=[1.0, 24.0],
                          schemes=["none", "secded"])
        assert cfg.scrub_hours == (1.0, 24.0)
        assert cfg.schemes == ("none", "secded")

    def test_dict_round_trip_is_identity(self):
        cfg = ArrayConfig(capacity_mbit=1000.0, node="7nm",
                          environment="space")
        wire = json.loads(json.dumps(cfg.as_dict()))
        assert ArrayConfig.from_dict(wire) == cfg

    def test_nan_fit_target_rejected(self):
        with pytest.raises(ValueError, match="fit_target"):
            ArrayConfig(fit_target=float("nan"))

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            ArrayConfig(capacity_mbit=0.0)
        with pytest.raises(ValueError, match="data_bits"):
            ArrayConfig(data_bits=2)
        with pytest.raises(ValueError, match="technology node"):
            ArrayConfig(node="3nm")
        with pytest.raises(ValueError, match="environment"):
            ArrayConfig(environment="mars")
        with pytest.raises(ValueError, match="increasing"):
            ArrayConfig(scrub_hours=(24.0, 1.0))
        with pytest.raises(ValueError, match="not be empty"):
            ArrayConfig(scrub_hours=())
        with pytest.raises(ValueError, match="duplicate"):
            ArrayConfig(schemes=("secded", "secded"))
        with pytest.raises(ValueError, match="unknown ECC scheme"):
            ArrayConfig(schemes=("secded", "turbo"))
        with pytest.raises(ValueError, match="unknown array config"):
            ArrayConfig.from_dict({"capacity_mbit": 1.0, "bogus": 2})

    def test_words_counts_data_words(self):
        assert ArrayConfig(capacity_mbit=1.0, data_bits=64).words \
            == 15_625  # exact division
        assert ArrayConfig(capacity_mbit=1.0, data_bits=48).words \
            == 20_834  # ceil(1e6 / 48)


class TestAnalyzeArray:
    CFG = ArrayConfig(capacity_mbit=1000.0)  # 1 Gb keeps numbers tame

    def test_report_structure_and_json(self):
        report = analyze_array(self.CFG, 1e-9, cell_pfail_upper=2e-9)
        assert len(report.schemes) == len(self.CFG.schemes)
        for res in report.schemes:
            assert len(res.scrub) == len(self.CFG.scrub_hours)
            assert 0.0 <= res.array_failure <= 1.0
            assert 0.0 <= res.array_yield <= 1.0
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["schema_version"] == 1
        assert payload["decision"]["scheme"] is not None

    def test_text_rendering_mentions_the_decision(self):
        text = analyze_array(self.CFG, 1e-9).render_text()
        assert "decision:" in text
        assert "residual FIT vs scrub period" in text
        for name in self.CFG.schemes:
            assert name in text

    def test_decision_picks_cheapest_feasible_scheme(self):
        # at a vanishing pfail the cheapest *correcting* scheme wins
        # (none/parity are busted by the soft-error floor at 1 Gb)
        report = analyze_array(self.CFG, 1e-15)
        assert report.decision.feasible
        assert report.decision.scheme == "secded"
        # and the longest feasible scrub period is chosen
        chosen = next(r for r in report.schemes
                      if r.name == report.decision.scheme)
        feasible = [p.scrub_hours for p in chosen.scrub
                    if p.meets_target]
        assert report.decision.scrub_hours == max(feasible)

    def test_robustness_verdict_at_upper_bound(self):
        # borderline: the point estimate passes, the CI bound fails
        report = analyze_array(self.CFG, 1e-9, cell_pfail_upper=1e-4)
        if report.decision.feasible:
            assert report.decision.robust_at_upper_bound is False

    def test_infeasible_case_reports_required_pfail(self):
        tight = self.CFG.with_(fit_target=1e-6,
                               environment="space")
        report = analyze_array(tight, 1e-4)
        assert not report.decision.feasible
        assert report.decision.scheme is None
        assert 0.0 <= report.decision.required_cell_pfail <= 0.5
        assert "no scheme" in report.render_text()

    def test_out_of_range_pfail_rejected(self):
        with pytest.raises(ValueError, match="cell_pfail"):
            analyze_array(self.CFG, 0.7)
        with pytest.raises(ValueError, match="upper"):
            analyze_array(self.CFG, 1e-3, cell_pfail_upper=1e-6)


class TestInverseSolver:
    WORDS, BITS = 15_625_000, 72
    RATE = bit_upset_rate("16nm")

    def _fit(self, p, hours=24.0):
        return residual_fit(get_scheme("secded"), self.WORDS,
                            self.BITS, p, self.RATE, hours)

    def test_result_meets_target_and_is_maximal(self):
        target = 10.0
        p_req = required_cell_pfail_for_policy(
            get_scheme("secded"), self.WORDS, self.BITS, self.RATE,
            24.0, target)
        assert 0.0 < p_req < 0.5
        assert self._fit(p_req) <= target * (1 + 1e-9)
        assert self._fit(min(2 * p_req, 0.5)) > target

    def test_huge_target_returns_ceiling(self):
        p_req = required_cell_pfail_for_policy(
            get_scheme("dec"), 100, self.BITS, self.RATE, 24.0, 1e15)
        assert p_req == 0.5

    def test_nan_fit_target_rejected(self):
        with pytest.raises(ValueError, match="fit_target"):
            required_cell_pfail_for_policy(
                get_scheme("secded"), self.WORDS, self.BITS, self.RATE,
                24.0, float("nan"))

    def test_soft_error_floor_returns_zero(self):
        # space flux at 128 Gb busts 1e-9 FIT even with perfect cells
        rate = bit_upset_rate("28nm", "space")
        p_req = required_cell_pfail_for_policy(
            get_scheme("secded"), 2_000_000_000, self.BITS, rate,
            720.0, 1e-9)
        assert p_req == 0.0


class TestScrubModel:
    def test_combined_probability_is_or_of_components(self):
        p, lam, hours = 1e-3, 1e-4, 10.0
        q = combined_bit_error_probability(p, lam, hours)
        expected = 1.0 - (1.0 - p) * math.exp(-lam * hours)
        assert q == pytest.approx(expected, rel=1e-12)

    def test_tiny_terms_do_not_vanish(self):
        q = combined_bit_error_probability(1e-15, 1e-18, 1.0)
        assert q == pytest.approx(1e-15 + 1e-18, rel=1e-6)

    def test_residual_fit_identity(self):
        scheme = get_scheme("secded")
        words, bits, p, lam, hours = 1000, 72, 1e-6, 1e-9, 24.0
        q = combined_bit_error_probability(p, lam, hours)
        expected = 1e9 * words * math.exp(
            log_word_uncorrectable(scheme, bits, q)) / hours
        assert residual_fit(scheme, words, bits, p, lam, hours) \
            == pytest.approx(expected, rel=1e-12)

    def test_rtn_floor_documented_behaviour(self):
        """With the static term dominating, faster scrubbing *raises*
        the loss rate (docs/ARRAY.md): each scrub is one more
        independent read-out of a marginal array."""
        scheme = get_scheme("secded")
        args = (10_000, 72, 1e-6, 1e-15)
        fast = residual_fit(scheme, *args, 0.25)
        slow = residual_fit(scheme, *args, 720.0)
        assert fast > slow

    def test_soft_dominated_regime_rewards_scrubbing(self):
        scheme = get_scheme("secded")
        args = (10_000, 72, 0.0, 1e-6)
        fast = residual_fit(scheme, *args, 1.0)
        slow = residual_fit(scheme, *args, 100.0)
        assert fast < slow

    def test_array_level_consistency(self):
        # one scrub window at q equals the static array failure at q
        scheme = get_scheme("dec")
        q = 1e-5
        log_arr = log_array_uncorrectable(scheme, 5000, 79, q)
        per_word = math.exp(log_word_uncorrectable(scheme, 79, q))
        assert math.exp(log_arr) == pytest.approx(
            1.0 - (1.0 - per_word) ** 5000, rel=1e-9)
