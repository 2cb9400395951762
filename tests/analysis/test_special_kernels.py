"""The scipy.special kernels give the bits the scipy.stats calls gave.

``failures_quantile`` and ``log_binom_sf`` call ``pdtrik``/``pdtr`` and
``betainc`` in place of ``scipy.stats.poisson.ppf`` and
``scipy.stats.binom.sf``, which load scipy.stats (over a second) and
cost ~90 us per scalar call in their wrappers.  The scipy.stats calls
stay here as the reference.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.stats import binom, poisson

from repro.analysis.array_yield import failures_quantile
from repro.analysis.ecc import (
    _LINEAR_SF_FLOOR,
    ArrayConfig,
    analyze_array,
    log_binom_sf,
)

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)

#: cell failure probability, log-uniform over [1e-16, 0.5]
PFAILS = st.floats(-16.0, math.log10(0.5)).map(
    lambda exponent: min(10.0 ** exponent, 0.5))
CELLS = st.integers(1, 10**10)
QUANTILES = st.one_of(st.sampled_from((0.5, 0.9, 0.99, 0.999)),
                      st.floats(1e-6, 1.0 - 1e-9))


@st.composite
def binomial_tails(draw):
    """``(k, n, p)`` with ``k`` at 0, at ``n - 1`` or in between."""
    n = draw(CELLS)
    k = draw(st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1)))
    return k, n, draw(PFAILS)


@given(p=PFAILS, n=CELLS, data=st.data())
@SETTINGS
def test_failures_quantile_matches_poisson_ppf(p, n, data):
    mean = p * n
    # a quantile equal to the CDF at some count is where the inversion
    # can overshoot by one and the rule steps back
    at_step = st.integers(0, 2 * math.ceil(mean) + 3).map(
        lambda count: float(poisson.cdf(count, mean)))
    quantile = data.draw(st.one_of(
        QUANTILES, at_step.filter(lambda q: 0.0 < q < 1.0)))
    expected = min(int(poisson.ppf(quantile, mean)), n)
    assert failures_quantile(p, n, quantile) == expected


@given(tail=binomial_tails())
@SETTINGS
def test_log_binom_sf_matches_binom_sf(tail):
    k, n, p = tail
    linear = float(binom.sf(k, n, p))
    # the tail log_binom_sf branches on, so both branches are taken
    # where they were
    assert float(special.betainc(k + 1, n - k, p)) == linear
    if linear > _LINEAR_SF_FLOOR:
        assert log_binom_sf(k, n, p) == math.log(linear)


#: log-space branch values, as ``float.hex``, from the scipy.stats
#: implementation: the series there and here must agree bit for bit
LOG_SPACE_TAILS = [
    (0, 2, 1e-300, "-0x1.590a8b738c127p+9"),
    (35, 72, 1e-09, "-0x1.5d3fd121ab66ep+9"),
    (71, 72, 1e-16, "-0x1.4b927f32bffb9p+11"),
    (3, 79, 1e-90, "-0x1.975a9f7a3d1a0p+9"),
    (39, 79, 1e-16, "-0x1.6354357126a4dp+10"),
    (4095, 8192, 0.001, "-0x1.6182edd1f3c5bp+14"),
    (8191, 8192, 1e-09, "-0x1.4b927f32bffb8p+17"),
    (499_999, 10**6, 1e-16, "-0x1.0e8034b26a9d4p+24"),
    (3, 10**10, 1e-300, "-0x1.4e45a7ff87fb5p+11"),
    (4_999_999_999, 10**10, 1e-16, "-0x1.4a33779eed4dcp+37"),
    (9_999_999_999, 10**10, 0.001, "-0x1.01557ce95d245p+36"),
]


@pytest.mark.parametrize("k, n, p, expected", LOG_SPACE_TAILS)
def test_log_space_branch_keeps_its_bits(k, n, p, expected):
    assert float(binom.sf(k, n, p)) <= _LINEAR_SF_FLOOR
    assert log_binom_sf(k, n, p) == float.fromhex(expected)


#: ``analyze_array(ArrayConfig(), pfail, upper)`` reports, as the first
#: 16 hex digits of the SHA-256 of their sorted-key JSON, recorded with
#: ``scipy.stats.binom.sf`` as the linear tail
REPORT_DIGESTS = {
    (1e-15, None): "1c09a19a216431c3",
    (1e-12, 3e-12): "6a646f6a84368379",
    (1e-9, None): "23f6d9b9f22b6ff4",
    (1e-6, 2e-6): "8c9bcae0a25f3472",
    (0.01, None): "681267414983f71e",
}


@pytest.mark.parametrize("pfail, upper", sorted(REPORT_DIGESTS, key=str))
def test_analyze_array_report_is_unchanged(pfail, upper):
    report = analyze_array(ArrayConfig(), pfail, upper).as_dict()
    text = json.dumps(report, sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == REPORT_DIGESTS[pfail, upper], report["decision"]
