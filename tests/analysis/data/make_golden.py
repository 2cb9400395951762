"""Regenerate ``golden_array.json`` -- run from the repo root::

    python tests/analysis/data/make_golden.py

Ground truth for the log-space stability regression tests, computed by
an *independent* method: linear-space binomial arithmetic under
``decimal`` with 100 significant digits (no logs, no scipy, no numpy).
The library path (scipy ``betainc`` + gammaln series + log1p/expm1)
shares no code with this, so agreement at 1e-9 relative tolerance is a
genuine cross-check, not a tautology.

Stdlib only, deterministic, no timestamps -- the output is committed
and byte-stable across runs.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal, getcontext
from pathlib import Path

getcontext().prec = 100

#: stop the tail series when a term stops moving the sum at ~90 digits.
_TERM_EPS = Decimal("1e-90")

GIGABIT_WORDS_64 = 2 ** 30 // 64  # 1 Gib of data in 64-bit words


def binom_sf(k: int, n: int, p: Decimal) -> Decimal:
    """P(Binomial(n, p) > k), exact Decimal tail series."""
    if p == 0:
        return Decimal(0)
    q = 1 - p
    j = k + 1
    term = Decimal(math.comb(n, j)) * p ** j * q ** (n - j)
    total = Decimal(0)
    while True:
        total += term
        if j >= n or (total > 0 and term / total < _TERM_EPS):
            return total
        j += 1
        term = term * Decimal(n - j + 1) / Decimal(j) * p / q


def taec_uncorrectable(n: int, p: Decimal) -> Decimal:
    """Uncorrectable-pattern mass for single + adjacent-run(<=3)
    correction: j in {2, 3} not forming one run, plus the j > 3 tail."""
    q = 1 - p
    non_run2 = Decimal(math.comb(n, 2) - (n - 1))
    non_run3 = Decimal(math.comb(n, 3) - (n - 2))
    return (non_run2 * p ** 2 * q ** (n - 2)
            + non_run3 * p ** 3 * q ** (n - 3)
            + binom_sf(3, n, p))


def word_uncorrectable(scheme: str, n: int, p: Decimal) -> Decimal:
    if scheme == "taec":
        return taec_uncorrectable(n, p)
    correctable = {"none": 0, "parity": 0, "secded": 1, "dec": 2}
    return binom_sf(correctable[scheme], n, p)


def array_failure(word_fail: Decimal, words: int) -> Decimal:
    return 1 - (1 - word_fail) ** words


def redundancy_failure(p: Decimal, rows: int, cells_per_row: int,
                       spare_rows: int) -> Decimal:
    row_fail = 1 - (1 - p) ** cells_per_row
    return binom_sf(spare_rows, rows, row_fail)


def combined_bit_error(p_cell: Decimal, rate_per_hour: Decimal,
                       hours: Decimal) -> Decimal:
    return 1 - (1 - p_cell) * (-rate_per_hour * hours).exp()


def residual_fit(scheme: str, words: int, n: int, p_cell: Decimal,
                 rate_per_hour: Decimal, hours: Decimal) -> Decimal:
    q = combined_bit_error(p_cell, rate_per_hour, hours)
    unc = word_uncorrectable(scheme, n, q)
    return Decimal(10) ** 9 * Decimal(words) * unc / hours


def upset_rate(fit_per_mbit: str, env: str) -> Decimal:
    """Per-bit upsets/hour from the FIT/Mbit chain (decimal Mbit)."""
    return (Decimal(fit_per_mbit) * Decimal(env)
            / Decimal(10) ** 9 / Decimal(10) ** 6)


def main() -> None:
    pfails = ["1e-9", "1e-12", "1e-15"]

    ecc_cases = []
    for scheme, word_bits in [("secded", 72), ("dec", 79),
                              ("taec", 73), ("none", 64)]:
        for p_str in pfails:
            p = Decimal(p_str)
            word = word_uncorrectable(scheme, word_bits, p)
            arr = array_failure(word, GIGABIT_WORDS_64)
            ecc_cases.append({
                "scheme": scheme,
                "words": GIGABIT_WORDS_64,
                "word_bits": word_bits,
                "pfail": p_str,
                "word_uncorrectable": f"{word:.25E}",
                "array_failure": f"{arr:.25E}",
            })

    redundancy_cases = []
    for p_str in pfails:
        p = Decimal(p_str)
        fail = redundancy_failure(p, rows=8192, cells_per_row=131072,
                                  spare_rows=8)
        redundancy_cases.append({
            "rows": 8192,
            "cells_per_row": 131072,
            "spare_rows": 8,
            "pfail": p_str,
            "array_failure": f"{fail:.25E}",
        })

    scrub_cases = []
    for scheme, word_bits, p_str, fit_mb, env_mult, hours in [
            ("secded", 72, "1e-12", "5", "1", "24"),
            ("secded", 72, "1e-15", "5", "50000", "4"),
            ("dec", 79, "1e-9", "74", "300", "168"),
            ("taec", 73, "1e-12", "0.4", "1", "720"),
    ]:
        rate = upset_rate(fit_mb, env_mult)
        fit = residual_fit(scheme, GIGABIT_WORDS_64, word_bits,
                           Decimal(p_str), rate, Decimal(hours))
        scrub_cases.append({
            "scheme": scheme,
            "words": GIGABIT_WORDS_64,
            "word_bits": word_bits,
            "pfail": p_str,
            "fit_per_mbit": fit_mb,
            "env_multiplier": env_mult,
            "scrub_hours": hours,
            "residual_fit": f"{fit:.25E}",
        })

    payload = {
        "_generator": "tests/analysis/data/make_golden.py",
        "_method": "linear-space decimal arithmetic, 100 digits",
        "ecc": ecc_cases,
        "redundancy": redundancy_cases,
        "scrub": scrub_cases,
    }
    out = Path(__file__).with_name("golden_array.json")
    out.write_text(json.dumps(payload, indent=2) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
