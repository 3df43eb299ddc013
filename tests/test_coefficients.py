"""Bernoulli numbers, zeta values, and the two regularizing series."""

import math
from fractions import Fraction

import pytest

from kzfox.coefficients import (
    bernoulli,
    r_am_series,
    r_zeta_series,
    zeta,
    zeta_from_bernoulli,
)
from kzfox.errors import DomainError
from kzfox.free_hopf import COMPLEX, RATIONAL

KNOWN_BERNOULLI = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


def test_bernoulli_table():
    for k, value in KNOWN_BERNOULLI.items():
        assert bernoulli(k) == value


def test_bernoulli_rejects_odd_and_small():
    for bad in (-2, 0, 1, 3, 7):
        with pytest.raises(DomainError):
            bernoulli(bad)


def test_zeta_against_closed_forms():
    assert zeta(2) == pytest.approx(math.pi**2 / 6, rel=1e-14)
    assert zeta(4) == pytest.approx(math.pi**4 / 90, rel=1e-14)
    assert zeta(6) == pytest.approx(math.pi**6 / 945, rel=1e-14)
    # Apery's constant, independently tabulated
    assert zeta(3) == pytest.approx(1.2020569031595942854, rel=1e-14)


def test_zeta_matches_bernoulli_route():
    for k in range(1, 8):
        assert zeta(2 * k) == pytest.approx(zeta_from_bernoulli(k), rel=1e-13)


def test_zeta_rejects_bad_arguments():
    for bad in (1, 0, -3, 2.5):
        with pytest.raises(DomainError):
            zeta(bad)


def test_r_am_series_leading_terms():
    s = r_am_series(1, 5, 1, backend=RATIONAL)
    assert s.coefficient(()) == Fraction(-1, 2)
    assert s.coefficient((1,)) == Fraction(1, 12)
    assert s.coefficient((1, 1)) == 0
    assert s.coefficient((1, 1, 1)) == Fraction(-1, 720)
    assert s.coefficient((1, 1, 1, 1, 1)) == Fraction(1, 30240)


def test_r_zeta_series_leading_terms():
    s = r_zeta_series(1, 3, 1)
    two_pi_i = complex(0.0, 2.0 * math.pi)
    assert s.coefficient(()) == 0
    for m in (2, 3, 4):
        assert s.coefficient((1,) * (m - 1)) == pytest.approx(
            -zeta(m) / two_pi_i**m, rel=1e-14
        )


def test_r_zeta_series_negate_variable():
    plain = r_zeta_series(1, 6, 1)
    flipped = r_zeta_series(1, 6, 1, negate_variable=True)
    for w, c in plain.coeffs.items():
        assert flipped.coefficient(w) == pytest.approx((-1) ** len(w) * c, rel=1e-14)


def test_bernoulli_zeta_consistency_identity():
    """r_am(x) = r_zeta(x) - r_zeta(-x) - 1/2, coefficient-wise to 1e-12."""
    degree = 12
    lhs = r_am_series(1, degree, 1, backend=COMPLEX)
    plus = r_zeta_series(1, degree, 1)
    minus = r_zeta_series(1, degree, 1, negate_variable=True)
    diff = lhs - plus + minus
    diff = diff + 0.5 * plus.unit(1, degree, COMPLEX)
    for w, c in diff.coeffs.items():
        assert abs(c) <= 1e-12, (w, c)
