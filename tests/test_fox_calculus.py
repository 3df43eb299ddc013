"""Fox derivatives and the four Fox pairings."""

import random
from fractions import Fraction

import pytest

from kzfox.errors import ShapeError
from kzfox.fox_calculus import (
    d_left,
    d_right,
    rho_inner,
    rho_kks,
    rho_kks_pairing,
    rho_left,
    rho_right,
)
from kzfox.free_hopf import FreeSeries, RATIONAL
from conftest import random_series

N = 2
D = 4


def w(word, coeff=1) -> FreeSeries:
    return FreeSeries(N, D, {tuple(word): Fraction(coeff)}, RATIONAL)


# ---------------------------------------------------------------------------
# Fox derivatives
# ---------------------------------------------------------------------------
def test_d_right_strips_leading_letter():
    assert d_right(1, w([1, 2, 1])) == w([2, 1])
    assert d_right(2, w([1, 2, 1])).is_zero()
    assert d_right(1, w([], 5)).is_zero()


def test_d_left_strips_trailing_letter():
    assert d_left(1, w([1, 2, 1])) == w([1, 2])
    assert d_left(2, w([1, 2, 1])).is_zero()
    assert d_left(1, w([], 5)).is_zero()


def test_d_right_fox_rule(rng):
    # d_right strips the leading letter: d(ab) = d(a) b + eps(a) d(b).
    # The derivative of a degree-(k+1) word lands in degree k, so at
    # truncation degree D the rule is exact only through D - 1.
    for _ in range(25):
        a = random_series(rng, N, D)
        b = random_series(rng, N, D)
        for m in (1, 2):
            diff = d_right(m, a * b) - d_right(m, a) * b - d_right(m, b).scale(
                a.counit()
            )
            assert all(c == 0 for w_, c in diff.coeffs.items() if len(w_) < D)


def test_d_left_fox_rule(rng):
    # d_left strips the trailing letter: d(ab) = a d(b) + d(a) eps(b);
    # exact through D - 1, like the d_right rule.
    for _ in range(25):
        a = random_series(rng, N, D)
        b = random_series(rng, N, D)
        for m in (1, 2):
            diff = d_left(m, a * b) - a * d_left(m, b) - d_left(m, a).scale(
                b.counit()
            )
            assert all(c == 0 for w_, c in diff.coeffs.items() if len(w_) < D)


def test_fox_reconstruction(rng):
    """sum_m x_m d_right(m, a) = a - eps(a) = sum_m d_left(m, a) x_m."""
    unit = FreeSeries.unit(N, D, RATIONAL)
    for _ in range(25):
        a = random_series(rng, N, D)
        reduced = a - unit.scale(a.counit())
        gens = [FreeSeries.generator(i, N, D, RATIONAL) for i in (1, 2)]
        assert sum(
            (gens[m - 1] * d_right(m, a) for m in (1, 2)),
            FreeSeries.zero(N, D, RATIONAL),
        ) == reduced
        assert sum(
            (d_left(m, a) * gens[m - 1] for m in (1, 2)),
            FreeSeries.zero(N, D, RATIONAL),
        ) == reduced


# ---------------------------------------------------------------------------
# the adjacent-letter pairing
# ---------------------------------------------------------------------------
def test_adjacent_pairing_on_monomials():
    assert rho_kks(w([1]), w([1])) == w([1])
    assert rho_kks(w([1]), w([2])).is_zero()
    assert rho_kks(w([1, 2]), w([2, 1])) == w([1, 2, 1])
    assert rho_kks(w([1, 2]), w([1, 2])).is_zero()
    assert rho_kks(w([]), w([1])).is_zero()


def test_adjacent_pairing_skew_symmetric(rng):
    rho = rho_kks_pairing()
    for _ in range(25):
        a = random_series(rng, N, D)
        b = random_series(rng, N, D)
        assert rho.transpose()(a, b) == -rho_kks(a, b)


def test_transpose_involutive(rng):
    for rho in (rho_kks_pairing(), rho_left(1), rho_right(2)):
        double = rho.transpose().transpose()
        for _ in range(10):
            a = random_series(rng, N, D)
            b = random_series(rng, N, D)
            assert double(a, b) == rho(a, b)


def test_left_and_right_pairings_are_shared():
    """One pairing per family and letter, so its letter tables are kept."""
    for m in (1, 2):
        assert rho_left(m) is rho_left(m) and rho_right(m) is rho_right(m)
        assert rho_left(m) is not rho_right(m)
    assert rho_left(1) is not rho_left(2)


# ---------------------------------------------------------------------------
# Fox-pairing axioms for all four pairings
# ---------------------------------------------------------------------------
def _pairings(rng):
    return [
        rho_kks_pairing(),
        rho_inner(random_series(rng, N, D, 2)),
        rho_left(1),
        rho_left(2),
        rho_right(1),
        rho_right(2),
    ]


def test_fox_pairing_axioms(rng):
    for rho in _pairings(rng):
        for _ in range(10):
            a = random_series(rng, N, D, 2)
            b = random_series(rng, N, D, 2)
            c = random_series(rng, N, D, 2)
            # left-Fox in the first slot
            assert rho(a * b, c) == a * rho(b, c) + rho(a, c).scale(b.counit())
            # right-Fox in the second slot
            assert rho(a, b * c) == rho(a, b) * c + rho(a, c).scale(b.counit())


def test_pairing_kills_constants(rng):
    one = FreeSeries.unit(N, D, RATIONAL)
    for rho in _pairings(rng):
        a = random_series(rng, N, D)
        assert rho(one, a).is_zero()
        assert rho(a, one).is_zero()


def test_pairing_shape_mismatch(rng):
    """rho_kks and every FoxPairing raise ShapeError when the arguments differ
    in generator count, truncation degree or backend, in either order."""
    a = FreeSeries.generator(1, N, D, RATIONAL)
    others = (FreeSeries.generator(1, N + 1, D, RATIONAL),
              FreeSeries.generator(1, N, D + 1, RATIONAL),
              a.to_complex())
    for pair in [rho_kks, rho_kks_pairing().transpose()] + _pairings(rng):
        for b in others:
            with pytest.raises(ShapeError):
                pair(a, b)
            with pytest.raises(ShapeError):
                pair(b, a)
