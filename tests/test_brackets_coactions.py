"""Double brackets, reduced coactions, necklace structures, twist maps."""

from fractions import Fraction
from typing import Dict, Tuple

import pytest

from kzfox import (
    CyclicByFree,
    FreeSeries,
    RATIONAL,
    TensorSeries,
    coaction_mu_kks,
    double_bracket_from_pairing,
    double_bracket_kks,
    double_derivation_left,
    double_derivation_right,
    mu_bar_kks,
    necklace_bracket,
    necklace_cobracket,
    rho_inner,
    rho_kks,
    rho_kks_pairing,
    rho_left,
    rho_right,
)
from kzfox.brackets_coactions import (
    CyclicWedge,
    _coaction_terms,
    alpha,
    alpha_inv,
    beta,
    beta_inv,
)
from kzfox.free_hopf import Word
from conftest import dense_complex, random_series

N = 2
D = 4


def w(word, coeff=1) -> FreeSeries:
    return FreeSeries(N, D, {tuple(word): Fraction(coeff)}, RATIONAL)


def _zero_through(series, degree):
    return all(c == 0 for k, c in series.coeffs.items() if len(k) <= degree)


def _cbf_zero_through(t, degree):
    return all(
        c == 0 for (cw, ww), c in t.coeffs.items() if len(cw) + len(ww) <= degree
    )


# ---------------------------------------------------------------------------
# double bracket
# ---------------------------------------------------------------------------
def test_double_bracket_on_generators():
    # {{x_i, x_j}} = delta_ij (1 (x) x_i - x_i (x) 1)
    one = FreeSeries.unit(N, D, RATIONAL)
    x1, x2 = w([1]), w([2])
    assert double_bracket_kks(x1, x1) == TensorSeries.outer(one, x1) - TensorSeries.outer(
        x1, one
    )
    assert double_bracket_kks(x1, x2).is_zero()


def test_double_bracket_antisymmetry(rng):
    for _ in range(20):
        a = random_series(rng, N, D)
        b = random_series(rng, N, D)
        assert double_bracket_kks(a, b) == -double_bracket_kks(b, a).swap()


def test_double_bracket_derivation_rules(rng):
    for _ in range(20):
        a = random_series(rng, N, D, 2)
        b = random_series(rng, N, D, 2)
        c = random_series(rng, N, D, 2)
        # second slot: {{a, bc}} = (b (x) 1) {{a, c}} + {{a, b}} (1 (x) c)
        assert double_bracket_kks(a, b * c) == double_bracket_kks(a, c).map_left(
            lambda s: b * s
        ) + double_bracket_kks(a, b).map_right(lambda s: s * c)
        # first slot: {{ab, c}} = (1 (x) a) {{b, c}} + {{a, c}} (b (x) 1)
        assert double_bracket_kks(a * b, c) == double_bracket_kks(b, c).map_right(
            lambda s: a * s
        ) + double_bracket_kks(a, c).map_left(lambda s: s * b)


def test_double_bracket_counit_recovers_pairing(rng):
    for _ in range(20):
        a = random_series(rng, N, D)
        b = random_series(rng, N, D)
        assert double_bracket_kks(a, b).eps_left() == rho_kks(a, b)


def _sweedler_double_bracket(rho, a, b):
    """Reference: {{a, b}} = b' S(rho(a'', b'')') a'  (x)  rho(a'', b'')'',
    summed over all coproduct splittings of both arguments (grouped by the
    second legs a'', b'', so each pairing value is computed once)."""
    n, D, backend = a.n, a.degree, a.backend

    def by_second_leg(x):
        legs = {}
        for (x1, x2), c in x.coproduct().coeffs.items():
            legs.setdefault(x2, []).append((x1, c))
        return legs.items()

    terms = {}
    for a2, a1s in by_second_leg(a):
        fa2 = FreeSeries.from_word(a2, n, D, backend)
        for b2, b1s in by_second_leg(b):
            r = rho(fa2, FreeSeries.from_word(b2, n, D, backend))
            for (r1, r2), cr in r.coproduct().coeffs.items():
                s1, cr = r1[::-1], (-1) ** len(r1) * cr
                for a1, ca in a1s:
                    for b1, cb in b1s:
                        key = (b1 + s1 + a1, r2)
                        terms[key] = terms.get(key, 0) + ca * cb * cr
    return TensorSeries(n, D, terms, backend)


def test_double_bracket_matches_sweedler_form(rng):
    """The letter-table construction equals the Sweedler sum exactly, for
    skew-symmetric and non-skew-symmetric Fox pairings alike."""
    for n in (2, 3):
        for _ in range(15):
            pairings = (
                rho_kks_pairing(),
                rho_inner(random_series(rng, n, D, 2)),
                rho_left(rng.randint(1, n)),
                rho_right(rng.randint(1, n)),
                rho_kks_pairing().transpose(),
            )
            for rho in pairings:
                a = random_series(rng, n, D, 4, 6)
                b = random_series(rng, n, D, 4, 6)
                assert double_bracket_from_pairing(rho, a, b) == _sweedler_double_bracket(
                    rho, a, b
                )


def test_double_bracket_matches_sweedler_form_dense_complex(rng):
    a, b = dense_complex(rng, 3, D), dense_complex(rng, 3, D)
    new = double_bracket_kks(a, b)
    ref = _sweedler_double_bracket(rho_kks_pairing(), a, b)
    assert not ref.is_zero()
    assert new.allclose(ref, 1e-13)


def test_double_bracket_makes_one_coproduct_per_letter_pair(rng, monkeypatch):
    """Work counter: the bracket is built from the n^2 letter-pair values, not
    from coproducts of its arguments."""
    n = 3
    a, b = dense_complex(rng, n, D), dense_complex(rng, n, D)
    calls = []
    coproduct = FreeSeries.coproduct

    def counting(self):
        calls.append(self)
        return coproduct(self)

    monkeypatch.setattr(FreeSeries, "coproduct", counting)
    double_bracket_kks(a, b)
    assert len(calls) <= n * n


def test_cyclic_vanishing_for_trivial_pairings(rng):
    g = random_series(rng, N, D, 2)
    for rho in (rho_inner(g), rho_left(1), rho_right(2)):
        for _ in range(10):
            a = random_series(rng, N, D)
            b = random_series(rng, N, D)
            db = double_bracket_from_pairing(rho, a, b)
            assert db.multiply_legs().cyclic_project().is_zero()


# ---------------------------------------------------------------------------
# reduced coaction and the coaction product rule
# ---------------------------------------------------------------------------
def test_mu_bar_contracts_adjacent_equal_letters():
    assert mu_bar_kks(w([1, 1])) == w([1])
    assert mu_bar_kks(w([1, 2])).is_zero()
    assert mu_bar_kks(w([1, 2, 2, 1])) == w([1, 2, 1])
    assert mu_bar_kks(w([1, 1, 1])) == w([1, 1]).scale(Fraction(2))
    assert mu_bar_kks(w([1])).is_zero()
    assert mu_bar_kks(w([], 3)).is_zero()


def test_mu_bar_quasi_derivation(rng):
    for _ in range(20):
        a = random_series(rng, N, D)
        b = random_series(rng, N, D)
        diff = (
            mu_bar_kks(a * b)
            - mu_bar_kks(a) * b
            - a * mu_bar_kks(b)
            - rho_kks(a, b)
        )
        assert _zero_through(diff, D - 1)


def _mul_free_right(t: CyclicByFree, b: FreeSeries) -> CyclicByFree:
    terms = {}
    for (cw, ww), c in t.coeffs.items():
        for wb, cb in b.coeffs.items():
            key = (cw, ww + wb)
            terms[key] = terms.get(key, 0) + c * cb
    return CyclicByFree(t.n, t.degree, terms, t.backend)


def _mul_free_left(a: FreeSeries, t: CyclicByFree) -> CyclicByFree:
    terms = {}
    for (cw, ww), c in t.coeffs.items():
        for wa, ca in a.coeffs.items():
            key = (cw, wa + ww)
            terms[key] = terms.get(key, 0) + ca * c
    return CyclicByFree(t.n, t.degree, terms, t.backend)


def test_coaction_product_rule(rng):
    """mu(ab) = mu(a)(1 (x) b) + (1 (x) a)mu(b) + (cyclic (x) id){{a, b}}."""
    for _ in range(20):
        a = random_series(rng, N, D)
        b = random_series(rng, N, D)
        lhs = coaction_mu_kks(a * b)
        rhs = (
            _mul_free_right(coaction_mu_kks(a), b)
            + _mul_free_left(a, coaction_mu_kks(b))
            + CyclicByFree.from_tensor(double_bracket_kks(a, b))
        )
        assert _cbf_zero_through(lhs - rhs, D - 1)


def test_coaction_product_rule_rotated_collision():
    """Regression: the cyclic projection must accumulate tensor keys that
    collide after rotation (here (2,1) and (1,2) from mu(x1 x2 x2))."""
    a, b = w([1]), w([2, 2])
    lhs = coaction_mu_kks(a * b)
    rhs = _mul_free_left(a, coaction_mu_kks(b)) + CyclicByFree.from_tensor(
        double_bracket_kks(a, b)
    )
    assert _cbf_zero_through(lhs - rhs, D - 1)


def test_from_tensor_accumulates_rotations():
    t = TensorSeries(
        N, D, {((2, 1), ()): Fraction(1), ((1, 2), ()): Fraction(-1)}, RATIONAL
    )
    assert CyclicByFree.from_tensor(t).is_zero()


def d_mu_bar(a: FreeSeries) -> TensorSeries:
    """d(a) = a' S(mubar(a'')')  (x)  mubar(a'')''  (first leg not yet cyclic)."""
    n, D, backend = a.n, a.degree, a.backend
    terms: Dict[Tuple[Word, Word], object] = {}
    for (a1, a2), ca in a.coproduct().coeffs.items():
        m = mu_bar_kks(FreeSeries.from_word(a2, n, D, backend))
        if m.is_zero():
            continue
        for (m1, m2), cm in m.coproduct().coeffs.items():
            sgn = 1 if len(m1) % 2 == 0 else -1
            left = a1 + m1[::-1]
            if len(left) + len(m2) > D:
                continue
            key = (left, m2)
            c = ca * cm * sgn
            acc = terms.get(key)
            terms[key] = c if acc is None else acc + c
    return TensorSeries(n, D, terms, backend)


def _sweedler_coaction_and_cobracket(a):
    """Reference: mu(a) and delta(|a|) from the Sweedler form `d_mu_bar`,
    with the first leg (and, for delta, both legs) cyclically projected."""
    d = d_mu_bar(a)
    return (
        CyclicByFree(d.n, d.degree, d.coeffs, d.backend),
        CyclicWedge(d.n, d.degree, d.coeffs, d.backend),
    )


def test_coaction_matches_sweedler_form(rng):
    """The sum over pairs of equal letters equals the Sweedler form exactly
    on rational series, and to roundoff on dense complex ones."""
    for _ in range(240):
        n, degree = rng.randint(1, 3), rng.randint(0, 6)
        # few letters and long words, so that most words repeat a letter
        a = random_series(rng, n, degree, degree, 6)
        mu, delta = _sweedler_coaction_and_cobracket(a)
        assert coaction_mu_kks(a) == mu
        assert necklace_cobracket(a) == delta
    a = dense_complex(rng, 3, 5)
    mu, delta = _sweedler_coaction_and_cobracket(a)
    assert not mu.is_zero() and not delta.is_zero()
    assert coaction_mu_kks(a).allclose(mu, 1e-12)
    assert necklace_cobracket(a).allclose(delta, 1e-12)


def test_coaction_and_cobracket_make_no_coproducts(rng, count_series_calls):
    """Work counter: both maps read the word letters directly, with no
    coproduct of the argument or of its contractions."""
    a = dense_complex(rng, 3, 5)
    calls = count_series_calls("coproduct")
    coaction_mu_kks(a)
    necklace_cobracket(a)
    assert calls == {"coproduct": 0}


def test_counit_of_coaction_is_mu_bar(rng):
    """(eps (x) id) mu = mu_bar: drop cyclic legs of length zero... the free
    leg paired with the empty cyclic word carries (eps (x) id) mu."""
    for _ in range(10):
        a = random_series(rng, N, D)
        mu = coaction_mu_kks(a)
        collected = {}
        for (cw, ww), c in mu.coeffs.items():
            if cw == ():
                collected[ww] = collected.get(ww, 0) + c
        reduced = FreeSeries(N, D, collected, RATIONAL)
        assert reduced == mu_bar_kks(a)


# ---------------------------------------------------------------------------
# necklace bracket / cobracket
# ---------------------------------------------------------------------------
def _projected_double_bracket(a, b):
    """Reference: the necklace bracket as the cyclic projection of the
    multiplied legs of the whole double bracket."""
    return double_bracket_kks(a, b).multiply_legs().cyclic_project()


def _full_series_cobracket(a):
    """Reference: the cobracket from the coaction terms of every word of a,
    not of its cyclic classes."""
    return CyclicWedge(a.n, a.degree, _coaction_terms(a), a.backend)


def _reference_inputs(rng):
    """Random rational series for n = 1..3 and D = 0..6, with the zero and
    unit series of each shape among them."""
    for n in (1, 2, 3):
        for degree in range(7):
            specials = (
                FreeSeries.zero(n, degree, RATIONAL),
                FreeSeries.unit(n, degree, RATIONAL),
            )
            randoms = tuple(
                random_series(rng, n, degree, min(degree, 4), 8) for _ in range(6)
            )
            yield specials + randoms


def test_necklace_maps_match_full_series_references(rng):
    """The bracket and cobracket on cyclic classes equal the projected double
    bracket and the cobracket of the full series exactly on rationals."""
    nonzero = {"bracket": 0, "cobracket": 0}
    for inputs in _reference_inputs(rng):
        for a in inputs:
            new = necklace_cobracket(a)
            assert new == _full_series_cobracket(a)
            nonzero["cobracket"] += not new.is_zero()
            for b in inputs:
                new = necklace_bracket(a, b)
                assert new == _projected_double_bracket(a, b)
                nonzero["bracket"] += not new.is_zero()
    assert min(nonzero.values()) >= 50


def test_necklace_maps_match_full_series_references_dense_complex(rng):
    # coefficients of holonomy size, so that 1e-14 is a few ulps of the sums
    for degree in (4, 5):
        a = dense_complex(rng, 3, degree).scale(0.25)
        b = dense_complex(rng, 3, degree).scale(0.25)
        ref = _projected_double_bracket(a, b)
        assert not ref.is_zero()
        assert necklace_bracket(a, b).allclose(ref, 1e-14)
        assert necklace_cobracket(a).allclose(_full_series_cobracket(a), 1e-14)


def test_necklace_bracket_jacobi(rng):
    """Independent of the double bracket: the Jacobi identity holds exactly
    (truncation drops no term a lower degree needs)."""
    nonzero = 0
    for _ in range(40):
        n, degree = rng.randint(2, 3), rng.randint(5, 7)
        a, b, c = (random_series(rng, n, degree, 4, 8) for _ in range(3))
        terms = (
            necklace_bracket(a, necklace_bracket(b, c)),
            necklace_bracket(b, necklace_bracket(c, a)),
            necklace_bracket(c, necklace_bracket(a, b)),
        )
        assert (terms[0] + terms[1] + terms[2]).is_zero()
        nonzero += any(not t.is_zero() for t in terms)
    assert nonzero >= 10


def test_necklace_bracket_antisymmetric(rng):
    for _ in range(10):
        a = random_series(rng, N, D)
        b = random_series(rng, N, D)
        assert (necklace_bracket(a, b) + necklace_bracket(b, a)).is_zero()
    for _ in range(30):
        n, degree = rng.randint(2, 3), rng.randint(5, 7)
        a, b = (random_series(rng, n, degree, 4, 8) for _ in range(2))
        assert necklace_bracket(a, b) == -necklace_bracket(b, a)


def test_necklace_bracket_depends_only_on_cyclic_class(rng):
    a = w([1, 2, 1])
    a_rot = w([2, 1, 1])
    b = random_series(rng, N, D)
    assert necklace_bracket(a, b) == necklace_bracket(a_rot, b)


def test_necklace_cobracket_example():
    # x1 x1 -> contraction leaves |x1| against |1| with opposite orientations
    out = necklace_cobracket(w([1, 1]))
    assert not out.is_zero()
    for (u, v), c in out.coeffs.items():
        assert {u, v} == {(), (1,)}


def test_necklace_cobracket_kills_single_letters():
    assert necklace_cobracket(w([1])).is_zero()
    assert necklace_cobracket(w([1, 2])).is_zero()


# ---------------------------------------------------------------------------
# twist maps and double derivations
# ---------------------------------------------------------------------------
def test_twist_maps_inverse_pairs(rng):
    for _ in range(10):
        t = TensorSeries.outer(
            random_series(rng, N, D, 2), random_series(rng, N, D, 2)
        )
        assert alpha_inv(alpha(t)) == t
        assert alpha(alpha_inv(t)) == t
        assert beta_inv(beta(t)) == t
        assert beta(beta_inv(t)) == t


def test_double_derivations_left_right_agree(rng):
    for _ in range(10):
        a = random_series(rng, N, D)
        for m in (1, 2):
            assert double_derivation_left(m, a) == double_derivation_right(m, a)


def test_double_derivation_on_generator():
    x1 = w([1])
    one = FreeSeries.unit(N, D, RATIONAL)
    t = double_derivation_right(1, x1)
    assert t == TensorSeries.outer(one, one)
    assert double_derivation_right(2, x1).is_zero()
