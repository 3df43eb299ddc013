"""The exact identity suite: seed-pinned random cases of the algebraic
identities the paper rests on, checked by exact equality over the rational
backend.

The suite covers the Hopf axioms of the completed free algebra, Fox
derivatives and Fox pairings (Massuyeau-Turaev), the double bracket and the
reduced coaction built from the adjacent pairing (Van den Bergh), and the
square-zero extension that carries the projected generalized pentagon
equation.  It imports nothing numeric: ``verify algebra`` runs it without
loading numpy or the holonomy kernel.
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

from .brackets_coactions import (
    CyclicByFree,
    alpha,
    alpha_inv,
    beta,
    beta_inv,
    coaction_mu_kks,
    double_bracket_from_pairing,
    double_bracket_kks,
    double_derivation_left,
    double_derivation_right,
    mu_bar_kks,
)
from .errors import DomainError
from .fox_calculus import (
    FoxPairing,
    d_left,
    d_right,
    rho_inner,
    rho_kks,
    rho_kks_pairing,
    rho_left,
    rho_right,
)
from .free_hopf import RATIONAL, FreeSeries, TensorSeries, _accumulate, _from_coprime, _graded_pairs
from .trivial_extension import (
    TrivExtElement,
    generator_images,
    square_w,
    square_z,
    square_zw,
    trivext_mul,
)

def _random_series(rng, n, degree, max_word=3) -> FreeSeries:
    """Five random terms drawn from `rng`: a length in 0..max_word, that many
    letters in 1..n, then a numerator in -4..4 and a denominator in 1..3.
    Words above the degree are dropped, repeated words summed and zeros
    dropped.  Each draw below m takes k = m.bit_length() bits and redraws
    while they read m or more, as `rng.randint` and `rng.choice` do, so the
    stream is that of `randint` draws."""
    bits = rng.getrandbits

    def below(m):
        k = m.bit_length()
        r = bits(k)
        while r >= m:
            r = bits(k)
        return r

    def draw():
        word = tuple(below(n) + 1 for _ in range(below(max_word + 1)))
        p, q = below(9) - 4, below(3) + 1
        g = math.gcd(p, q)
        return word, _from_coprime(p // g, q // g)

    terms = [draw() for _ in range(5)]
    return FreeSeries._trusted(
        n, degree, ((w, c) for w, c in terms if len(w) <= degree), RATIONAL
    )


def _triple_coproduct(a: FreeSeries, split_left: bool) -> dict:
    """Triple Sweedler coefficients, splitting the indicated leg again."""

    def terms():
        for (u, v), c in a.coproduct().coeffs.items():
            leg = u if split_left else v
            inner = FreeSeries.from_word(leg, a.n, a.degree, a.backend).coproduct()
            for (p, q), c2 in inner.coeffs.items():
                yield ((p, q, v) if split_left else (u, p, q)), c * c2

    return _accumulate(a.backend, terms())


def _cbf_mul_free_right(t: CyclicByFree, b: FreeSeries) -> CyclicByFree:
    terms = (
        ((cw, w + wb), c * cb) for (cw, w), c, wb, cb in _graded_pairs(t, b, t.degree)
    )
    return CyclicByFree._trusted(t.n, t.degree, terms, t.backend)


def _cbf_mul_free_left(a: FreeSeries, t: CyclicByFree) -> CyclicByFree:
    terms = (
        ((cw, wa + w), ca * c) for (cw, w), c, wa, ca in _graded_pairs(t, a, t.degree)
    )
    return CyclicByFree._trusted(t.n, t.degree, terms, t.backend)


def _random_trivext(rng, n, degree) -> TrivExtElement:
    t = TensorSeries.outer(
        _random_series(rng, n, degree, 2), _random_series(rng, n, degree, 2)
    )
    return TrivExtElement.from_tensor(t) + TrivExtElement.from_m(
        _random_series(rng, n, degree, 2)
    )


def algebra_suite(seed: int = 0, n: int = 2, degree: int = 4, cases: int = 12):
    """Seed-pinned randomized exact-identity suite over the rational backend.

    Returns an ordered list of (check name, record) pairs; every record has
    ``cases`` and ``passed`` fields, and equality is exact (no tolerances).
    Identities that mix degree-preserving and degree-lowering terms are
    compared through degree ``degree - 1``, the range on which truncation
    keeps them exact.  Degrees 0 and 1 are refused (`DomainError`): through
    degree 0 those identities compare nothing, as the reduced coaction and
    the pairing have no constant term.
    """
    if degree < 2:
        raise DomainError("the algebra suite needs truncation degree >= 2")
    rng = random.Random(seed)
    D = degree
    unit = FreeSeries.unit(n, D, RATIONAL)
    rho0 = rho_kks_pairing()

    def rnd(max_word=3):
        return _random_series(rng, n, D, max_word)

    results: List[Tuple[str, dict]] = []

    def run(name: str, check, count=cases):
        ok = True
        for _ in range(count):
            if not check():
                ok = False
                break
        results.append((name, {"cases": count, "passed": ok}))

    # --- Hopf axioms -------------------------------------------------------
    def counit_axiom():
        a = rnd()
        da = a.coproduct()
        return da.eps_left() == a and da.eps_right() == a

    run("hopf_counit", counit_axiom)

    def coassociativity():
        a = rnd()
        return _triple_coproduct(a, True) == _triple_coproduct(a, False)

    run("hopf_coassociativity", coassociativity)

    def antipode_axiom():
        a = rnd()
        da = a.coproduct()
        target = unit.scale(a.counit())
        left = da.map_left(lambda s: s.antipode()).multiply_legs()
        right = da.map_right(lambda s: s.antipode()).multiply_legs()
        return left == target and right == target

    run("hopf_antipode", antipode_axiom)

    run("hopf_antipode_involutive", lambda: (a := rnd()).antipode().antipode() == a)

    def coproduct_multiplicative():
        a, b = rnd(2), rnd(2)
        return (a * b).coproduct() == a.coproduct() * b.coproduct()

    run("hopf_coproduct_multiplicative", coproduct_multiplicative)

    # --- Fox derivatives ---------------------------------------------------
    def fox_reconstruction():
        a = rnd()
        gens = [FreeSeries.generator(i, n, D, RATIONAL) for i in range(1, n + 1)]
        from_right = sum(
            (g * d_right(i + 1, a) for i, g in enumerate(gens)),
            FreeSeries.zero(n, D, RATIONAL),
        )
        from_left = sum(
            (d_left(i + 1, a) * g for i, g in enumerate(gens)),
            FreeSeries.zero(n, D, RATIONAL),
        )
        reduced = a - unit.scale(a.counit())
        return from_right == reduced and from_left == reduced

    run("fox_reconstruction", fox_reconstruction)

    # --- Fox-pairing axioms ------------------------------------------------
    def fox_axioms(rho: FoxPairing):
        def check():
            a, b, c = rnd(2), rnd(2), rnd(2)
            eps_term = rho(a, c).scale(b.counit())
            first_slot = rho(a * b, c) == a * rho(b, c) + eps_term
            second_slot = rho(a, b * c) == rho(a, b) * c + eps_term
            return first_slot and second_slot

        return check

    run("fox_axioms_adjacent_pairing", fox_axioms(rho0))
    run("fox_axioms_inner_pairing", fox_axioms(rho_inner(rnd(2))))
    run("fox_axioms_left_pairing", fox_axioms(rho_left(rng.randint(1, n))))
    run("fox_axioms_right_pairing", fox_axioms(rho_right(rng.randint(1, n))))

    def skew_symmetry():
        a, b = rnd(), rnd()
        return rho0.transpose()(a, b) == -rho_kks(a, b)

    run("adjacent_pairing_skew", skew_symmetry)

    # --- double bracket ----------------------------------------------------
    def db_antisymmetry():
        a, b = rnd(), rnd()
        return double_bracket_kks(a, b) == -double_bracket_kks(b, a).swap()

    run("double_bracket_antisymmetry", db_antisymmetry)

    def db_derivations():
        a, b, c = rnd(2), rnd(2), rnd(2)
        ac = double_bracket_kks(a, c)
        second = double_bracket_kks(a, b * c) == ac.map_left(
            lambda s: b * s
        ) + double_bracket_kks(a, b).map_right(lambda s: s * c)
        first = double_bracket_kks(a * b, c) == double_bracket_kks(b, c).map_right(
            lambda s: a * s
        ) + ac.map_left(lambda s: s * b)
        return second and first

    run("double_bracket_derivations", db_derivations)

    def db_counit_recovers_pairing():
        a, b = rnd(), rnd()
        return double_bracket_kks(a, b).eps_left() == rho_kks(a, b)

    run("double_bracket_counit", db_counit_recovers_pairing)

    # --- coaction ----------------------------------------------------------
    def quasi_derivation():
        a, b = rnd(), rnd()
        lhs = mu_bar_kks(a * b)
        rhs = mu_bar_kks(a) * b + a * mu_bar_kks(b) + rho_kks(a, b)
        return (lhs - rhs).norm_through(D - 1) == 0

    run("reduced_coaction_quasi_derivation", quasi_derivation)

    def coaction_product_rule():
        a, b = rnd(), rnd()
        lhs = coaction_mu_kks(a * b)
        rhs = (
            _cbf_mul_free_right(coaction_mu_kks(a), b)
            + _cbf_mul_free_left(a, coaction_mu_kks(b))
            + CyclicByFree.from_tensor(double_bracket_kks(a, b))
        )
        return (lhs - rhs).norm_through(D - 1) == 0

    run("coaction_product_rule", coaction_product_rule)

    # --- cyclic vanishing --------------------------------------------------
    def cyclic_vanishing():
        a, b = rnd(), rnd()
        for rho in (
            rho_inner(rnd(2)),
            rho_left(rng.randint(1, n)),
            rho_right(rng.randint(1, n)),
        ):
            db = double_bracket_from_pairing(rho, a, b)
            if not db.multiply_legs().cyclic_project().is_zero():
                return False
        return True

    run("cyclic_projection_vanishing", cyclic_vanishing)

    def double_derivations_agree():
        a = rnd()
        m = rng.randint(1, n)
        return double_derivation_left(m, a) == double_derivation_right(m, a)

    run("double_derivation_left_right", double_derivations_agree)

    def twist_inverses():
        t = TensorSeries.outer(rnd(2), rnd(2))
        return (
            alpha_inv(alpha(t)) == t
            and alpha(alpha_inv(t)) == t
            and beta_inv(beta(t)) == t
            and beta(beta_inv(t)) == t
        )

    run("twist_maps_invertible", twist_inverses)

    # --- square-zero extension ---------------------------------------------
    def trivext_associativity():
        u = _random_trivext(rng, n, D)
        v = _random_trivext(rng, n, D)
        w = _random_trivext(rng, n, D)
        return trivext_mul(trivext_mul(u, v), w) == trivext_mul(u, trivext_mul(v, w))

    run("trivext_associativity", trivext_associativity)

    def generator_relations():
        z, w, crossed = generator_images(n, D, RATIONAL)

        def commutator(u, v):
            return trivext_mul(u, v) - trivext_mul(v, u)

        for i in range(n):
            for j in range(n):
                if i != j and not commutator(z[i], w[j]).is_zero():
                    return False
            if not commutator(crossed, z[i] + w[i]).is_zero():
                return False
        return trivext_mul(crossed, crossed).is_zero()

    run("generator_relations_vanish", generator_relations, count=1)

    def square_maps():
        a = rnd()
        q = rng.randint(1, n)
        p = rng.randint(1, n)
        return (
            square_z(q, a) == d_right(q, a)
            and square_w(p, a) == d_left(p, a)
            and square_zw(a) == -mu_bar_kks(a)
        )

    run("square_maps_match_derivatives", square_maps)

    return results
