"""Double brackets, coaction maps, and the cyclic-word Lie bialgebra.

The double bracket of a Fox pairing rho is the biderivation whose values on
generators form the letter table {{x_i, x_j}} = (S (x) id) Delta rho(x_i, x_j);
on words it is a sum over letter pairs (`double_bracket_from_pairing`).  Also
here: the adjacent-letter reduced coaction, and the coaction on cyclic words
and the necklace cobracket, both in closed form as a sum over pairs of equal
letters, w = L x M x R giving |M| (x) L x R - |M x| (x) L R (`_coaction_terms`);
the necklace bracket, a closed form on cyclic classes (Goldman 1986,
Schedler 2005); and the alpha/beta twists relating Fox derivatives to double
derivations.
"""

from __future__ import annotations

from .fox_calculus import FoxPairing, d_left, d_right, rho_kks, rho_kks_pairing
from .free_hopf import (
    CyclicSeries,
    FreeSeries,
    TensorSeries,
    _Sparse,
    _graded_pairs,
    _monomial,
    _split_words,
    cyclic_min,
    pair_len,
    word_sort_key,
)


# ---------------------------------------------------------------------------
# sparse containers for |A| (x) A and |A| wedge |A|
# ---------------------------------------------------------------------------
class CyclicByFree(_Sparse):
    """Sparse element of |A| (x) A keyed by (cyclic word, word)."""

    __slots__ = ()

    _len = staticmethod(pair_len)

    def _normal(self, key, c):
        return (cyclic_min(tuple(key[0])), tuple(key[1])), c

    @classmethod
    def from_tensor(cls, t: TensorSeries) -> "CyclicByFree":
        """Project the first leg to cyclic words (the constructor does it)."""
        return cls(t.n, t.degree, t.coeffs, t.backend)


class CyclicWedge(_Sparse):
    """Antisymmetrized element of |A| (x) |A|, keyed with ordered cyclic words.

    A term c * (u (x) v) is stored on the key (min(u,v), max(u,v)) in
    (length, lex) order with the sign adjusted; diagonal terms vanish.
    The stored object represents sums of c * (u (x) v - v (x) u).
    """

    __slots__ = ()

    _len = staticmethod(pair_len)

    def _normal(self, key, c):
        u, v = cyclic_min(tuple(key[0])), cyclic_min(tuple(key[1]))
        if u == v:
            return None
        if word_sort_key(v) < word_sort_key(u):
            return (v, u), -c
        return (u, v), c


# ---------------------------------------------------------------------------
# double bracket from a Fox pairing
# ---------------------------------------------------------------------------
def double_bracket_from_pairing(
    rho: FoxPairing, a: FreeSeries, b: FreeSeries
) -> TensorSeries:
    """{{a, b}} from the letter table, summed over letter pairs (p, q):

        {{u, v}} = sum v<q {{u_p, v_q}}' u>p  (x)  u<p {{u_p, v_q}}'' v>q,

    u<p and u>p being the letters of u before and after position p, and
    {{x_i, x_j}} = (S (x) id) Delta rho(x_i, x_j).  This is the Sweedler form
    b' S(rho(a'', b'')') a' (x) rho(a'', b'')'', which is a biderivation
    (outer in the second slot, inner in the first) and, as rho(1, .) =
    rho(., 1) = 0, equals the letter table on generators.  Skew-symmetry of
    rho is needed only for antisymmetry, not for the biderivation rules.
    Cost: n^2 pairing calls per shape (the pairing keeps the table), then
    |u||v| table lookups per word pair.
    """
    a._check(b)
    n, D, backend = a.n, a.degree, a.backend
    table = rho._tables.get((n, D, backend))
    if table is None:
        table = rho._tables[n, D, backend] = _letter_table(rho, n, D, backend)

    def terms():
        # {{u_p, v_q}} replaces two letters, so the word pair may reach D + 2
        for u, cu, v, cv in _graded_pairs(a, b, D + 2):
            budget = D + 2 - len(u) - len(v)  # degree left for {{u_p, v_q}}
            cuv = cu * cv
            for p, up in enumerate(u):
                for q, vq in enumerate(v):
                    for deg, s1, r2, cr in table[up, vq]:
                        if deg > budget:
                            break
                        key = (v[:q] + s1 + u[p + 1 :], u[:p] + r2 + v[q + 1 :])
                        yield key, cuv * cr

    return TensorSeries._trusted(n, D, terms(), backend)


def _letter_table(rho: FoxPairing, n: int, D: int, backend: str) -> dict:
    """{(i, j): the terms of {{x_i, x_j}} as (degree, S-leg word, second leg,
    signed coefficient), in degree order}; the word pairs are distinct, so the
    sort never compares coefficients."""
    gens = [_monomial((i,), n, D, backend) for i in range(1, n + 1)]
    return {
        (i, j): sorted(
            (len(r1) + len(r2), r1[::-1], r2, -cr if len(r1) % 2 else cr)
            for (r1, r2), cr in rho(xi, xj).coproduct().coeffs.items()
        )
        for i, xi in enumerate(gens, 1)
        for j, xj in enumerate(gens, 1)
    }


def double_bracket_kks(a: FreeSeries, b: FreeSeries) -> TensorSeries:
    return double_bracket_from_pairing(rho_kks_pairing(), a, b)


# ---------------------------------------------------------------------------
# reduced coaction and coaction
# ---------------------------------------------------------------------------
def mu_bar_kks(a: FreeSeries) -> FreeSeries:
    """Adjacent equal-letter contraction: on each word, sum over positions i
    with w[i] == w[i+1] of the word with one of the pair removed."""
    return a._like(
        (w[:i] + w[i + 1 :], c)
        for w, c in a.coeffs.items()
        for i in range(len(w) - 1)
        if w[i] == w[i + 1]
    )


def _coaction_terms(a: FreeSeries):
    """Terms of mu(a) = |a' S(mubar(a'')')| (x) mubar(a'')'', one pair of
    equal letters at a time.

    For a word w = L x M x R, the pair of equal letters x at the positions
    p < q (L = w<p, M the letters strictly between, R = w>q) contributes

        |M| (x) L x R  -  |M x| (x) L R.

    In the Sweedler form, mubar contracts a pair p < q of a'' with no letter
    of a'' between them, so M lies in a', and the kept x goes to either leg
    of the second coproduct.  Each letter of L goes to a' (L_1), to
    mubar(a'')' (L_2) or to mubar(a'')''; likewise for R.  Once the first
    leg is cyclic it reads |S(L_2) L_1 M R_1 S(R_2) ...|, and for a fixed
    set of letters l sent to the first leg, the sum over its splittings is
    the antipode identity sum S(l')l'' = eps(l) (sum r'S(r'') = eps(r) on the
    right).  So every split that sends a letter outside the pair's span to
    the first leg cancels: L and R stay whole in the second leg, and only
    the kept x moves, with S(x) = -x.  Cost: O(|w|^2) per word instead of
    2^|w| splittings and a second coproduct per split.
    """
    for w, c in a.coeffs.items():
        for q in range(1, len(w)):
            x, right = w[q], w[q + 1 :]
            for p in range(q):
                if w[p] == x:
                    left, middle = w[:p], w[p + 1 : q]
                    yield (middle, left + (x,) + right), c
                    yield (middle + (x,), left + right), -c


def coaction_mu_kks(a: FreeSeries) -> CyclicByFree:
    """mu(a) = |a' S(mubar(a'')')| (x) mubar(a'')'', summed over pairs of
    equal letters (`_coaction_terms`)."""
    return CyclicByFree(a.n, a.degree, _coaction_terms(a), a.backend)


# ---------------------------------------------------------------------------
# bracket and cobracket on cyclic words
# ---------------------------------------------------------------------------
def necklace_bracket(a, b) -> CyclicSeries:
    """{|a|, |b|} = |rho_kks(R a, R b) - rho_kks(R b, R a)| on the cyclic
    classes of a and b (series or cyclic series), R summing the rotations of
    each class word.  rho_kks pairs U x with x V to U x V, whose class
    |x V U| is the term of the equal-letter form {|u|, |v|} =
    sum |x V_q U_p| - |x U_p V_q|, U_p = u>p u<p and V_q = v>q v<q (Goldman
    1986; Schedler 2005).  No double-bracket series is built."""
    ca, cb = a.cyclic_project(), b.cyclic_project()
    ra, rb = (FreeSeries._trusted(c.n, c.degree, (
        (u[i:] + u[:i], cu) for u, cu in c.items() for i in range(len(u))
    ), c.backend) for c in (ca, cb))
    # rho_kks checks the shapes
    terms = (rho_kks(ra, rb) - rho_kks(rb, ra)).items()
    return ca._like((cyclic_min(w), c) for w, c in terms)


def necklace_cobracket(a) -> CyclicWedge:
    """delta(|a|) = |mu(a)| - P21 |mu(a)|: the coaction terms of the cyclic
    projection of a (series or cyclic series) with the second leg also
    cyclic, antisymmetrized."""
    ca = a.cyclic_project()
    return CyclicWedge(ca.n, ca.degree, _coaction_terms(ca), ca.backend)


# ---------------------------------------------------------------------------
# alpha / beta twists and double derivations
# ---------------------------------------------------------------------------
def alpha(t: TensorSeries) -> TensorSeries:
    """a (x) b -> a S(b') (x) b''."""
    return t._like(
        ((a + b1[::-1], b2), -c if len(b1) % 2 else c)
        for (a, b), c in t.coeffs.items()
        for b1, b2 in _split_words(b)
    )


def alpha_inv(t: TensorSeries) -> TensorSeries:
    """c (x) d -> c d' (x) d''."""
    return t._like(
        ((cw + d1, d2), c) for (cw, d), c in t.coeffs.items() for d1, d2 in _split_words(d)
    )


def beta(t: TensorSeries) -> TensorSeries:
    """a (x) b -> b' (x) S(b'') a."""
    return t._like(
        ((b1, b2[::-1] + a), -c if len(b2) % 2 else c)
        for (a, b), c in t.coeffs.items()
        for b1, b2 in _split_words(b)
    )


def beta_inv(t: TensorSeries) -> TensorSeries:
    """c (x) d -> c'' d (x) c'."""
    return t._like(
        ((c2 + d, c1), c) for (cw, d), c in t.coeffs.items() for c1, c2 in _split_words(cw)
    )


def double_derivation_left(m: int, a: FreeSeries) -> TensorSeries:
    """beta . (id (x) d_left_m) . coproduct."""
    return beta(a.coproduct().map_right(lambda s: d_left(m, s)))


def double_derivation_right(m: int, a: FreeSeries) -> TensorSeries:
    """alpha . (id (x) d_right_m) . coproduct."""
    return alpha(a.coproduct().map_right(lambda s: d_right(m, s)))
