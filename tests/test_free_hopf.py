"""Truncated free-algebra arithmetic and the Hopf structure maps."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzfox.brackets_coactions import (
    CyclicByFree,
    CyclicWedge,
    alpha,
    alpha_inv,
    beta,
    beta_inv,
    double_bracket_from_pairing,
    double_bracket_kks,
    mu_bar_kks,
    necklace_bracket,
)
from kzfox.errors import DomainError, ShapeError
from kzfox.exact_suite import _cbf_mul_free_left, _cbf_mul_free_right, _triple_coproduct
from kzfox.fox_calculus import d_left, d_right, rho_inner, rho_kks, rho_left, rho_right
from kzfox.free_hopf import (
    COMPLEX,
    CyclicSeries,
    FreeSeries,
    RATIONAL,
    TensorSeries,
    _Rational,
    _coerce,
    _split_memo,
    _split_words,
)
from kzfox.levels import from_series, to_series
from kzfox.trivial_extension import (
    TrivExtElement,
    delta_z,
    square_w,
    square_z,
    square_zw,
    trivext_mul,
)
from conftest import dense_complex, random_series

N = 2
D = 4


def _series(coeffs) -> FreeSeries:
    return FreeSeries(N, D, coeffs, RATIONAL)


words = st.lists(st.integers(1, N), min_size=0, max_size=3).map(tuple)
scalars = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)
series = st.dictionaries(words, scalars, max_size=4).map(_series)


# ---------------------------------------------------------------------------
# ring axioms
# ---------------------------------------------------------------------------
@given(series, series, series)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(series, series, series)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(series)
def test_unit_neutral(a):
    one = FreeSeries.unit(N, D, RATIONAL)
    assert one * a == a
    assert a * one == a


@given(series, series)
def test_counit_is_algebra_map(a, b):
    assert (a * b).counit() == a.counit() * b.counit()


def test_truncation_drops_high_degree():
    x = FreeSeries.generator(1, N, 2, RATIONAL)
    cube = x * x * x
    assert cube.is_zero()


def test_shape_mismatch_raises():
    a = FreeSeries.generator(1, N, D, RATIONAL)
    b = FreeSeries.generator(1, N, D + 1, RATIONAL)
    with pytest.raises(ShapeError):
        a + b


# ---------------------------------------------------------------------------
# coproduct / antipode
# ---------------------------------------------------------------------------
@given(series)
def test_counit_axiom(a):
    da = a.coproduct()
    assert da.eps_left() == a
    assert da.eps_right() == a


@given(series, series)
def test_coproduct_multiplicative(a, b):
    assert (a * b).coproduct() == a.coproduct() * b.coproduct()


@given(series)
def test_antipode_axiom(a):
    da = a.coproduct()
    target = FreeSeries.unit(N, D, RATIONAL).scale(a.counit())
    assert da.map_left(lambda s: s.antipode()).multiply_legs() == target
    assert da.map_right(lambda s: s.antipode()).multiply_legs() == target


def _map_per_term(t, f, left):
    """The reference map: f on each term's leg, summed by the validating
    constructor, which drops the terms above D."""
    terms = []
    for (a, b), c in t.items():
        leg = a if left else b
        for w, cw in f(FreeSeries.from_word(leg, t.n, t.degree, t.backend)).items():
            terms.append(((w, b) if left else (a, w), c * cw))
    return TensorSeries(t.n, t.degree, terms, t.backend)


@pytest.mark.parametrize("backend", [RATIONAL, COMPLEX])
def test_map_legs_match_the_per_term_construction(backend):
    """`map_left` and `map_right` call f once per distinct leg and equal the
    per-term construction, also for images s*c and c*s that overshoot D
    next to the other leg."""
    rng = random.Random(17)
    for _ in range(10):
        a, b = random_series(rng, N, D), random_series(rng, N, D)
        c = random_series(rng, N, D, 2)
        if backend == COMPLEX:
            a, b, c = a.to_complex(), b.to_complex(), dense_complex(rng, N, D)
        t = TensorSeries.outer(a, b) + TensorSeries.outer(b, a)
        for f in (lambda s: s * c, lambda s: c * s, FreeSeries.antipode):
            for left, method in ((True, t.map_left), (False, t.map_right)):
                seen = []
                mapped = method(lambda s: seen.append(*s.coeffs) or f(s))
                assert mapped == _map_per_term(t, f, left)
                assert sorted(seen) == sorted({k[0 if left else 1] for k in t.coeffs})


@given(series)
def test_antipode_involutive(a):
    assert a.antipode().antipode() == a


@given(series, series)
def test_antipode_antihomomorphism(a, b):
    assert (a * b).antipode() == b.antipode() * a.antipode()


def test_generators_are_primitive():
    x = FreeSeries.generator(1, N, D, RATIONAL)
    one = FreeSeries.unit(N, D, RATIONAL)
    assert x.coproduct() == TensorSeries.outer(x, one) + TensorSeries.outer(one, x)
    assert x.antipode() == -x


# ---------------------------------------------------------------------------
# exp / log / inverse / grouplikes
# ---------------------------------------------------------------------------
@given(series)
@settings(max_examples=40)
def test_exp_log_inverse_pair(a):
    a = a - FreeSeries.unit(N, D, RATIONAL).scale(a.counit())  # counit zero
    assert a.exp().log() == a


def test_exp_requires_zero_counit():
    with pytest.raises(DomainError):
        FreeSeries.unit(N, D, RATIONAL).exp()


def test_log_requires_counit_one():
    with pytest.raises(DomainError):
        FreeSeries.zero(N, D, RATIONAL).log()


def test_exp_of_primitive_is_grouplike():
    x = FreeSeries.generator(1, N, D, RATIONAL)
    g = x.exp()
    assert g.coproduct() == TensorSeries.outer(g, g)
    assert g.to_complex().is_grouplike(1e-12)


@given(series)
@settings(max_examples=40)
def test_inverse(a):
    a = a + FreeSeries.unit(N, D, RATIONAL).scale(1 - a.counit())  # counit one
    one = FreeSeries.unit(N, D, RATIONAL)
    assert a * a.inverse() == one
    assert a.inverse() * a == one


# The three term-by-term loops that exp, log and inverse ran before they
# shared one Horner routine, kept as references.
def _exp_loop(a):
    out = FreeSeries.unit(a.n, a.degree, a.backend)
    term = FreeSeries.unit(a.n, a.degree, a.backend)
    for k in range(1, a.degree + 1):
        inv_k = Fraction(1, k) if a.backend == RATIONAL else 1.0 / k
        term = (term * a).scale(inv_k)
        if term.is_zero():
            break
        out = out + term
    return out


def _log_loop(g):
    u = g - FreeSeries.unit(g.n, g.degree, g.backend)
    out = FreeSeries.zero(g.n, g.degree, g.backend)
    term = FreeSeries.unit(g.n, g.degree, g.backend)
    for k in range(1, g.degree + 1):
        term = term * u
        if term.is_zero():
            break
        sign = 1 if k % 2 == 1 else -1
        inv_k = Fraction(sign, k) if g.backend == RATIONAL else sign / k
        out = out + term.scale(inv_k)
    return out


def _inverse_loop(a):
    eps = a.counit()
    inv_eps = Fraction(1, 1) / eps if a.backend == RATIONAL else 1.0 / eps
    u = FreeSeries.unit(a.n, a.degree, a.backend) - a.scale(inv_eps)
    out = FreeSeries.unit(a.n, a.degree, a.backend)
    term = FreeSeries.unit(a.n, a.degree, a.backend)
    for _ in range(a.degree):
        term = term * u
        if term.is_zero():
            break
        out = out + term
    return out.scale(inv_eps)


def _counit_free(rng, n, degree, lowest):
    """Rational series with counit 0 whose words have lengths in lowest..D
    (none at all when lowest > D)."""
    coeffs = {}
    for _ in range(5):
        k = rng.randint(lowest, max(lowest, degree))
        w = tuple(rng.randint(1, n) for _ in range(k))
        coeffs[w] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return FreeSeries(n, degree, coeffs, RATIONAL)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("degree", range(7))
def test_power_series_match_the_term_loops_exactly(n, degree):
    """On the rational backend exp, log and inverse equal the reference loops
    exactly, for counit-free series whose lowest word has length 1, 2 or 3
    (so powers vanish early) and for the zero series, and they keep their
    DomainError on inputs outside their domains."""
    rng = random.Random(1900 + 10 * n + degree)
    one = FreeSeries.unit(n, degree, RATIONAL)
    cases = [FreeSeries.zero(n, degree, RATIONAL)]
    cases += [_counit_free(rng, n, degree, low) for low in (1, 1, 2, 2, 3)]
    for u in cases:
        assert u.exp() == _exp_loop(u)
        assert (one + u).log() == _log_loop(one + u)
        c = Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4))
        assert (one.scale(c) + u).inverse() == _inverse_loop(one.scale(c) + u)
        assert (one + u).log().exp() == one + u
    with pytest.raises(DomainError):
        one.exp()
    with pytest.raises(DomainError):
        FreeSeries.zero(n, degree, RATIONAL).log()
    with pytest.raises(DomainError):
        one.scale(2).log()
    with pytest.raises(DomainError):
        cases[1].inverse()


def test_power_series_match_the_term_loops_on_dense_complex():
    """On dense complex series the Horner sums agree with the reference loops
    to 1e-15 relative to the larger coefficient (the absolute difference of
    a degree-5 inverse reaches 1e-14 where its coefficients reach 70)."""
    rng = random.Random(1901)
    worst = 0.0
    for n in (1, 2, 3):
        for degree in range(6):
            d = dense_complex(rng, n, degree)
            one = FreeSeries.unit(n, degree, COMPLEX)
            u = d - one.scale(d.counit())
            for new, ref in ((u.exp(), _exp_loop(u)),
                             ((one + u).log(), _log_loop(one + u)),
                             (d.inverse(), _inverse_loop(d))):
                worst = max(worst, (new - ref).norm_inf() / max(1.0, ref.norm_inf()))
    assert worst <= 1e-15
    with pytest.raises(DomainError):
        FreeSeries.unit(2, 3, COMPLEX).exp()
    with pytest.raises(DomainError):
        FreeSeries.generator(1, 2, 3, COMPLEX).log()
    with pytest.raises(DomainError):
        FreeSeries.generator(1, 2, 3, COMPLEX).inverse()


# ---------------------------------------------------------------------------
# tensor and cyclic layers
# ---------------------------------------------------------------------------
@given(series, series)
def test_outer_and_swap(a, b):
    t = TensorSeries.outer(a, b)
    assert t.swap() == TensorSeries.outer(b, a)
    assert t.swap().swap() == t


@given(series, series)
def test_multiply_legs_of_outer(a, b):
    assert TensorSeries.outer(a, b).multiply_legs() == a * b


def test_cyclic_projection_identifies_rotations():
    w = FreeSeries.from_word((1, 2, 2), N, D, RATIONAL)
    rotated = FreeSeries.from_word((2, 2, 1), N, D, RATIONAL)
    assert w.cyclic_project() == rotated.cyclic_project()
    diff = w - rotated
    assert diff.cyclic_project().is_zero()


def test_cyclic_projection_separates_necklaces():
    w = FreeSeries.from_word((1, 2, 1, 2), N, D, RATIONAL)
    v = FreeSeries.from_word((1, 1, 2, 2), N, D, RATIONAL)
    assert not (w - v).cyclic_project().is_zero()


@given(series, series)
def test_cyclic_projection_kills_commutators(a, b):
    assert (a * b - b * a).cyclic_project().is_zero()


def test_cyclic_series_arithmetic():
    z = CyclicSeries.zero(N, D, RATIONAL)
    c = FreeSeries.from_word((1, 2), N, D, RATIONAL).cyclic_project()
    assert (c - c) == z
    assert (c + c) == c.scale(Fraction(2))


# ---------------------------------------------------------------------------
# the shared container contract
# ---------------------------------------------------------------------------
# container -> (a key of degree <= D, a key above D)
CONTAINERS = {
    FreeSeries: ((1, 2), (1, 1, 2, 2, 1)),
    TensorSeries: (((1,), (2, 2)), ((1, 2), (1, 2, 1))),
    CyclicSeries: ((1, 2, 2), (1, 1, 2, 2, 1)),
    CyclicByFree: (((1, 2), (1,)), ((1, 2), (1, 2, 1))),
    CyclicWedge: (((1,), (1, 2)), ((1, 1), (1, 2, 2))),
}


@pytest.mark.parametrize("cls", list(CONTAINERS), ids=lambda c: c.__name__)
def test_container_contract(cls):
    key, high = CONTAINERS[cls]
    a = cls(N, D, {key: Fraction(1, 3)}, RATIONAL)
    # mismatched shapes
    for other in (
        cls(N, D + 1, {key: 1}, RATIONAL),
        cls(N + 1, D, {key: 1}, RATIONAL),
        cls(N, D, {key: 1}, COMPLEX),
    ):
        with pytest.raises(ShapeError):
            a + other
        with pytest.raises(ShapeError):
            a.allclose(other, 1.0)
    # a + (-a) stores nothing
    assert (a + (-a)).is_zero() and (a + (-a)).coeffs == {}
    assert (a - a).coeffs == {} and a.scale(0).coeffs == {}
    # the constructor drops terms above D and adds repeated keys
    b = cls(N, D, [(key, 1), (high, 5), (key, Fraction(1, 2))], RATIONAL)
    assert b.coeffs == {key: Fraction(3, 2)}
    assert b == a.scale(Fraction(9, 2))
    assert cls(N, D, [(key, 1), (key, -1)], RATIONAL).coeffs == {}
    assert b.to_complex().coeffs == {key: 1.5 + 0j}


def test_container_keys_are_normalized():
    def make(cls, *terms):
        return cls(N, D, list(terms), RATIONAL)

    with pytest.raises(DomainError):
        make(FreeSeries, ((1, 3), 1))
    assert make(TensorSeries, (([1], [2]), 1)).coeffs == {((1,), (2,)): 1}
    # rotations merge in the cyclic types
    assert make(CyclicSeries, ((1, 2, 2), 1), ((2, 1, 2), 2)).coeffs == {
        (1, 2, 2): 3
    }
    assert make(CyclicByFree, (((2, 1), (1,)), 1), (((1, 2), (1,)), 2)).coeffs == {
        ((1, 2), (1,)): 3
    }
    # a wedge term flips sign under swap and vanishes on the diagonal
    u, v = (1,), (2, 1)
    assert make(CyclicWedge, ((v, u), 1)).coeffs == {((1,), (1, 2)): -1}
    assert make(CyclicWedge, ((u, v), 1), ((v, u), 1)).is_zero()
    assert make(CyclicWedge, (((1, 2), (2, 1)), 5)).is_zero()


def test_containers_of_different_types_are_never_equal():
    key = ((1,), (2,))
    for cls in CONTAINERS:
        for other in CONTAINERS:
            zeros_equal = cls.zero(N, D, RATIONAL) == other.zero(N, D, RATIONAL)
            assert zeros_equal == (cls is other)
    t = TensorSeries(N, D, {key: 1}, RATIONAL)
    assert t != CyclicByFree.from_tensor(t)
    assert t.coeffs == CyclicByFree.from_tensor(t).coeffs
    with pytest.raises(ShapeError):
        t + CyclicByFree.from_tensor(t)


# ---------------------------------------------------------------------------
# the one accumulation: results built on the trusted path
# ---------------------------------------------------------------------------
def _cyclic_by_free(a, b):
    """|a| (x) b in |A| (x) A, or a itself when it is one already."""
    if isinstance(a, CyclicByFree):
        return a
    return CyclicByFree.from_tensor(TensorSeries.outer(a, b))


def _trusted_maps():
    """Every map whose result skips the validating constructor, as a function
    of two series of one shape (the `cbf_` maps also take an element of
    |A| (x) A first)."""
    outer = TensorSeries.outer
    return {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "neg": lambda a, b: -a,
        "scale": lambda a, b: a.scale(3),
        "mul": lambda a, b: a * b,
        "antipode": lambda a, b: a.antipode(),
        "coproduct": lambda a, b: a.coproduct(),
        "tensor_mul": lambda a, b: outer(b, a) * a.coproduct(),
        "outer": outer,
        "swap": lambda a, b: outer(a, b).swap(),
        "eps_left": lambda a, b: (b.coproduct() - outer(a, b)).eps_left(),
        "eps_right": lambda a, b: (b.coproduct() - outer(a, b)).eps_right(),
        "multiply_legs": lambda a, b: (outer(a, b) - outer(b, a)).multiply_legs(),
        "d_left": lambda a, b: d_left(a.n, a),
        "d_right": lambda a, b: d_right(1, a),
        "rho_kks": rho_kks,
        "mu_bar_kks": lambda a, b: mu_bar_kks(a),
        "necklace_bracket": necklace_bracket,
        "double_bracket": double_bracket_kks,
        "alpha": lambda a, b: alpha(outer(a, b)),
        "alpha_inv": lambda a, b: alpha_inv(outer(a, b)),
        "beta": lambda a, b: beta(outer(a, b)),
        "beta_inv": lambda a, b: beta_inv(outer(a, b)),
        "to_series": lambda a, b: to_series(a.n, from_series(a.to_complex())),
        "delta_z_tensor": lambda a, b: delta_z(1, a).tensor_part,
        "delta_z_m": lambda a, b: delta_z(1, a).m_part,
        "cbf_right": lambda a, b: _cbf_mul_free_right(_cyclic_by_free(a, b), b),
        "cbf_left": lambda a, b: _cbf_mul_free_left(b, _cyclic_by_free(a, b)),
    }


def _accumulation_cases():
    """Pairs (a, b) for n = 1..3 and D = 0..5: random rationals, cancelling
    inputs (b = -a, a - a), zero and unit, and dense complex series."""
    rng = random.Random(1207)
    for n in (1, 2, 3):
        for degree in range(6):
            a = random_series(rng, n, degree, terms=6)
            b = random_series(rng, n, degree, terms=6)
            zero = FreeSeries.zero(n, degree, RATIONAL)
            unit = FreeSeries.unit(n, degree, RATIONAL)
            yield from ((a, b), (a, -a), (a - a, b), (zero, a), (unit, a), (a, unit))
            yield dense_complex(rng, n, degree), dense_complex(rng, n, degree)


def test_trusted_results_pass_the_constructor_unchanged():
    """Rebuilding a trusted result through the validating constructor changes
    nothing: its keys are normal and within D, and no stored zero is left."""
    maps = _trusted_maps()
    for a, b in _accumulation_cases():
        for name, f in maps.items():
            r = f(a, b)
            rebuilt = type(r)(r.n, r.degree, r.coeffs, r.backend)
            assert rebuilt == r, (name, a.n, a.degree, a.backend)
        if a.backend == RATIONAL:
            for split_left in (True, False):
                assert all(c != 0 for c in _triple_coproduct(a, split_left).values())


def test_trusted_results_make_no_normal_calls(monkeypatch):
    """The maps above never run a key through `_normal`, the double bracket
    included; delta_z only builds its generator images through the
    constructor, a count that does not grow with the input."""
    a, b = (dense_complex(random.Random(s), 3, 4) for s in (1, 2))
    ca, cb = a.cyclic_project(), b.cyclic_project()
    cab = _cyclic_by_free(a, b)
    zero = FreeSeries.zero(3, 4, COMPLEX)
    calls = []
    for cls in CONTAINERS:
        original = cls._normal

        def counting(self, key, c, _original=original):
            calls.append(key)
            return _original(self, key, c)

        monkeypatch.setattr(cls, "_normal", counting)
    # inputs built, the constructor still checks and coerces outside input
    with pytest.raises(DomainError):
        FreeSeries(2, 4, {(1, 3): 1}, RATIONAL)
    assert type(FreeSeries(2, 4, {(1,): 2}, RATIONAL).coefficient((1,))) is int
    assert type(FreeSeries(2, 4, {(1,): Fraction(1, 2)}, RATIONAL).coefficient((1,))) is _Rational
    assert issubclass(_Rational, Fraction)
    assert calls
    fixed = {"delta_z_tensor", "delta_z_m"}
    for name, f in _trusted_maps().items():
        x, y = {"necklace_bracket": (ca, cb), "cbf_right": (cab, b),
                "cbf_left": (cab, b)}.get(name, (a, b))
        calls.clear()
        assert not f(x, y).is_zero()
        if name in fixed:
            on_dense = len(calls)
            calls.clear()
            f(zero, zero)
            assert on_dense == len(calls), name
        else:
            assert calls == [], name


# ---------------------------------------------------------------------------
# the rational backend's scalar
# ---------------------------------------------------------------------------
BIG = 2**80
fractions_ = st.builds(
    Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)
) | st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(-2**65, 3**41)])


def _stored_type(value):
    """The rational backend's type for a stored value: `int` if integral."""
    return int if value.denominator == 1 else _Rational


def _assert_same_value(got, want, exact_type):
    assert type(got) is exact_type
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert str(got) == str(want)
    assert bool(got) == bool(want)
    assert abs(got) == abs(want)
    assert math.gcd(got.numerator, got.denominator) == 1 and got.denominator > 0


@settings(max_examples=60, deadline=None)
@given(fractions_, fractions_)
def test_rational_scalar_matches_fraction(x, y):
    """+, -, * and unary - of two stored scalars give a reduced stored scalar
    equal, hashing and printing like the Fraction result: an int if integral,
    else a _Rational."""
    a, b = _coerce(RATIONAL, x), _coerce(RATIONAL, y)
    _assert_same_value(a, x, _stored_type(x))
    for got, want in ((a + b, x + y), (a - b, x - y), (a * b, x * y), (-a, -x)):
        _assert_same_value(got, want, _stored_type(want))
    assert (a == b) == (x == y)
    assert (a < b) == (x < y)


@settings(max_examples=60, deadline=None)
@given(fractions_, st.integers(-BIG, BIG) | fractions_)
def test_rational_scalar_with_other_operands_falls_back_to_fraction(x, other):
    """An int operand, on either side, gets a stored result (an int if
    integral, else a _Rational); a plain Fraction operand, on either side,
    gets Fraction's own operator and a plain Fraction result."""
    a = _coerce(RATIONAL, x)
    pairs = (
        (a + other, x + other), (other + a, other + x),
        (a - other, x - other), (other - a, other - x),
        (a * other, x * other), (other * a, other * x),
    )
    for got, want in pairs:
        _assert_same_value(got, want, _stored_type(want) if type(other) is int else Fraction)


def _assert_canonical(name, *results):
    """Every stored coefficient is an int when integral, else a reduced
    _Rational with denominator > 1: never a float or a plain Fraction."""
    for r in results:
        for c in r.coeffs.values():
            if type(c) is not int:
                assert type(c) is _Rational, (name, c)
                assert c.denominator > 1, (name, c)
                assert math.gcd(c.numerator, c.denominator) == 1, (name, c)


def _fraction_power_series(u, coeff, degree):
    """sum_k coeff(k) u^k through the degree, on a dict of Fractions with no
    constant term: the reference for exp, log and inverse."""
    out, power = {(): coeff(0)}, {(): Fraction(1)}
    for k in range(1, degree + 1):
        step = {}
        for wp, cp in power.items():
            for wu, cu in u.items():
                if len(wp) + len(wu) <= degree:
                    step[wp + wu] = step.get(wp + wu, 0) + cp * cu
        power = step
        for w, c in power.items():
            out[w] = out.get(w, 0) + coeff(k) * c
    return {w: c for w, c in out.items() if c}


def test_rational_maps_store_canonical_coefficients():
    """After every public rational map each stored coefficient is canonical
    (`_assert_canonical`), on series with integral and non-integral
    coefficients; inverse, log and exp of series with integral counits, such
    as 2 + x1, equal a plain-Fraction reference."""
    rng = random.Random(37)
    one = FreeSeries.unit(N, D, RATIONAL)
    x1, x2 = (FreeSeries.generator(i, N, D, RATIONAL) for i in (1, 2))
    cases = [one.scale(2) + x1, one.scale(-3) + x1 * x2 + x2.scale(2),
             _series({(): 2, (1,): Fraction(1, 2), (1, 2): 3, (2, 2): Fraction(-3, 4)})]
    cases += [random_series(rng, N, D) for _ in range(6)]
    for a, b in zip(cases, cases[1:]):
        u = a - one.scale(a.counit())
        unit_start = a if a.counit() else a + one
        t = TensorSeries.outer(a, b)
        ext = TrivExtElement.from_tensor(t) + TrivExtElement.from_m(b)
        product = trivext_mul(ext, TrivExtElement.from_tensor(b.coproduct()))
        results = {
            "mul": a * b, "coproduct": a.coproduct(), "antipode": a.antipode(),
            "exp": u.exp(), "log": (one + u).log(), "inverse": unit_start.inverse(),
            "outer": t, "map_left": t.map_left(lambda s: b * s),
            "map_right": t.map_right(lambda s: s * a),
            "double_bracket": double_bracket_kks(a, b),
            "double_bracket_inner": double_bracket_from_pairing(rho_inner(b), a, b),
            "rho_kks": rho_kks(a, b), "rho_inner": rho_inner(b)(a, b),
            "rho_left": rho_left(1)(a, b), "rho_right": rho_right(2)(a, b),
            "trivext_mul": (product.tensor_part, product.m_part),
            "square_z": square_z(1, a), "square_w": square_w(2, a),
            "square_zw": square_zw(a),
        }
        for name, r in results.items():
            _assert_canonical(name, *(r if isinstance(r, tuple) else (r,)))
        eps = Fraction(unit_start.counit())
        v = {w: -c / eps for w, c in unit_start.coeffs.items() if w}
        fu = {w: Fraction(c) for w, c in u.coeffs.items()}
        assert results["inverse"].coeffs == {
            w: c / eps for w, c in _fraction_power_series(v, lambda k: 1, D).items()}
        assert results["log"].coeffs == _fraction_power_series(
            fu, lambda k: Fraction((-1) ** (k + 1), k) if k else 0, D)
        assert results["exp"].coeffs == _fraction_power_series(
            fu, lambda k: Fraction(1, math.factorial(k)), D)


@pytest.mark.parametrize("backend", [RATIONAL, COMPLEX])
def test_bad_coefficients_raise_domain_error(backend):
    """A str, None or a sparse container is no coefficient on either backend,
    in the constructor and in scale; a bool stays an int."""
    unit = FreeSeries.unit(2, 3, backend)
    for bad in ("3", None, unit, TensorSeries.unit(2, 3, backend)):
        with pytest.raises(DomainError):
            FreeSeries(2, 3, {(1,): bad}, backend)
        with pytest.raises(DomainError):
            unit.scale(bad)
    assert FreeSeries(2, 3, {(1,): True}, backend).coefficient((1,)) == 1


@pytest.mark.parametrize("backend", [RATIONAL, COMPLEX])
def test_products_of_different_container_types_raise_shape_error(backend):
    a, t = FreeSeries.unit(2, 3, backend), TensorSeries.unit(2, 3, backend)
    for x, y in ((a, t), (t, a), (a, a.cyclic_project()), (t, a.cyclic_project())):
        with pytest.raises(ShapeError):
            x * y


# ---------------------------------------------------------------------------
# memoized word splittings
# ---------------------------------------------------------------------------
def _bitmask_split_words(w):
    """The coproduct splittings by a bitmask count: bit i sends letter i left."""
    m = len(w)
    for mask in range(1 << m):
        left = tuple(w[i] for i in range(m) if mask >> i & 1)
        right = tuple(w[i] for i in range(m) if not (mask >> i & 1))
        yield left, right


def test_split_words_match_the_bitmask_count():
    for n in (1, 2, 3):
        for k in range(7):
            for w in itertools.product(range(1, n + 1), repeat=k):
                assert list(_split_words(w)) == list(_bitmask_split_words(w)), w
    long_word = (1, 2, 3, 1, 1, 2, 3, 2, 1)
    assert list(_split_words(long_word)) == list(_bitmask_split_words(long_word))


def test_split_memo_is_bounded():
    """The memo holds at most 4096 words of at most 6 letters: a 9-letter
    word (512 splittings) is built on its memoized prefixes only."""
    assert 0 < _split_memo.cache_info().maxsize <= 4096
    _split_memo.cache_clear()
    assert len(_split_words((1, 2, 3) * 3)) == 512
    assert _split_memo.cache_info().currsize == 7  # the prefixes of 0..6 letters
