"""Degree-truncated free associative algebra with its Hopf structure.

Series live in K<<x_1, ..., x_n>> cut at total degree D.  Words are tuples of
generator indices in 1..n; the empty tuple is the unit monomial.  Every
operation re-truncates its result to D (degrees above D are meaningless here,
by design).  Two coefficient backends are supported: "rational" (exact, a
lean `fractions.Fraction` subclass) and "complex" (IEEE double `complex`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import gcd
from numbers import Complex
from typing import Callable, Dict, Iterable, Tuple

from .errors import DomainError, ShapeError

Word = Tuple[int, ...]

RATIONAL = "rational"
COMPLEX = "complex"

# float coefficients below this are treated as stored zeros (denormal guard)
_FLOAT_DROP = 1e-300


class _Rational(Fraction):
    """The rational backend's stored coefficient, made by `_coerce`.  With
    both operands of this type, +, - and * run the gcd-reduced algorithms of
    `fractions` without `Fraction.__new__`; any other operand gets
    `Fraction`'s own operator.  ==, hash, ordering, str, bool and abs are
    inherited, so it equals and hashes like the `Fraction` of its value."""

    __slots__ = ()

    def __add__(a, b):
        if type(b) is not _Rational:
            return Fraction.__add__(a, b)
        na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
        g = gcd(da, db)
        if g == 1:
            return _from_coprime(na * db + da * nb, da * db)
        s = da // g
        t = na * (db // g) + nb * s
        g2 = gcd(t, g)
        if g2 == 1:
            return _from_coprime(t, s * db)
        return _from_coprime(t // g2, s * (db // g2))

    def __sub__(a, b):
        if type(b) is not _Rational:
            return Fraction.__sub__(a, b)
        return a + -b

    def __mul__(a, b):
        if type(b) is not _Rational:
            return Fraction.__mul__(a, b)
        na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
        g1 = gcd(na, db)
        if g1 > 1:
            na //= g1
            db //= g1
        g2 = gcd(nb, da)
        if g2 > 1:
            nb //= g2
            da //= g2
        return _from_coprime(na * nb, db * da)

    def __neg__(a):
        return _from_coprime(-a._numerator, a._denominator)


_new_object = object.__new__


def _from_coprime(numerator: int, denominator: int) -> _Rational:
    """numerator/denominator, already reduced, without `Fraction.__new__`."""
    out = _new_object(_Rational)
    out._numerator = numerator
    out._denominator = denominator
    return out


def _coerce(backend: str, value):
    """`value` as a stored coefficient of the backend, else `DomainError`;
    the common types are tested by identity, before any ABC check."""
    t = type(value)
    if backend == RATIONAL:
        if t is _Rational:
            return value
        if t is Fraction:
            return _from_coprime(value._numerator, value._denominator)
        if t is int:
            return _from_coprime(value, 1)
        if isinstance(value, (int, Fraction)):
            return _from_coprime(value.numerator, value.denominator)
        if isinstance(value, float) and value.is_integer():
            return _from_coprime(int(value), 1)
        raise DomainError(f"cannot coerce {value!r} into the rational backend")
    if backend == COMPLEX:
        if t is complex or t is float or t is int or isinstance(value, Complex):
            return complex(value)
        raise DomainError(f"cannot coerce {value!r} into the complex backend")
    raise DomainError(f"unknown backend {backend!r}")


def _accumulate(backend: str, pairs, terms=None) -> dict:
    """Add the (key, coefficient) pairs onto `terms` (a new dict if None),
    summing repeated keys, then drop the stored zeros; returns the dict.

    The one accumulation of internal results, whose keys are normal and
    within D by construction; outside input goes through the validating
    `_Sparse` constructor instead."""
    if terms is None:
        terms = {}
    get = terms.get
    for key, c in pairs:
        acc = get(key)
        terms[key] = c if acc is None else acc + c
    if backend == RATIONAL:
        dead = [k for k, c in terms.items() if not c]
    else:
        dead = [k for k, c in terms.items() if abs(c) < _FLOAT_DROP]
    for key in dead:
        del terms[key]
    return terms


def cyclic_min(word: Word) -> Word:
    """Lexicographically minimal rotation of a word."""
    if len(word) <= 1:
        return word
    return min(word[i:] + word[:i] for i in range(len(word)))


def word_sort_key(word: Word):
    return (len(word), word)


def _split_words(w: Word) -> Tuple[Tuple[Word, Word], ...]:
    """All coproduct splittings of a word into two ordered subsequences, in
    bitmask order (bit i sends letter i left): those of w[:-1] with the last
    letter put right, then left.  Words of up to 6 letters are memoized (at
    most 4096, of up to 64 splittings); a longer one is built on its prefix."""
    return _split_memo(w) if len(w) <= 6 else _split_build(w)


def _split_build(w: Word) -> Tuple[Tuple[Word, Word], ...]:
    if not w:
        return (((), ()),)
    head, x = _split_words(w[:-1]), w[-1:]
    return tuple((l, r + x) for l, r in head) + tuple((l + x, r) for l, r in head)


_split_memo = lru_cache(maxsize=4096)(_split_build)


class _Sparse:
    """Sparse truncated linear combination of keys, of total degree <= D.

    The one storage and zero policy of every container: a dict from normal
    key to coefficient, with terms above D dropped, repeated keys added and
    stored zeros deleted.  A subclass supplies the degree of a key (`_len`)
    and its normal form (`_normal`, returning the normal key and the
    coefficient, or None for a term that vanishes).  The constructor checks
    and normalizes outside input; a result whose keys are normal and within D
    by construction is summed by `_trusted` or `_like` instead.
    """

    __slots__ = ("n", "degree", "backend", "coeffs")

    _len = staticmethod(len)

    def __init__(self, n: int, degree: int, terms=None, backend: str = RATIONAL):
        if n < 1:
            raise DomainError("need at least one generator")
        if degree < 0:
            raise DomainError("truncation degree must be >= 0")
        self.n = n
        self.degree = degree
        self.backend = backend
        rational = backend == RATIONAL
        # one pass on purpose: via `_accumulate` it measured ~5% slower on `exact`
        coeffs: Dict[object, object] = {}
        if terms:
            for key, c in terms.items() if isinstance(terms, dict) else terms:
                if self._len(key) > degree:
                    continue
                term = self._normal(key, c)
                if term is None:
                    continue
                key, c = term
                c = _coerce(backend, c)
                acc = coeffs.get(key)
                c = c if acc is None else acc + c
                if (not c) if rational else abs(c) < _FLOAT_DROP:
                    coeffs.pop(key, None)
                else:
                    coeffs[key] = c
        self.coeffs = coeffs

    @classmethod
    def zero(cls, n, degree, backend=RATIONAL):
        return cls(n, degree, None, backend)

    @classmethod
    def _trusted(cls, n, degree, pairs, backend, terms=None):
        """The sum of `pairs` onto `terms` (`_accumulate`), skipping the
        constructor's checks: every key must be normal and within D."""
        out = cls.__new__(cls)
        out.n, out.degree, out.backend = n, degree, backend
        out.coeffs = _accumulate(backend, pairs, terms)
        return out

    def _like(self, pairs=(), terms=None):
        """Same shape, holding the sum of `pairs` onto `terms` (`_trusted`)."""
        return self._trusted(self.n, self.degree, pairs, self.backend, terms)

    def _check(self, other):
        if (type(self), self.n, self.degree, self.backend) != (
            type(other), other.n, other.degree, other.backend
        ):
            raise ShapeError(
                f"shapes differ: {type(self).__name__}({self.n},{self.degree},"
                f"{self.backend}) vs {type(other).__name__}({other.n},"
                f"{other.degree},{other.backend})"
            )

    def items(self):
        return self.coeffs.items()

    def is_zero(self) -> bool:
        return not self.coeffs

    def norm_inf(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def norm_through(self, degree: int) -> float:
        """Largest |coefficient| among the terms of total degree <= degree."""
        return max(
            (abs(c) for k, c in self.coeffs.items() if self._len(k) <= degree),
            default=0.0,
        )

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and (self.n, self.degree, self.backend) == (other.n, other.degree, other.backend)
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def allclose(self, other, tol: float) -> bool:
        self._check(other)
        return (self - other).norm_inf() <= tol

    def __repr__(self):
        keys = sorted(self.coeffs, key=lambda k: (self._len(k), k))
        body = " + ".join(f"({self.coeffs[k]})*{k}" for k in keys[:8]) or "0"
        tail = " + ..." if len(keys) > 8 else ""
        return f"{type(self).__name__}({body}{tail})"

    def __add__(self, other):
        self._check(other)
        return self._like(other.coeffs.items(), dict(self.coeffs))

    def __neg__(self):
        return self._like(terms={k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        self._check(other)
        negated = ((k, -c) for k, c in other.coeffs.items())
        return self._like(negated, dict(self.coeffs))

    def scale(self, scalar):
        s = _coerce(self.backend, scalar)
        return self._like(terms={k: c * s for k, c in self.coeffs.items()})

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def to_complex(self):
        if self.backend == COMPLEX:
            return self
        return type(self)(
            self.n, self.degree, {k: complex(c) for k, c in self.coeffs.items()}, COMPLEX
        )


def pair_len(key) -> int:
    """Total degree of a word-pair key."""
    return len(key[0]) + len(key[1])


def _graded_pairs(a: _Sparse, b: _Sparse, room: int):
    """Every pair of terms (ka, ca, kb, cb) of a and b whose key degrees sum
    to at most `room`, in the order of a's terms.

    The one scan behind every sparse bilinear product: products of keys are
    graded, so b's terms are sorted by degree once and the scan of each term
    of a stops at the first term of b that would put the pair above `room`.
    A product shifting the degree by s (a pairing that drops s letters) passes
    room = D + s.  For a fixed term of a, b's terms of one degree keep b's
    order.
    """
    deg_a, deg_b = a._len, b._len
    ordered = sorted(b.coeffs.items(), key=lambda kc: deg_b(kc[0]))
    degrees = [deg_b(kb) for kb, _ in ordered]
    for ka, ca in a.coeffs.items():
        for kb, cb in ordered[: bisect_right(degrees, room - deg_a(ka))]:
            yield ka, ca, kb, cb


class FreeSeries(_Sparse):
    """Sparse truncated noncommutative power series."""

    __slots__ = ()

    def _normal(self, word, c):
        word = tuple(word)
        if any(not (1 <= i <= self.n) for i in word):
            raise DomainError(f"word {word} has letters outside 1..{self.n}")
        return word, c

    # -- constructors -----------------------------------------------------
    @classmethod
    def unit(cls, n, degree, backend=RATIONAL, scalar=1):
        return cls(n, degree, {(): scalar}, backend)

    @classmethod
    def generator(cls, i, n, degree, backend=RATIONAL):
        if not (1 <= i <= n):
            raise DomainError(f"generator index {i} outside 1..{n}")
        return cls(n, degree, {(i,): 1}, backend)

    @classmethod
    def from_word(cls, word, n, degree, backend=RATIONAL):
        return cls(n, degree, {tuple(word): 1}, backend)

    def coefficient(self, word: Iterable[int]):
        c = self.coeffs.get(tuple(word))
        if c is None:
            return _coerce(self.backend, 0)
        return c

    # -- product ------------------------------------------------------------
    def __mul__(self, other):
        if not isinstance(other, _Sparse):
            return self.scale(other)
        self._check(other)
        return self._like(
            (wa + wb, ca * cb)
            for wa, ca, wb, cb in _graded_pairs(self, other, self.degree)
        )

    # -- Hopf structure -------------------------------------------------------
    def counit(self):
        return self.coefficient(())

    def coproduct(self) -> "TensorSeries":
        """Algebra-map extension of x_i -> x_i (x) 1 + 1 (x) x_i.

        On a word: sum over all splittings of the letter positions into two
        ordered subsequences.
        """
        terms = ((key, c) for w, c in self.coeffs.items() for key in _split_words(w))
        return TensorSeries._trusted(self.n, self.degree, terms, self.backend)

    def antipode(self) -> "FreeSeries":
        return self._like(
            (w[::-1], -c if len(w) % 2 else c) for w, c in self.coeffs.items()
        )

    # -- exp / log / inverse ---------------------------------------------------
    def _counit_is(self, value) -> bool:
        eps = self.counit()
        if self.backend == RATIONAL:
            return eps == value
        return abs(eps - value) <= 1e-12

    def _power_series(self, coeff) -> "FreeSeries":
        """sum_k coeff(k) * self^k through D by Horner's rule, for a series
        with counit 0; coeff(k) is a Fraction, which `scale` coerces to the
        backend.  self^k vanishes once k times the lowest degree of a
        nonconstant term exceeds D, so the sum stops there."""
        low = min((len(w) for w in self.coeffs if w), default=0)
        top = self.degree // low if low else 0
        unit = FreeSeries.unit(self.n, self.degree, self.backend)
        out = unit.scale(coeff(top))
        for k in range(top - 1, -1, -1):
            out = out * self + unit.scale(coeff(k))
        return out

    def exp(self) -> "FreeSeries":
        if not self._counit_is(0):
            raise DomainError("exp requires a series with zero counit")
        return self._power_series(lambda k: Fraction(1, math.factorial(k)))

    def log(self) -> "FreeSeries":
        if not self._counit_is(1):
            raise DomainError("log requires a series with counit one")
        u = self - FreeSeries.unit(self.n, self.degree, self.backend)
        return u._power_series(lambda k: Fraction((-1) ** (k + 1), k) if k else Fraction(0))

    def inverse(self) -> "FreeSeries":
        eps = self.counit()
        if (not eps) if self.backend == RATIONAL else abs(eps) < _FLOAT_DROP:
            raise DomainError("series with zero counit is not invertible")
        u = FreeSeries.unit(self.n, self.degree, self.backend) - self.scale(1 / eps)
        return u._power_series(lambda k: Fraction(1)).scale(1 / eps)

    def is_grouplike(self, tol: float) -> bool:
        if abs(self.counit() - 1) > tol:
            return False
        delta = self.coproduct()
        gg = TensorSeries.outer(self, self)
        return (delta - gg).norm_inf() <= tol

    # -- cyclic projection -------------------------------------------------------
    def cyclic_project(self) -> "CyclicSeries":
        return CyclicSeries(self.n, self.degree, self.coeffs, self.backend)

    # -- conversions / serialization ------------------------------------------
    def with_degree(self, degree: int) -> "FreeSeries":
        return FreeSeries(self.n, degree, dict(self.coeffs), self.backend)

    def to_json_dict(self) -> dict:
        terms = []
        for w in sorted(self.coeffs, key=word_sort_key):
            c = complex(self.coeffs[w])
            terms.append({"word": list(w), "re": c.real, "im": c.imag})
        return {"n": self.n, "degree": self.degree, "terms": terms}


def _monomial(word: Word, n: int, degree: int, backend: str) -> FreeSeries:
    """The word with coefficient 1 (zero above D), skipping the constructor's
    checks: its letters must lie in 1..n."""
    terms = {word: _coerce(backend, 1)} if len(word) <= degree else {}
    return FreeSeries._trusted(n, degree, (), backend, terms)


class TensorSeries(_Sparse):
    """Sparse truncated element of A (x) A, keyed by word pairs."""

    __slots__ = ()

    _len = staticmethod(pair_len)

    def _normal(self, key, c):
        return (tuple(key[0]), tuple(key[1])), c

    @classmethod
    def unit(cls, n, degree, backend=RATIONAL):
        return cls(n, degree, {((), ()): 1}, backend)

    @classmethod
    def outer(cls, a: FreeSeries, b: FreeSeries) -> "TensorSeries":
        a._check(b)
        terms = (
            ((wa, wb), ca * cb) for wa, ca, wb, cb in _graded_pairs(a, b, a.degree)
        )
        return cls._trusted(a.n, a.degree, terms, a.backend)

    def __mul__(self, other):
        if not isinstance(other, _Sparse):
            return self.scale(other)
        self._check(other)
        return self._like(
            ((a1 + a2, b1 + b2), c1 * c2)
            for (a1, b1), c1, (a2, b2), c2 in _graded_pairs(self, other, self.degree)
        )

    def swap(self) -> "TensorSeries":
        return self._like(terms={(b, a): c for (a, b), c in self.coeffs.items()})

    def eps_left(self) -> FreeSeries:
        """Apply the counit to the first slot, keeping the second."""
        terms = ((b, c) for (a, b), c in self.coeffs.items() if not a)
        return FreeSeries._trusted(self.n, self.degree, terms, self.backend)

    def eps_right(self) -> FreeSeries:
        terms = ((a, c) for (a, b), c in self.coeffs.items() if not b)
        return FreeSeries._trusted(self.n, self.degree, terms, self.backend)

    def multiply_legs(self) -> FreeSeries:
        """Concatenate the two legs of every term (the m: A(x)A -> A map)."""
        terms = ((a + b, c) for (a, b), c in self.coeffs.items())
        return FreeSeries._trusted(self.n, self.degree, terms, self.backend)

    def map_left(self, f: Callable[[FreeSeries], FreeSeries]) -> "TensorSeries":
        """Apply a linear map (given on series) to the first slot."""
        n, D, backend = self.n, self.degree, self.backend
        terms = (
            ((wa, b), c * ca)
            for (a, b), c in self.coeffs.items()
            for wa, ca in f(_monomial(a, n, D, backend)).coeffs.items()
        )
        return TensorSeries(n, D, terms, backend)

    def map_right(self, f: Callable[[FreeSeries], FreeSeries]) -> "TensorSeries":
        n, D, backend = self.n, self.degree, self.backend
        terms = (
            ((a, wb), c * cb)
            for (a, b), c in self.coeffs.items()
            for wb, cb in f(_monomial(b, n, D, backend)).coeffs.items()
        )
        return TensorSeries(n, D, terms, backend)


class CyclicSeries(_Sparse):
    """Linear combination of cyclic words (the trace quotient of A)."""

    __slots__ = ()

    def _normal(self, word, c):
        return cyclic_min(tuple(word)), c

    def cyclic_project(self) -> "CyclicSeries":
        return self
