"""Degree-truncated free associative algebra with its Hopf structure.

Series live in K<<x_1, ..., x_n>> cut at total degree D.  Words are tuples of
generator indices in 1..n; the empty tuple is the unit monomial.  Every
operation re-truncates its result to D (degrees above D are meaningless here,
by design).  Two coefficient backends are supported: "rational" (exact
`fractions.Fraction`) and "complex" (IEEE double `complex`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterable, Tuple

from .errors import DomainError, ShapeError

Word = Tuple[int, ...]

RATIONAL = "rational"
COMPLEX = "complex"

# float coefficients below this are treated as stored zeros (denormal guard)
_FLOAT_DROP = 1e-300


def _coerce(backend: str, value):
    if backend == RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float) and value.is_integer():
            return Fraction(int(value))
        raise DomainError(f"cannot coerce {value!r} into the rational backend")
    if backend == COMPLEX:
        return complex(value)
    raise DomainError(f"unknown backend {backend!r}")


def _is_stored_zero(backend: str, c) -> bool:
    if backend == RATIONAL:
        return c == 0
    return abs(c) < _FLOAT_DROP


def cyclic_min(word: Word) -> Word:
    """Lexicographically minimal rotation of a word."""
    if len(word) <= 1:
        return word
    return min(word[i:] + word[:i] for i in range(len(word)))


def word_sort_key(word: Word):
    return (len(word), word)


class FreeSeries:
    """Sparse truncated noncommutative power series."""

    __slots__ = ("n", "degree", "backend", "coeffs")

    def __init__(self, n: int, degree: int, terms=None, backend: str = RATIONAL):
        if n < 1:
            raise DomainError("need at least one generator")
        if degree < 0:
            raise DomainError("truncation degree must be >= 0")
        self.n = n
        self.degree = degree
        self.backend = backend
        coeffs: Dict[Word, object] = {}
        if terms:
            for word, c in terms.items() if isinstance(terms, dict) else terms:
                word = tuple(word)
                if len(word) > degree:
                    continue
                if any(not (1 <= i <= n) for i in word):
                    raise DomainError(f"word {word} has letters outside 1..{n}")
                c = _coerce(backend, c)
                acc = coeffs.get(word)
                c = c if acc is None else acc + c
                if _is_stored_zero(backend, c):
                    coeffs.pop(word, None)
                else:
                    coeffs[word] = c
        self.coeffs = coeffs

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, n, degree, backend=RATIONAL):
        return cls(n, degree, None, backend)

    @classmethod
    def unit(cls, n, degree, backend=RATIONAL, scalar=1):
        return cls(n, degree, {(): scalar}, backend)

    @classmethod
    def generator(cls, i, n, degree, backend=RATIONAL):
        if not (1 <= i <= n):
            raise DomainError(f"generator index {i} outside 1..{n}")
        return cls(n, degree, {(i,): 1}, backend)

    @classmethod
    def from_word(cls, word, n, degree, backend=RATIONAL, coeff=1):
        return cls(n, degree, {tuple(word): coeff}, backend)

    # -- plumbing ----------------------------------------------------------
    def _like(self, terms):
        out = FreeSeries.zero(self.n, self.degree, self.backend)
        coeffs = {}
        for w, c in terms.items():
            if len(w) <= self.degree and not _is_stored_zero(self.backend, c):
                coeffs[w] = c
        out.coeffs = coeffs
        return out

    def _check(self, other: "FreeSeries"):
        if (self.n, self.degree, self.backend) != (other.n, other.degree, other.backend):
            raise ShapeError(
                f"series shapes differ: ({self.n},{self.degree},{self.backend}) vs "
                f"({other.n},{other.degree},{other.backend})"
            )

    def coefficient(self, word: Iterable[int]):
        c = self.coeffs.get(tuple(word))
        if c is None:
            return _coerce(self.backend, 0)
        return c

    def items(self):
        return self.coeffs.items()

    def is_zero(self) -> bool:
        return not self.coeffs

    def norm_inf(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(abs(c) for c in self.coeffs.values())

    def __eq__(self, other):
        return (
            isinstance(other, FreeSeries)
            and (self.n, self.degree, self.backend) == (other.n, other.degree, other.backend)
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def allclose(self, other: "FreeSeries", tol: float) -> bool:
        self._check(other)
        return (self - other).norm_inf() <= tol

    def __repr__(self):
        if not self.coeffs:
            return "FreeSeries(0)"
        bits = []
        for w in sorted(self.coeffs, key=word_sort_key)[:8]:
            name = "1" if not w else "*".join(f"x{i}" for i in w)
            bits.append(f"({self.coeffs[w]})*{name}")
        tail = " + ..." if len(self.coeffs) > 8 else ""
        return "FreeSeries(" + " + ".join(bits) + tail + ")"

    # -- linear structure ---------------------------------------------------
    def __add__(self, other):
        self._check(other)
        terms = dict(self.coeffs)
        for w, c in other.coeffs.items():
            acc = terms.get(w)
            c = c if acc is None else acc + c
            if _is_stored_zero(self.backend, c):
                terms.pop(w, None)
            else:
                terms[w] = c
        return self._like(terms)

    def __neg__(self):
        return self._like({w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        s = _coerce(self.backend, scalar)
        if _is_stored_zero(self.backend, s):
            return FreeSeries.zero(self.n, self.degree, self.backend)
        return self._like({w: c * s for w, c in self.coeffs.items()})

    def __rmul__(self, scalar):
        return self.scale(scalar)

    # -- product ------------------------------------------------------------
    def __mul__(self, other):
        if not isinstance(other, FreeSeries):
            return self.scale(other)
        self._check(other)
        D = self.degree
        terms: Dict[Word, object] = {}
        for wa, ca in self.coeffs.items():
            la = len(wa)
            for wb, cb in other.coeffs.items():
                if la + len(wb) > D:
                    continue
                w = wa + wb
                c = ca * cb
                acc = terms.get(w)
                terms[w] = c if acc is None else acc + c
        return self._like(terms)

    # -- Hopf structure -------------------------------------------------------
    def counit(self):
        return self.coefficient(())

    def coproduct(self) -> "TensorSeries":
        """Algebra-map extension of x_i -> x_i (x) 1 + 1 (x) x_i.

        On a word: sum over all splittings of the letter positions into two
        ordered subsequences.
        """
        terms: Dict[Tuple[Word, Word], object] = {}
        for w, c in self.coeffs.items():
            m = len(w)
            for mask in range(1 << m):
                left = tuple(w[i] for i in range(m) if mask >> i & 1)
                right = tuple(w[i] for i in range(m) if not (mask >> i & 1))
                key = (left, right)
                acc = terms.get(key)
                terms[key] = c if acc is None else acc + c
        return TensorSeries(self.n, self.degree, terms, self.backend)

    def antipode(self) -> "FreeSeries":
        terms: Dict[Word, object] = {}
        for w, c in self.coeffs.items():
            rw = w[::-1]
            c = c if len(w) % 2 == 0 else -c
            acc = terms.get(rw)
            terms[rw] = c if acc is None else acc + c
        return self._like(terms)

    # -- exp / log / inverse ---------------------------------------------------
    def _counit_is(self, value) -> bool:
        eps = self.counit()
        if self.backend == RATIONAL:
            return eps == value
        return abs(eps - value) <= 1e-12

    def exp(self) -> "FreeSeries":
        if not self._counit_is(0):
            raise DomainError("exp requires a series with zero counit")
        out = FreeSeries.unit(self.n, self.degree, self.backend)
        term = FreeSeries.unit(self.n, self.degree, self.backend)
        for k in range(1, self.degree + 1):
            inv_k = Fraction(1, k) if self.backend == RATIONAL else 1.0 / k
            term = (term * self).scale(inv_k)
            if term.is_zero():
                break
            out = out + term
        return out

    def log(self) -> "FreeSeries":
        if not self._counit_is(1):
            raise DomainError("log requires a series with counit one")
        u = self - FreeSeries.unit(self.n, self.degree, self.backend)
        out = FreeSeries.zero(self.n, self.degree, self.backend)
        term = FreeSeries.unit(self.n, self.degree, self.backend)
        for k in range(1, self.degree + 1):
            term = term * u
            if term.is_zero():
                break
            sign = 1 if k % 2 == 1 else -1
            inv_k = Fraction(sign, k) if self.backend == RATIONAL else sign / k
            out = out + term.scale(inv_k)
        return out

    def inverse(self) -> "FreeSeries":
        eps = self.counit()
        if _is_stored_zero(self.backend, eps):
            raise DomainError("series with zero counit is not invertible")
        inv_eps = (
            Fraction(1, 1) / eps if self.backend == RATIONAL else 1.0 / eps
        )
        g = self.scale(inv_eps)  # counit one
        u = FreeSeries.unit(self.n, self.degree, self.backend) - g
        out = FreeSeries.unit(self.n, self.degree, self.backend)
        term = FreeSeries.unit(self.n, self.degree, self.backend)
        for _ in range(self.degree):
            term = term * u
            if term.is_zero():
                break
            out = out + term
        return out.scale(inv_eps)

    def is_grouplike(self, tol: float) -> bool:
        if abs(self.counit() - 1) > tol:
            return False
        delta = self.coproduct()
        gg = TensorSeries.outer(self, self)
        return (delta - gg).norm_inf() <= tol

    # -- cyclic projection -------------------------------------------------------
    def cyclic_project(self) -> "CyclicSeries":
        terms: Dict[Word, object] = {}
        for w, c in self.coeffs.items():
            k = cyclic_min(w)
            acc = terms.get(k)
            terms[k] = c if acc is None else acc + c
        return CyclicSeries(self.n, self.degree, terms, self.backend)

    # -- conversions / serialization ------------------------------------------
    def to_complex(self) -> "FreeSeries":
        if self.backend == COMPLEX:
            return self
        return FreeSeries(
            self.n, self.degree, {w: complex(c) for w, c in self.coeffs.items()}, COMPLEX
        )

    def with_degree(self, degree: int) -> "FreeSeries":
        return FreeSeries(self.n, degree, dict(self.coeffs), self.backend)

    def to_json_dict(self) -> dict:
        terms = []
        for w in sorted(self.coeffs, key=word_sort_key):
            c = complex(self.coeffs[w])
            terms.append({"word": list(w), "re": c.real, "im": c.imag})
        return {"n": self.n, "degree": self.degree, "terms": terms}


class TensorSeries:
    """Sparse truncated element of A (x) A, keyed by word pairs."""

    __slots__ = ("n", "degree", "backend", "coeffs")

    def __init__(self, n, degree, terms=None, backend=RATIONAL):
        self.n = n
        self.degree = degree
        self.backend = backend
        coeffs: Dict[Tuple[Word, Word], object] = {}
        if terms:
            for key, c in terms.items() if isinstance(terms, dict) else terms:
                w1, w2 = tuple(key[0]), tuple(key[1])
                if len(w1) + len(w2) > degree:
                    continue
                c = _coerce(backend, c)
                acc = coeffs.get((w1, w2))
                c = c if acc is None else acc + c
                if _is_stored_zero(backend, c):
                    coeffs.pop((w1, w2), None)
                else:
                    coeffs[(w1, w2)] = c
        self.coeffs = coeffs

    @classmethod
    def zero(cls, n, degree, backend=RATIONAL):
        return cls(n, degree, None, backend)

    @classmethod
    def unit(cls, n, degree, backend=RATIONAL, scalar=1):
        return cls(n, degree, {((), ()): scalar}, backend)

    @classmethod
    def outer(cls, a: FreeSeries, b: FreeSeries) -> "TensorSeries":
        a._check(b)
        terms = {}
        for wa, ca in a.coeffs.items():
            for wb, cb in b.coeffs.items():
                if len(wa) + len(wb) <= a.degree:
                    key = (wa, wb)
                    c = ca * cb
                    acc = terms.get(key)
                    terms[key] = c if acc is None else acc + c
        return cls(a.n, a.degree, terms, a.backend)

    def _like(self, terms):
        out = TensorSeries.zero(self.n, self.degree, self.backend)
        coeffs = {}
        for key, c in terms.items():
            if len(key[0]) + len(key[1]) <= self.degree and not _is_stored_zero(
                self.backend, c
            ):
                coeffs[key] = c
        out.coeffs = coeffs
        return out

    def _check(self, other: "TensorSeries"):
        if (self.n, self.degree, self.backend) != (other.n, other.degree, other.backend):
            raise ShapeError("tensor series shapes differ")

    def items(self):
        return self.coeffs.items()

    def is_zero(self):
        return not self.coeffs

    def norm_inf(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(abs(c) for c in self.coeffs.values())

    def __eq__(self, other):
        return (
            isinstance(other, TensorSeries)
            and (self.n, self.degree, self.backend) == (other.n, other.degree, other.backend)
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def allclose(self, other: "TensorSeries", tol: float) -> bool:
        self._check(other)
        return (self - other).norm_inf() <= tol

    def __repr__(self):
        return f"TensorSeries({len(self.coeffs)} terms, n={self.n}, D={self.degree})"

    def __add__(self, other):
        self._check(other)
        terms = dict(self.coeffs)
        for key, c in other.coeffs.items():
            acc = terms.get(key)
            c = c if acc is None else acc + c
            if _is_stored_zero(self.backend, c):
                terms.pop(key, None)
            else:
                terms[key] = c
        return self._like(terms)

    def __neg__(self):
        return self._like({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        s = _coerce(self.backend, scalar)
        return self._like({k: c * s for k, c in self.coeffs.items()})

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __mul__(self, other):
        if not isinstance(other, TensorSeries):
            return self.scale(other)
        self._check(other)
        D = self.degree
        terms: Dict[Tuple[Word, Word], object] = {}
        for (a1, b1), c1 in self.coeffs.items():
            for (a2, b2), c2 in other.coeffs.items():
                if len(a1) + len(b1) + len(a2) + len(b2) > D:
                    continue
                key = (a1 + a2, b1 + b2)
                c = c1 * c2
                acc = terms.get(key)
                terms[key] = c if acc is None else acc + c
        return self._like(terms)

    def swap(self) -> "TensorSeries":
        return self._like({(b, a): c for (a, b), c in self.coeffs.items()})

    def eps_left(self) -> FreeSeries:
        """Apply the counit to the first slot, keeping the second."""
        terms: Dict[Word, object] = {}
        for (a, b), c in self.coeffs.items():
            if not a:
                acc = terms.get(b)
                terms[b] = c if acc is None else acc + c
        return FreeSeries(self.n, self.degree, terms, self.backend)

    def eps_right(self) -> FreeSeries:
        terms: Dict[Word, object] = {}
        for (a, b), c in self.coeffs.items():
            if not b:
                acc = terms.get(a)
                terms[a] = c if acc is None else acc + c
        return FreeSeries(self.n, self.degree, terms, self.backend)

    def multiply_legs(self) -> FreeSeries:
        """Concatenate the two legs of every term (the m: A(x)A -> A map)."""
        terms: Dict[Word, object] = {}
        for (a, b), c in self.coeffs.items():
            w = a + b
            acc = terms.get(w)
            terms[w] = c if acc is None else acc + c
        return FreeSeries(self.n, self.degree, terms, self.backend)

    def map_left(self, f: Callable[[FreeSeries], FreeSeries]) -> "TensorSeries":
        """Apply a linear map (given on series) to the first slot."""
        out = TensorSeries.zero(self.n, self.degree, self.backend)
        for (a, b), c in self.coeffs.items():
            fa = f(FreeSeries.from_word(a, self.n, self.degree, self.backend))
            for wa, ca in fa.coeffs.items():
                out = out + TensorSeries(
                    self.n, self.degree, {(wa, b): c * ca}, self.backend
                )
        return out

    def map_right(self, f: Callable[[FreeSeries], FreeSeries]) -> "TensorSeries":
        out = TensorSeries.zero(self.n, self.degree, self.backend)
        for (a, b), c in self.coeffs.items():
            fb = f(FreeSeries.from_word(b, self.n, self.degree, self.backend))
            for wb, cb in fb.coeffs.items():
                out = out + TensorSeries(
                    self.n, self.degree, {(a, wb): c * cb}, self.backend
                )
        return out

    def to_complex(self) -> "TensorSeries":
        if self.backend == COMPLEX:
            return self
        return TensorSeries(
            self.n, self.degree, {k: complex(c) for k, c in self.coeffs.items()}, COMPLEX
        )

    def to_json_dict(self) -> dict:
        terms = []
        for (a, b) in sorted(
            self.coeffs, key=lambda k: (len(k[0]) + len(k[1]), k[0], k[1])
        ):
            c = complex(self.coeffs[(a, b)])
            terms.append(
                {"word_left": list(a), "word_right": list(b), "re": c.real, "im": c.imag}
            )
        return {"n": self.n, "degree": self.degree, "terms": terms}


class CyclicSeries:
    """Linear combination of cyclic words (the trace quotient of A)."""

    __slots__ = ("n", "degree", "backend", "coeffs")

    def __init__(self, n, degree, terms=None, backend=RATIONAL):
        self.n = n
        self.degree = degree
        self.backend = backend
        coeffs: Dict[Word, object] = {}
        if terms:
            for w, c in terms.items() if isinstance(terms, dict) else terms:
                w = cyclic_min(tuple(w))
                if len(w) > degree:
                    continue
                c = _coerce(backend, c)
                acc = coeffs.get(w)
                c = c if acc is None else acc + c
                if _is_stored_zero(backend, c):
                    coeffs.pop(w, None)
                else:
                    coeffs[w] = c
        self.coeffs = coeffs

    @classmethod
    def zero(cls, n, degree, backend=RATIONAL):
        return cls(n, degree, None, backend)

    def _check(self, other):
        if (self.n, self.degree, self.backend) != (other.n, other.degree, other.backend):
            raise ShapeError("cyclic series shapes differ")

    def items(self):
        return self.coeffs.items()

    def is_zero(self):
        return not self.coeffs

    def norm_inf(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(abs(c) for c in self.coeffs.values())

    def __add__(self, other):
        self._check(other)
        terms = dict(self.coeffs)
        for w, c in other.coeffs.items():
            acc = terms.get(w)
            c = c if acc is None else acc + c
            if _is_stored_zero(self.backend, c):
                terms.pop(w, None)
            else:
                terms[w] = c
        out = CyclicSeries.zero(self.n, self.degree, self.backend)
        out.coeffs = terms
        return out

    def __neg__(self):
        out = CyclicSeries.zero(self.n, self.degree, self.backend)
        out.coeffs = {w: -c for w, c in self.coeffs.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        s = _coerce(self.backend, scalar)
        out = CyclicSeries.zero(self.n, self.degree, self.backend)
        if not _is_stored_zero(self.backend, s):
            out.coeffs = {
                w: c * s
                for w, c in self.coeffs.items()
                if not _is_stored_zero(self.backend, c * s)
            }
        return out

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __eq__(self, other):
        return (
            isinstance(other, CyclicSeries)
            and (self.n, self.degree, self.backend) == (other.n, other.degree, other.backend)
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def allclose(self, other, tol: float) -> bool:
        self._check(other)
        return (self - other).norm_inf() <= tol

    def __repr__(self):
        return f"CyclicSeries({len(self.coeffs)} terms, n={self.n}, D={self.degree})"
