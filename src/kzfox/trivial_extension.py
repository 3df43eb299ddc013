"""Square-zero extension of the two-sided tensor algebra by a bimodule.

Elements live in (A tensor A) + M, where A is the truncated free series
algebra and M is a copy of A viewed as an (A tensor A)-bimodule with action

    (f tensor g) . m . (h tensor k) = eps(f) eps(k) g m h.

An element is the dataclass ``TrivExtElement`` of the two parts, which share
one shape (n, D, backend); it compares by value and is unhashable.

The product twists the M component by the 2-cocycle of the adjacent-letter
Fox pairing rho_kks:

    (t1 + m1)(t2 + m2) = t1 t2 + [t1 . m2 + m1 . t2 + rho_kks(t1, t2)].

On top of that sit the three generator families of the relevant
infinitesimal-braid quotient (two strands distinguished among n fixed ones),
represented only through their images here: the maps ``delta_z``,
``delta_w``, ``delta_zw`` extend generator assignments multiplicatively, and
the ``square_*`` composites project their M components, recovering Fox
derivatives and the adjacent-letter contraction.

This is the exact construction, one extension product per word.  The
numeric pentagon check uses the closed forms it recovers (see
``kz_holonomy.pentagon_projection_check``); the exact identity suite checks
the square maps against them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefficients import r_zeta_series
from .errors import ShapeError, ValidationError
from .fox_calculus import rho_kks
from .free_hopf import FreeSeries, TensorSeries

SIDE_LEFT = "left"
SIDE_RIGHT = "right"


@dataclass(frozen=True)
class DKGenerator:
    """One of the distinguished generators: kind 'z' or 'w' carries an index
    into 1..n, kind 'zw' is the single crossed generator."""

    kind: str
    index: int = 0

    def __post_init__(self):
        if self.kind not in ("z", "w", "zw"):
            raise ValidationError(f"unknown generator kind {self.kind!r}")
        if self.kind in ("z", "w") and self.index < 1:
            raise ValidationError("generator index must be >= 1")


def gen_z(i: int) -> DKGenerator:
    return DKGenerator("z", i)


def gen_w(i: int) -> DKGenerator:
    return DKGenerator("w", i)


GEN_ZW = DKGenerator("zw")


@dataclass(slots=True)
class TrivExtElement:
    """An element tensor_part + m_part of (A tensor A) + M."""

    tensor_part: TensorSeries
    m_part: FreeSeries

    def __post_init__(self):
        t, m = self.tensor_part, self.m_part
        if (t.n, t.degree, t.backend) != (m.n, m.degree, m.backend):
            raise ShapeError("tensor_part and m_part have mismatched shapes")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n, degree, backend) -> "TrivExtElement":
        return cls.from_tensor(TensorSeries.zero(n, degree, backend))

    @classmethod
    def unit(cls, n, degree, backend) -> "TrivExtElement":
        return cls.from_tensor(TensorSeries.unit(n, degree, backend))

    @classmethod
    def from_tensor(cls, t: TensorSeries) -> "TrivExtElement":
        return cls(t, FreeSeries.zero(t.n, t.degree, t.backend))

    @classmethod
    def from_m(cls, m: FreeSeries) -> "TrivExtElement":
        return cls(TensorSeries.zero(m.n, m.degree, m.backend), m)

    @classmethod
    def m_unit(cls, n, degree, backend, scalar=1) -> "TrivExtElement":
        """The element e: zero tensor part, unit of A sitting in M."""
        return cls.from_m(FreeSeries.unit(n, degree, backend, scalar))

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "TrivExtElement") -> "TrivExtElement":
        return TrivExtElement(
            self.tensor_part + other.tensor_part, self.m_part + other.m_part
        )

    def __sub__(self, other: "TrivExtElement") -> "TrivExtElement":
        return TrivExtElement(
            self.tensor_part - other.tensor_part, self.m_part - other.m_part
        )

    def is_zero(self) -> bool:
        return self.tensor_part.is_zero() and self.m_part.is_zero()


def trivext_mul(u: TrivExtElement, v: TrivExtElement) -> TrivExtElement:
    """Product with the rho_kks 2-cocycle twist on the M component."""
    u.m_part._check(v.m_part)
    tensor = u.tensor_part * v.tensor_part
    left = u.tensor_part.eps_left()
    right = v.tensor_part.eps_right()
    m = left * v.m_part + u.m_part * right + rho_kks(left, right)
    return TrivExtElement(tensor, m)


# -- the projection of the distinguished generators ------------------------


def pi_generator(g: DKGenerator, n: int, degree: int, backend) -> TrivExtElement:
    """Generator images: z-family -> x_i tensor 1, w-family -> 1 tensor x_i,
    the crossed generator -> minus the M unit."""
    if g.kind == "zw":
        return TrivExtElement.m_unit(n, degree, backend, -1)
    if g.index > n:
        raise ValidationError(f"generator index {g.index} exceeds n={n}")
    x = FreeSeries.generator(g.index, n, degree, backend)
    one = FreeSeries.unit(n, degree, backend)
    if g.kind == "z":
        return TrivExtElement.from_tensor(TensorSeries.outer(x, one))
    return TrivExtElement.from_tensor(TensorSeries.outer(one, x))


def pi(word, n: int, degree: int, backend) -> TrivExtElement:
    """Multiplicative extension of the generator assignment to a word (an
    iterable of DKGenerator)."""
    out = TrivExtElement.unit(n, degree, backend)
    for g in word:
        out = trivext_mul(out, pi_generator(g, n, degree, backend))
    return out


# -- the three coproduct-like algebra maps ---------------------------------


def _algebra_map(a: FreeSeries, images) -> TrivExtElement:
    """Extend generator images multiplicatively and linearly to the series a.

    images: list indexed by generator (1-based) of TrivExtElement.
    """
    n, D, backend = a.n, a.degree, a.backend
    cache: dict = {(): TrivExtElement.unit(n, D, backend)}

    def image_of_word(w):
        hit = cache.get(w)
        if hit is not None:
            return hit
        val = trivext_mul(image_of_word(w[:-1]), images[w[-1]])
        cache[w] = val
        return val

    # one accumulation per part: adding scaled images one by one would
    # rescan the running sum for every word
    scaled = [(image_of_word(w), c) for w, c in a.items()]
    tensor = TensorSeries._trusted(
        n, D, ((k, t * c) for im, c in scaled for k, t in im.tensor_part.items()),
        backend,
    )
    m = FreeSeries._trusted(
        n, D, ((k, t * c) for im, c in scaled for k, t in im.m_part.items()),
        backend,
    )
    return TrivExtElement(tensor, m)


def _delta(a: FreeSeries, families, marked: int | None = None) -> TrivExtElement:
    """The algebra map sending x_i to the images of family(i) for each given
    generator family, plus the crossed generator's image when i == marked."""
    n, D, b = a.n, a.degree, a.backend
    if marked is not None and not 1 <= marked <= n:
        raise ValidationError(f"index {marked} out of range 1..{n}")

    def image(i):
        gens = [f(i) for f in families] + ([GEN_ZW] if i == marked else [])
        zero = TrivExtElement.zero(n, D, b)
        return sum((pi_generator(g, n, D, b) for g in gens), zero)

    return _algebra_map(a, [None] + [image(i) for i in range(1, n + 1)])


def delta_z(q: int, a: FreeSeries) -> TrivExtElement:
    """x_i -> (x_i tensor 1) + delta_{iq} (minus the M unit)."""
    return _delta(a, (gen_z,), q)


def delta_w(p: int, a: FreeSeries) -> TrivExtElement:
    """x_i -> (1 tensor x_i) + delta_{ip} (minus the M unit)."""
    return _delta(a, (gen_w,), p)


def delta_zw(a: FreeSeries) -> TrivExtElement:
    """x_i -> (x_i tensor 1) + (1 tensor x_i); tensor part is the coproduct."""
    return _delta(a, (gen_z, gen_w))


# The square maps are the M components of the delta maps read through the
# mirror identification M -> M, m -> -m (equivalently: the same composites
# built from the opposite-sign cocycle and crossed generator -> +e, which is
# the convention the downstream doubling identities are stated in).  With
# this reading square_z is the right Fox derivative, square_w the left one,
# and square_zw is minus the adjacent-letter contraction.


def square_z(q: int, a: FreeSeries) -> FreeSeries:
    return -delta_z(q, a).m_part


def square_w(p: int, a: FreeSeries) -> FreeSeries:
    return -delta_w(p, a).m_part


def square_zw(a: FreeSeries) -> FreeSeries:
    return -delta_zw(a).m_part


def associator_tail(side: str, puncture: int, degree: int, n: int) -> FreeSeries:
    """M component of the two associator corner terms in the pentagon
    projection: 'left' gives minus the zeta series at x_q, 'right' gives the
    zeta series at minus x_p. Float backend only."""
    if side == SIDE_LEFT:
        return -r_zeta_series(puncture, degree, n)
    if side == SIDE_RIGHT:
        return r_zeta_series(puncture, degree, n, negate_variable=True)
    raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
