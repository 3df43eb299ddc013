"""Square-zero extension of the two-sided tensor algebra by a bimodule.

Elements live in (A tensor A) + M, where A is the truncated free series
algebra and M is a copy of A viewed as an (A tensor A)-bimodule with action

    (f tensor g) . m . (h tensor k) = eps(f) eps(k) g m h.

An element is the dataclass ``TrivExtElement`` of the two parts, which share
one shape (n, D, backend); it compares by value and is unhashable.

The product twists the M component by the 2-cocycle of the adjacent-letter
Fox pairing rho_kks:

    (t1 + m1)(t2 + m2) = t1 t2 + [t1 . m2 + m1 . t2 + rho_kks(t1, t2)].

The projection of the generalized pentagon equation (AFR2024) sends the
distinguished generators of the infinitesimal-braid quotient (two strands
among n fixed ones) to one table of images, ``generator_images``: t_iz to
x_i tensor 1, t_iw to 1 tensor x_i, and the crossed generator to -e, minus
the unit of A sitting in M.  The maps ``delta_z``, ``delta_w``, ``delta_zw``
extend images read from that table multiplicatively, and the ``square_*``
composites project their M components, recovering Fox derivatives and the
adjacent-letter contraction.  The corner terms of the projection are the
zeta series of ``coefficients.r_zeta_series``: minus the series at x_q on
the left, the series at -x_p on the right.

This is the exact construction, one extension product per word.  The
numeric pentagon check uses the closed forms it recovers (see
``kz_holonomy.pentagon_projection_check``); the exact identity suite checks
the square maps against them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeError, ValidationError
from .fox_calculus import rho_kks
from .free_hopf import FreeSeries, TensorSeries


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
    def unit(cls, n, degree, backend) -> "TrivExtElement":
        return cls.from_tensor(TensorSeries.unit(n, degree, backend))

    @classmethod
    def from_tensor(cls, t: TensorSeries) -> "TrivExtElement":
        return cls(t, FreeSeries.zero(t.n, t.degree, t.backend))

    @classmethod
    def from_m(cls, m: FreeSeries) -> "TrivExtElement":
        return cls(TensorSeries.zero(m.n, m.degree, m.backend), m)

    @classmethod
    def m_unit(cls, n, degree, backend) -> "TrivExtElement":
        """The element e: zero tensor part, unit of A sitting in M."""
        return cls.from_m(FreeSeries.unit(n, degree, backend))

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


_IMAGES: dict = {}


def generator_images(n: int, degree: int, backend) -> tuple:
    """(z, w, crossed): the tuples z[i-1] = x_i tensor 1 and w[i-1] = 1 tensor
    x_i, both with a zero M part, and crossed = -e, minus the M unit.  Built
    once per shape and shared, so the elements must not be mutated."""
    shape = (n, degree, backend)
    if shape not in _IMAGES:
        one = FreeSeries.unit(n, degree, backend)
        xs = [FreeSeries.generator(i, n, degree, backend) for i in range(1, n + 1)]
        z = tuple(TrivExtElement.from_tensor(TensorSeries.outer(x, one)) for x in xs)
        w = tuple(TrivExtElement.from_tensor(TensorSeries.outer(one, x)) for x in xs)
        _IMAGES[shape] = z, w, TrivExtElement.from_m(-one)
    return _IMAGES[shape]


# -- the three coproduct-like algebra maps ---------------------------------


def _algebra_map(a: FreeSeries, images) -> TrivExtElement:
    """Extend generator images multiplicatively and linearly to the series a.

    images: sequence indexed by generator (1-based) of TrivExtElement.
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


def _marked(images, marked: int, crossed: TrivExtElement) -> list:
    """The image list of `_algebra_map`: images[i-1] at x_i, plus the crossed
    image at x_marked."""
    n = len(images)
    if not 1 <= marked <= n:
        raise ValidationError(f"index {marked} out of range 1..{n}")
    return [None] + [im + crossed if i == marked else im for i, im in enumerate(images, 1)]


def delta_z(q: int, a: FreeSeries) -> TrivExtElement:
    """x_i -> (x_i tensor 1) + delta_{iq} (minus the M unit)."""
    z, _, crossed = generator_images(a.n, a.degree, a.backend)
    return _algebra_map(a, _marked(z, q, crossed))


def delta_w(p: int, a: FreeSeries) -> TrivExtElement:
    """x_i -> (1 tensor x_i) + delta_{ip} (minus the M unit)."""
    _, w, crossed = generator_images(a.n, a.degree, a.backend)
    return _algebra_map(a, _marked(w, p, crossed))


def delta_zw(a: FreeSeries) -> TrivExtElement:
    """x_i -> (x_i tensor 1) + (1 tensor x_i); tensor part is the coproduct."""
    z, w, _ = generator_images(a.n, a.degree, a.backend)
    return _algebra_map(a, [None] + [u + v for u, v in zip(z, w)])


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
