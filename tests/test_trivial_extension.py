"""Square-zero extension of the tensor-square algebra and the projected
coproduct-like maps."""

from fractions import Fraction

import pytest

from kzfox import (
    FreeSeries,
    RATIONAL,
    COMPLEX,
    TensorSeries,
    TrivExtElement,
    d_left,
    d_right,
    gen_w,
    gen_z,
    mu_bar_kks,
    pi,
    square_w,
    square_z,
    square_zw,
    trivext_mul,
    associator_tail,
)
from kzfox.errors import ShapeError
from kzfox.trivial_extension import GEN_ZW, SIDE_LEFT, SIDE_RIGHT, delta_z, delta_w, delta_zw
from conftest import random_series

N = 2
D = 4


def _unit_pair():
    one = FreeSeries.unit(N, D, RATIONAL)
    return one, FreeSeries.generator(1, N, D, RATIONAL)


# ---------------------------------------------------------------------------
# generator images
# ---------------------------------------------------------------------------
def test_generator_images():
    one, x1 = _unit_pair()
    assert pi([gen_z(1)], N, D, RATIONAL).tensor_part == TensorSeries.outer(x1, one)
    assert pi([gen_w(1)], N, D, RATIONAL).tensor_part == TensorSeries.outer(one, x1)
    zw = pi([GEN_ZW], N, D, RATIONAL)
    assert zw.tensor_part.is_zero()
    assert zw.m_part == -one


def test_square_zero_part():
    e = TrivExtElement.m_unit(N, D, RATIONAL)
    assert trivext_mul(e, e).is_zero()


def test_relation_families_vanish():
    def image(g):
        return pi_one(g)

    def pi_one(g):
        return pi([g], N, D, RATIONAL)

    def comm(u, v):
        return trivext_mul(u, v) - trivext_mul(v, u)

    for i in (1, 2):
        for j in (1, 2):
            if i != j:
                assert comm(image(gen_z(i)), image(gen_w(j))).is_zero()
        mixed = image(gen_z(i)) + image(gen_w(i))
        assert comm(image(GEN_ZW), mixed).is_zero()
    assert trivext_mul(image(GEN_ZW), image(GEN_ZW)).is_zero()


def test_mixed_commutator_is_nonzero_on_diagonal():
    # [t_iz, t_iw] does NOT vanish: its image is the m-part -x_i
    u = pi([gen_z(1)], N, D, RATIONAL)
    v = pi([gen_w(1)], N, D, RATIONAL)
    c = trivext_mul(u, v) - trivext_mul(v, u)
    assert not c.is_zero()
    assert c.tensor_part.is_zero()


# ---------------------------------------------------------------------------
# algebra structure
# ---------------------------------------------------------------------------
def _random_element(rng):
    t = TensorSeries.outer(
        random_series(rng, N, D, 2), random_series(rng, N, D, 2)
    )
    return TrivExtElement.from_tensor(t) + TrivExtElement.from_m(
        random_series(rng, N, D, 2)
    )


def test_trivext_associative(rng):
    for _ in range(10):
        u, v, w_ = (_random_element(rng) for _ in range(3))
        assert trivext_mul(trivext_mul(u, v), w_) == trivext_mul(
            u, trivext_mul(v, w_)
        )


def test_trivext_unit():
    one = TrivExtElement.unit(N, D, RATIONAL)
    e = TrivExtElement.m_unit(N, D, RATIONAL)
    assert trivext_mul(one, e) == e
    assert trivext_mul(e, one) == e


def test_trivext_element_equality_shape_and_hash():
    """Elements compare by value and never equal a non-element; parts of
    different shapes, and products of elements of different shapes, raise
    ShapeError; elements are unhashable."""
    one, x = _unit_pair()
    u = TrivExtElement(TensorSeries.outer(x, one), x)
    assert u == TrivExtElement(TensorSeries.outer(x, one), x)
    assert u != TrivExtElement(TensorSeries.outer(one, x), x)
    assert u != TrivExtElement(TensorSeries.outer(x, one), one)
    assert u != x and u != u.tensor_part and u != (u.tensor_part, u.m_part)
    for m in (FreeSeries.generator(1, N + 1, D, RATIONAL),
              FreeSeries.generator(1, N, D + 1, RATIONAL), x.to_complex()):
        with pytest.raises(ShapeError):
            TrivExtElement(TensorSeries.outer(x, one), m)
    for other in (TrivExtElement.unit(N + 1, D, RATIONAL),
                  TrivExtElement.unit(N, D + 1, RATIONAL),
                  TrivExtElement.unit(N, D, COMPLEX)):
        with pytest.raises(ShapeError):
            trivext_mul(u, other)
        with pytest.raises(ShapeError):
            trivext_mul(other, u)
    with pytest.raises(TypeError):
        hash(u)


# ---------------------------------------------------------------------------
# the three coproduct-like algebra maps
# ---------------------------------------------------------------------------
def test_delta_maps_project_to_expected_tensors(rng):
    one = FreeSeries.unit(N, D, RATIONAL)
    for _ in range(10):
        a = random_series(rng, N, D)
        assert delta_z(1, a).tensor_part == TensorSeries.outer(a, one)
        assert delta_w(2, a).tensor_part == TensorSeries.outer(one, a)
        assert delta_zw(a).tensor_part == a.coproduct()


def test_delta_maps_are_algebra_maps(rng):
    for _ in range(8):
        a = random_series(rng, N, D, 2)
        b = random_series(rng, N, D, 2)
        for delta in (
            lambda s: delta_z(1, s),
            lambda s: delta_w(1, s),
            delta_zw,
        ):
            assert delta(a * b) == trivext_mul(delta(a), delta(b))


def test_delta_z_on_marked_generator():
    one, x1 = _unit_pair()
    u = delta_z(1, x1)
    assert u.tensor_part == TensorSeries.outer(x1, one)
    assert u.m_part == -one


def test_square_maps_equal_fox_derivatives(rng):
    for _ in range(15):
        a = random_series(rng, N, D)
        for m in (1, 2):
            assert square_z(m, a) == d_right(m, a)
            assert square_w(m, a) == d_left(m, a)
        assert square_zw(a) == -mu_bar_kks(a)


# ---------------------------------------------------------------------------
# associator corner tails
# ---------------------------------------------------------------------------
def test_associator_tail_values():
    right = associator_tail(SIDE_RIGHT, 1, 1, N)
    assert right.coefficient((1,)) == pytest.approx(-1.0 / 24.0, rel=1e-12)
    left = associator_tail(SIDE_LEFT, 1, 0, N)
    assert left.is_zero()


def test_associator_tail_is_float_only():
    # the zeta constants force the float backend
    assert associator_tail(SIDE_LEFT, 1, 3, N).backend == COMPLEX
