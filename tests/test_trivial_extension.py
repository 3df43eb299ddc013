"""Square-zero extension of the tensor-square algebra and the projected
coproduct-like maps."""

from fractions import Fraction

import pytest

from kzfox.brackets_coactions import mu_bar_kks
from kzfox.errors import ShapeError, ValidationError
from kzfox.fox_calculus import d_left, d_right
from kzfox.free_hopf import FreeSeries, RATIONAL, COMPLEX, TensorSeries
from kzfox.trivial_extension import (
    TrivExtElement,
    delta_w,
    delta_z,
    delta_zw,
    generator_images,
    square_w,
    square_z,
    square_zw,
    trivext_mul,
)
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
    z, w, crossed = generator_images(N, D, RATIONAL)
    assert len(z) == len(w) == N
    assert z[0] == TrivExtElement.from_tensor(TensorSeries.outer(x1, one))
    assert w[0] == TrivExtElement.from_tensor(TensorSeries.outer(one, x1))
    assert crossed == TrivExtElement.from_m(-one)


def test_generator_images_are_shared_tuples():
    """The table is built once per shape, and its image lists are tuples."""
    z, w, crossed = images = generator_images(N, D, RATIONAL)
    assert type(z) is tuple and type(w) is tuple
    assert generator_images(N, D, RATIONAL) is images
    assert generator_images(N, D + 1, RATIONAL) is not images
    assert generator_images(N, D, COMPLEX) is not images


def test_square_zero_part():
    e = TrivExtElement.m_unit(N, D, RATIONAL)
    assert trivext_mul(e, e).is_zero()


def test_relation_families_vanish():
    z, w, crossed = generator_images(N, D, RATIONAL)

    def comm(u, v):
        return trivext_mul(u, v) - trivext_mul(v, u)

    for i in range(N):
        for j in range(N):
            if i != j:
                assert comm(z[i], w[j]).is_zero()
        assert comm(crossed, z[i] + w[i]).is_zero()
    assert trivext_mul(crossed, crossed).is_zero()


def test_mixed_commutator_is_nonzero_on_diagonal():
    # [t_iz, t_iw] does NOT vanish: its image is the m-part -x_i
    z, w, _ = generator_images(N, D, RATIONAL)
    c = trivext_mul(z[0], w[0]) - trivext_mul(w[0], z[0])
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


@pytest.mark.parametrize("marked", [0, N + 1])
def test_marked_index_outside_1_to_n_is_refused(marked):
    a = FreeSeries.generator(1, N, D, RATIONAL)
    for delta in (delta_z, delta_w, square_z, square_w):
        with pytest.raises(ValidationError, match=f"index {marked} out of range 1..{N}"):
            delta(marked, a)
