"""Polyline path geometry: anchors, crossings, rotation numbers,
composition, subpaths."""

import cmath
import dataclasses
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kzfox import (
    Anchor,
    PLPath,
    PunctureConfig,
    compose,
    intersections,
    rotation_number,
    self_intersections,
    subpath,
)
from kzfox import kz_paths
from kzfox.errors import CompositionError, DomainError, ValidationError
from kzfox.kz_paths import REGULAR, TANGENTIAL, snap_half_integer

P3 = PunctureConfig([0.0, 1.0, 2.0])
BASE = Anchor.tangential(1, 1.0)


def _loop(points):
    return PLPath(P3, BASE, BASE, [complex(p) for p in points])


LOOP_A1 = [0.4, 0.4 + 0.3j, 1.5 + 0.3j, 1.5 - 0.3j, 0.4 - 0.3j, 0.4]
LOOP_B1 = [0.5, 0.5 + 0.5j, 2.5 + 0.5j, 2.5 - 0.4j, 0.2 - 0.4j, 0.2]
FIG8 = [
    0.25,
    0.2 + 0.3j,
    1.3 + 0.3j,
    1.3 + 0.55j,
    0.6 + 0.55j,
    0.6 - 0.3j,
    1.6 - 0.3j,
    1.6 + 0j,
]


# ---------------------------------------------------------------------------
# configuration and anchors
# ---------------------------------------------------------------------------
def test_puncture_config_validation():
    with pytest.raises(ValidationError):
        PunctureConfig([0.0, 0.0])
    with pytest.raises(ValidationError):
        PunctureConfig([])
    assert P3.n == 3
    assert P3.point(2) == 1.0
    with pytest.raises(ValidationError):
        P3.point(4)


def test_anchor_validation():
    with pytest.raises(ValidationError):
        Anchor.tangential(1, 2.0)  # direction must be unit modulus
    with pytest.raises(ValidationError):
        Anchor(TANGENTIAL, puncture=1)  # missing direction
    a = Anchor.tangential(2, 1j)
    assert a.location(P3) == 1.0
    r = Anchor.regular(0.5 + 0.5j)
    assert r.location(P3) == 0.5 + 0.5j


def test_path_validation_puncture_on_segment():
    with pytest.raises(ValidationError):
        # the closing run along the real axis passes through punctures
        _loop([0.4, 0.4 + 0.3j, 2.5 + 0.3j, 2.5, 0.4])


def test_path_validation_first_segment_direction():
    with pytest.raises(ValidationError):
        # first vertex off the start-anchor ray
        _loop([0.3 + 0.2j, 0.4 + 0.3j, 0.4])


RAY_END = Anchor.tangential(3, -1.0)
FIRST = "first segment must leave the start anchor along its direction"
LAST = "last segment must approach the end anchor against its direction"


def test_one_ray_test_reads_the_tail_and_the_first_segment():
    """A vertex 5e-13 off the ray at distance 0.1 is off it by the one
    relative test, whether it is the path's second vertex (the tail ends
    before it) or its first (the first segment is refused)."""
    path = PLPath(P3, BASE, RAY_END, [0.05, 0.1 + 5e-13j, 0.1 + 0.3j, 1.5 + 0.3j, 1.5])
    assert path.tails["out"].segments == range(0, 1)
    assert path.tails["out"].height == 20.0
    with pytest.raises(ValidationError, match=f"^{FIRST}$"):
        PLPath(P3, BASE, RAY_END, [0.1 + 5e-13j, 0.1 + 0.3j, 1.5 + 0.3j, 1.5])


@pytest.mark.parametrize(
    "points, message",
    [
        ([0.05 + 0.01j, 0.1 + 0.3j, 1.5 + 0.3j, 1.5], FIRST),
        ([-0.05, -0.05 + 0.3j, 1.5 + 0.3j, 1.5], FIRST),
        ([0.05, 0.1 + 0.3j, 1.5 + 0.3j, 1.5 + 0.01j], LAST),
        ([0.05, 0.1 + 0.3j, 2.5 + 0.3j, 2.5], LAST),
        ([0.05, 0.1 + 0.3j, 1.9 + 0.3j, 1.9 + 5e-13j], LAST),
    ],
    ids=["start_turned", "start_backwards", "end_turned", "end_backwards", "end_offset"],
)
def test_segment_off_its_anchor_ray_is_refused(points, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        PLPath(P3, BASE, RAY_END, points)


# ---------------------------------------------------------------------------
# crossings
# ---------------------------------------------------------------------------
def test_embedded_loop_has_no_self_crossings():
    assert self_intersections(_loop(LOOP_A1)) == []


def test_figure_eight_has_one_self_crossing():
    end = Anchor.tangential(3, -1.0)
    path = PLPath(P3, BASE, end, [complex(p) for p in FIG8])
    crossings = self_intersections(path)
    assert len(crossings) == 1
    (c,) = crossings
    assert c.sign in (-1, 1)
    assert 0.0 < c.t < c.s < 1.0


def test_two_loop_crossing_count_and_signs():
    cuts = intersections(_loop(LOOP_A1), _loop(LOOP_B1))
    assert len(cuts) == 1
    assert cuts[0].sign in (-1, 1)


def test_identical_loops_rejected():
    with pytest.raises(ValidationError):
        intersections(_loop(LOOP_A1), _loop(LOOP_A1))


# ---------------------------------------------------------------------------
# tail strands
# ---------------------------------------------------------------------------
FIXTURE_HEIGHTS = {
    "loop_a1.json": (2.5, -2.5),
    "loop_a4.json": (-10 / 3, 10 / 7),
    "loop_b1.json": (2.0, -5.0),
    "loop_bup.json": (20 / 3, 20 / 9),
    "path_embedded2.json": (0.0, 0.0),
}


def test_fixture_tail_heights(load_path):
    """Departure side over contact span, and 0.0 for a tail that stays on the
    ray up to the far anchor (path_embedded2 is one straight segment)."""
    for name, heights in FIXTURE_HEIGHTS.items():
        tails = load_path(name).tails
        assert (tails["out"].height, tails["in"].height) == heights, name


def test_one_strand_bundle_needs_one_ray():
    """Tails share a strand bundle only on one ray, (point, direction) equal:
    two tails leaving puncture 1 along the same segment overlap as a bundle,
    and with the second anchor's direction turned by 1e-13 (its tail still on
    the ray within roundoff) the same overlap is refused."""
    path1 = PLPath(P3, BASE, Anchor.tangential(2, 1.0), [0.5, 0.5 + 0.3j, 1.5 + 0.3j, 1.5])
    points = [0.5, 0.5 - 0.3j, 2.5 - 0.3j, 2.5]
    assert intersections(path1, PLPath(P3, BASE, Anchor.tangential(3, 1.0), points)) == []
    turned = PLPath(P3, Anchor.tangential(1, cmath.exp(1e-13j)), Anchor.tangential(3, 1.0),
                    points)
    assert turned.tails["out"].segments == range(1)
    with pytest.raises(ValidationError, match="collinear overlap"):
        intersections(path1, turned)


def _mirrored(tail, n):
    """The tail with its segment indices read from the other end of a path of
    n segments."""
    return dataclasses.replace(
        tail,
        segments=range(n - tail.segments.stop, n - tail.segments.start),
        leave=(n - 1 - tail.leave[0], tail.leave[1]),
    )


def test_reversal_swaps_the_tails(data_dir, load_path):
    """The reversed path's "out" tail is the path's "in" tail and vice versa,
    on every fixture."""
    names = sorted(f.name for f in data_dir.glob("*.json"))
    assert len(names) == 13
    for name in names:
        path = load_path(name)
        n = path.n_segments
        assert path.reversed().tails == {
            "out": _mirrored(path.tails["in"], n),
            "in": _mirrored(path.tails["out"], n),
        }, name


def _segment_intersection_unfiltered(a, b, c, d):
    """Reference: the exact segment intersection with no bounding-box test."""
    ax, ay = Fraction(a.real), Fraction(a.imag)
    bx, by = Fraction(b.real), Fraction(b.imag)
    cx, cy = Fraction(c.real), Fraction(c.imag)
    dx, dy = Fraction(d.real), Fraction(d.imag)
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    denom = rx * sy - ry * sx
    qpx, qpy = cx - ax, cy - ay
    if denom == 0:
        if qpx * ry - qpy * rx != 0:
            return ("none",)
        rr = rx * rx + ry * ry
        t0 = (qpx * rx + qpy * ry) / rr
        t1 = t0 + (sx * rx + sy * ry) / rr
        lo, hi = min(t0, t1), max(t0, t1)
        if hi < 0 or lo > 1:
            return ("none",)
        if hi == 0 or lo == 1:
            t = hi if hi == 0 else lo
            return ("touch", t, (t - t0) / (t1 - t0))
        return ("overlap",)
    t = (qpx * sy - qpy * sx) / denom
    u = (qpx * ry - qpy * rx) / denom
    if t < 0 or t > 1 or u < 0 or u > 1:
        return ("none",)
    if 0 < t < 1 and 0 < u < 1:
        return ("proper", t, u, 1 if denom > 0 else -1)
    return ("touch", t, u)


# grid coordinates (shared endpoints, collinear and touching pairs are
# common), the same one ulp off the grid, and arbitrary floats
_coordinate = st.one_of(
    st.integers(-3, 3).map(lambda k: k / 2),
    st.tuples(st.integers(-3, 3), st.sampled_from([-math.inf, math.inf])).map(
        lambda kd: math.nextafter(kd[0] / 2, kd[1])
    ),
    st.floats(-2.0, 2.0),
)
_point = st.builds(complex, _coordinate, _coordinate)


@settings(max_examples=400, deadline=None)
@given(_point, _point, _point, _point)
def test_segment_box_prefilter_changes_no_result(a, b, c, d):
    assume(a != b and c != d)
    assert kz_paths._segment_intersection(a, b, c, d) == (
        _segment_intersection_unfiltered(a, b, c, d)
    )


@settings(max_examples=400, deadline=None)
@given(_point, _point, _point, st.integers(0, 2), st.integers(1, 3))
def test_puncture_box_prefilter_changes_no_result(a, b, z, k, idx):
    assume(a != b)  # a zero-length segment is rejected before `_touches` runs
    path = _loop(LOOP_A1)
    filtered = path._touches(a, b, z, k, idx)
    with mock.patch.object(kz_paths, "_outside_box", lambda *args: False):
        assert path._touches(a, b, z, k, idx) == filtered


# ---------------------------------------------------------------------------
# rotation numbers
# ---------------------------------------------------------------------------
def test_rotation_number_of_simple_loop():
    # between tangential anchors the winding is a half-integer; a simple
    # loop carries -1/2 (clockwise interior travel) or +1/2
    assert snap_half_integer(rotation_number(_loop(LOOP_A1))) in (-0.5, 0.5)


def test_rotation_number_needs_tangential_ends():
    path = PLPath(
        P3,
        Anchor.regular(0.5 + 0.5j),
        Anchor.regular(0.5 - 0.5j),
        [1.5 + 0.5j, 1.5 - 0.5j],
    )
    with pytest.raises(DomainError):
        rotation_number(path)


def test_snap_half_integer():
    assert snap_half_integer(0.4999999999) == 0.5
    assert snap_half_integer(-1.0000000001) == -1.0
    with pytest.raises(ValidationError):
        snap_half_integer(0.3)


def test_composition_rotation_law():
    """rot(p2 p1) = rot(p1) + rot(p2) - 1/2 exactly after snapping."""
    g1, g2 = _loop(LOOP_A1), _loop(LOOP_B1)
    for a, b in ((g1, g2), (g2, g1), (g1, g1)):
        composite = compose(b, a)
        assert snap_half_integer(rotation_number(composite)) == snap_half_integer(
            rotation_number(a)
        ) + snap_half_integer(rotation_number(b)) - 0.5


def test_compose_validations():
    end3 = Anchor.tangential(3, -1.0)
    path = PLPath(P3, BASE, end3, [0.2, 0.25 + 0.35j, 1.75 + 0.35j, 1.8])
    with pytest.raises(CompositionError):
        compose(path, path)  # junction anchors differ (end at 3, start at 1)
    other = PLPath(PunctureConfig([0.0, 1.0]), Anchor.tangential(1, 1.0),
                   Anchor.tangential(2, -1.0), [])
    with pytest.raises(CompositionError):
        compose(_loop(LOOP_A1), other)


# ---------------------------------------------------------------------------
# subpaths
# ---------------------------------------------------------------------------
def test_subpath_interior_cut():
    loop = _loop(LOOP_A1)
    cut = subpath(loop, 0.25, 0.75)
    assert cut.start.kind == REGULAR
    assert cut.end.kind == REGULAR
    assert cut.punctures.points == loop.punctures.points


def test_subpath_preserves_anchors_at_ends():
    loop = _loop(LOOP_A1)
    assert subpath(loop, 0.0, 1.0).start.kind == TANGENTIAL
    assert subpath(loop, 0.0, 0.5).start.kind == TANGENTIAL
    assert subpath(loop, 0.5, 1.0).end.kind == TANGENTIAL


def test_subpath_splits_at_crossing_parameter():
    loop1, loop2 = _loop(LOOP_A1), _loop(LOOP_B1)
    (c,) = intersections(loop1, loop2)
    head = subpath(loop1, 0.0, c.t)
    tail = subpath(loop1, c.t, 1.0)
    assert head.end.kind == REGULAR
    assert abs(head.end.point - tail.start.point) < 1e-12
    assert abs(head.end.point - c.point) < 1e-9
