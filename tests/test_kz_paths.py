"""Polyline path geometry: anchors, crossings, rotation numbers,
composition, subpaths."""

import cmath
import dataclasses
import math
from fractions import Fraction
from pathlib import Path

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


def _touches_unfiltered(path, a, b, z, k, idx):
    """Reference: the exact puncture-on-segment test of `PLPath._touches` in
    `Fraction`s, with no bounding-box test."""
    ax, ay, bx, by, zx, zy = map(Fraction, (a.real, a.imag, b.real, b.imag, z.real, z.imag))
    if (bx - ax) * (zy - ay) - (by - ay) * (zx - ax) != 0:
        return False
    dot = (bx - ax) * (zx - ax) + (by - ay) * (zy - ay)
    if dot < 0 or dot > (bx - ax) ** 2 + (by - ay) ** 2:
        return False
    start, end = path.start, path.end
    if k == 0 and start.kind == TANGENTIAL and start.puncture == idx and z == a:
        return False
    last = k == path.n_segments - 1
    return not (last and end.kind == TANGENTIAL and end.puncture == idx and z == b)


EPS = 2.0**-40
TINY = 5e-324
# degenerate cases that random draws reach only now and then, with the kind
# of contact each one is
SEGMENT_CASES = {
    "proper, positive denominator": ([0, 2 + 2j, 2, 2j], "proper"),
    "proper, negative denominator": ([0, 2 + 2j, 2j, 2], "proper"),
    "end of [a, b] inside [c, d]": ([0, 1, -1j, 1j], "touch"),
    "end of [c, d] inside [a, b]": ([0, 1, 0.5, 0.5 + 1j], "touch"),
    "collinear, b = c": ([0, 1, 1, 2], "touch"),
    "collinear, a = d": ([1, 2, 0, 1], "touch"),
    "collinear overlap": ([0, 1, 0.5, 2], "overlap"),
    "collinear, apart": ([0, 1, 1.5, 2], "none"),
    "near-parallel crossing": ([0, 1 + 1j, complex(0.25, 0.25 - EPS),
                                complex(0.75, 0.75 + EPS)], "proper"),
    "parallel, EPS apart": ([0, 1 + 1j, complex(0.25, 0.25 + EPS),
                             complex(0.75, 0.75 + EPS)], "none"),
    "subnormal crossing": ([0, 2 * TINY, complex(TINY, -TINY), complex(TINY, TINY)],
                           "proper"),
    "subnormal and huge": ([complex(TINY, 0), complex(1e300, 1e300), 1e300,
                            complex(0, 1e300)], "proper"),
}


@pytest.mark.parametrize("points, kind", SEGMENT_CASES.values(), ids=SEGMENT_CASES)
def test_degenerate_segment_pairs_match_the_fraction_reference(points, kind):
    a, b, c, d = (complex(p) for p in points)
    ints, _ = kz_paths._integer_points((a, b, c, d))
    result = kz_paths._segment_intersection(*ints)
    assert result == _segment_intersection_unfiltered(a, b, c, d)
    assert result[0] == kind


@pytest.mark.parametrize(
    "a, b, z, k, idx, on",
    [(-1 - 1j, 1 + 1j, 0, 1, 1, True),  # on a diagonal segment
     (-1 - 1j, 1 + 1j, complex(0, TINY), 1, 1, False),
     (0, 1 + 1j, 0, 0, 1, False),  # the start anchor's own puncture
     (0, 1 + 1j, 0, 1, 1, True),
     (1 + 1j, 0, 0, 6, 1, False),  # the end anchor's own puncture
     (1 + 1j, 0, 0, 6, 2, True),
     (TINY, 1e300 + 1e300j, complex(1e300, 1e300) / 2, 1, 2, False)],
)
def test_puncture_cases_match_the_fraction_reference(a, b, z, k, idx, on):
    a, b, z = complex(a), complex(b), complex(z)
    path = _loop(LOOP_A1)
    assert path._touches(a, b, z, k, idx) == _touches_unfiltered(path, a, b, z, k, idx) == on


# grid coordinates (shared endpoints, collinear and touching pairs are
# common), the same one ulp off the grid, arbitrary floats, and extreme
# exponents, so that one point's coordinates can span the whole double range
_coordinate = st.one_of(
    st.integers(-3, 3).map(lambda k: k / 2),
    st.tuples(st.integers(-3, 3), st.sampled_from([-math.inf, math.inf])).map(
        lambda kd: math.nextafter(kd[0] / 2, kd[1])
    ),
    st.floats(-2.0, 2.0),
    st.sampled_from([5e-324, -5e-324, 2.0**-1000, -(2.0**-1000), 1e300, -1e300]),
)
_point = st.builds(complex, _coordinate, _coordinate)


@st.composite
def _segment_pairs(draw):
    """Segments [a, b], [c, d]: four independent points, or d - c parallel to
    b - a up to one ulp in one coordinate of d."""
    a, b, c = draw(_point), draw(_point), draw(_point)
    if draw(st.booleans()):
        return a, b, c, draw(_point)
    d = c + (b - a)
    towards = draw(st.sampled_from([-math.inf, math.inf]))
    if draw(st.booleans()):
        d = complex(math.nextafter(d.real, towards), d.imag)
    else:
        d = complex(d.real, math.nextafter(d.imag, towards))
    return a, b, c, d


@settings(max_examples=400, deadline=None)
@given(_segment_pairs())
def test_segment_box_prefilter_changes_no_result(points):
    """The integer-coordinate intersection, box test included, equals the
    `Fraction` reference without it."""
    a, b, c, d = points
    assume(a != b and c != d and cmath.isfinite(d))
    ints, _ = kz_paths._integer_points(points)
    assert kz_paths._segment_intersection(*ints) == (
        _segment_intersection_unfiltered(a, b, c, d)
    )


@settings(max_examples=400, deadline=None)
@given(_point, _point, _point, st.sampled_from([0, 1, 6]), st.integers(1, 3))
def test_puncture_box_prefilter_changes_no_result(a, b, z, k, idx):
    """`_touches`, box test included, equals the `Fraction` reference without
    it, on the first, an inner and the last segment of a loop."""
    assume(a != b)  # a zero-length segment is rejected before `_touches` runs
    path = _loop(LOOP_A1)
    assert path._touches(a, b, z, k, idx) == _touches_unfiltered(path, a, b, z, k, idx)


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


_FIXTURES = sorted(p.name for p in (Path(__file__).parent / "data").glob("*.json"))


@pytest.mark.parametrize("name", _FIXTURES)
def test_a_cut_at_a_vertex_is_that_vertex(load_path, name):
    """A breakpoint at an interior vertex adds no point and maps to that
    vertex, and the two subpaths cut there compose back to the path itself
    (the interpolated point used to land one rounding step off the vertex)."""
    path = load_path(name)
    for k in range(1, path.n_segments):
        t = path.cum_params[k]
        assert path.with_breakpoints([t]) == (list(path.points), {t: k})
        composite = compose(subpath(path, t, 1.0), subpath(path, 0.0, t))
        assert composite.points == path.points, k


def test_subpath_splits_at_crossing_parameter():
    loop1, loop2 = _loop(LOOP_A1), _loop(LOOP_B1)
    (c,) = intersections(loop1, loop2)
    head = subpath(loop1, 0.0, c.t)
    tail = subpath(loop1, c.t, 1.0)
    assert head.end.kind == REGULAR
    assert abs(head.end.point - tail.start.point) < 1e-12
    assert abs(head.end.point - c.point) < 1e-9
