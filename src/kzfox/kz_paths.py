"""Piecewise-linear path geometry on the punctured complex plane.

Paths are polylines whose endpoints are either regular points or tangential
anchors (a puncture plus a unit departure direction).  The module provides
transverse crossing detection with orientation signs, the order of tail
strands at a shared tangential point, rotation numbers by exterior-angle
summation, clockwise-half-turn composition, and subpath extraction.

Crossing predicates run exactly on integer coordinates (every finite double
is an integer times a power of two), so detection never guesses: genuinely
degenerate inputs raise a validation error instead.  The only tolerated
degeneracy is the unavoidable one: near a tangential anchor a path runs
exactly on the anchor ray, so the tails of paths at one anchor (`Tail`) may
overlap each other; this strand bundle is accounted for analytically by the
regularization terms downstream and its contacts are never reported as
crossings.  Any other segment on an anchor ray that touches or overlaps a
tail is refused as a non-transverse contact.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CompositionError, DomainError, ValidationError

_TWO_PI = 2.0 * math.pi


def _finite(z, what: str):
    if not cmath.isfinite(z):
        raise ValidationError(f"{what} must be finite, got {z}")
    return z


@dataclass(frozen=True)
class PunctureConfig:
    points: Tuple[complex, ...]

    def __init__(self, points: Sequence[complex]):
        pts = tuple(_finite(complex(p), "puncture") for p in points)
        if len(pts) != len(set(pts)):
            raise ValidationError("punctures must be pairwise distinct")
        if not pts:
            raise ValidationError("at least one puncture required")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    def point(self, i: int) -> complex:
        if not 1 <= i <= self.n:
            raise ValidationError(f"puncture index {i} out of range 1..{self.n}")
        return self.points[i - 1]


REGULAR = "regular"
TANGENTIAL = "tangential"


@dataclass(frozen=True)
class Anchor:
    kind: str
    point: Optional[complex] = None  # regular anchors
    puncture: Optional[int] = None  # tangential anchors (1-based index)
    direction: Optional[complex] = None  # unit complex

    def __post_init__(self):
        if self.kind == REGULAR:
            if self.point is None:
                raise ValidationError("regular anchor needs a point")
            _finite(self.point, "anchor point")
        elif self.kind == TANGENTIAL:
            if self.puncture is None or self.direction is None:
                raise ValidationError("tangential anchor needs puncture and direction")
            if isinstance(self.puncture, bool) or not isinstance(self.puncture, int):
                raise ValidationError(
                    f"puncture index must be an integer, got {self.puncture!r}"
                )
            _finite(self.direction, "tangential direction")
            if abs(abs(self.direction) - 1.0) > 1e-12:
                raise ValidationError("tangential direction must have modulus 1")
        else:
            raise ValidationError(f"unknown anchor kind {self.kind!r}")

    @classmethod
    def regular(cls, point: complex) -> "Anchor":
        return cls(REGULAR, point=complex(point))

    @classmethod
    def tangential(cls, puncture: int, direction: complex = 1.0) -> "Anchor":
        return cls(TANGENTIAL, puncture=puncture, direction=complex(direction))

    def location(self, punctures: PunctureConfig) -> complex:
        if self.kind == REGULAR:
            return self.point
        return punctures.point(self.puncture)


def _integer_points(points: Sequence[complex]) -> Tuple[List[Tuple[int, int]], int]:
    """The points as integer pairs (x, y) on one scale 2^e, with that scale.
    Every finite double is an integer over a power of two, so the largest such
    denominator among the coordinates maps each of them exactly onto an
    integer; crossing predicates are exact on these without `Fraction`s."""
    ratios = [c.as_integer_ratio() for p in points for c in (p.real, p.imag)]
    scale = max(den for _, den in ratios)
    coords = [num * (scale // den) for num, den in ratios]
    return list(zip(coords[::2], coords[1::2])), scale


@dataclass(frozen=True)
class Crossing:
    """A transverse interior crossing; for self-intersections t < s."""

    t: float
    s: float
    point: complex
    sign: int


def _on_ray(pt: complex, z: complex, v: complex) -> bool:
    """Whether pt lies on the open ray from z in the unit direction v: the
    ratio r = (pt - z) / v has Re r > 0 and |Im r| <= 1e-12 |r|.  This is the
    one ray test; the tails and the anchors' first and last segments read it."""
    ratio = (pt - z) / v
    return abs(ratio.imag) <= 1e-12 * abs(ratio) and ratio.real > 0


@dataclass(frozen=True)
class Tail:
    """A path's strand at one of its tangential anchors: the strand leaving
    the start anchor ("out") or arriving at the end anchor ("in").  The path's
    `segments` (indices, the run counted from the anchor) lie on the anchor
    ray at `point` in `direction`; `leave` pairs the segment that leaves the
    ray with the vertex it leaves from (no such segment when the tail stays on
    the ray up to the far anchor).

    Near a tangential anchor every path runs exactly on the anchor ray, so
    polyline realizations degenerate: the smooth curves they stand for are
    separated by infinitesimal heights.  The resolution pushes each strand to
    the side it eventually departs to, with strands that leave the ray earlier
    lying farther from it.  `height` is (departure side) / (contact span), and
    0.0 for a tail that stays on the ray up to the far anchor; comparing two
    heights reproduces the vertical order of the resolved strands in the ray
    frame w = (z - point) / direction.
    """

    point: complex
    direction: complex
    segments: range
    leave: Tuple[int, complex]
    height: float

    @property
    def ray(self) -> Tuple[complex, complex]:
        """(point, direction): tails on one ray share a tangential point."""
        return self.point, self.direction


class PLPath:
    """Polyline path with anchors, arclength-parametrized on [0, 1]; `tails`
    maps "out" and "in" to the `Tail` at each tangential anchor."""

    def __init__(
        self,
        punctures: PunctureConfig,
        start: Anchor,
        end: Anchor,
        vertices: Sequence[complex],
    ):
        self.punctures = punctures
        self.start = start
        self.end = end
        self.vertices = tuple(_finite(complex(v), "vertex") for v in vertices)
        pts = [start.location(punctures)] + list(self.vertices) + [
            end.location(punctures)
        ]
        self.points = tuple(pts)
        if len(pts) < 2:
            raise ValidationError("path needs at least one segment")
        self._validate_segments()
        self.tails = {
            which: self._tail(anchor, which == "in")
            for which, anchor in (("out", start), ("in", end))
            if anchor.kind == TANGENTIAL
        }
        lengths = [abs(b - a) for a, b in zip(pts, pts[1:])]
        total = sum(lengths)
        self.length = total
        cum = [0.0]
        for L in lengths:
            cum.append(cum[-1] + L)
        self.cum_params = tuple(c / total for c in cum)

    # -- validation ---------------------------------------------------------

    def _validate_segments(self):
        pts = self.points
        for k, (a, b) in enumerate(zip(pts, pts[1:])):
            if a == b:
                raise ValidationError(f"zero-length segment {k}")
            for idx, z in enumerate(self.punctures.points, start=1):
                # distance from puncture to the closed segment, excluding
                # anchor endpoints that are punctures by construction
                if self._touches(a, b, z, k, idx):
                    raise ValidationError(
                        f"segment {k} passes through puncture {idx}"
                    )

    def _touches(self, a: complex, b: complex, z: complex, k: int, idx: int) -> bool:
        # Exact test: z on segment [a, b]?  Not if outside its box (floats
        # compare exactly), else on the integer points.
        if not (min(a.real, b.real) <= z.real <= max(a.real, b.real)
                and min(a.imag, b.imag) <= z.imag <= max(a.imag, b.imag)):
            return False
        ((ax, ay), (bx, by), (zx, zy)), _ = _integer_points((a, b, z))
        rx, ry, wx, wy = bx - ax, by - ay, zx - ax, zy - ay
        if rx * wy - ry * wx != 0:
            return False
        dot = rx * wx + ry * wy
        if dot < 0 or dot > rx * rx + ry * ry:
            return False
        # the puncture lies on the segment; allowed only as the anchor
        # endpoint of the first/last segment
        if k == 0 and self.start.kind == TANGENTIAL and self.start.puncture == idx:
            if (zx, zy) == (ax, ay):
                return False
        if (
            k == len(self.points) - 2
            and self.end.kind == TANGENTIAL
            and self.end.puncture == idx
        ):
            if (zx, zy) == (bx, by):
                return False
        return True

    def _tail(self, anchor: Anchor, reverse: bool) -> Tail:
        """The tail at a tangential anchor: the run of segments from the
        anchor whose far ends are on its ray by `_on_ray`; "in" reads the
        points reversed.  A first (last) segment off the ray is refused: a
        path leaves (approaches) a tangential anchor along its direction."""
        z, v = anchor.location(self.punctures), anchor.direction
        pts = self.points[::-1] if reverse else self.points
        n = self.n_segments
        count = 0
        while count < n and _on_ray(pts[count + 1], z, v):
            count += 1
        if count == 0:
            raise ValidationError(
                "last segment must approach the end anchor against its direction"
                if reverse
                else "first segment must leave the start anchor along its direction"
            )
        height = 0.0
        if count < n:
            side = 1.0 if ((pts[count + 1] - z) / v).imag > 0 else -1.0
            height = side / ((pts[count] - z) / v).real
        segments = range(n - count, n) if reverse else range(count)
        leave = (n - count - 1 if reverse else count, pts[count])
        return Tail(z, v, segments, leave, height)

    # -- parametrization ----------------------------------------------------

    @property
    def n_segments(self) -> int:
        return len(self.points) - 1

    def segment(self, k: int) -> Tuple[complex, complex]:
        return self.points[k], self.points[k + 1]

    def locate(self, t: float) -> Tuple[int, float]:
        """Map a global parameter to (segment index, local parameter); u lies
        in (0, 1] for 0 < t < 1, and is exactly 1.0 at t = cum_params[k + 1]."""
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"parameter {t} outside [0, 1]")
        cum = self.cum_params
        k = bisect_left(cum, t, 1, self.n_segments) - 1
        return k, (t - cum[k]) / (cum[k + 1] - cum[k])

    def with_breakpoints(
        self, breakpoints: Sequence[float]
    ) -> Tuple[List[complex], Dict[float, int]]:
        """The path's points with a point added at each breakpoint 0 < t < 1,
        and the index of each breakpoint's point among them: the one map from
        path parameters to points.  A breakpoint at a vertex is that vertex."""
        by_segment: Dict[int, List[Tuple[float, float]]] = {}
        for t in sorted(set(breakpoints)):
            if not 0.0 < t < 1.0:
                raise DomainError(f"breakpoint {t} outside (0, 1)")
            k, u = self.locate(t)
            by_segment.setdefault(k, []).append((t, u))
        points = [self.points[0]]
        index: Dict[float, int] = {}
        for k in range(self.n_segments):
            a, b = self.segment(k)
            for t, u in by_segment.get(k, ()):
                if u < 1.0:
                    points.append(a + (b - a) * u)
                index[t] = len(points) - (u < 1.0)
            points.append(b)
        return points, index

    def global_param(self, k: int, u: float) -> float:
        cum = self.cum_params
        return cum[k] + (cum[k + 1] - cum[k]) * u

    # -- derived paths -------------------------------------------------------

    def reversed(self) -> "PLPath":
        return PLPath(self.punctures, self.end, self.start, self.vertices[::-1])


# -- strand order at a tangential point ---------------------------------------


def tangential_points(*paths: PLPath) -> List[int]:
    """The punctures of the start and end anchors of each path, in order;
    every anchor must be tangential.  Anchors at one puncture must also share
    its direction: along another ray, an anchor is another tangential point."""
    anchors = [anchor for path in paths for anchor in (path.start, path.end)]
    for which, anchor in zip(("start", "end") * len(paths), anchors):
        if anchor.kind != TANGENTIAL:
            raise ValidationError(f"{which} anchor must be tangential")
    if len({anchor.puncture for anchor in set(anchors)}) < len(set(anchors)):
        raise ValidationError("two anchors at one puncture point in different "
                              "directions: they are different tangential points")
    return [anchor.puncture for anchor in anchors]


def above(x: Tuple[PLPath, str], y: Tuple[PLPath, str]) -> float:
    """1.0 when the tail strand x = (path, "out" | "in") lies above strand y
    at their common tangential point, that is, has the larger height; else 0.0.

    This is the one strand order at a base point: a loop's closing turn
    ([p>P] - 1/2 of winding), the crossing of two loops there and the corner
    terms of the pairing formula all read it."""
    g_x, g_y = (path.tails[which].height for path, which in (x, y))
    if g_x == g_y:
        raise ValidationError(
            "ambiguous base-strand ordering: two tails have equal ray-contact "
            "spans on the same side; perturb a turning point"
        )
    return 1.0 if g_x > g_y else 0.0


def strand_pairs(path1: PLPath, path2: PLPath) -> List[Tuple[str, str, float, float]]:
    """Each pair of a tail strand x of path1 and y of path2 ("out" | "in")
    that leave or reach one tangential point, as (x, y, sign, [x>y]), in the
    order (in, out), (out, out), (in, in), (out, in).  The sign is +1 exactly
    when one strand arrives and the other leaves.  Every corner term of the
    pairing formula reads this list: each turns the -1/2 constant of r_am at
    the point into -1/2 + [x>y]."""
    return [(x, y, 1.0 if (x == "in") != (y == "in") else -1.0, above((path1, x), (path2, y)))
            for x, y in (("in", "out"), ("out", "out"), ("in", "in"), ("out", "in"))
            if x in path1.tails and y in path2.tails
            and path1.tails[x].ray == path2.tails[y].ray]


def base_linking(loop1: PLPath, loop2: PLPath) -> float:
    """Sign of the crossing between two loops at their common base point in
    the resolved smooth model: the signed sum of the strand orders of
    `strand_pairs`, +-1 when the four tail strands alternate and 0.0 when
    they nest."""
    return sum(sign * order for _, _, sign, order in strand_pairs(loop1, loop2))


# -- crossing detection ------------------------------------------------------


def _segment_intersection(a, b, c, d):
    """Exact intersection of segments [a,b], [c,d] with integer endpoints
    (x, y), as `_integer_points` gives them.

    Returns ('proper', t, u, sign) with Fractions strictly inside (0,1) and
    the crossing sign, the sign of the nonzero cross(b - a, d - c); or
    ('none',), ('touch', t, u) for endpoint contact, ('overlap',) for
    collinear overlap of positive length.
    """
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = a, b, c, d
    if (max(ax, bx) < min(cx, dx) or max(cx, dx) < min(ax, bx)
            or max(ay, by) < min(cy, dy) or max(cy, dy) < min(ay, by)):
        return ("none",)
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    qx, qy = cx - ax, cy - ay
    den = rx * sy - ry * sx
    if den == 0:
        if qx * ry - qy * rx != 0:
            return ("none",)
        # collinear: [c, d] runs from t0 = n0 / rr to t1 = n1 / rr along r
        rr = rx * rx + ry * ry
        n0 = qx * rx + qy * ry
        n1 = n0 + sx * rx + sy * ry
        lo, hi = min(n0, n1), max(n0, n1)
        if hi < 0 or lo > rr:
            return ("none",)
        if hi == 0 or lo == rr:
            # touching at a single shared endpoint
            num = hi if hi == 0 else lo
            return ("touch", Fraction(num, rr), Fraction(num - n0, n1 - n0))
        return ("overlap",)
    # t = tn / den and u = un / den, with den made positive
    sign = 1 if den > 0 else -1
    den, tn, un = sign * den, sign * (qx * sy - qy * sx), sign * (qx * ry - qy * rx)
    if tn < 0 or tn > den or un < 0 or un > den:
        return ("none",)
    if 0 < tn < den and 0 < un < den:
        return ("proper", Fraction(tn, den), Fraction(un, den), sign)
    return ("touch", Fraction(tn, den), Fraction(un, den))


def _tail_contact_skippable(
    path_a: PLPath, i: int, path_b: PLPath, j: int, pt: Optional[complex]
) -> bool:
    """Contacts inside a shared anchor-ray strand bundle are not crossings:
    coinciding tail strands and their departure vertices are accounted for
    analytically by the regularization terms downstream.  On a ray shared by
    a tail of each path, an overlap (pt is None) is skipped when both segments
    are tail segments, a touch at pt when each segment is a tail segment or
    leaves the ray at pt."""
    for ta in path_a.tails.values():
        for tb in path_b.tails.values():
            if ta.ray != tb.ray:
                continue
            strands = ((ta, i), (tb, j))
            if all(k in t.segments or (k, pt) == t.leave for t, k in strands):
                return True
    return False


def _crossings(path1: PLPath, path2: PLPath, same: bool) -> List[Crossing]:
    """The segment-pair scan behind both public functions; `same` scans the
    pairs i < j of one path and skips the shared vertex of adjacent segments."""
    out: List[Crossing] = []
    shared_anchors = {t.point for t in path1.tails.values()} & {
        t.point for t in path2.tails.values()
    }
    first, second = ("", "") if same else (" (first path)", " (second path)")
    ints, scale = _integer_points(path1.points if same else path1.points + path2.points)
    ints1, ints2 = ints[: len(path1.points)], ints[-len(path2.points):]
    for i in range(path1.n_segments):
        for j in range(i + 1 if same else 0, path2.n_segments):
            res = _segment_intersection(ints1[i], ints1[i + 1], ints2[j], ints2[j + 1])
            kind = res[0]
            if kind == "none":
                continue
            if kind == "overlap":
                if _tail_contact_skippable(path1, i, path2, j, None):
                    continue  # anchor-ray tails; handled analytically
                raise ValidationError(
                    f"collinear overlap between segments {i}{first} and {j}{second}"
                )
            if kind == "touch":
                if same and j == i + 1:
                    continue  # shared vertex of adjacent segments
                # a + t (b - a) from the integers, rounded once per coordinate
                (ax, ay), (bx, by), t = ints1[i], ints1[i + 1], res[1]
                p, q = t.numerator, t.denominator
                pt = complex((ax * q + p * (bx - ax)) / (q * scale),
                             (ay * q + p * (by - ay)) / (q * scale))
                if pt in shared_anchors:
                    continue  # terminal segments meet at a common anchor
                if _tail_contact_skippable(path1, i, path2, j, pt):
                    continue  # landing/leaving vertex on the anchor ray
                raise ValidationError(
                    f"non-transverse touching between segments {i}{first} and "
                    f"{j}{second}"
                )
            t, u, sign = res[1], res[2], res[3]
            a, b = path1.segment(i)
            pt = a + (b - a) * float(t)
            out.append(
                Crossing(
                    t=path1.global_param(i, float(t)),
                    s=path2.global_param(j, float(u)),
                    point=pt,
                    sign=sign,
                )
            )
    out.sort(key=lambda cr: (cr.t, cr.s))
    return out


def self_intersections(path: PLPath) -> List[Crossing]:
    """All transverse self-crossings, each once, with t < s."""
    return _crossings(path, path, same=True)


def intersections(path1: PLPath, path2: PLPath) -> List[Crossing]:
    """Transverse crossings between two paths; sign is the orientation of
    (velocity of path1, velocity of path2).  Crossing.t parametrizes path1
    and Crossing.s parametrizes path2."""
    return _crossings(path1, path2, same=False)


# -- rotation number ----------------------------------------------------------


def _turning_angle(v_in: complex, v_out: complex) -> float:
    ang = math.atan2((v_in.conjugate() * v_out).imag, (v_in.conjugate() * v_out).real)
    if abs(abs(ang) - math.pi) < 1e-12:
        raise ValidationError("cusp: turning angle of +-pi at a vertex")
    return ang


def rotation_number(path: PLPath) -> float:
    """Total tangent winding divided by 2*pi, between tangential anchors.

    The tangent starts along the start direction and ends along the reversed
    end direction; both boundary turning angles vanish by the path
    invariants, so the winding is the sum of interior exterior angles.
    """
    if path.start.kind != TANGENTIAL or path.end.kind != TANGENTIAL:
        raise DomainError("rotation number needs tangential anchors at both ends")
    total = 0.0
    pts = path.points
    for k in range(1, len(pts) - 1):
        v_in = pts[k] - pts[k - 1]
        v_out = pts[k + 1] - pts[k]
        total += _turning_angle(v_in / abs(v_in), v_out / abs(v_out))
    return total / _TWO_PI


def snap_half_integer(x: float) -> float:
    """Round to the nearest half-integer; error if farther than 1e-9 from it."""
    snapped = round(2.0 * x) / 2.0
    if abs(snapped - x) > 1e-9:
        raise ValidationError(f"{x} is not a half-integer within 1e-09")
    return snapped


# -- composition ---------------------------------------------------------------


def _nearest_scale(path1: PLPath, path2: PLPath, anchor_point: complex) -> float:
    dists = []
    for z in path1.punctures.points:
        if z != anchor_point:
            dists.append(abs(z - anchor_point))
    for p in (path1, path2):
        for v in p.points:
            if v != anchor_point:
                dists.append(abs(v - anchor_point))
    return min(dists)


def compose(path2: PLPath, path1: PLPath) -> PLPath:
    """Concatenation path2 after path1.

    At a shared tangential anchor the junction inserts a clockwise half-turn
    beside the puncture: the incoming strand is cut short and dips below the
    anchor ray, a vertical segment crosses the ray heading north (adding
    exactly -pi of tangent winding in total), and the outgoing strand rejoins
    the departing ray.  The four junction turning angles cancel in pairs, so
    the composite satisfies rot(p2 p1) = rot(p1) + rot(p2) - 1/2 exactly.
    The junction's two segments on the anchor ray overlap, so unless both
    belong to the composite's tails every crossing scan refuses it as a
    non-transverse contact; its holonomy and rotation number are unaffected.
    """
    if path1.punctures.points != path2.punctures.points:
        raise CompositionError("paths live on different puncture configurations")
    e1, s2 = path1.end, path2.start
    if e1.kind != s2.kind:
        raise CompositionError("mismatched anchors at the junction")
    if e1.kind == REGULAR:
        if e1.point != s2.point:
            raise CompositionError("regular junction points differ")
        vertices = list(path1.vertices) + [e1.point] + list(path2.vertices)
        return PLPath(path1.punctures, path1.start, path2.end, vertices)
    if (e1.puncture, e1.direction) != (s2.puncture, s2.direction):
        raise CompositionError("tangential junction anchors differ")
    z = e1.location(path1.punctures)
    v = e1.direction
    scale = 0.25 * _nearest_scale(path1, path2, z)
    in_len = abs(path1.points[-2] - z)
    out_len = abs(path2.points[1] - z)
    r = min(scale, 0.5 * in_len, 0.5 * out_len)
    d = 0.8125 * r  # cut point on the incoming tail
    b = 0.78125 * r  # rejoin point on the outgoing tail
    rho = 0.375 * r  # horizontal offset of the vertical crossing segment
    eta = 0.234375 * r  # dip depth below / rise above the ray
    junction = [
        z + v * d,
        z + v * complex(rho, -eta),
        z + v * complex(rho, eta),
        z + v * b,
    ]
    vertices = list(path1.vertices) + junction + list(path2.vertices)
    return PLPath(path1.punctures, path1.start, path2.end, vertices)


# -- subpaths -------------------------------------------------------------------


def subpath(path: PLPath, t_from: float, t_to: float) -> PLPath:
    """Restriction of the path to [t_from, t_to].

    Cuts at interior parameters produce regular anchors at the points of
    `PLPath.with_breakpoints`, so a cut at a vertex ends at that vertex; the
    original anchors are kept when the cut touches 0 or 1.
    """
    if not 0.0 <= t_from < t_to <= 1.0:
        raise DomainError(f"need 0 <= from < to <= 1, got {t_from}, {t_to}")
    points, index = path.with_breakpoints([t for t in (t_from, t_to) if 0.0 < t < 1.0])
    i, j = index.get(t_from, 0), index.get(t_to, len(points) - 1)
    start = path.start if t_from == 0.0 else Anchor.regular(points[i])
    end = path.end if t_to == 1.0 else Anchor.regular(points[j])
    return PLPath(path.punctures, start, end, points[i + 1 : j])
