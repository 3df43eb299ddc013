"""Numerical parallel transport and regularized holonomy of the logarithmic
flat connection  (1/2 pi i) sum_i x_i dlog(z - z_i)  along polyline paths.

The transport is computed degree by degree on level arrays: level k of a state
holds the coefficients of the n^k words of length k in lexicographic order,
and the triangular system of iterated integrals they satisfy is evaluated on
adaptive Gauss-Legendre panels, one broadcast and one real matmul per level
(on the complex integrand's real and imaginary parts).  Tangential endpoints
are regularized by one cutoff at 0.3 of the anchor's local scale: the stretch
inside the cutoff is the analytic local frame (the same panel with the
puncture's pole conjugated away) times a branch-fixed logarithmic factor, so
the result carries no cutoff error.  Frames and prefixes are composed as level
products.  The reported accuracy is the summed subdivision residual of the
polyline and both frames; a transport whose summed residual exceeds the
requested accuracy raises AccuracyError.

Each path is transported once, with breakpoints at the crossing parameters
an identity needs; the result keeps the prefix holonomies P(t) there, and
every piece Hol(path[a, b]) = P(b) P(a)^-1 is read off them (Chen's
identity).  On top of the transport engine sit the assembled right-hand
sides of the holonomy identities: the reduced-coaction formula (which is
also the projected pentagon identity), checked on level arrays, the pairing
formula for two paths, and the loop-bracket checks on cyclic words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .brackets_coactions import CyclicWedge, necklace_bracket, necklace_cobracket
from .coefficients import TWO_PI_I, r_am_series, r_zeta_series
from .errors import AccuracyError, DomainError, ValidationError
from .fox_calculus import d_left, d_right
from .free_hopf import COMPLEX, CyclicSeries, FreeSeries
from .kz_paths import (
    Anchor,
    Crossing,
    PLPath,
    PunctureConfig,
    TANGENTIAL,
    intersections,
    rotation_number,
    self_intersections,
    snap_half_integer,
)

Levels = List[np.ndarray]  # level k: the n^k words of length k, ravel order

DEFAULT_ACCURACY = 1e-10
# cutoff radius at a tangential anchor, as a fraction of its local scale
_CUTOFF = 0.3
_MAX_DEPTH = 48
# floor under the panel tolerance, per unit of panel conditioning: residuals
# below it are roundoff
_ROUNDOFF_FLOOR = 1e-15
_GL_ORDER = 16


def _gauss_legendre_setup(order: int):
    """Nodes, weights, and the spectral integration matrix Q with
    Q[j, l] = integral of the l-th Lagrange cardinal from -1 to node j."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    vander = np.polynomial.legendre.legvander(nodes, order - 1)
    inv_vander = np.linalg.inv(vander)  # node values -> Legendre coefficients
    q = np.empty((order, order))
    for l in range(order):
        anti = np.polynomial.legendre.legint(inv_vander[:, l], lbnd=-1.0)
        q[:, l] = np.polynomial.legendre.legval(nodes, anti)
    return nodes, weights, q


_GL_NODES, _GL_WEIGHTS, _GL_INTMAT = _gauss_legendre_setup(_GL_ORDER)
# integrand node values -> next node values (rows 0-15) and end value (row 16)
_GL_MAP = np.vstack([_GL_INTMAT, _GL_WEIGHTS])


class ConnectionSpec:
    """The connection data: punctures paired with generators and a
    truncation degree; the series are complex."""

    def __init__(self, punctures: PunctureConfig, trunc_degree: int):
        if trunc_degree < 0:
            raise DomainError("truncation degree must be >= 0")
        self.punctures = punctures
        self.trunc_degree = trunc_degree
        self._points = np.array(punctures.points, dtype=complex)

    @property
    def n_generators(self) -> int:
        return self.punctures.n

    def unit(self) -> FreeSeries:
        return FreeSeries.unit(self.n_generators, self.trunc_degree, COMPLEX)

    def generator(self, i: int) -> FreeSeries:
        return FreeSeries.generator(i, self.n_generators, self.trunc_degree, COMPLEX)


@dataclass(frozen=True)
class HolonomyResult:
    """Regularized holonomy along a path, with an error report.

    `levels` is the holonomy as the transport's level arrays, and `prefixes`
    maps each breakpoint t of the transport to the level arrays of the prefix
    holonomy P(t) = Hol(path[0, t]); `piece` reads the holonomy of any piece
    of the path cut at breakpoints off them by Chen's identity.  `series`
    is converted from `levels` on its first read."""

    path: PLPath
    accuracy_estimate: float
    regularization_report: dict
    prefixes: Dict[float, Levels]
    levels: Levels

    @cached_property
    def series(self) -> FreeSeries:
        return _to_series(self.path.punctures.n, self.levels)

    def _prefix(self, t: float) -> Levels:
        if t == 0.0:
            return [np.ones(1, complex)] + [np.zeros_like(a) for a in self.levels[1:]]
        if t == 1.0:
            return self.levels
        if t not in self.prefixes:
            raise ValidationError(f"t = {t!r} is not a breakpoint of this transport")
        return self.prefixes[t]

    def _piece_levels(self, a: float, b: float) -> Levels:
        """Hol(path[a, b]) = P(b) * P(a)^-1 as level arrays; the prefix is
        grouplike, so its antipode is its inverse."""
        if a == 0.0:
            return self._prefix(b)
        n = self.path.punctures.n
        return _level_mul(self._prefix(b), _level_antipode(self._prefix(a), n))

    def piece(self, a: float, b: float) -> FreeSeries:
        """Hol(path[a, b]), a level product of two prefixes."""
        return _to_series(self.path.punctures.n, self._piece_levels(a, b))

    def to_json_dict(self) -> dict:
        report = {"accuracy": self.accuracy_estimate}
        report.update(self.regularization_report)
        if (
            self.path.start.kind == TANGENTIAL
            and self.path.end.kind == TANGENTIAL
        ):
            report["rot"] = snap_half_integer(rotation_number(self.path))
            report["crossings"] = [
                {"t": c.t, "s": c.s, "sign": c.sign}
                for c in self_intersections(self.path)
            ]
        return {"series": self.series.to_json_dict(), "report": report}


# ---------------------------------------------------------------------------
# transport engine
# ---------------------------------------------------------------------------
def _level_mul(a: Levels, b: Levels) -> Levels:
    """Truncated product: level k is the sum over i of outer(a_i, b_{k-i})."""
    return [
        sum(np.outer(a[i], b[k - i]).ravel() for i in range(k + 1))
        for k in range(len(a))
    ]


def _level_antipode(levels: Levels, n: int) -> Levels:
    """S(w) = (-1)^|w| reversed(w): each level with its axes reversed."""
    return [(-1) ** k * v.reshape((n,) * k).T.ravel() for k, v in enumerate(levels)]


def _sparse_mul(levels: Levels, coeffs: dict, n: int, left: bool) -> Levels:
    """`levels` times sparse `coeffs` (on the left when `left`): a term c*w of
    length j adds c * A_{k-j} at w's index among level k's last (first) j letters."""
    out = [np.zeros_like(a) for a in levels]
    for w, c in coeffs.items():
        j, index = len(w), reduce(lambda i, letter: i * n + letter - 1, w, 0)
        for k in range(j, len(levels)):
            block = out[k].reshape(n**j, -1).T if left else out[k].reshape(-1, n**j)
            block[:, index] += c * levels[k - j]
    return out


def _combine(terms: Sequence[Tuple[float, Levels]], n: int, degree: int) -> Levels:
    """The sum of s * A over the (s, A) terms, through `degree`."""
    zero = [np.zeros(n**k, dtype=complex) for k in range(degree + 1)]
    return [sum((s * a[k] for s, a in terms), z) for k, z in enumerate(zero)]


def _to_series(n: int, levels: Levels) -> FreeSeries:
    """The one conversion from level arrays to a FreeSeries; the keys are
    normal words within D by construction, so only stored zeros are dropped."""
    letters = range(1, n + 1)
    words = (w for k in range(len(levels)) for w in product(letters, repeat=k))
    terms = dict(zip(words, np.concatenate(levels).tolist()))
    return FreeSeries._trusted(n, len(levels) - 1, (), COMPLEX, terms)


def _to_levels(series: FreeSeries) -> Levels:
    """The one conversion from a complex FreeSeries to level arrays, the
    inverse of `_to_series`: word w goes to index sum_i (w_i - 1) n^(k-1-i)."""
    n = series.n
    levels = [np.zeros(n**k, dtype=complex) for k in range(series.degree + 1)]
    for w, c in series.coeffs.items():
        index = 0
        for letter in w:
            index = index * n + letter - 1
        levels[len(w)][index] = c
    return levels


def _panel_transport(
    conn: ConnectionSpec,
    z0: complex,
    dz: complex,
    a: float,
    b: float,
    init: Levels,
    pole: int = 0,
) -> Levels:
    """One Gauss-Legendre panel over the local parameter span [a, b] of the
    segment z(u) = z0 + dz*u; returns the state at u = b.

    With a nonzero `pole`, z0 is that puncture, dz a unit ray direction, and
    the panel integrates the analytic local frame U instead: the transport
    equation conjugated by the local monodromy factor u^{x_pole/2pi i}.  The
    conjugation replaces the simple pole at the puncture with the bounded
    commutator term (x_pole U - U x_pole)/u, so the integrand is analytic up
    to u = 0."""
    half = 0.5 * (b - a)
    u = 0.5 * (a + b) + half * _GL_NODES
    z = z0 + dz * u
    n = conn.n_generators
    # node-major: factors[node, i] and nodes[node, word]
    factors = (dz * half / TWO_PI_I) / (z[:, None] - conn._points)
    if pole:
        factors[:, pole - 1] = (half / TWO_PI_I) / u
    nodes = np.full((_GL_ORDER, 1), init[0][0])
    end = [init[0]]
    for k, level in enumerate(init[1:], 2):
        # the integrand of x_i w is the factor of x_i times the node values of w
        g = (factors[:, :, None] * nodes[:, None]).reshape(_GL_ORDER, -1)
        if pole:
            # words ending in the pole: minus its factor times the node values
            # of the word without that letter
            g.reshape(len(g), -1, n)[..., pole - 1] -= factors[:, [pole - 1]] * nodes
        # one real matmul on the real and imaginary parts; the top level's node
        # values are never read, so it takes the end row alone
        rows = _GL_MAP[-1:] if k == len(init) else _GL_MAP
        out = (rows @ g.view(float)).view(complex)
        end.append(level + out[-1])  # a copy, so the state pins no work buffer
        nodes = out[:-1]
        nodes += level
    return end


def _conditioning(
    conn: ConnectionSpec, z0: complex, dz: complex, a: float, b: float, pole: int
) -> float:
    """max over the panel's nodes z and the punctures z_i other than the pole
    of (|z| + |z_i|) / |z - z_i|; at least 1 by the triangle inequality."""
    z = (z0 + dz * (0.5 * (a + b) + 0.5 * (b - a) * _GL_NODES))[:, None]
    zi = np.delete(conn._points, pole - 1) if pole else conn._points
    return float(np.max((np.abs(z) + np.abs(zi)) / np.abs(z - zi), initial=1.0))


def _advance(
    conn: ConnectionSpec,
    z0: complex,
    dz: complex,
    a: float,
    b: float,
    init: Levels,
    tol: float,
    depth: int,
    where: str,
    pole: int = 0,
) -> Tuple[Levels, float]:
    """Adaptive bisection of a panel until whole and split panels agree to
    `tol`; returns the state at u = b and the summed panel residual."""
    whole = _panel_transport(conn, z0, dz, a, b, init, pole)
    mid = 0.5 * (a + b)
    first = _panel_transport(conn, z0, dz, a, mid, init, pole)
    halves = _panel_transport(conn, z0, dz, mid, b, first, pole)
    err = max(float(np.max(np.abs(w - h))) for w, h in zip(whole, halves))
    # the roundoff floor keeps deep subdivisions from demanding sub-epsilon
    # panel residuals; it scales with the panel's conditioning, because the
    # roundoff in 1/(z - z_i) grows as the gap to a puncture shrinks
    threshold = max(tol, _ROUNDOFF_FLOOR * _conditioning(conn, z0, dz, a, b, pole))
    if err <= threshold:
        return halves, err
    if depth >= _MAX_DEPTH:
        raise AccuracyError(
            f"panel subdivision limit exceeded on {where} "
            f"(residual {err:.3e} > {threshold:.3e}); the path may run too "
            "close to a puncture"
        )
    left, err_l = _advance(
        conn, z0, dz, a, mid, init, 0.5 * tol, depth + 1, where, pole
    )
    right, err_r = _advance(
        conn, z0, dz, mid, b, left, 0.5 * tol, depth + 1, where, pole
    )
    return right, err_l + err_r


def _transport_polyline(
    conn: ConnectionSpec, points: Sequence[complex], tol: float
) -> Tuple[List[Levels], float]:
    """The transport state at every point of the polyline, and the summed
    subdivision residual."""
    states = [_to_levels(conn.unit())]
    total_err = 0.0
    for k in range(len(points) - 1):
        z0 = complex(points[k])
        dz = complex(points[k + 1]) - z0
        state, err = _advance(
            conn, z0, dz, 0.0, 1.0, states[-1], tol, 0, f"segment {k}"
        )
        states.append(state)
        total_err += err
    return states, total_err


def _with_breakpoints(
    path: PLPath, breakpoints: Sequence[float]
) -> Tuple[List[complex], Dict[float, int]]:
    """The path's points with a vertex added at each breakpoint, and the
    index of each breakpoint's point among them."""
    by_segment: Dict[int, List[Tuple[float, float]]] = {}
    for t in sorted(set(breakpoints)):
        if not 0.0 < t < 1.0:
            raise DomainError(f"breakpoint {t} outside (0, 1)")
        k, u = path.locate(t)
        by_segment.setdefault(k, []).append((t, u))
    points = [path.points[0]]
    index: Dict[float, int] = {}
    for k in range(path.n_segments):
        a, b = path.segment(k)
        for t, u in by_segment.get(k, ()):
            points.append(a + (b - a) * u)
            index[t] = len(points) - 1
        points.append(b)
    return points, index


# ---------------------------------------------------------------------------
# regularized holonomy
# ---------------------------------------------------------------------------
def _local_scale(conn: ConnectionSpec, puncture: int, tail_length: float) -> float:
    """The distance to the nearest other puncture, capped by the tail length."""
    others = np.delete(conn._points, puncture - 1)
    return float(np.abs(others - conn._points[puncture - 1]).min(initial=tail_length))


def _local_frame(
    conn: ConnectionSpec, anchor: Anchor, neighbour: complex, accuracy: float
) -> Tuple[complex, float, Levels, float]:
    """Cut a tangential anchor off at radius r = _CUTOFF * local scale along
    its ray.  Returns the cut point, r, the regularizing factor
    U(r) * exp(log(r) x_p / 2pi i) that transports from the tangential base
    point to the cut point, and the frame's subdivision residual.

    U is the analytic frame normalized by U = 1 at the puncture.  The local
    coordinate (z - z_p)/v is real positive on the ray, so the branch factor
    uses a real logarithm; with U in place the result does not depend on r.
    The factor exp(c x_p), c = log(r) / 2pi i, is c^k / k! on the word p^k."""
    p = anchor.puncture
    zp = conn.punctures.point(p)
    v = anchor.direction / abs(anchor.direction)
    r = _CUTOFF * _local_scale(conn, p, abs(neighbour - zp))
    state, err = _advance(
        conn, zp, v, 0.0, r, _to_levels(conn.unit()), accuracy, 0,
        f"the local frame at puncture {p}", pole=p,
    )
    c = math.log(r) / TWO_PI_I
    branch = {(p,) * k: c**k / math.factorial(k) for k in range(conn.trunc_degree + 1)}
    return zp + v * r, r, _sparse_mul(state, branch, conn.n_generators, False), err


def holonomy_reg(
    conn: ConnectionSpec,
    path: PLPath,
    accuracy: float = DEFAULT_ACCURACY,
    breakpoints: Sequence[float] = (),
) -> HolonomyResult:
    """Regularized holonomy along a path, with the prefix holonomies
    P(t) = Hol(path[0, t]) at the given breakpoints 0 < t < 1.

    Each tangential anchor is cut off at a single radius, 0.3 of its local
    scale (the distance to the nearest other puncture, capped by the nearest
    vertex or breakpoint on the tail), and the stretch from the tangential
    base point to the cut is supplied by the analytic local frame with its
    branch-fixed logarithmic factor.  The polyline between the cuts, with a
    vertex added at each breakpoint, is transported once by adaptive
    Gauss-Legendre quadrature; the requested accuracy is shared evenly among
    its segments and the frames.  `accuracy_estimate` is the summed
    subdivision residual of the polyline and of both local frames, and an
    AccuracyError is raised when it exceeds `accuracy`; the report records
    the cut radii and the polyline's share as `quadrature_error`."""
    if path.punctures.points != conn.punctures.points:
        raise ValidationError("path and connection use different punctures")
    points, index = _with_breakpoints(path, breakpoints)
    n_frames = (path.start.kind == TANGENTIAL) + (path.end.kind == TANGENTIAL)
    tol = accuracy / (len(points) - 1 + n_frames)
    report: dict = {}
    pre = post = _to_levels(conn.unit())
    frame_err = 0.0
    if path.start.kind == TANGENTIAL:
        points[0], report["cutoff_start"], pre, err = _local_frame(
            conn, path.start, points[1], tol
        )
        frame_err += err
    if path.end.kind == TANGENTIAL:
        points[-1], report["cutoff_end"], post, err = _local_frame(
            conn, path.end, points[-2], tol
        )
        frame_err += err
    states, quad_err = _transport_polyline(conn, points, tol)
    total_err = quad_err + frame_err
    if total_err > accuracy:
        raise AccuracyError(
            f"summed subdivision residual {total_err:.3e} exceeds the requested "
            f"accuracy {accuracy:.3e}; the path may run too close to a puncture"
        )
    report["quadrature_error"] = quad_err
    prefixes = {t: _level_mul(states[i], pre) for t, i in index.items()}
    end = _level_mul(states[-1], pre)
    # the end frame is grouplike, so its antipode is its inverse
    end = _level_mul(_level_antipode(post, conn.n_generators), end)
    return HolonomyResult(path, total_err, report, prefixes, end)


def associator(degree: int, accuracy: float = DEFAULT_ACCURACY) -> FreeSeries:
    """Regularized holonomy along the straight path between punctures 0 and 1
    on the real axis, in two generators."""
    punctures = PunctureConfig([0.0, 1.0])
    conn = ConnectionSpec(punctures, degree)
    path = PLPath(
        punctures,
        Anchor.tangential(1, 1.0),
        Anchor.tangential(2, -1.0),
        [],
    )
    return holonomy_reg(conn, path, accuracy=accuracy).series


# ---------------------------------------------------------------------------
# assembled identity right-hand sides
#
# The assembled formulas mix degree-preserving terms (products with holonomy
# factors) and degree-lowering terms (Fox derivatives, reduced coaction).  At
# word degree k the degree-lowering terms read the degree-(k+1) part of the
# holonomy, so at truncation degree D the identities are exact only through
# degree D-1; the assemblies below therefore return/compare series truncated
# to D-1.
# ---------------------------------------------------------------------------
def _require_tangential(path: PLPath, which: str) -> int:
    anchor = path.start if which == "start" else path.end
    if anchor.kind != TANGENTIAL:
        raise ValidationError(f"{which} anchor must be tangential")
    return anchor.puncture


def _ray_germ(path: PLPath, which: str) -> float:
    """Resolved height of a tail strand near its tangential anchor: the
    strand leaving the start anchor ("out") or arriving at the end anchor
    ("in").

    Near a tangential anchor every path runs exactly on the anchor ray, so
    polyline realizations degenerate: the smooth curves they stand for are
    separated by infinitesimal heights.  The resolution pushes each strand to
    the side it eventually departs to, with strands that leave the ray earlier
    lying farther from it.  The returned value is (departure side) / (contact
    span), and 0.0 for a tail that stays on the ray up to the far anchor;
    comparing two such values reproduces the vertical order of the resolved
    strands in the ray frame w = (z - base) / direction.
    """
    anchor = path.start if which == "out" else path.end
    base = anchor.location(path.punctures)
    v = anchor.direction
    pts = path.points if which == "out" else tuple(reversed(path.points))
    span = 0.0
    for pt in pts[1:]:
        w = (pt - base) / v
        if abs(w.imag) > 1e-12 * max(1.0, abs(w.real)):
            return (1.0 if w.imag > 0 else -1.0) / span
        span = w.real
    return 0.0


def _above(x: Tuple[PLPath, str], y: Tuple[PLPath, str]) -> float:
    """1.0 when the tail strand x = (path, "out" | "in") lies above strand y
    at their common tangential point, that is, has the larger `_ray_germ`;
    else 0.0.

    This is the one strand order at a base point: a loop's closing turn
    ([p>P] - 1/2 of winding), the crossing of two loops there and the corner
    terms of the pairing formula all read it."""
    g_x, g_y = _ray_germ(*x), _ray_germ(*y)
    if g_x == g_y:
        raise ValidationError(
            "ambiguous base-strand ordering: two tails have equal ray-contact "
            "spans on the same side; perturb a turning point"
        )
    return 1.0 if g_x > g_y else 0.0


def _base_corners(loop1: PLPath, loop2: PLPath) -> Tuple[float, ...]:
    """The corner indicators [p>Q], [P>Q], [p>q], [P>q] of two loops at one
    base point, with P, p loop1's outgoing and incoming strands and Q, q
    loop2's.  In the pairing formula each corner turns the -1/2 constant of
    r_am in the loop term into -1/2 + [loop1's strand above loop2's]."""
    return tuple(_above((loop1, a), (loop2, b)) for a, b in
                 (("in", "out"), ("out", "out"), ("in", "in"), ("out", "in")))


def _base_linking(loop1: PLPath, loop2: PLPath) -> float:
    """Sign of the crossing between two loops at their common base point in
    the resolved smooth model: the alternating corner sum, +-1 when the four
    tail strands alternate and 0.0 when they nest."""
    pQ, PQ, pq, Pq = _base_corners(loop1, loop2)
    return pQ - PQ - pq + Pq


def crossing_breakpoints(crossings: Sequence[Crossing]) -> List[float]:
    """Both parameters of each self-crossing: the breakpoints of a transport
    that serves every piece the self-crossing terms need."""
    return [x for c in crossings for x in (c.t, c.s)]


def _mu_bar_levels(levels: Levels, n: int) -> Levels:
    """mu_bar through D-1: level k sums the adjacent-axis diagonals of level k+1."""
    out = []
    for k, a in enumerate(levels[1:]):
        cube = a.reshape((n,) * (k + 1))
        diagonals = (np.moveaxis(cube.diagonal(0, i, i + 1), -1, i) for i in range(k))
        out.append(sum(diagonals, np.zeros((n,) * k, dtype=complex)).ravel())
    return out


def _fox_levels(levels: Levels, m: int, n: int, left: bool) -> Levels:
    """d_left(m, .) when `left`, else d_right(m, .): slices, through degree D-1."""
    return [(a.reshape(-1, n) if left else a.reshape(n, -1).T)[:, m - 1]
            for a in levels[1:]]


def _rho_kks_levels(a: Levels, b: Levels, n: int) -> Levels:
    """rho_kks(a, b) through degree D: u.x paired with x.v gives u.x.v, so
    level k joins a_i and b_(k+1-i) on their shared letter, for i = 1..k."""
    return [np.zeros(1, dtype=complex)] + [
        sum(np.einsum("px,xq->pxq", a[i].reshape(-1, n), b[k + 1 - i].reshape(n, -1))
            .ravel() for i in range(1, k + 1))
        for k in range(1, len(a))
    ]


def _coaction_rhs(hol: HolonomyResult, cuts: Sequence[Crossing], rot: float) -> Levels:
    """`mu_bar_rhs` as level arrays through degree D-1."""
    p, q = (_require_tangential(hol.path, which) for which in ("start", "end"))
    h, n, deg = hol.levels, hol.path.punctures.n, len(hol.levels) - 1
    if deg < 1:
        raise DomainError("the reduced-coaction formula needs truncation degree >= 1")
    zeta_p = r_zeta_series(p, deg, n, negate_variable=True).coeffs
    terms = [
        (1.0, _sparse_mul(h, zeta_p, n, False)),
        (rot, h),
        (-1.0, _sparse_mul(h, r_zeta_series(q, deg, n).coeffs, n, True)),
        (-1.0, _fox_levels(h, p, n, True)),
        (-1.0, _fox_levels(h, q, n, False)),
    ]
    for c in cuts:
        pieces = hol._piece_levels(c.s, 1.0)[:deg], hol._piece_levels(0.0, c.t)[:deg]
        terms.append((float(c.sign), _level_mul(*pieces)))
    if p == q:
        # A loop's smooth model has one more self-intersection than the
        # polyline shows: the closing of the two tail strands through the
        # base point.  Its regularized contribution is a universal series in
        # the base generator, fixed by the closure turn direction: the
        # constant -1/2 of r_am becomes 1/2 - [p>P].
        closure = _to_levels(r_am_series(p, deg - 1, n))
        closure[0] += 1.0 - _above((hol.path, "in"), (hol.path, "out"))
        terms.append((1.0, closure))
    return _combine(terms, n, deg - 1)


def mu_bar_rhs(
    hol: HolonomyResult, crossings: Sequence[Crossing], rot: float
) -> FreeSeries:
    """Right-hand side of the reduced-coaction formula for the holonomy of a
    path between tangential points p and q (p = q for loops), from the path's
    `self_intersections` and snapped `rotation_number`, read off its
    transport with breakpoints at `crossing_breakpoints(crossings)`; the
    result is truncated to degree D-1, the range on which the assembly is
    exact."""
    return _to_series(hol.path.punctures.n, _coaction_rhs(hol, crossings, rot))


def rho_paths(
    conn: ConnectionSpec,
    path2: PLPath,
    path1: PLPath,
    accuracy: float = DEFAULT_ACCURACY,
) -> FreeSeries:
    """Right-hand side of the pairing formula for the holonomies of two paths
    (first argument = second factor of the pairing, as in rho(H2, H1)).

    path1 runs from tangential p to q, path2 from tangential r to s; all
    anchor punctures distinct except possibly q = r.  When both paths are
    loops at a common tangential point the loop variant of the formula is
    assembled instead.  Where tail strands of the two paths meet at a
    puncture, each pair of a path1 strand X and a path2 strand Y adds a
    corner term [X>Y] (`_above`): the four corners of `_base_corners` for two
    loops, [path1 arriving > path2 leaving] times h2 h1 at a shared middle
    point.  The result is truncated to degree D-1.
    """
    p = _require_tangential(path1, "start")
    q = _require_tangential(path1, "end")
    r = _require_tangential(path2, "start")
    s = _require_tangential(path2, "end")
    n, deg = conn.n_generators, conn.trunc_degree
    cuts = intersections(path1, path2)
    hol1 = holonomy_reg(conn, path1, accuracy, [c.t for c in cuts])
    hol2 = holonomy_reg(conn, path2, accuracy, [c.s for c in cuts])
    h1, h2 = hol1.series, hol2.series
    total = FreeSeries.zero(n, deg, COMPLEX)
    for c in cuts:
        total = total + float(c.sign) * (hol2.piece(c.s, 1.0) * hol1.piece(0.0, c.t))
    if p == q == r == s:
        m = p
        one = FreeSeries.unit(n, deg, COMPLEX)
        total = total + (h2 - one) * r_am_series(m, deg, n) * (h1 - one)
        total = total + d_left(m, h2) * (h1 - one) + (h2 - one) * d_right(m, h1)
        pQ, PQ, pq, Pq = _base_corners(path1, path2)
        total = total + pQ * (h2 * h1) - PQ * h2 - pq * h1 + Pq * one
        return total.with_degree(deg - 1)
    distinct = {p, q, r, s}
    if len(distinct) < 4 and not (q == r and len({p, q, s}) == 3):
        raise ValidationError(
            "anchor punctures must be distinct (except a shared middle point "
            "q = r, or two loops at a common point)"
        )
    if q == r:
        total = total + h2 * r_am_series(q, deg, n) * h1
        total = total + _above((path1, "in"), (path2, "out")) * (h2 * h1)
    total = total - d_left(p, h2) - d_right(s, h1)
    total = total + d_left(q, h2) * h1 + h2 * d_right(r, h1)
    return total.with_degree(deg - 1)


def goldman_bracket_check(
    conn: ConnectionSpec,
    loop2: PLPath,
    loop1: PLPath,
    accuracy: float = DEFAULT_ACCURACY,
) -> dict:
    """Compare the necklace bracket of two loop holonomies against the
    crossing formula on cyclic words, and each loop's necklace cobracket
    against its crossing-plus-rotation formula."""
    ends = (loop1, "start"), (loop1, "end"), (loop2, "start"), (loop2, "end")
    if len({_require_tangential(*end) for end in ends}) > 1:
        raise ValidationError("both loops must share one tangential base point")
    n, deg = conn.n_generators, conn.trunc_degree
    crossings = intersections(loop1, loop2)
    self1, self2 = self_intersections(loop1), self_intersections(loop2)
    hol1 = holonomy_reg(
        conn, loop1, accuracy, [c.t for c in crossings] + crossing_breakpoints(self1)
    )
    hol2 = holonomy_reg(
        conn, loop2, accuracy, [c.s for c in crossings] + crossing_breakpoints(self2)
    )
    # each holonomy is projected to cyclic words once, for all three maps
    c1, c2 = hol1.series.cyclic_project(), hol2.series.cyclic_project()
    lhs = necklace_bracket(c2, c1)
    terms = []
    for c in crossings:
        # each loop rerooted at the crossing: Hol(loop[0, t]) Hol(loop[t, 1])
        r1 = _level_mul(hol1._piece_levels(0.0, c.t), hol1._piece_levels(c.t, 1.0))
        r2 = _level_mul(hol2._piece_levels(0.0, c.s), hol2._piece_levels(c.s, 1.0))
        terms.append((float(c.sign), _level_mul(r1, r2)))
    # The base point is itself an intersection of the two loops; the resolved
    # curves cross there once when the four tail strands alternate.
    base_sign = _base_linking(loop1, loop2)
    if base_sign:
        terms.append((base_sign, _level_mul(hol1.levels, hol2.levels)))
    rhs = _to_series(n, _combine(terms, n, deg)).cyclic_project()
    report = {
        "bracket_discrepancy": (lhs - rhs).norm_through(deg - 1),
        "n_crossings": len(crossings),
        "base_linking": base_sign,
        "cobracket_discrepancy": [
            _cobracket_discrepancy(conn, loop1, hol1, c1, self1),
            _cobracket_discrepancy(conn, loop2, hol2, c2, self2),
        ],
    }
    report["max_discrepancy"] = max(
        [report["bracket_discrepancy"]] + report["cobracket_discrepancy"]
    )
    return report


def _cobracket_discrepancy(
    conn: ConnectionSpec,
    loop: PLPath,
    hol: HolonomyResult,
    cyc: CyclicSeries,
    crossings: Sequence[Crossing],
) -> float:
    """The cobracket check; `cyc` is the cyclic projection of hol.series."""
    n, deg = conn.n_generators, conn.trunc_degree
    lhs = necklace_cobracket(cyc)
    # The rotation term uses the tangent winding of the closed-up smooth
    # curve: the polyline rotation number plus the closing turn at the base,
    # counterclockwise (+1/2) when the incoming strand lies above the outgoing.
    turn = _above((loop, "in"), (loop, "out")) - 0.5
    rot = snap_half_integer(rotation_number(loop)) + turn
    one_cyc = FreeSeries.unit(n, deg, COMPLEX).cyclic_project()
    rhs = CyclicWedge.wedge(one_cyc, cyc).scale(rot)
    for c in crossings:
        middle = hol.piece(c.t, c.s)
        outer = _level_mul(hol._piece_levels(c.s, 1.0), hol._piece_levels(0.0, c.t))
        rhs = rhs + CyclicWedge.wedge(
            middle.cyclic_project(), _to_series(n, outer).cyclic_project()
        ).scale(float(c.sign))
    return (lhs - rhs).norm_through(deg - 1)


def coaction_check(
    conn: ConnectionSpec,
    path: PLPath,
    accuracy: float = DEFAULT_ACCURACY,
) -> dict:
    """Compare the reduced coaction of a path's holonomy with `mu_bar_rhs`
    through degree D-1, from one transport with breakpoints at the path's
    self-crossings; both sides are level arrays."""
    crossings = self_intersections(path)
    hol = holonomy_reg(conn, path, accuracy, crossing_breakpoints(crossings))
    rot = snap_half_integer(rotation_number(path))
    rhs = _coaction_rhs(hol, crossings, rot)
    lhs = _mu_bar_levels(hol.levels, conn.n_generators)
    return {
        "max_discrepancy": max(float(np.abs(a - b).max()) for a, b in zip(lhs, rhs)),
        "rot": rot,
        "n_crossings": len(crossings),
    }


def pentagon_projection_check(
    conn: ConnectionSpec,
    path: PLPath,
    accuracy: float = DEFAULT_ACCURACY,
) -> dict:
    """The projected pentagon identity for the holonomy of a path between two
    distinct tangential points p and q.

    Projected to the square-zero extension, the square maps of the
    generalized pentagon equation are d_right(q, .), d_left(p, .) and
    -mu_bar (`trivial_extension.square_z`, `square_w`, `square_zw`, checked
    against these closed forms by the exact suite), and its corner terms are
    the zeta series at q and at -x_p (`associator_tail`).  Term by term the
    projected identity is then the reduced-coaction formula, so it is checked
    by `coaction_check`.  A loop (start and end at the same tangential point)
    is rejected: the identity has no closure term for it."""
    _require_tangential(path, "start")
    _require_tangential(path, "end")
    if path.start == path.end:
        raise ValidationError(
            "the pentagon projection needs a path between two tangential "
            "points; start and end are the same point (a loop)"
        )
    return coaction_check(conn, path, accuracy)
