"""Numerical parallel transport and regularized holonomy of the logarithmic
flat connection  (1/2 pi i) sum_i x_i dlog(z - z_i)  along polyline paths.

The transport is computed degree by degree on level arrays (`kzfox.levels`):
the triangular system of iterated integrals they satisfy is evaluated on
adaptive Gauss-Legendre panels, one broadcast and one real matmul per level
(on the complex integrand's real and imaginary parts, the level's add folded
in), and at the top level one product of the weighted factors with the node
values below.  Tangential endpoints are regularized by one cutoff at 0.3 of
the anchor's local scale: the stretch inside the cutoff is the analytic local
frame (the same panel with the puncture's pole conjugated away) times a
branch-fixed logarithmic factor, so the result carries no cutoff error.
Frames and prefixes are composed as level products.  The reported accuracy
is the summed subdivision residual of the polyline and both frames; a
transport whose summed residual exceeds the requested accuracy raises
AccuracyError.

Each path is transported once, with breakpoints at the crossing parameters
an identity needs; the result keeps the prefix holonomies P(t) there, and
every piece Hol(path[a, b]) = P(b) P(a)^-1 is read off them (Chen's
identity).  On top of the transport engine sit the assembled right-hand
sides of the holonomy identities: the reduced-coaction formula (which is
also the projected pentagon identity) and the pairing formula for two paths,
both assembled on level arrays, and the loop bracket and cobracket checks on
cyclic words, also on level arrays and compared on rotation sums.  Every
check reads and refuses its geometry (anchors, degree, rotation number,
strand orders) before its first transport; the two-path identities
(`rho_paths`, `goldman_bracket_check`, `rep_space.verify_theorem2`) then
scan their crossings and transport through one front end, `transport_pair`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import levels
from .coefficients import TWO_PI_I, r_am_coefficients, r_zeta_coefficients
from .errors import AccuracyError, DomainError, ValidationError
from .free_hopf import FreeSeries
from .kz_paths import (
    DEFAULT_ACCURACY,
    Anchor,
    Crossing,
    PLPath,
    PunctureConfig,
    TANGENTIAL,
    above,
    base_linking,
    intersections,
    rotation_number,
    self_intersections,
    snap_half_integer,
    strand_pairs,
    tangential_points,
)
from .levels import Levels

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
# integrand node values (rows 0-15) and level (row 16) -> level plus next node
# values (rows 0-15) and level plus end value (row 16)
_GL_MAP = np.c_[np.vstack([_GL_INTMAT, _GL_WEIGHTS]), np.ones(_GL_ORDER + 1)]


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


@dataclass(frozen=True)
class HolonomyResult:
    """Regularized holonomy along a path, with its report: `accuracy_estimate`,
    the summed subdivision residual, and `regularization_report`, the cut
    radii, `quadrature_error`, `panels` and `max_depth` of `holonomy_reg`.

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
        return levels.to_series(self.path.punctures.n, self.levels)

    def _prefix(self, t: float) -> Levels:
        if t == 0.0:
            return levels.unit(self.path.punctures.n, len(self.levels) - 1)
        if t == 1.0:
            return self.levels
        if t not in self.prefixes:
            raise ValidationError(f"t = {t!r} is not a breakpoint of this transport")
        return self.prefixes[t]

    def piece(self, a: float, b: float) -> Levels:
        """Hol(path[a, b]) = P(b) * P(a)^-1 as level arrays; the prefix is
        grouplike, so its antipode is its inverse."""
        if a == 0.0:
            return self._prefix(b)
        n = self.path.punctures.n
        return levels.mul(self._prefix(b), levels.antipode(self._prefix(a), n))


# ---------------------------------------------------------------------------
# transport engine
# ---------------------------------------------------------------------------
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
    to u = 0.  The top level's end value contracts the weighted factors with
    the node values below it, so its (16, n^D) integrand is never built."""
    half = 0.5 * (b - a)
    u = 0.5 * (a + b) + half * _GL_NODES
    z = z0 + dz * u
    n = conn.n_generators
    # factors[i, node] and nodes[node, word]
    factors = (dz * half / TWO_PI_I) / (z - conn._points[:, None])
    if pole:
        factors[pole - 1] = (half / TWO_PI_I) / u
    nodes = np.full((_GL_ORDER, 1), init[0][0])
    end = [init[0]]
    for level in init[1:-1]:
        # the integrand of x_i w is the factor of x_i times the node values of
        # w, in rows 0-15 of the work buffer; the level is row 16
        work = np.empty((_GL_ORDER + 1, level.size), dtype=complex)
        g = work[:-1].reshape(_GL_ORDER, n, -1)
        np.multiply(factors.T[:, :, None], nodes[:, None], out=g)
        if pole:
            # words ending in the pole: minus its factor times the node values
            # of the word without that letter
            g.reshape(len(g), -1, n)[..., pole - 1] -= factors[[pole - 1]].T * nodes
        work[-1] = level
        out = (_GL_MAP @ work.view(float)).view(complex)
        end.append(out[-1].copy())  # a copy, so the state pins no work buffer
        nodes = out[:-1]
    if len(init) > 1:
        weighted = factors * _GL_WEIGHTS
        top = init[-1] + (weighted @ nodes).ravel()
        if pole:
            top.reshape(-1, n)[:, pole - 1] -= weighted[pole - 1] @ nodes
        end.append(top)
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
    whole: Optional[Levels] = None,
    work: Optional[Counter] = None,
) -> Tuple[Levels, float]:
    """Adaptive bisection of a panel until whole and split panels agree to
    `tol`; returns the state at u = b and the summed panel residual.  A left
    child's `whole` is its parent's first half; `work` counts panels and depth."""
    work = Counter() if work is None else work
    work["panels"] += 3 if whole is None else 2
    work["max_depth"] = max(work["max_depth"], depth)
    whole = whole or _panel_transport(conn, z0, dz, a, b, init, pole)
    mid = 0.5 * (a + b)
    first = _panel_transport(conn, z0, dz, a, mid, init, pole)
    halves = _panel_transport(conn, z0, dz, mid, b, first, pole)
    err = float(np.max(np.abs(np.concatenate(whole) - np.concatenate(halves))))
    # the roundoff floor keeps deep subdivisions from demanding sub-epsilon
    # panel residuals; it scales with the panel's conditioning, because the
    # roundoff in 1/(z - z_i) grows as the gap to a puncture shrinks; a
    # residual within tol passes whatever the floor
    if err <= tol or err <= (
        threshold := max(tol, _ROUNDOFF_FLOOR * _conditioning(conn, z0, dz, a, b, pole))
    ):
        return halves, err
    if depth >= _MAX_DEPTH:
        raise AccuracyError(
            f"panel subdivision limit exceeded on {where} "
            f"(residual {err:.3e} > {threshold:.3e}); the path may run too "
            "close to a puncture"
        )
    del whole, halves  # the children need neither, and the right child not `first`
    left, err_l = _advance(
        conn, z0, dz, a, mid, init, 0.5 * tol, depth + 1, where, pole, first, work
    )
    del first
    right, err_r = _advance(
        conn, z0, dz, mid, b, left, 0.5 * tol, depth + 1, where, pole, None, work
    )
    return right, err_l + err_r


def _transport_polyline(
    conn: ConnectionSpec, points: Sequence[complex], tol: float, keep: Collection[int],
    work: Optional[Counter] = None,
) -> Tuple[Dict[int, Levels], float]:
    """The transport state at each point index in `keep` and at the last
    point, and the summed subdivision residual; no other state is kept."""
    state = levels.unit(conn.n_generators, conn.trunc_degree)
    states: Dict[int, Levels] = {}
    total_err = 0.0
    for k in range(len(points) - 1):
        z0 = complex(points[k])
        dz = complex(points[k + 1]) - z0
        state, err = _advance(conn, z0, dz, 0.0, 1.0, state, tol, 0, f"segment {k}",
                              work=work)
        total_err += err
        if k + 1 in keep:
            states[k + 1] = state
    states[len(points) - 1] = state
    return states, total_err


# ---------------------------------------------------------------------------
# regularized holonomy
# ---------------------------------------------------------------------------
def _local_scale(conn: ConnectionSpec, puncture: int, tail_length: float) -> float:
    """The distance to the nearest other puncture, capped by the tail length."""
    others = np.delete(conn._points, puncture - 1)
    return float(np.abs(others - conn._points[puncture - 1]).min(initial=tail_length))


def _local_frame(
    conn: ConnectionSpec, anchor: Anchor, neighbour: complex, accuracy: float,
    work: Optional[Counter] = None,
) -> Tuple[complex, float, Levels, float]:
    """Cut a tangential anchor off at radius r = _CUTOFF * local scale along
    its ray.  Returns the cut point, r, the regularizing factor
    U(r) * exp(log(r) x_p / 2pi i) that transports from the tangential base
    point to the cut point, and the frame's subdivision residual.

    U is the analytic frame normalized by U = 1 at the puncture.  The local
    coordinate (z - z_p)/v is real positive on the ray, so the branch factor
    uses a real logarithm; with U in place the result does not depend on r.
    The factor exp(c x_p), c = log(r) / 2pi i, is c^k / k! on the word p^k."""
    p, n = anchor.puncture, conn.n_generators
    zp = conn.punctures.point(p)
    v = anchor.direction / abs(anchor.direction)
    r = _CUTOFF * _local_scale(conn, p, abs(neighbour - zp))
    unit = levels.unit(n, conn.trunc_degree)
    state, err = _advance(conn, zp, v, 0.0, r, unit, accuracy, 0,
                          f"the local frame at puncture {p}", pole=p, work=work)
    c = math.log(r) / TWO_PI_I
    branch = [c**k / math.factorial(k) for k in range(conn.trunc_degree + 1)]
    return zp + v * r, r, levels.mul(state, levels.letter(n, p, branch)), err


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
    point added at each breakpoint by `PLPath.with_breakpoints` (none at a
    vertex), is transported once by adaptive
    Gauss-Legendre quadrature; the requested accuracy is shared evenly among
    its segments and the frames.  `accuracy_estimate` is the summed
    subdivision residual of the polyline and of both local frames, and an
    AccuracyError is raised when it exceeds `accuracy`; the report records
    the cut radii, the polyline's share as `quadrature_error`, and the panel
    evaluations (`panels`) and deepest subdivision (`max_depth`) of all."""
    if path.punctures.points != conn.punctures.points:
        raise ValidationError("path and connection use different punctures")
    points, index = path.with_breakpoints(breakpoints)
    n_frames = (path.start.kind == TANGENTIAL) + (path.end.kind == TANGENTIAL)
    tol = accuracy / (len(points) - 1 + n_frames)
    report: dict = {}
    work: Counter = Counter()
    pre = post = levels.unit(conn.n_generators, conn.trunc_degree)
    frame_err = 0.0
    if path.start.kind == TANGENTIAL:
        points[0], report["cutoff_start"], pre, err = _local_frame(
            conn, path.start, points[1], tol, work
        )
        frame_err += err
    if path.end.kind == TANGENTIAL:
        points[-1], report["cutoff_end"], post, err = _local_frame(
            conn, path.end, points[-2], tol, work
        )
        frame_err += err
    states, quad_err = _transport_polyline(conn, points, tol, set(index.values()), work)
    total_err = quad_err + frame_err
    if total_err > accuracy:
        raise AccuracyError(
            f"summed subdivision residual {total_err:.3e} exceeds the requested "
            f"accuracy {accuracy:.3e}; the path may run too close to a puncture"
        )
    report["quadrature_error"] = quad_err
    report.update(panels=work["panels"], max_depth=work["max_depth"])
    prefixes = {t: levels.mul(states[i], pre) for t, i in index.items()}
    end = levels.mul(states[len(points) - 1], pre)
    # the end frame is grouplike, so its antipode is its inverse
    end = levels.mul(levels.antipode(post, conn.n_generators), end)
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


def duality_discrepancy(phi: FreeSeries) -> float:
    """max |swap(Phi) Phi - 1| over the words of a series Phi in two letters:
    the duality relation Phi(x2, x1) Phi(x1, x2) = 1 of an associator.  Swap
    exchanges x1 and x2, flipping every letter axis of each level array; in
    two letters that reverses the level."""
    phi_levels = levels.from_series(phi)
    product = levels.mul([level[::-1] for level in phi_levels], phi_levels)
    product[0] = product[0] - 1.0
    return max(float(np.abs(level).max()) for level in product)


# ---------------------------------------------------------------------------
# assembled identity right-hand sides
#
# The assembled formulas mix degree-preserving terms (products with holonomy
# factors) and degree-lowering terms (Fox derivatives, reduced coaction).  At
# word degree k the degree-lowering terms read the degree-(k+1) part of the
# holonomy, so at truncation degree D the identities are exact only through
# degree D-1; the assemblies below therefore return/compare level arrays
# truncated to D-1.
# ---------------------------------------------------------------------------
def crossing_breakpoints(crossings: Sequence[Crossing]) -> List[float]:
    """Both parameters of each self-crossing: the breakpoints of a transport
    that serves every piece the self-crossing terms need."""
    return [x for c in crossings for x in (c.t, c.s)]


def _crossing_terms(
    hol2: HolonomyResult, hol1: HolonomyResult, cuts: Sequence[Crossing], deg: int
) -> List[Tuple[float, Levels]]:
    """sign * Hol(path2[s, 1]) Hol(path1[0, t]) through degree deg-1 = D-1 at
    each crossing (t on path1, s on path2): the crossing terms of the pairing
    formula, and with hol2 = hol1 those of the reduced-coaction formula."""
    return [(float(c.sign), levels.mul(hol2.piece(c.s, 1.0)[:deg],
                                       hol1.piece(0.0, c.t)[:deg])) for c in cuts]


def _coaction_geometry(path: PLPath, deg: int) -> Tuple[int, int, float]:
    """What the reduced-coaction formula reads off a path besides its
    crossings and rotation number, in the order it refuses them: the
    punctures p, q of its anchors (both tangential), the truncation degree
    (D >= 1), and for a loop the shift [P>p] of its closure constant (0.0
    for p != q), with P its outgoing and p its incoming strand.

    A loop's smooth model has one more self-intersection than the polyline
    shows: the closing of the two tail strands through the base point.  Its
    regularized contribution is a universal series in the base generator,
    fixed by the closure turn direction: it is the (out, in) corner of
    `strand_pairs` for the loop with itself, so the constant -1/2 of r_am
    becomes -1/2 + [P>p]."""
    p, q = tangential_points(path)
    if deg < 1:
        raise DomainError("the reduced-coaction formula needs truncation degree >= 1")
    return p, q, above((path, "out"), (path, "in")) if p == q else 0.0


def mu_bar_rhs(hol: HolonomyResult, crossings: Sequence[Crossing], rot: float) -> Levels:
    """Right-hand side of the reduced-coaction formula for the holonomy of a
    path between tangential points p and q (p = q for loops), from the path's
    `self_intersections` and snapped `rotation_number`, read off its
    transport with breakpoints at `crossing_breakpoints(crossings)`; the
    result is level arrays through degree D-1, the range on which the
    assembly is exact."""
    h, n, deg = hol.levels, hol.path.punctures.n, len(hol.levels) - 1
    p, q, shift = _coaction_geometry(hol.path, deg)
    terms = [
        (1.0, levels.mul(h, levels.letter(n, p, r_zeta_coefficients(deg, -1)))),
        (rot, h),
        (-1.0, levels.mul(levels.letter(n, q, r_zeta_coefficients(deg)), h)),
        (-1.0, levels.fox(h, p, n, True)),
        (-1.0, levels.fox(h, q, n, False)),
    ] + _crossing_terms(hol, hol, crossings, deg)
    if p == q:
        closure = levels.letter(n, p, r_am_coefficients(deg - 1))
        closure[0] += shift
        terms.append((1.0, closure))
    return levels.combine(terms, n, deg - 1)


def transport_pair(
    conn: ConnectionSpec, path2: PLPath, path1: PLPath, accuracy: float,
    self2: Sequence[Crossing], self1: Sequence[Crossing],
) -> Tuple[List[Crossing], HolonomyResult, HolonomyResult]:
    """The front end of the two-path identities: the crossings of path1 with
    path2 (t on path1, s on path2), and each path transported once, with
    breakpoints at its parameters of those crossings and at the
    `crossing_breakpoints` of the self-crossings the caller passes for it
    (`self1`, `self2`).  The callers read and refuse the pair's geometry
    before calling it; truncation degree 0, on which every two-path identity
    compares nothing (they are exact through D-1), is refused here before
    the crossing scan."""
    if conn.trunc_degree < 1:
        raise DomainError("the two-path identities need truncation degree >= 1")
    cuts = intersections(path1, path2)
    hol1 = holonomy_reg(conn, path1, accuracy,
                        [c.t for c in cuts] + crossing_breakpoints(self1))
    hol2 = holonomy_reg(conn, path2, accuracy,
                        [c.s for c in cuts] + crossing_breakpoints(self2))
    return cuts, hol2, hol1


def loop_pair_base(loop2: PLPath, loop1: PLPath) -> int:
    """The puncture of the one tangential base point of two loops; the loop
    bracket and Theorem 2 refuse any other pair."""
    m, *others = tangential_points(loop1, loop2)
    if set(others) != {m}:
        raise ValidationError("both loops must share one tangential base point")
    return m


def rho_paths(
    conn: ConnectionSpec,
    path2: PLPath,
    path1: PLPath,
    accuracy: float = DEFAULT_ACCURACY,
) -> Levels:
    """Right-hand side of the pairing formula for the holonomies h1, h2 of two
    paths (first argument = second factor of the pairing, as in rho(H2, H1)).

    path1 runs from tangential p to q and path2 from tangential r to s, any
    of them equal, loops included; anchors at one puncture share its
    direction.  Besides the four Fox terms and the crossing terms, each pair
    of tail strands x of path1 and y of path2 at a shared tangential point m
    (`strand_pairs`, with its sign and order [x>y]) adds the corner term
    sign * L (r_am(x_m) + [x>y]) R, with L = h2 when y leaves m and R = h1
    when x arrives there.  The terms are level arrays of the two transports
    (`transport_pair`, which refuses D = 0), summed through degree D-1; the
    anchors, the strand orders and the degree are read before either
    transport.
    """
    p, q, r, s = tangential_points(path1, path2)
    n, deg = conn.n_generators, conn.trunc_degree
    pairs = strand_pairs(path1, path2)
    cuts, hol2, hol1 = transport_pair(conn, path2, path1, accuracy, (), ())
    h1, h2 = hol1.levels[:deg], hol2.levels[:deg]
    terms = [
        (-1.0, levels.fox(hol2.levels, p, n, True)),
        (-1.0, levels.fox(hol1.levels, s, n, False)),
        (1.0, levels.mul(levels.fox(hol2.levels, q, n, True), h1)),
        (1.0, levels.mul(h2, levels.fox(hol1.levels, r, n, False))),
    ] + _crossing_terms(hol2, hol1, cuts, deg)
    for x, y, sign, order in pairs:
        corner = levels.letter(n, q if x == "in" else p, r_am_coefficients(deg - 1))
        corner[0] += order
        corner = levels.mul(h2, corner) if y == "out" else corner
        terms.append((sign, levels.mul(corner, h1) if x == "in" else corner))
    return levels.combine(terms, n, deg - 1)


def goldman_bracket_check(
    conn: ConnectionSpec,
    loop2: PLPath,
    loop1: PLPath,
    accuracy: float = DEFAULT_ACCURACY,
) -> dict:
    """Compare the necklace bracket of two loop holonomies against the
    crossing formula on cyclic words, and each loop's necklace cobracket
    against its crossing-plus-rotation formula.  Both sides are level arrays,
    compared on their rotation sums (`levels.rotations`) through degree D-1.
    The base point, the strand orders there and the rotation numbers are read
    before either transport."""
    loop_pair_base(loop2, loop1)
    # The base point is itself an intersection of the two loops; the resolved
    # curves cross there once when the four tail strands alternate.
    base_sign = base_linking(loop1, loop2)
    # The cobracket's rotation term uses the tangent winding of the closed-up
    # smooth curve: the polyline rotation number plus the closing turn at the
    # base, counterclockwise (+1/2) when the incoming strand lies above the
    # outgoing.
    rot1, rot2 = (snap_half_integer(rotation_number(loop))
                  + above((loop, "in"), (loop, "out")) - 0.5 for loop in (loop1, loop2))
    n, deg = conn.n_generators, conn.trunc_degree
    self1, self2 = self_intersections(loop1), self_intersections(loop2)
    crossings, hol2, hol1 = transport_pair(conn, loop2, loop1, accuracy, self2, self1)
    # the bracket is compared through degree D-1, which reads no level above it
    h1, h2 = hol1.levels[:deg], hol2.levels[:deg]
    terms = [(-1.0, levels.necklace_bracket(h2, h1, n))]
    for c in crossings:
        # each loop rerooted at the crossing: Hol(loop[0, t]) Hol(loop[t, 1])
        r1 = levels.mul(hol1.piece(0.0, c.t)[:deg], hol1.piece(c.t, 1.0))
        r2 = levels.mul(hol2.piece(0.0, c.s)[:deg], hol2.piece(c.s, 1.0))
        terms.append((float(c.sign), levels.mul(r1, r2)))
    if base_sign:
        terms.append((base_sign, levels.mul(h1, h2)))
    diff = levels.combine(terms, n, deg - 1)
    report = {
        "bracket_discrepancy": max((float(np.abs(levels.rotations(a, n, k)).max())
                                    for k, a in enumerate(diff)), default=0.0),
        "n_crossings": len(crossings),
        "base_linking": base_sign,
        "cobracket_discrepancy": [
            _cobracket_discrepancy(hol1, self1, rot1),
            _cobracket_discrepancy(hol2, self2, rot2),
        ],
    }
    report["max_discrepancy"] = max(
        [report["bracket_discrepancy"]] + report["cobracket_discrepancy"]
    )
    return report


def _cobracket_discrepancy(
    hol: HolonomyResult, crossings: Sequence[Crossing], rot: float
) -> float:
    """The cobracket check of the loop `hol.path`, with tangent winding `rot`,
    on leg arrays A (`levels.necklace_cobracket`), compared on the rotation
    sums along both legs of A[i, j] - A[j, i]^T, the antisymmetrized tensor
    on cyclic classes."""
    n, deg = hol.path.punctures.n, len(hol.levels) - 1
    # (s, u, v) stands for s |u| (x) |v|
    rhs = [(rot, levels.unit(n, deg), hol.levels)] + [
        (c.sign, hol.piece(c.t, c.s),
         levels.mul(hol.piece(c.s, 1.0), hol.piece(0.0, c.t)))
        for c in crossings
    ]
    legs = levels.necklace_cobracket(hol.levels, n, deg - 1)
    for (i, j), a in legs.items():
        a -= sum(s * np.outer(u[i], v[j]) for s, u, v in rhs)
    return max((
        float(np.abs(levels.rotations(levels.rotations(a - legs[j, i].T, n, i).T, n, j))
              .max())
        for (i, j), a in legs.items()
    ), default=0.0)


def coaction_check(
    conn: ConnectionSpec,
    path: PLPath,
    accuracy: float = DEFAULT_ACCURACY,
) -> dict:
    """Compare the reduced coaction of a path's holonomy with `mu_bar_rhs`
    through degree D-1, from one transport with breakpoints at the path's
    self-crossings; both sides are level arrays.  The anchors, the degree and
    the snapped rotation number are read first, so a path the formula refuses
    is never transported."""
    _coaction_geometry(path, conn.trunc_degree)
    rot = snap_half_integer(rotation_number(path))
    crossings = self_intersections(path)
    hol = holonomy_reg(conn, path, accuracy, crossing_breakpoints(crossings))
    rhs = mu_bar_rhs(hol, crossings, rot)
    lhs = levels.mu_bar(hol.levels, conn.n_generators)
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
    minus the zeta series at x_q and the zeta series at -x_p
    (`coefficients.r_zeta_series`).  Term by term the projected identity is
    then the reduced-coaction formula, so it is checked by `coaction_check`.
    A loop (start and end at the same tangential point) is rejected: the
    identity has no closure term for it."""
    tangential_points(path)
    if path.start == path.end:
        raise ValidationError(
            "the pentagon projection needs a path between two tangential "
            "points; start and end are the same point (a loop)"
        )
    return coaction_check(conn, path, accuracy)
