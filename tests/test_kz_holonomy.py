"""Transport engine, regularized holonomy, and the assembled identities."""

import cmath
import dataclasses
import itertools
import json
import math
import random
import sys
import time

import numpy as np
import pytest

from kzfox import (
    COMPLEX,
    Anchor,
    ConnectionSpec,
    FreeSeries,
    PLPath,
    PunctureConfig,
    associator,
    compose,
    holonomy_reg,
    mu_bar_kks,
    mu_bar_rhs,
    necklace_bracket,
    necklace_cobracket,
    rho_kks,
    rho_paths,
    subpath,
    zeta,
)
from kzfox import fox_calculus, kz_holonomy, levels
from kzfox.cli import load_path_file, main
from kzfox.coefficients import (
    r_am_coefficients,
    r_am_series,
    r_zeta_coefficients,
    r_zeta_series,
)
from kzfox.errors import AccuracyError, DomainError, KzfoxError, ValidationError
from kzfox.fox_calculus import d_left, d_right
from kzfox.kz_holonomy import (
    DEFAULT_ACCURACY,
    coaction_check,
    crossing_breakpoints,
    goldman_bracket_check,
    pentagon_projection_check,
    transport_pair,
)
from kzfox.kz_paths import (
    above,
    base_linking,
    intersections,
    rotation_number,
    self_intersections,
    snap_half_integer,
    strand_pairs,
)
from kzfox.trivial_extension import square_w, square_z, square_zw

from conftest import (
    LOOP_PAIRS,
    dense_complex,
    random_base_loop,
    random_loop_pairs,
    random_open_path,
)

P3 = PunctureConfig([0.0, 1.0, 2.0])
BASE = Anchor.tangential(1, 1.0)

LOOP_A1 = [0.4, 0.4 + 0.3j, 1.5 + 0.3j, 1.5 - 0.3j, 0.4 - 0.3j, 0.4]
LOOP_B1 = [0.5, 0.5 + 0.5j, 2.5 + 0.5j, 2.5 - 0.4j, 0.2 - 0.4j, 0.2]
LOOP_A4 = [0.3, 0.3 - 0.35j, 1.5 - 0.35j, 1.5 + 0.35j, 0.7 + 0.35j, 0.7]
LOOP_BUP = [
    0.15,
    0.15 + 0.5j,
    2.5 + 0.5j,
    2.5 - 0.45j,
    0.5 - 0.45j,
    0.5 + 0.25j,
    0.45 + 0.25j,
    0.45,
]


def _loop(points):
    return PLPath(P3, BASE, BASE, [complex(p) for p in points])


def test_connection_spec_validation():
    with pytest.raises(DomainError):
        ConnectionSpec(P3, -1)
    conn = ConnectionSpec(P3, 3)
    assert conn.n_generators == 3


def test_path_and_connection_punctures_must_agree():
    conn = ConnectionSpec(PunctureConfig([0.0, 1.0]), 3)
    with pytest.raises(ValidationError):
        holonomy_reg(conn, _loop(LOOP_A1))


# ---------------------------------------------------------------------------
# transport basics
# ---------------------------------------------------------------------------
def test_monodromy_degree_one_residue():
    """A regular loop once around puncture 2 picks up x_2 at degree one."""
    conn = ConnectionSpec(P3, 3)
    start = Anchor.regular(0.5 + 0.5j)
    loop = PLPath(
        P3,
        start,
        Anchor.regular(0.5 + 0.5j),
        [0.5 - 0.5j, 1.5 - 0.5j, 1.5 + 0.5j],
    )
    h = holonomy_reg(conn, loop).series
    g = h.log()
    assert abs(g.coefficient((2,)) - 1.0) < 1e-10
    assert abs(g.coefficient((1,))) < 1e-10
    assert abs(g.coefficient((3,))) < 1e-10


def test_holonomy_is_grouplike():
    conn = ConnectionSpec(P3, 4)
    h = holonomy_reg(conn, _loop(LOOP_A4)).series
    assert h.is_grouplike(1e-8)
    assert abs(h.coefficient(()) - 1.0) < 1e-12


def test_multiplicativity_regular_split():
    """Hol(full) = Hol(tail) * Hol(head) when cut at an interior point."""
    conn = ConnectionSpec(P3, 4)
    loop = _loop(LOOP_A4)
    h = holonomy_reg(conn, loop).series
    for t in (0.3, 0.62):
        head = holonomy_reg(conn, subpath(loop, 0.0, t)).series
        tail = holonomy_reg(conn, subpath(loop, t, 1.0)).series
        assert (h - tail * head).norm_inf() < 1e-8


def _piece(hol, a, b):
    """`hol.piece(a, b)` as a FreeSeries."""
    return levels.to_series(hol.path.punctures.n, hol.piece(a, b))


def _worst_piece_error(conn, path, hol):
    """Every piece a transport gives between its breakpoints (and the ends)
    against a separate transport of the subpath."""
    cuts = [0.0] + sorted(hol.prefixes) + [1.0]
    worst = 0.0
    for i, a in enumerate(cuts):
        for b in cuts[i + 1:]:
            reference = holonomy_reg(conn, subpath(path, a, b)).series
            worst = max(worst, (_piece(hol, a, b) - reference).norm_inf())
    return worst


def _pieces_match_subpaths(conn, path, breakpoints):
    hol = holonomy_reg(conn, path, breakpoints=breakpoints)
    return hol, _worst_piece_error(conn, path, hol)


def test_pieces_of_one_transport_match_subpath_transports(load_path):
    conn = ConnectionSpec(P3, 4)
    fig8 = load_path("fig8.json")
    [c] = self_intersections(fig8)
    _, worst = _pieces_match_subpaths(conn, fig8, [c.t, c.s])
    assert worst <= 1e-13
    loop_a4, loop_bup = load_path("loop_a4.json"), load_path("loop_bup.json")
    cuts = intersections(loop_a4, loop_bup)
    assert len(cuts) == 2
    # one of the crossings lies on loop_a4's incoming tail, at x = 0.5
    assert any(c.point == 0.5 for c in cuts)
    _, worst = _pieces_match_subpaths(conn, loop_bup, [c.s for c in cuts])
    assert worst <= 1e-13
    # a breakpoint at x = 0.1 on the incoming tail, inside the tail's cutoff
    # radius 0.21 of a plain transport: the radius shrinks to 0.3 * 0.1
    inside = 1.0 - 0.1 / loop_a4.length
    assert holonomy_reg(conn, loop_a4).regularization_report["cutoff_end"] > 0.1
    hol, worst = _pieces_match_subpaths(
        conn, loop_a4, [c.t for c in cuts] + [inside]
    )
    assert worst <= 1e-13
    assert hol.regularization_report["cutoff_end"] == pytest.approx(0.03)


def test_piece_needs_a_breakpoint():
    hol = holonomy_reg(ConnectionSpec(P3, 2), _loop(LOOP_A1), breakpoints=[0.5])
    assert (_piece(hol, 0.0, 1.0) - hol.series).norm_inf() == 0.0
    with pytest.raises(ValidationError, match="not a breakpoint"):
        hol.piece(0.25, 1.0)
    with pytest.raises(DomainError):
        holonomy_reg(ConnectionSpec(P3, 2), _loop(LOOP_A1), breakpoints=[1.0])


# ---------------------------------------------------------------------------
# level-array engine against word-by-word references
# ---------------------------------------------------------------------------
def _words(conn):
    """Every word of degree <= D, by length, then lexicographically."""
    letters = range(1, conn.n_generators + 1)
    return [
        w for k in range(conn.trunc_degree + 1)
        for w in itertools.product(letters, repeat=k)
    ]


def _reference_panel(conn, z0, dz, a, b, init, pole=0):
    """The word-by-word panel recurrence on dict states: the integrand of
    x_i w is the factor of x_i times the node values of w, minus, for a word
    ending in the pole, the pole's factor times the node values of the word
    without its last letter."""
    nodes, weights = kz_holonomy._GL_NODES, kz_holonomy._GL_WEIGHTS
    half = 0.5 * (b - a)
    u = 0.5 * (a + b) + half * nodes
    z = z0 + dz * u
    factors = []
    for i in range(1, conn.n_generators + 1):
        if i == pole:
            factors.append((half / kz_holonomy.TWO_PI_I) / u)
        else:
            factors.append(
                (dz * half / kz_holonomy.TWO_PI_I) / (z - conn.punctures.point(i))
            )
    node_vals = {(): np.full(len(nodes), init[()])}
    end = {(): init[()]}
    for word in _words(conn)[1:]:
        g = factors[word[0] - 1] * node_vals[word[1:]]
        if word[-1] == pole:
            g = g - factors[pole - 1] * node_vals[word[:-1]]
        node_vals[word] = init[word] + kz_holonomy._GL_INTMAT @ g
        end[word] = init[word] + complex(weights @ g)
    return end


def _as_levels(conn, coeffs):
    values = [coeffs.get(w, 0j) for w in _words(conn)]
    return np.split(
        np.array(values, dtype=complex),
        np.cumsum([conn.n_generators**k for k in range(conn.trunc_degree)]),
    )


def _random_coeffs(rng, conn):
    return {w: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for w in _words(conn)}


def test_level_panel_matches_word_by_word_reference():
    """For n = 2 and 3, with and without a pole: every degree D = 1..8 is the
    top level of its own transport, so the top-level fold of the weights into
    the factors, and its pole correction, is checked word by word at each
    level.  The reference runs once at D = 8: its words of length <= D are
    the D-truncated panel."""
    rng = random.Random(7)
    worst = 0.0
    for n in (2, 3):
        punctures = PunctureConfig([float(k) for k in range(n)])
        top = ConnectionSpec(punctures, 8)
        for pole, _ in itertools.product(range(n + 1), range(4 if n == 2 else 1)):
            init = _random_coeffs(rng, top)
            if pole:
                z0 = top.punctures.point(pole)
                dz = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                a = rng.uniform(0.0, 0.1)
                b = a + rng.uniform(0.05, 0.2)
            else:
                z0 = complex(rng.uniform(-0.5, 2.5), rng.uniform(0.2, 1.0))
                dz = complex(rng.uniform(-1, 1), rng.uniform(-0.15, 0.15))
                a, b = 0.0, 1.0
            reference = _as_levels(top, _reference_panel(top, z0, dz, a, b, init, pole))
            start = _as_levels(top, init)
            for degree in range(1, 9):
                conn = ConnectionSpec(punctures, degree)
                level = kz_holonomy._panel_transport(
                    conn, z0, dz, a, b, start[: degree + 1], pole
                )
                assert len(level) == degree + 1
                for got, want in zip(level, reference):
                    worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-14


@pytest.mark.parametrize("degree", range(1, 9))
def test_level_product_and_antipode_match_series_operations(degree):
    """Level product and level antipode against FreeSeries product and
    antipode, for n = 2 and 3 at every degree through 8."""
    rng = random.Random(100 + degree)
    for n in (2, 3):
        conn = ConnectionSpec(PunctureConfig([float(k) for k in range(n)]), degree)
        a, b = _random_coeffs(rng, conn), _random_coeffs(rng, conn)
        sa, sb = FreeSeries(n, degree, a, COMPLEX), FreeSeries(n, degree, b, COMPLEX)
        product = levels.mul(_as_levels(conn, a), _as_levels(conn, b))
        assert levels.to_series(n, product).allclose(sa * sb, 1e-14)
        antipode = levels.antipode(_as_levels(conn, a), n)
        assert levels.to_series(n, antipode) == sa.antipode()


def test_level_composition_matches_series_operations():
    """Level product, level antipode, the conversion from a FreeSeries and the
    closed-form branch factor of a local frame against FreeSeries product,
    antipode, coefficients and exp."""
    conn = ConnectionSpec(P3, 5)
    rng = random.Random(11)
    a, b = _random_coeffs(rng, conn), _random_coeffs(rng, conn)
    sa = FreeSeries(3, 5, a, COMPLEX)
    sb = FreeSeries(3, 5, b, COMPLEX)
    product = levels.mul(_as_levels(conn, a), _as_levels(conn, b))
    assert levels.to_series(3, product).allclose(sa * sb, 1e-14)
    antipode = levels.antipode(_as_levels(conn, a), 3)
    assert levels.to_series(3, antipode) == sa.antipode()
    for got, want in zip(levels.from_series(sa), _as_levels(conn, a)):
        assert np.array_equal(got, want)
    for p in (1, 2, 3):
        anchor = Anchor.tangential(p, 1.0)
        _, r, frame, _ = kz_holonomy._local_frame(conn, anchor, 0.5 + 0.5j, 1e-10)
        analytic, _ = kz_holonomy._advance(
            conn, conn.punctures.point(p), 1.0, 0.0, r,
            levels.unit(3, 5), 1e-10, 0, "frame", pole=p,
        )
        x_p = FreeSeries.generator(p, 3, 5, COMPLEX)
        branch = x_p.scale(math.log(r) / kz_holonomy.TWO_PI_I).exp()
        assert levels.to_series(3, frame).allclose(
            levels.to_series(3, analytic) * branch, 1e-14
        )


def test_transport_levels_own_their_memory():
    """Every level a panel returns, and every state the polyline keeps, owns
    its memory: none is a view of a panel's work buffer, whose 17 rows (node
    values and end value) would stay pinned as long as the state.  The
    polyline keeps only the states asked for and the last one."""
    conn = ConnectionSpec(P3, 5)
    unit = levels.unit(3, 5)
    for pole, z0, dz in ((0, 0.5 + 0.5j, 0.3 - 0.1j), (2, 1.0, 1j)):
        state = kz_holonomy._panel_transport(conn, z0, dz, 0.0, 0.1, unit, pole)
        state = kz_holonomy._panel_transport(conn, z0, dz, 0.1, 0.2, state, pole)
        assert len(state) == 6
        assert all(a.flags.owndata for a in state)
    states, _ = kz_holonomy._transport_polyline(conn, LOOP_A1, 1e-10, {2, 4})
    assert set(states) == {2, 4, len(LOOP_A1) - 1}
    assert all(a.flags.owndata for state in states.values() for a in state)


def test_transport_work_counters(load_path, monkeypatch):
    """The report's `panels` and `max_depth` on fig8 at D = 5.  Each `_advance`
    call evaluates its whole panel and two halves, except a bisected panel's
    left child, which takes its whole panel from the parent's first half: the
    count is three per call less one per bisection.  The panel conditioning
    is asked for only above the tolerance, so here once per bisection."""
    path = load_path("fig8.json")
    calls = {"advance": 0, "top": 0, "conditioning": 0}
    advance, conditioning = kz_holonomy._advance, kz_holonomy._conditioning

    def counting_advance(*args, **kwargs):
        calls["advance"] += 1
        calls["top"] += args[7] == 0
        return advance(*args, **kwargs)

    def counting_conditioning(*args):
        calls["conditioning"] += 1
        return conditioning(*args)

    monkeypatch.setattr(kz_holonomy, "_advance", counting_advance)
    monkeypatch.setattr(kz_holonomy, "_conditioning", counting_conditioning)
    report = holonomy_reg(ConnectionSpec(path.punctures, 5), path).regularization_report
    bisected = (calls["advance"] - calls["top"]) // 2
    assert report["panels"] == 3 * calls["advance"] - bisected
    assert (report["panels"], report["max_depth"], bisected) == (43, 1, 2)
    assert calls["conditioning"] == bisected


def test_transport_makes_no_series_products(load_path, count_series_calls):
    """One transport runs on level arrays end to end, and so do the pieces it
    serves: the FreeSeries product, exp and antipode are not called, and the
    pieces still match separate subpath transports."""
    loop_a4 = load_path("loop_a4.json")
    cuts = intersections(loop_a4, load_path("loop_bup.json"))
    assert len(cuts) == 2
    conn = ConnectionSpec(loop_a4.punctures, 6)
    calls = count_series_calls("__mul__", "exp", "antipode")
    _, worst = _pieces_match_subpaths(conn, loop_a4, [c.t for c in cuts])
    assert calls == {"__mul__": 0, "exp": 0, "antipode": 0}
    assert worst <= 1e-13


def test_multiplicativity_tangential_composition():
    """Hol(gamma2 gamma1) = Hol(gamma2) * Hol(gamma1) for loops composed at
    a shared tangential base point."""
    conn = ConnectionSpec(P3, 4)
    a, b = _loop(LOOP_A1), _loop(LOOP_B1)
    ha = holonomy_reg(conn, a).series
    hb = holonomy_reg(conn, b).series
    hc = holonomy_reg(conn, compose(b, a)).series
    assert (hc - hb * ha).norm_inf() < 1e-12


@pytest.mark.parametrize(
    "name", ["fig8.json", "loop_a4.json", "loop_bup.json", "path_embedded3.json"]
)
def test_a_breakpoint_at_a_vertex_leaves_the_transport_unchanged(load_path, name):
    """A breakpoint at an interior vertex is that vertex: the transport runs
    over the same segments and gives the same level arrays and panel count
    as without it."""
    path = load_path(name)
    conn = ConnectionSpec(path.punctures, 5)
    plain = holonomy_reg(conn, path)
    for k in range(1, path.n_segments):
        t = path.cum_params[k]
        hol = holonomy_reg(conn, path, breakpoints=[t])
        assert all(np.array_equal(a, b) for a, b in zip(hol.levels, plain.levels)), k
        assert hol.regularization_report["panels"] == plain.regularization_report["panels"]


@pytest.mark.parametrize("name", ["fig8.json", "loop_a4.json", "path_embedded3.json"])
@pytest.mark.parametrize("t", [0.3, 0.61])
def test_compose_at_a_regular_cut_restores_the_path(load_path, name, t):
    """Cut at an interior point and composed again at that regular junction,
    a path keeps its rotation number and its holonomy: the junction only adds
    a vertex on a straight segment (measured ≤2.2e-16 at degree 6)."""
    path = load_path(name)
    composite = compose(subpath(path, t, 1.0), subpath(path, 0.0, t))
    assert composite.start == path.start and composite.end == path.end
    assert rotation_number(composite) == pytest.approx(rotation_number(path), abs=1e-12)
    conn = ConnectionSpec(path.punctures, 6)
    want = holonomy_reg(conn, path, 1e-12).levels
    got = holonomy_reg(conn, composite, 1e-12).levels
    assert max(float(np.abs(a - b).max()) for a, b in zip(got, want)) <= 1e-13


def test_reversal_and_chen_multiplicativity_on_random_loops():
    """On 12 seeded `random_base_loop` draws, Hol(gamma reversed) * Hol(gamma)
    = 1, and at a random interior split t both the pieces of one transport
    and two separate subpath transports multiply to the loop's holonomy.
    Draws the geometry rejects (KzfoxError) are skipped."""
    rng = random.Random(1801)
    conn = ConnectionSpec(P3, 4)
    worst = 0.0
    for _ in range(12):
        loop, t = random_base_loop(rng), rng.uniform(0.1, 0.9)
        try:
            hol = holonomy_reg(conn, loop, breakpoints=[t])
            inverse = holonomy_reg(conn, loop.reversed()).series
            head = holonomy_reg(conn, subpath(loop, 0.0, t)).series
            tail = holonomy_reg(conn, subpath(loop, t, 1.0)).series
        except KzfoxError:
            continue
        h = hol.series
        worst = max(worst, (inverse * h - FreeSeries.unit(3, 4, COMPLEX)).norm_inf(),
                    (_piece(hol, t, 1.0) * _piece(hol, 0.0, t) - h).norm_inf(),
                    (tail * head - h).norm_inf())
    assert worst <= 1e-12


def test_random_loop_holonomies_are_grouplike():
    """On 12 seeded `random_base_loop` draws the holonomy h is grouplike,
    exp(log h) = h, and h.inverse() is the holonomy of the reversed loop, all
    through the one power-series routine of FreeSeries.  Draws the geometry
    rejects (KzfoxError) are skipped."""
    rng = random.Random(1901)
    conn = ConnectionSpec(P3, 4)
    worst, checked = 0.0, 0
    for _ in range(12):
        loop = random_base_loop(rng)
        try:
            h = holonomy_reg(conn, loop).series
            h_rev = holonomy_reg(conn, loop.reversed()).series
        except KzfoxError:
            continue
        checked += 1
        assert h.is_grouplike(1e-10)
        worst = max(worst, (h.log().exp() - h).norm_inf(),
                    (h.inverse() - h_rev).norm_inf())
    assert checked > 0
    assert worst <= 1e-12


def test_reversed_path_inverts_holonomy():
    """Hol(gamma reversed) * Hol(gamma) = 1 at a tangential base point."""
    conn = ConnectionSpec(P3, 4)
    loop = _loop(LOOP_A1)
    h = holonomy_reg(conn, loop).series
    h_rev = holonomy_reg(conn, loop.reversed()).series
    assert (h_rev * h - FreeSeries.unit(3, 4, COMPLEX)).norm_inf() < 1e-12


def test_holonomy_report_fields():
    conn = ConnectionSpec(P3, 3)
    res = holonomy_reg(conn, _loop(LOOP_A1))
    report = res.regularization_report
    assert set(report) == {"cutoff_start", "cutoff_end", "quadrature_error",
                           "panels", "max_depth"}
    assert 0.0 <= report["quadrature_error"] <= res.accuracy_estimate < 1e-6


# ---------------------------------------------------------------------------
# associator
# ---------------------------------------------------------------------------
def test_associator_degree_zero_and_one():
    s = associator(0)
    assert s.coefficient(()) == 1.0
    s1 = associator(1)
    assert abs(s1.coefficient((1,))) < 1e-10
    assert abs(s1.coefficient((2,))) < 1e-10


def test_associator_commutator_coefficient():
    """log of the associator starts with a multiple of [x1, x2] whose
    coefficient is zeta(2)/(2 pi i)^2 up to sign."""
    s = associator(2)
    g = s.log()
    c12 = g.coefficient((1, 2))
    c21 = g.coefficient((2, 1))
    expected = zeta(2) / abs(complex(0, 2 * math.pi)) ** 2
    assert abs(c12 + c21) < 1e-10  # commutator: opposite coefficients
    assert abs(abs(c12) - expected) < 1e-8


def test_associator_depth_one_zeta_coefficients():
    """The coefficient of x1^(k-1) x2 in the associator is
    -zeta(k) / (2 pi i)^k."""
    s = associator(6)
    for k in range(2, 7):
        c = s.coefficient((1,) * (k - 1) + (2,))
        assert abs(c + zeta(k) / complex(0, 2 * math.pi) ** k) < 1e-12


def test_associator_duality():
    """Phi(x2, x1) Phi(x1, x2) = 1 to roundoff at degrees 6 and 12 (1.4e-17
    measured), while 1 + x1, which is not dual, misses by its x2 x1 term."""
    for degree in (6, 12):
        assert kz_holonomy.duality_discrepancy(associator(degree)) < 1e-15
    not_dual = FreeSeries(2, 3, {(): 1.0, (1,): 1.0}, COMPLEX)
    assert kz_holonomy.duality_discrepancy(not_dual) == 1.0


# ---------------------------------------------------------------------------
# subdivision failure
# ---------------------------------------------------------------------------
def test_subdivision_limit_raises_accuracy_error(monkeypatch, load_path, data_dir):
    monkeypatch.setattr(kz_holonomy, "_MAX_DEPTH", 0)
    path = load_path("fig8.json")
    with pytest.raises(AccuracyError, match="subdivision limit exceeded"):
        holonomy_reg(ConnectionSpec(path.punctures, 3), path)
    # below the roundoff floor the message names the floor scaled by the
    # panel's conditioning, the threshold actually applied, not the requested
    # tolerance
    with pytest.raises(AccuracyError, match=r"> 6\.819e-15\)"):
        holonomy_reg(ConnectionSpec(path.punctures, 3), path, accuracy=1e-30)
    code = main(["verify", "coaction", "--path", str(data_dir / "fig8.json")])
    assert code == 2


def test_puncture_grazing_path_raises_accuracy_error_quickly(tmp_path):
    """A path passing 1e-12 above a puncture: roundoff bounds the panel
    residuals far above the requested accuracy, so the transport stops at
    once with an AccuracyError instead of subdividing without end."""
    gap = 1e-12
    path = PLPath(
        P3,
        Anchor.tangential(1, 1.0),
        Anchor.tangential(3, -1.0),
        [0.2, 0.5 + gap * 1j, 1.5 + gap * 1j, 1.8],
    )
    t0 = time.perf_counter()
    with pytest.raises(AccuracyError, match="exceeds the requested accuracy"):
        holonomy_reg(ConnectionSpec(P3, 3), path)
    assert time.perf_counter() - t0 < 10.0
    path_file = tmp_path / "graze.json"
    path_file.write_text(json.dumps({
        "punctures": [[0, 0], [1, 0], [2, 0]],
        "start": {"kind": "tangential", "puncture": 1, "direction": [1, 0]},
        "end": {"kind": "tangential", "puncture": 3, "direction": [-1, 0]},
        "points": [[0.2, 0], [0.5, gap], [1.5, gap], [1.8, 0]],
    }))
    t0 = time.perf_counter()
    assert main(["verify", "coaction", "--degree", "2", "--path", str(path_file)]) == 2
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# assembled identities
# ---------------------------------------------------------------------------
def _mu_bar_discrepancy(conn, path):
    return coaction_check(conn, path)["max_discrepancy"]


def test_mu_bar_identity_embedded_path():
    punctures = PunctureConfig([0.0, 1.0])
    conn = ConnectionSpec(punctures, 4)
    path = PLPath(
        punctures, Anchor.tangential(1, 1.0), Anchor.tangential(2, -1.0), []
    )
    assert _mu_bar_discrepancy(conn, path) < 1e-10


def test_mu_bar_identity_loop():
    conn = ConnectionSpec(P3, 4)
    assert _mu_bar_discrepancy(conn, _loop(LOOP_A4)) < 1e-10


def _worst_level_error(arrays, series):
    """Largest difference between level arrays and the coefficients of a
    series; the series' levels beyond them must be zero."""
    want = levels.from_series(series)
    assert len(arrays) <= len(want)
    padded = list(arrays) + [np.zeros_like(b) for b in want[len(arrays):]]
    return max(float(np.max(np.abs(a - b))) for a, b in zip(padded, want))


def _rotated(arrays, n):
    """`levels.rotations` of each level."""
    return [levels.rotations(v, n, k) for k, v in enumerate(arrays)]


def _rotated_wedge(legs, n):
    """The rotation sums along both legs of A[i, j] - A[j, i]^T."""
    return [levels.rotations(levels.rotations(a - legs[j, i].T, n, i).T, n, j)
            for (i, j), a in sorted(legs.items())]


def _wedge_legs(wedge, n, degree):
    """A sparse CyclicWedge as leg arrays, each class pair on its key words."""
    legs = {(i, d - i): np.zeros((n**i, n ** (d - i)), dtype=complex)
            for d in range(degree + 1) for i in range(d + 1)}
    index = lambda w: sum((x - 1) * n ** (len(w) - 1 - t) for t, x in enumerate(w))
    for (u, v), c in wedge.items():
        legs[len(u), len(v)][index(u), index(v)] += c
    return legs


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("degree", range(7))
def test_level_maps_match_sparse_maps(n, degree):
    """mu_bar, the products with one-generator series (`levels.letter`) and
    the Fox derivatives on level arrays against mu_bar_kks, FreeSeries.__mul__
    and d_left / d_right on dense complex series, and the necklace bracket and
    cobracket against the sparse maps; at n = 1 the word x_1^j has index 0."""
    a = dense_complex(random.Random(10 * n + degree), n, degree)
    arrays = levels.from_series(a)
    worst = _worst_level_error(levels.mu_bar(arrays, n), mu_bar_kks(a))
    for p in range(1, n + 1):
        for coeffs, z in (
            (r_zeta_coefficients(degree), r_zeta_series(p, degree, n)),
            (r_zeta_coefficients(degree, -1),
             r_zeta_series(p, degree, n, negate_variable=True)),
            (r_am_coefficients(degree), r_am_series(p, degree, n)),
        ):
            one = levels.letter(n, p, coeffs)
            right, left = levels.mul(arrays, one), levels.mul(one, arrays)
            worst = max(
                worst, _worst_level_error(right, a * z), _worst_level_error(left, z * a)
            )
        strip_last = levels.fox(arrays, p, n, left=True)
        strip_first = levels.fox(arrays, p, n, left=False)
        worst = max(
            worst,
            _worst_level_error(strip_last, d_left(p, a)),
            _worst_level_error(strip_first, d_right(p, a)),
        )
    assert worst <= 1e-14
    # the necklace maps, compared on rotation sums (injective on cyclic
    # classes) within 1e-13 of the largest rotation-summed coefficient of the
    # inputs and the sparse results
    b = dense_complex(random.Random(10 * n + degree + 500), n, degree)
    B = levels.from_series(b)
    top = max(degree - 1, 0)
    got = _rotated(levels.necklace_bracket(arrays, B, n), n)
    want = _rotated(levels.from_series(necklace_bracket(a, b)), n)
    got_co = _rotated_wedge(levels.necklace_cobracket(arrays, n, top), n)
    want_co = _rotated_wedge(_wedge_legs(necklace_cobracket(a), n, top), n)
    assert len(got) == degree + 1 and len(got_co) == len(want_co)
    scale = max(float(np.abs(v).max())
                for v in want + want_co + _rotated(arrays, n) + _rotated(B, n))
    for pairs in (zip(got, want), zip(got_co, want_co)):
        assert max(float(np.abs(x - y).max()) for x, y in pairs) <= 1e-13 * scale


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("degree", range(7))
def test_level_pairing_matches_rho_kks(n, degree):
    """The adjacent-letter pairing on level arrays against rho_kks on dense
    complex series, in both orders and with a zero series on either side."""
    rng = random.Random(100 * n + degree)
    a, b = dense_complex(rng, n, degree), dense_complex(rng, n, degree)
    zero = FreeSeries(n, degree, {}, COMPLEX)
    worst = 0.0
    for u, v in ((a, b), (b, a), (a, zero), (zero, b)):
        got = levels.rho_kks(
            levels.from_series(u), levels.from_series(v), n
        )
        assert len(got) == degree + 1
        worst = max(worst, _worst_level_error(got, rho_kks(u, v)))
    assert worst <= 1e-15


def _sparse_mu_bar_rhs(hol, crossings, rot):
    """The reduced-coaction right-hand side assembled with FreeSeries
    products, Fox derivatives and the closure series: the reference for the
    level assembly of `mu_bar_rhs`."""
    path = hol.path
    p, q = path.start.puncture, path.end.puncture
    series = hol.series
    n, deg = series.n, series.degree
    out = series * r_zeta_series(p, deg, n, negate_variable=True)
    out = out + rot * series
    out = out - r_zeta_series(q, deg, n) * series
    for c in crossings:
        out = out + float(c.sign) * (_piece(hol, c.s, 1.0) * _piece(hol, 0.0, c.t))
    out = out - d_left(p, series) - d_right(q, series)
    if p == q:
        # the closing turn of the loop: +-1/2 as the incoming strand lies
        # above or below the outgoing one
        shift = above((path, "in"), (path, "out")) - 0.5
        closure = r_am_series(p, deg, n) + (0.5 - shift) * FreeSeries.unit(
            n, deg, COMPLEX
        )
        out = out + closure
    return out.with_degree(deg - 1)


P1_LOOP = PLPath(
    PunctureConfig([0.0]),
    Anchor.tangential(1, 1.0),
    Anchor.tangential(1, 1.0),
    [0.4, 0.4 + 0.3j, -0.5 + 0.3j, -0.5 - 0.3j, 0.3 - 0.3j, 0.3],
)


@pytest.mark.parametrize("degree", [1, 2, 5])
@pytest.mark.parametrize(
    "name", ["P1_LOOP", "fig8.json", "path_embedded2.json", "loop_a4.json", "loop_bup.json"]
)
def test_level_coaction_check_matches_sparse_assembly(load_path, name, degree):
    """`mu_bar_rhs` and the discrepancy of `coaction_check`, both assembled on
    level arrays, against the sparse assembly: an n = 1 loop and two n = 3
    loops (closure term), a path with a self-crossing and an n = 2 path."""
    path = P1_LOOP if name == "P1_LOOP" else load_path(name)
    conn = ConnectionSpec(path.punctures, degree)
    crossings = self_intersections(path)
    hol = holonomy_reg(conn, path, breakpoints=crossing_breakpoints(crossings))
    rot = snap_half_integer(rotation_number(path))
    want = _sparse_mu_bar_rhs(hol, crossings, rot)
    got = levels.to_series(conn.n_generators, mu_bar_rhs(hol, crossings, rot))
    assert got.degree == want.degree == degree - 1
    assert (got - want).norm_inf() <= 1e-14
    disc = (mu_bar_kks(hol.series).with_degree(degree - 1) - want).norm_inf()
    assert abs(coaction_check(conn, path)["max_discrepancy"] - disc) <= 1e-14


def test_reduced_coaction_needs_degree_one():
    path = P1_LOOP
    conn = ConnectionSpec(path.punctures, 0)
    with pytest.raises(DomainError, match="degree >= 1"):
        coaction_check(conn, path)


def test_identity_campaigns_make_no_series_products(data_dir, count_series_calls):
    """The coaction, pentagon and goldman campaigns assemble their products on
    level arrays: FreeSeries.__mul__ is never called."""
    calls = count_series_calls("__mul__")
    fig8 = str(data_dir / "fig8.json")
    loops = [str(data_dir / f"loop_{name}.json") for name in ("a1", "b1", "a4", "bup")]
    for argv in (
        ["verify", "coaction", "--path", fig8],
        ["verify", "pentagon", "--path", fig8],
        ["verify", "goldman", "--loops", loops[0], "--loops", loops[1]],
        ["verify", "goldman", "--loops", loops[2], "--loops", loops[3]],
    ):
        assert main(argv) == 0
    assert calls == {"__mul__": 0}


# ---------------------------------------------------------------------------
# path pairing formula
# ---------------------------------------------------------------------------
def test_rho_paths_disjoint():
    punctures = PunctureConfig([0.0, 1.0, 2.0, 3.0])
    conn = ConnectionSpec(punctures, 4)
    p12 = PLPath(
        punctures, Anchor.tangential(1, 1.0), Anchor.tangential(2, -1.0), []
    )
    p34 = PLPath(
        punctures, Anchor.tangential(3, 1.0), Anchor.tangential(4, -1.0), []
    )
    h1 = holonomy_reg(conn, p12).series
    h2 = holonomy_reg(conn, p34).series
    rhs = levels.to_series(conn.n_generators, rho_paths(conn, p34, p12))
    assert (rho_kks(h2, h1).with_degree(3) - rhs).norm_inf() < 1e-10


def test_rho_paths_shared_middle():
    """path2 leaves the shared puncture along path1's arrival ray, below it
    in the plane (above it in the ray frame: no corner term) and, mirrored,
    above it (the corner adds h2 h1).  path1 stays on the ray throughout."""
    conn = ConnectionSpec(P3, 4)
    p12 = PLPath(P3, Anchor.tangential(1, 1.0), Anchor.tangential(2, -1.0), [])
    h1 = holonomy_reg(conn, p12).series
    for points in ([0.9, 0.85 - 0.25j, 2.3 - 0.25j, 2.3],
                   [0.9, 0.85 + 0.25j, 2.3 + 0.25j, 2.3]):
        p23 = PLPath(P3, Anchor.tangential(2, -1.0), Anchor.tangential(3, 1.0), points)
        h2 = holonomy_reg(conn, p23).series
        rhs = levels.to_series(conn.n_generators, rho_paths(conn, p23, p12))
        assert (rho_kks(h2, h1).with_degree(3) - rhs).norm_inf() < 1e-10


def test_rho_paths_loops(load_path):
    """The loop variant with its four base corners, on every admissible
    ordered fixture pair (the corners cover 10 of the 24 strand orders)."""
    for name1, name2 in LOOP_PAIRS:
        loop1, loop2 = load_path(name1), load_path(name2)
        conn = ConnectionSpec(loop1.punctures, 4)
        h1 = holonomy_reg(conn, loop1).series
        h2 = holonomy_reg(conn, loop2).series
        rhs = levels.to_series(conn.n_generators, rho_paths(conn, loop2, loop1))
        assert (rho_kks(h2, h1).with_degree(3) - rhs).norm_inf() < 1e-10, (name1, name2)


def test_rho_paths_loops_on_all_24_strand_orders():
    """Seeded random loop pairs at one base point reach all 24 orders of the
    four tail-strand germs; on the first admissible pair of each order the
    loop variant meets rho_kks through degree 3.  Pairs the geometry rejects
    (KzfoxError) are skipped."""
    rng = random.Random(1617)
    checked = {}
    for _ in range(400):
        loop1, loop2 = random_base_loop(rng), random_base_loop(rng)
        germs = [loop.tails[which].height
                 for loop in (loop1, loop2) for which in ("out", "in")]
        order = tuple(sorted(range(4), key=germs.__getitem__))
        if len(set(germs)) < 4 or order in checked:
            continue
        conn = ConnectionSpec(P3, 4)
        try:
            rhs = levels.to_series(conn.n_generators, rho_paths(conn, loop2, loop1))
        except KzfoxError:
            continue
        h1 = holonomy_reg(conn, loop1).series
        h2 = holonomy_reg(conn, loop2).series
        checked[order] = (rho_kks(h2, h1).with_degree(3) - rhs).norm_inf()
        assert checked[order] < 1e-10, (order, loop1.points, loop2.points)
        if len(checked) == 24:
            break
    assert len(checked) == 24


def _case_analysis_linking(germs):
    """The base linking from the vertical order of the four tail strands,
    ``germs[(curve, "out" | "in")]``: 0 when the curves nest, else the sign
    read off the strand after loop1's outgoing one.  The reference for the
    signed sum of the orders in `base_linking`."""
    order = sorted(germs, key=lambda strand: -germs[strand])
    curves = [curve for curve, _ in order]
    if curves not in ([1, 2, 1, 2], [2, 1, 2, 1]):
        return 0.0
    i = order.index((1, "out"))
    return -1.0 if order[(i + 1) % 4][1] == "out" else 1.0


def test_base_linking_is_the_alternating_corner_sum(monkeypatch):
    """[p>Q] - [P>Q] - [p>q] + [P>q] equals the case analysis on all 24
    orders of four distinct germs; equal germs are ambiguous.  The four
    corners are listed by `strand_pairs` in that order, with those signs."""
    loop1, loop2 = _loop(LOOP_A1), _loop(LOOP_B1)
    assert [entry[:3] for entry in strand_pairs(loop1, loop2)] == [
        ("in", "out", 1.0), ("out", "out", -1.0), ("in", "in", -1.0), ("out", "in", 1.0)]
    strands = [(1, "out"), (1, "in"), (2, "out"), (2, "in")]
    signs = set()

    def set_heights(germs):
        for curve, path in ((1, loop1), (2, loop2)):
            monkeypatch.setattr(path, "tails", {
                which: dataclasses.replace(tail, height=germs[(curve, which)])
                for which, tail in path.tails.items()
            })

    for heights in itertools.permutations([2.0, 0.5, -0.5, -3.0]):
        germs = dict(zip(strands, heights))
        set_heights(germs)
        want = _case_analysis_linking(germs)
        assert base_linking(loop1, loop2) == want
        signs.add(want)
    assert signs == {-1.0, 0.0, 1.0}
    germs[(2, "in")] = germs[(1, "out")]
    set_heights(germs)
    with pytest.raises(ValidationError, match="ambiguous base-strand ordering"):
        base_linking(loop1, loop2)


@pytest.mark.parametrize(
    "second, first",
    [("loop_b1", "loop_a1"), ("loop_bup", "loop_a4"),
     ("loop_a5", "loop_bup"), ("loop_a1", "loop_b1")],
)
def test_coaction_refuses_composite_loops(load_path, second, first):
    """`compose` puts on-ray segments in the middle of the path, at the
    junction; their contacts with the tails are non-transverse and refused,
    not skipped as tail contacts (which failed the identity by up to 2.0)."""
    loop = compose(load_path(second + ".json"), load_path(first + ".json"))
    contact = "non-transverse touching|collinear overlap"
    with pytest.raises(ValidationError, match=contact):
        coaction_check(ConnectionSpec(P3, 3), loop)


def test_rho_paths_on_coinciding_endpoints():
    """Two paths that share both endpoints, each arriving where the other
    leaves (q = r and p = s), meet rho_kks through degree 2 in both orders:
    each shared point adds its one corner term."""
    conn = ConnectionSpec(P3, 3)
    p12 = PLPath(P3, Anchor.tangential(1, 1.0), Anchor.tangential(2, -1.0), [])
    p21 = PLPath(
        P3,
        Anchor.tangential(2, -1.0),
        Anchor.tangential(1, 1.0),
        [0.9, 0.85 - 0.25j, 0.15 - 0.25j, 0.1],
    )
    for path2, path1 in ((p21, p12), (p12, p21)):
        h1 = holonomy_reg(conn, path1).series
        h2 = holonomy_reg(conn, path2).series
        rhs = levels.to_series(conn.n_generators, rho_paths(conn, path2, path1))
        assert (rho_kks(h2, h1).with_degree(2) - rhs).norm_inf() < 1e-13


def test_rho_paths_refuses_degree_zero_before_transport(monkeypatch):
    """The pairing formula is read through degree D-1, so D = 0 is refused
    with a DomainError before either path is transported."""
    conn = ConnectionSpec(P3, 0)
    p12 = PLPath(P3, Anchor.tangential(1, 1.0), Anchor.tangential(2, -1.0), [])
    p23 = PLPath(P3, Anchor.tangential(2, -1.0), Anchor.tangential(3, 1.0),
                 [0.9, 0.85 - 0.25j, 2.3 - 0.25j, 2.3])
    calls = []
    original = kz_holonomy.holonomy_reg
    monkeypatch.setattr(kz_holonomy, "holonomy_reg",
                        lambda *args: calls.append(args) or original(*args))
    with pytest.raises(DomainError, match="truncation degree >= 1"):
        rho_paths(conn, p23, p12)
    assert calls == []


# the open kinds: (p, q, r, s) as positions in a sample of distinct punctures,
# and the (path1 strand, path2 strand) pairs at shared tangential points
_OPEN_KINDS = {
    "disjoint": ((0, 1, 2, 3), set()),
    "shared_middle": ((0, 1, 1, 2), {("in", "out")}),
    "shared_start": ((0, 1, 0, 2), {("out", "out")}),
    "shared_end": ((0, 1, 2, 1), {("in", "in")}),
    "start_is_end": ((0, 1, 2, 0), {("out", "in")}),
    "shared_ends": ((0, 1, 0, 1), {("out", "out"), ("in", "in")}),
    "swapped_ends": ((0, 1, 1, 0), {("in", "out"), ("out", "in")}),
}
_ALL_PAIRS = {("in", "out"), ("out", "out"), ("in", "in"), ("out", "in")}


def _seeded_pair(rng, kind):
    """path1, path2 of one kind: `random_open_path` draws on the anchors of
    `_OPEN_KINDS`, path2 leaving a shared anchor along path1's ray, or a
    `random_base_loop` with an open path from or to its base point 1."""
    if kind in ("loop_then_open", "open_then_loop"):
        other = rng.choice((2, 3))
        p, q = rng.choice(((1, other), (other, 1)))
        pair = (random_base_loop(rng),
                random_open_path(rng, 3, p, q, start=1.0 if p == 1 else 0.0))
        return pair if kind == "loop_then_open" else pair[::-1]
    n = 4 if kind == "disjoint" else 3
    points = rng.sample(range(1, n + 1), n)
    p, q, r, s = (points[i] for i in _OPEN_KINDS[kind][0])
    path1 = random_open_path(rng, n, p, q)
    ray = {p: path1.start.direction, q: path1.end.direction}
    return path1, random_open_path(rng, n, r, s, start=ray.get(r, 0.0).real)


@pytest.mark.parametrize("kind", list(_OPEN_KINDS) + ["loop_then_open", "open_then_loop"])
def test_rho_paths_on_seeded_open_path_pairs(kind):
    """At least 12 seeded pairs of each kind meet rho_kks through degree 3 at
    1e-13: four distinct anchors; q = r, p = r, q = s, p = s, p = r with
    q = s, and q = r with p = s; a loop with an open path from or to its base
    point, in both orders.  Pairs are drawn until both orders of every strand
    pair at a shared point have occurred.  A draw whose shared anchors point
    along different rays is redrawn, and pairs the geometry rejects
    (KzfoxError) are skipped; measured worst 8.9e-16 on the first 16 pairs
    of each kind."""
    rng = random.Random(2101)
    accepted, worst, orders = 0, 0.0, {}
    pairs = _OPEN_KINDS[kind][1] if kind in _OPEN_KINDS else _ALL_PAIRS

    def covered():
        return set(orders) == pairs and all(seen == {0.0, 1.0} for seen in orders.values())

    for _ in range(200):
        path1, path2 = _seeded_pair(rng, kind)
        rays = {}
        if any(rays.setdefault(a.puncture, a.direction) != a.direction
               for a in (path1.start, path1.end, path2.start, path2.end)):
            continue
        conn = ConnectionSpec(path1.punctures, 4)
        try:
            rhs = levels.to_series(conn.n_generators, rho_paths(conn, path2, path1))
        except KzfoxError:
            continue
        h1 = holonomy_reg(conn, path1).series
        h2 = holonomy_reg(conn, path2).series
        worst = max(worst, (rho_kks(h2, h1).with_degree(3) - rhs).norm_inf())
        for x, y, _, order in strand_pairs(path1, path2):
            orders.setdefault((x, y), set()).add(order)
        accepted += 1
        if accepted >= 12 and covered():
            break
    assert accepted >= 12 and covered(), (accepted, orders)
    assert worst < 1e-13


def test_anchors_at_one_puncture_must_share_its_direction(monkeypatch):
    """Two anchors at one puncture but along different rays are different
    tangential points.  Before any transport, a ValidationError refuses a
    shared middle point that path2 leaves against path1's arrival direction
    (12 seeded `random_open_path` draws) and a loop pair based along opposite
    rays (rho_paths, goldman_bracket_check, verify_theorem2).  The coaction
    and the pentagon projection refuse, again before any transport, a path
    whose two ends sit at one puncture along opposite rays and a path with a
    regular end."""
    from kzfox.rep_space import MatrixTuple, verify_theorem2

    calls = []
    original = kz_holonomy.holonomy_reg
    monkeypatch.setattr(kz_holonomy, "holonomy_reg",
                        lambda *args: calls.append(args) or original(*args))
    rng = random.Random(2201)
    for _ in range(12):
        p, q, s = rng.sample(range(1, 4), 3)
        path1 = random_open_path(rng, 3, p, q)
        path2 = random_open_path(rng, 3, q, s, start=-path1.end.direction.real)
        with pytest.raises(ValidationError, match="different directions"):
            rho_paths(ConnectionSpec(path1.punctures, 4), path2, path1)
    conn = ConnectionSpec(P3, 4)
    loop = _loop(LOOP_A1)
    mirrored = PLPath(P3, Anchor.tangential(1, -1.0), Anchor.tangential(1, -1.0),
                      [-complex(z) for z in LOOP_A1])
    X = MatrixTuple.random(3, 2, radius=0.1, seed=5)
    for check in (rho_paths, goldman_bracket_check,
                  lambda conn, b, a: verify_theorem2(conn, b, a, X)):
        for loop2, loop1 in ((mirrored, loop), (loop, mirrored)):
            with pytest.raises(ValidationError, match="different directions"):
                check(conn, loop2, loop1)
    assert calls == []
    # the opposite-ray path used to fail the coaction by 0.5
    opposite = PLPath(P3, Anchor.tangential(1, 1.0), Anchor.tangential(1, -1.0),
                      [0.3, 0.3 + 0.5j, -0.4 + 0.5j, -0.4])
    regular_end = PLPath(P3, Anchor.tangential(1, 1.0), Anchor.regular(0.5 + 0.5j),
                         [0.3, 0.3 + 0.5j])
    for check in (coaction_check, pentagon_projection_check):
        with pytest.raises(ValidationError, match="different directions"):
            check(conn, opposite)
        with pytest.raises(ValidationError, match="end anchor must be tangential"):
            check(conn, regular_end)
    assert calls == []


def test_loops_at_different_punctures_are_refused_before_transport(monkeypatch):
    """The bracket checks need one base point: loops based at two punctures
    raise ValidationError in goldman_bracket_check and verify_theorem2,
    in both orders, before any transport."""
    from kzfox.rep_space import MatrixTuple, verify_theorem2

    calls = []
    monkeypatch.setattr(kz_holonomy, "holonomy_reg", lambda *args: calls.append(args))
    loop = _loop(LOOP_A1)
    at_3 = PLPath(P3, Anchor.tangential(3, 1.0), Anchor.tangential(3, 1.0),
                  [2 + complex(z) for z in LOOP_A1])
    X = MatrixTuple.random(3, 2, radius=0.1, seed=5)
    for check in (goldman_bracket_check, lambda conn, b, a: verify_theorem2(conn, b, a, X)):
        for loop2, loop1 in ((at_3, loop), (loop, at_3)):
            with pytest.raises(ValidationError, match="share one tangential base point"):
                check(ConnectionSpec(P3, 4), loop2, loop1)
    assert calls == []


def test_single_path_refusals_come_before_transport(load_path, monkeypatch):
    """The coaction and the pentagon projection read the anchors, then the
    degree, then the snapped rotation number before any transport: degree 0
    raises DomainError and a path whose rotation number is -1/8 raises
    ValidationError, with no `holonomy_reg` call."""
    calls = []
    monkeypatch.setattr(kz_holonomy, "holonomy_reg", lambda *args: calls.append(args))
    fig8 = load_path("fig8.json")
    eighth = cmath.exp(0.25j * math.pi)
    p2 = PunctureConfig([0.0, 1.0])
    skew = PLPath(p2, Anchor.tangential(1, eighth), Anchor.tangential(2, -1.0),
                  [0.2 * eighth, 0.5 + 0.3j, 0.8])
    for check in (coaction_check, pentagon_projection_check):
        with pytest.raises(DomainError, match="needs truncation degree >= 1"):
            check(ConnectionSpec(fig8.punctures, 0), fig8)
        with pytest.raises(ValidationError, match=r"-0\.125\d* is not a half-integer"):
            check(ConnectionSpec(p2, 3), skew)
    assert calls == []


def test_ambiguous_base_strand_order_is_refused_before_transport(monkeypatch):
    """Two loops whose outgoing tails leave the base ray at the same point on
    the same side have no strand order there: the loop bracket, the pairing
    formula and Theorem 2 raise ValidationError with no `holonomy_reg` call.
    So does the pairing formula on two open paths that leave one tangential
    point so, in both orders.  A loop whose own incoming and outgoing tails tie is refused by the
    coaction and the loop bracket, again before any transport."""
    from kzfox.rep_space import MatrixTuple, verify_theorem2

    calls = []
    monkeypatch.setattr(kz_holonomy, "holonomy_reg", lambda *args: calls.append(args))
    conn = ConnectionSpec(P3, 3)
    a = _loop([0.4, 0.4 + 0.3j, 1.5 + 0.3j, 1.5 - 0.3j, 0.6 - 0.3j, 0.6])
    b = _loop([0.4, 0.7 + 0.5j, 1.3 + 0.5j, 1.3 - 0.6j, 0.3 - 0.6j, 0.3])
    X = MatrixTuple.random(3, 2, radius=0.1, seed=5)
    for check in (goldman_bracket_check, rho_paths,
                  lambda conn, b, a: verify_theorem2(conn, b, a, X)):
        with pytest.raises(ValidationError, match="ambiguous base-strand ordering"):
            check(conn, b, a)
    # two open paths leaving puncture 1 along one ray (p = r), both turning
    # up at 0.4
    p12 = PLPath(P3, BASE, Anchor.tangential(2, 1.0), [0.4, 0.4 + 0.3j, 1.5 + 0.3j, 1.5])
    p13 = PLPath(P3, BASE, Anchor.tangential(3, -1.0), [0.4, 0.7 + 0.5j, 1.6 + 0.5j, 1.6])
    for path2, path1 in ((p13, p12), (p12, p13)):
        with pytest.raises(ValidationError, match="ambiguous base-strand ordering"):
            rho_paths(conn, path2, path1)
    tied = _loop([0.4, 0.2 + 0.3j, 0.2 + 0.8j, 1.5 + 0.8j, 1.5 - 0.3j, 0.8 - 0.3j,
                  0.8 + 0.3j, 0.6 + 0.3j, 0.4])
    with pytest.raises(ValidationError, match="ambiguous base-strand ordering"):
        coaction_check(conn, tied)
    with pytest.raises(ValidationError, match="ambiguous base-strand ordering"):
        goldman_bracket_check(conn, tied, tied)
    assert calls == []


def test_pairing_and_campaigns_make_no_complex_series_arithmetic(data_dir, monkeypatch):
    """After their transports, `rho_paths` (loops, disjoint anchors and a
    shared middle point) and the coaction, pentagon, goldman, poisson and
    associator campaigns make no FreeSeries product, sum or difference, no
    d_left or d_right and no rho_kks on complex series: level arrays are
    their one numeric representation.  The Fox maps are counted wherever a
    kzfox module or the shared pairing holds them."""
    calls = []

    def counting(name, original):
        def wrapper(*args):
            series = next((a for a in args if isinstance(a, FreeSeries)), None)
            if series is not None and series.backend == COMPLEX:
                calls.append(name)
            return original(*args)
        return wrapper

    for name in ("__mul__", "__add__", "__sub__"):
        monkeypatch.setattr(FreeSeries, name, counting(name, getattr(FreeSeries, name)))
    for name, original in (("d_left", d_left), ("d_right", d_right),
                           ("_rho_kks_func", fox_calculus._rho_kks_func)):
        for module in [m for key, m in sys.modules.items() if key.startswith("kzfox")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    monkeypatch.setattr(fox_calculus.rho_kks_pairing(), "_func",
                        counting("_rho_kks_func", fox_calculus._rho_kks_func))

    loop1, loop2 = (load_path_file(str(data_dir / f"loop_{name}.json"))
                    for name in ("a4", "bup"))
    rho_paths(ConnectionSpec(P3, 5), loop2, loop1)
    P4 = PunctureConfig([0.0, 1.0, 2.0, 3.0])
    p12 = PLPath(P4, Anchor.tangential(1, 1.0), Anchor.tangential(2, -1.0), [])
    p34 = PLPath(P4, Anchor.tangential(3, 1.0), Anchor.tangential(4, -1.0), [])
    rho_paths(ConnectionSpec(P4, 5), p34, p12)
    p12 = PLPath(P3, Anchor.tangential(1, 1.0), Anchor.tangential(2, -1.0), [])
    p23 = PLPath(P3, Anchor.tangential(2, -1.0), Anchor.tangential(3, 1.0),
                 [0.9, 0.85 + 0.25j, 2.3 + 0.25j, 2.3])
    rho_paths(ConnectionSpec(P3, 5), p23, p12)
    assert calls == []
    fig8 = str(data_dir / "fig8.json")
    loops = ["--loops", str(data_dir / "loop_a4.json"),
             "--loops", str(data_dir / "loop_bup.json")]
    for argv in (
        ["verify", "coaction", "--path", fig8],
        ["verify", "pentagon", "--path", fig8],
        ["verify", "goldman"] + loops,
        ["verify", "poisson"] + loops,
        ["associator", "--degree", "4"],
    ):
        assert main(argv) == 0
    assert calls == []


def test_path_and_poisson_campaigns_build_no_sparse_series(data_dir, monkeypatch):
    """The coaction, pentagon, goldman and poisson campaigns build no sparse
    series and take no cyclic minimum: the regularizing series enter the
    kernel as level arrays (`levels.letter`), and the necklace maps run on
    them (`levels.necklace_bracket`, `levels.necklace_cobracket`), so neither
    the validating `_Sparse` constructor, nor `_Sparse._trusted`, nor
    `cyclic_min` runs.  The algebra suite shows that the counter sees all
    three."""
    from kzfox import brackets_coactions, free_hopf
    from kzfox.free_hopf import _Sparse

    made = []
    init, trusted = _Sparse.__init__, _Sparse._trusted.__func__

    def counting_init(self, *args, **kwargs):
        made.append("__init__")
        init(self, *args, **kwargs)

    def counting_trusted(cls, *args, **kwargs):
        made.append("_trusted")
        return trusted(cls, *args, **kwargs)

    def counting_min(word, _original=free_hopf.cyclic_min):
        made.append("cyclic_min")
        return _original(word)

    monkeypatch.setattr(_Sparse, "__init__", counting_init)
    monkeypatch.setattr(_Sparse, "_trusted", classmethod(counting_trusted))
    for module in (free_hopf, brackets_coactions):
        monkeypatch.setattr(module, "cyclic_min", counting_min)
    fig8 = str(data_dir / "fig8.json")
    loops = ["--loops", str(data_dir / "loop_a4.json"),
             "--loops", str(data_dir / "loop_bup.json")]
    for argv in (
        ["verify", "coaction", "--path", fig8],
        ["verify", "pentagon", "--path", fig8],
        ["verify", "goldman"] + loops,
        ["verify", "poisson"] + loops,
    ):
        assert main(argv) == 0
        assert made == [], argv
    assert main(["verify", "algebra", "--degree", "2"]) == 0
    assert {"__init__", "_trusted", "cyclic_min"} <= set(made)


# ---------------------------------------------------------------------------
# report-level checks (deeper tolerances exercised in the acceptance suite)
# ---------------------------------------------------------------------------
def test_goldman_bracket_check_report(monkeypatch):
    conn = ConnectionSpec(P3, 4)
    report = goldman_bracket_check(conn, _loop(LOOP_B1), _loop(LOOP_A1))
    assert report["n_crossings"] == 1
    assert report["base_linking"] in (-1.0, 1.0)
    assert report["max_discrepancy"] < 1e-8
    # at truncation degree 0 there is no degree to compare: refused before
    # any transport
    calls = []
    monkeypatch.setattr(kz_holonomy, "holonomy_reg", lambda *args: calls.append(args))
    with pytest.raises(DomainError, match="truncation degree >= 1"):
        goldman_bracket_check(ConnectionSpec(P3, 0), _loop(LOOP_B1), _loop(LOOP_A1))
    assert calls == []


def test_goldman_on_seeded_pairs_with_nonzero_brackets():
    """On every fixture pair the necklace bracket {|h2|, |h1|} is roundoff, so
    those pairs leave the bracket side of the identity unchecked.  Among the
    first 9 seeded pairs of `random_loop_pairs(11, 9)`, two have a bracket of
    size 1 (pairs 1 and 8), and every pair meets the crossing formula to
    roundoff at truncation 6."""
    conn = ConnectionSpec(P3, 6)
    brackets = []
    for loop1, loop2 in random_loop_pairs(11, 9):
        report = goldman_bracket_check(conn, loop2, loop1)
        assert report["max_discrepancy"] <= 1e-13
        _, hol2, hol1 = transport_pair(conn, loop2, loop1, DEFAULT_ACCURACY, (), ())
        bracket = levels.necklace_bracket(hol2.levels, hol1.levels, 3)
        brackets.append(max(float(np.abs(levels.rotations(a, 3, k)).max())
                            for k, a in enumerate(bracket)))
    assert sum(size >= 0.1 for size in brackets) >= 2


def test_pentagon_projection_check_report():
    conn = ConnectionSpec(P3, 4)
    end = Anchor.tangential(3, -1.0)
    fig8 = PLPath(
        P3,
        BASE,
        end,
        [0.25, 0.2 + 0.3j, 1.3 + 0.3j, 1.3 + 0.55j, 0.6 + 0.55j, 0.6 - 0.3j,
         1.6 - 0.3j, 1.6 + 0j],
    )
    report = pentagon_projection_check(conn, fig8)
    assert report["n_crossings"] == 1
    assert report["max_discrepancy"] < 1e-8


@pytest.mark.parametrize("degree", [4, 5])
@pytest.mark.parametrize(
    "name", ["fig8.json", "path_embedded2.json", "path_embedded3.json"]
)
def test_square_map_pentagon_matches_coaction_residual(load_path, name, degree):
    """The projected pentagon assembled from the exact square-zero extension
    maps and the associator corner terms, on dense complex holonomies, leaves
    the residual mu_bar_rhs(hol) - mu_bar(h) coefficient by coefficient."""
    path = load_path(name)
    p, q = path.start.puncture, path.end.puncture
    conn = ConnectionSpec(path.punctures, degree)
    n = conn.n_generators
    crossings = self_intersections(path)
    hol = holonomy_reg(conn, path, breakpoints=crossing_breakpoints(crossings))
    h = hol.series
    rot = snap_half_integer(rotation_number(path))
    lhs = -r_zeta_series(q, degree, n) * h + square_zw(h) + rot * h
    lhs = lhs + h * r_zeta_series(p, degree, n, negate_variable=True)
    rhs = square_z(q, h) + square_w(p, h)
    for c in crossings:
        rhs = rhs - float(c.sign) * (_piece(hol, c.s, 1.0) * _piece(hol, 0.0, c.t))
    residual = (lhs - rhs).with_degree(degree - 1)
    expected = (levels.to_series(n, mu_bar_rhs(hol, crossings, rot))
                - mu_bar_kks(h).with_degree(degree - 1))
    assert (residual - expected).norm_inf() <= 1e-14


@pytest.mark.parametrize(
    "name", ["loop_a1.json", "loop_a4.json", "loop_a5.json", "loop_b1.json", "loop_bup.json"]
)
def test_pentagon_projection_rejects_loops(load_path, data_dir, capsys, name):
    loop = load_path(name)
    assert loop.start == loop.end
    with pytest.raises(ValidationError, match="loop"):
        pentagon_projection_check(ConnectionSpec(loop.punctures, 4), loop)
    assert main(["verify", "pentagon", "--path", str(data_dir / name)]) == 1
    assert "loop" in capsys.readouterr().err
