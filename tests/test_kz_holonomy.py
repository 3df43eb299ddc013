"""Transport engine, regularized holonomy, and the assembled identities."""

import cmath
import itertools
import json
import math
import random
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
    rho_kks,
    rho_paths,
    subpath,
    zeta,
)
from kzfox import kz_holonomy
from kzfox.cli import main
from kzfox.coefficients import r_am_series, r_zeta_series
from kzfox.errors import AccuracyError, DomainError, ValidationError
from kzfox.fox_calculus import d_left, d_right
from kzfox.kz_holonomy import (
    coaction_check,
    crossing_breakpoints,
    goldman_bracket_check,
    pentagon_projection_check,
)
from kzfox.kz_paths import (
    intersections,
    rotation_number,
    self_intersections,
    snap_half_integer,
)
from kzfox.trivial_extension import (
    SIDE_LEFT,
    SIDE_RIGHT,
    associator_tail,
    square_w,
    square_z,
    square_zw,
)

from conftest import LOOP_PAIRS, dense_complex

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
    assert conn.generator(2).coefficient((2,)) == 1


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


def _worst_piece_error(conn, path, hol):
    """Every piece a transport gives between its breakpoints (and the ends)
    against a separate transport of the subpath."""
    cuts = [0.0] + sorted(hol.prefixes) + [1.0]
    worst = 0.0
    for i, a in enumerate(cuts):
        for b in cuts[i + 1:]:
            reference = holonomy_reg(conn, subpath(path, a, b)).series
            worst = max(worst, (hol.piece(a, b) - reference).norm_inf())
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
    assert (hol.piece(0.0, 1.0) - hol.series).norm_inf() == 0.0
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
    conn = ConnectionSpec(P3, 5)
    rng = random.Random(7)
    words = _words(conn)
    worst = 0.0
    for pole in (0, 1, 2, 3):
        for _ in range(4):
            init = _random_coeffs(rng, conn)
            if pole:
                z0 = conn.punctures.point(pole)
                dz = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                a = rng.uniform(0.0, 0.1)
                b = a + rng.uniform(0.05, 0.2)
            else:
                z0 = complex(rng.uniform(-0.5, 2.5), rng.uniform(0.2, 1.0))
                dz = complex(rng.uniform(-1, 1), rng.uniform(-0.15, 0.15))
                a, b = 0.0, 1.0
            level = kz_holonomy._panel_transport(
                conn, z0, dz, a, b, _as_levels(conn, init), pole
            )
            reference = _reference_panel(conn, z0, dz, a, b, init, pole)
            for w, c in zip(words, np.concatenate(level)):
                worst = max(worst, abs(c - reference[w]))
    assert worst <= 1e-14


def test_level_composition_matches_series_operations():
    """Level product, level antipode, the conversion from a FreeSeries and the
    closed-form branch factor of a local frame against FreeSeries product,
    antipode, coefficients and exp."""
    conn = ConnectionSpec(P3, 5)
    rng = random.Random(11)
    a, b = _random_coeffs(rng, conn), _random_coeffs(rng, conn)
    sa = FreeSeries(3, 5, a, COMPLEX)
    sb = FreeSeries(3, 5, b, COMPLEX)
    product = kz_holonomy._level_mul(_as_levels(conn, a), _as_levels(conn, b))
    assert kz_holonomy._to_series(3, product).allclose(sa * sb, 1e-14)
    antipode = kz_holonomy._level_antipode(_as_levels(conn, a), 3)
    assert kz_holonomy._to_series(3, antipode) == sa.antipode()
    for got, want in zip(kz_holonomy._to_levels(sa), _as_levels(conn, a)):
        assert np.array_equal(got, want)
    for p in (1, 2, 3):
        anchor = Anchor.tangential(p, 1.0)
        _, r, frame, _ = kz_holonomy._local_frame(conn, anchor, 0.5 + 0.5j, 1e-10)
        analytic, _ = kz_holonomy._advance(
            conn, conn.punctures.point(p), 1.0, 0.0, r,
            kz_holonomy._to_levels(conn.unit()), 1e-10, 0, "frame", pole=p,
        )
        branch = conn.generator(p).scale(math.log(r) / kz_holonomy.TWO_PI_I).exp()
        assert kz_holonomy._to_series(3, frame).allclose(
            kz_holonomy._to_series(3, analytic) * branch, 1e-14
        )


def test_transport_levels_own_their_memory():
    """Every level a panel returns, and every state the polyline keeps, owns
    its memory: none is a view of a panel's work buffer, whose 17 rows (node
    values and end value) would stay pinned as long as the state."""
    conn = ConnectionSpec(P3, 5)
    unit = kz_holonomy._to_levels(conn.unit())
    for pole, z0, dz in ((0, 0.5 + 0.5j, 0.3 - 0.1j), (2, 1.0, 1j)):
        state = kz_holonomy._panel_transport(conn, z0, dz, 0.0, 0.1, unit, pole)
        state = kz_holonomy._panel_transport(conn, z0, dz, 0.1, 0.2, state, pole)
        assert len(state) == 6
        assert all(a.flags.owndata for a in state)
    states, _ = kz_holonomy._transport_polyline(conn, LOOP_A1, 1e-10)
    assert len(states) == len(LOOP_A1)
    assert all(a.flags.owndata for state in states for a in state)


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


def test_reversed_path_inverts_holonomy():
    """Hol(gamma reversed) * Hol(gamma) = 1 at a tangential base point."""
    conn = ConnectionSpec(P3, 4)
    loop = _loop(LOOP_A1)
    h = holonomy_reg(conn, loop).series
    h_rev = holonomy_reg(conn, loop.reversed()).series
    assert (h_rev * h - conn.unit()).norm_inf() < 1e-12


def test_holonomy_report_fields():
    conn = ConnectionSpec(P3, 3)
    res = holonomy_reg(conn, _loop(LOOP_A1))
    data = res.to_json_dict()
    assert "series" in data and "report" in data
    assert data["report"]["rot"] in (-0.5, 0.5)
    assert data["report"]["crossings"] == []
    assert res.accuracy_estimate < 1e-6


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


def _worst_level_error(levels, series):
    """Largest difference between level arrays and the coefficients of a
    series; the series' levels beyond them must be zero."""
    want = kz_holonomy._to_levels(series)
    assert len(levels) <= len(want)
    padded = list(levels) + [np.zeros_like(b) for b in want[len(levels):]]
    return max(float(np.max(np.abs(a - b))) for a, b in zip(padded, want))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("degree", range(7))
def test_level_maps_match_sparse_maps(n, degree):
    """mu_bar, the products with one-generator series and the Fox derivatives
    on level arrays against mu_bar_kks, FreeSeries.__mul__ and d_left /
    d_right on dense complex series; at n = 1 the word x_1^j has index 0."""
    a = dense_complex(random.Random(10 * n + degree), n, degree)
    levels = kz_holonomy._to_levels(a)
    worst = _worst_level_error(kz_holonomy._mu_bar_levels(levels, n), mu_bar_kks(a))
    for p in range(1, n + 1):
        for z in (
            r_zeta_series(p, degree, n),
            r_zeta_series(p, degree, n, negate_variable=True),
            r_am_series(p, degree, n),
        ):
            right = kz_holonomy._sparse_mul(levels, z.coeffs, n, left=False)
            left = kz_holonomy._sparse_mul(levels, z.coeffs, n, left=True)
            worst = max(
                worst, _worst_level_error(right, a * z), _worst_level_error(left, z * a)
            )
        strip_last = kz_holonomy._fox_levels(levels, p, n, left=True)
        strip_first = kz_holonomy._fox_levels(levels, p, n, left=False)
        worst = max(
            worst,
            _worst_level_error(strip_last, d_left(p, a)),
            _worst_level_error(strip_first, d_right(p, a)),
        )
    assert worst <= 1e-14


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
        got = kz_holonomy._rho_kks_levels(
            kz_holonomy._to_levels(u), kz_holonomy._to_levels(v), n
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
        out = out + float(c.sign) * (hol.piece(c.s, 1.0) * hol.piece(0.0, c.t))
    out = out - d_left(p, series) - d_right(q, series)
    if p == q:
        # the closing turn of the loop: +-1/2 as the incoming strand lies
        # above or below the outgoing one
        shift = kz_holonomy._above((path, "in"), (path, "out")) - 0.5
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
    got = mu_bar_rhs(hol, crossings, rot)
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
    rhs = rho_paths(conn, p34, p12)
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
        rhs = rho_paths(conn, p23, p12)
        assert (rho_kks(h2, h1).with_degree(3) - rhs).norm_inf() < 1e-10


def test_rho_paths_loops(load_path):
    """The loop variant with its four base corners, on every admissible
    ordered fixture pair (the corners cover 10 of the 24 strand orders)."""
    for name1, name2 in LOOP_PAIRS:
        loop1, loop2 = load_path(name1), load_path(name2)
        conn = ConnectionSpec(loop1.punctures, 4)
        h1 = holonomy_reg(conn, loop1).series
        h2 = holonomy_reg(conn, loop2).series
        rhs = rho_paths(conn, loop2, loop1)
        assert (rho_kks(h2, h1).with_degree(3) - rhs).norm_inf() < 1e-10, (name1, name2)


def _case_analysis_linking(germs):
    """The base linking from the vertical order of the four tail strands,
    ``germs[(curve, "out" | "in")]``: 0 when the curves nest, else the sign
    read off the strand after loop1's outgoing one.  The reference for the
    alternating corner sum of `_base_linking`."""
    order = sorted(germs, key=lambda strand: -germs[strand])
    curves = [curve for curve, _ in order]
    if curves not in ([1, 2, 1, 2], [2, 1, 2, 1]):
        return 0.0
    i = order.index((1, "out"))
    return -1.0 if order[(i + 1) % 4][1] == "out" else 1.0


def test_base_linking_is_the_alternating_corner_sum(monkeypatch):
    """[p>Q] - [P>Q] - [p>q] + [P>q] equals the case analysis on all 24
    orders of four distinct germs; equal germs are ambiguous."""
    loop1, loop2 = _loop(LOOP_A1), _loop(LOOP_B1)
    curve = {id(loop1): 1, id(loop2): 2}
    strands = [(1, "out"), (1, "in"), (2, "out"), (2, "in")]
    signs = set()
    for heights in itertools.permutations([2.0, 0.5, -0.5, -3.0]):
        germs = dict(zip(strands, heights))
        monkeypatch.setattr(kz_holonomy, "_ray_germ",
                            lambda path, which: germs[(curve[id(path)], which)])
        want = _case_analysis_linking(germs)
        assert kz_holonomy._base_linking(loop1, loop2) == want
        signs.add(want)
    assert signs == {-1.0, 0.0, 1.0}
    germs[(2, "in")] = germs[(1, "out")]
    with pytest.raises(ValidationError, match="ambiguous base-strand ordering"):
        kz_holonomy._base_linking(loop1, loop2)


def test_rho_paths_rejects_coinciding_endpoints():
    conn = ConnectionSpec(P3, 3)
    p12 = PLPath(P3, Anchor.tangential(1, 1.0), Anchor.tangential(2, -1.0), [])
    p21 = PLPath(
        P3,
        Anchor.tangential(2, -1.0),
        Anchor.tangential(1, 1.0),
        [0.9, 0.85 - 0.25j, 0.15 - 0.25j, 0.1],
    )
    with pytest.raises(ValidationError):
        rho_paths(conn, p21, p12)


# ---------------------------------------------------------------------------
# report-level checks (deeper tolerances exercised in the acceptance suite)
# ---------------------------------------------------------------------------
def test_goldman_bracket_check_report():
    conn = ConnectionSpec(P3, 4)
    report = goldman_bracket_check(conn, _loop(LOOP_B1), _loop(LOOP_A1))
    assert report["n_crossings"] == 1
    assert report["base_linking"] in (-1.0, 1.0)
    assert report["max_discrepancy"] < 1e-8


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
    lhs = associator_tail(SIDE_LEFT, q, degree, n) * h + square_zw(h) + rot * h
    lhs = lhs + h * associator_tail(SIDE_RIGHT, p, degree, n)
    rhs = square_z(q, h) + square_w(p, h)
    for c in crossings:
        rhs = rhs - float(c.sign) * (hol.piece(c.s, 1.0) * hol.piece(0.0, c.t))
    residual = (lhs - rhs).with_degree(degree - 1)
    expected = mu_bar_rhs(hol, crossings, rot) - mu_bar_kks(h).with_degree(degree - 1)
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
