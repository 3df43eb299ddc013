"""Evaluation on matrix tuples, the entrywise brackets, the bivector, and
the three-way bracket comparison."""

import itertools
import json
import math
from typing import Dict

import numpy as np
import pytest

from kzfox import fox_calculus, levels, rep_space
from kzfox.brackets_coactions import double_bracket_kks
from kzfox.cli import main
from kzfox.coefficients import r_am_series
from kzfox.errors import DomainError, ShapeError, ValidationError
from kzfox.free_hopf import COMPLEX, FreeSeries, RATIONAL, TensorSeries
from kzfox.kz_holonomy import ConnectionSpec, holonomy_reg
from kzfox.kz_paths import Anchor, PLPath, PunctureConfig
from kzfox.levels import evaluate
from kzfox.rep_space import (
    MatrixTuple,
    _oracle_tensor,
    bivector_pi,
    tail_bound,
    verify_theorem2,
)

from conftest import LOOP_PAIRS, random_loop_pairs

_FD_STEP = 1e-5

P3 = PunctureConfig([0.0, 1.0, 2.0])
BASE = Anchor.tangential(1, 1.0)
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


# ---------------------------------------------------------------------------
# references: word-by-word evaluation, finite-difference gradients and the
# scalar bracket oracle
# ---------------------------------------------------------------------------
def _word_products(mats):
    """Word-product evaluator sharing prefix products across words."""
    memo = {(): np.eye(mats[0].shape[0], dtype=complex)}

    def product(w):
        M = memo.get(w)
        if M is None:
            M = product(w[:-1]) @ mats[w[-1] - 1]
            memo[w] = M
        return M

    return product


def _reference_evaluate(series, mats):
    """sum_w c_w M_{w_1} ... M_{w_k}, word by word."""
    product = _word_products(mats)
    out = np.zeros_like(mats[0], dtype=complex)
    for w, c in series.coeffs.items():
        out += complex(c) * product(w)
    return out


def _shifted(X, l, a, b, step):
    """The tuple with ``step`` added to entry (a, b) of its matrix l."""
    mats = list(X.matrices)
    mats[l] = mats[l].copy()
    mats[l][a, b] += step
    return MatrixTuple(mats)


def _matrix_gradient(fun, X, step=_FD_STEP):
    """Gradient tensor of a scalar- or matrix-valued function of the tuple,
    ``grad[l, a, b, ...] = d fun(X)[...] / d (X_{l+1})_{ab}``, by
    Richardson-improved central differences (entries are holomorphic
    polynomials, so a real step computes the complex derivative): the second
    route to the exact `levels.gradient`."""
    rows = []
    for l, a, b in itertools.product(range(X.n), range(X.N), range(X.N)):
        d_full = (
            fun(_shifted(X, l, a, b, step)) - fun(_shifted(X, l, a, b, -step))
        ) / (2.0 * step)
        d_half = (
            fun(_shifted(X, l, a, b, 0.5 * step))
            - fun(_shifted(X, l, a, b, -0.5 * step))
        ) / step
        rows.append((4.0 * d_half - d_full) / 3.0)
    shape = (X.n, X.N, X.N) + np.shape(rows[0])
    return np.asarray(rows, dtype=complex).reshape(shape)


def _block_gradient(arrays, X):
    """The exact gradient by block-triangular evaluation: on the tuple
    ``[[X_k, d_kl E_ab], [0, X_k]]`` the series carries
    ``d f(X) / d (X_{l+1})_ab`` in its upper-right block (Mathias 1996), one
    evaluation of doubled size per direction; the exact reference for
    `levels.gradient`."""
    n, N = X.n, X.N
    block = np.zeros((n, 2 * N, 2 * N), dtype=complex)
    for k, M in enumerate(X.matrices):
        block[k, :N, :N] = block[k, N:, N:] = M
    grad = np.empty((n, N, N, N, N), dtype=complex)
    for l, a, b in np.ndindex(n, N, N):
        block[l, a, N + b] = 1.0
        grad[l, a, b] = _reference_evaluate(levels.to_series(n, arrays), block)[:N, N:]
        block[l, a, N + b] = 0.0
    return grad


def kks_oracle(F, G, X, step=_FD_STEP):
    """Linear Poisson bracket of two scalar functions of the matrix tuple,
    computed from finite-difference matrix gradients:

    ``{F, G}(X) = sum_l tr(X_l [grad_l G, grad_l F])`` with
    ``(grad_l F)_{ba} = dF/d(X_l)_{ab}``; the scalar reference for the
    batched ``_oracle_tensor``.
    """
    gF = _matrix_gradient(F, X, step)
    gG = _matrix_gradient(G, X, step)
    total = 0j
    for l in range(X.n):
        nF = gF[l].T
        nG = gG[l].T
        total += np.trace(X.matrices[l] @ (nG @ nF - nF @ nG))
    return complex(total)


def vdb_bracket(
    db: TensorSeries, X: MatrixTuple, i: int, j: int, u: int, v: int
) -> complex:
    """Bracket of matrix entries induced by a double bracket:
    ``{a_ij, b_uv} = (db)'_{uj} (db)''_{iv}`` with ``db = {{a, b}}``,
    each tensor leg evaluated on ``X``; the entrywise reference for the
    evaluated double bracket of `verify_theorem2`."""
    # group the terms by left word; each word's right leg is one series
    legs: Dict[tuple, dict] = {}
    for (w1, w2), c in db.coeffs.items():
        legs.setdefault(w1, {})[w2] = complex(c)
    left = {w1: evaluate(levels.from_series(FreeSeries(X.n, db.degree, leg, COMPLEX)),
                         X.matrices)[i, v]
            for w1, leg in legs.items()}
    return complex(evaluate(levels.from_series(FreeSeries(X.n, db.degree, left, COMPLEX)),
                            X.matrices)[u, j])


# ---------------------------------------------------------------------------
# MatrixTuple and evaluation
# ---------------------------------------------------------------------------
def test_matrix_tuple_validation():
    with pytest.raises(ShapeError):
        MatrixTuple([np.zeros((2, 2)), np.zeros((3, 3))])
    with pytest.raises(ValidationError):
        MatrixTuple([np.array([[np.nan, 0.0], [0.0, 0.0]])])
    with pytest.raises(DomainError):
        MatrixTuple([])
    with pytest.raises(ShapeError):
        MatrixTuple([1.0])
    with pytest.raises(DomainError):
        MatrixTuple([np.zeros((0, 0))])
    with pytest.raises(DomainError):
        MatrixTuple.random(2, 2, seed=-1)


def test_random_tuple_norms_are_exact():
    X = MatrixTuple.random(3, 2, radius=0.1, seed=5)
    assert X.n == 3 and X.N == 2
    for M in X.matrices:
        assert np.linalg.norm(M, 2) == pytest.approx(0.1, rel=1e-12)
    assert X.norm_bound == pytest.approx(0.1, rel=1e-12)


def test_random_tuple_deterministic():
    X1 = MatrixTuple.random(2, 2, seed=11)
    X2 = MatrixTuple.random(2, 2, seed=11)
    for A, B in zip(X1.matrices, X2.matrices):
        assert np.array_equal(A, B)


def test_evaluate_generator():
    X = MatrixTuple.random(2, 3, seed=1)
    x1 = FreeSeries.generator(1, 2, 4, COMPLEX)
    assert np.allclose(evaluate(levels.from_series(x1), X.matrices), X.matrices[0])


def test_evaluate_rejects_generator_mismatch():
    X = MatrixTuple.random(3, 2)
    with pytest.raises(ShapeError, match="different generator counts"):
        evaluate(levels.from_series(FreeSeries.generator(1, 2, 4, COMPLEX)), X.matrices)


def test_evaluate_exp_of_nilpotent_is_exact():
    """exp(x1) at D = 8 on a nilpotent X1 (X1^3 = 0) equals the matrix
    exponential exactly (the truncation tail vanishes identically)."""
    S = np.zeros((3, 3))
    S[0, 1] = 0.7
    S[1, 2] = -0.4
    X = MatrixTuple([S])
    series = FreeSeries.generator(1, 1, 8, RATIONAL).exp().to_complex()
    expected = np.eye(3) + S + S @ S / 2.0
    assert np.max(np.abs(evaluate(levels.from_series(series), X.matrices) - expected)) < 1e-15


def test_evaluate_respects_multiplication_up_to_tail(rng):
    X = MatrixTuple.random(2, 2, radius=0.05, seed=3)
    coeffs_a = {(): 1.0, (1,): 0.5, (1, 2): -0.25, (2, 2, 1): 0.125}
    coeffs_b = {(): 1.0, (2,): -0.5, (2, 1): 0.75}
    a = FreeSeries(2, 4, coeffs_a, COMPLEX)
    b = FreeSeries(2, 4, coeffs_b, COMPLEX)
    lhs = evaluate(levels.from_series(a * b), X.matrices)
    rhs = (evaluate(levels.from_series(a), X.matrices)
           @ evaluate(levels.from_series(b), X.matrices))
    assert np.max(np.abs(lhs - rhs)) <= 2.0 * tail_bound(4, X)


def _relative_error(got, want):
    scale = np.max(np.abs(want))
    diff = np.max(np.abs(got - want))
    return diff / scale if scale else diff


def test_level_evaluation_matches_word_products(monkeypatch):
    """Horner's scheme on level arrays against word-by-word products, on
    dense and sparse complex series, and on the Kronecker tuple evaluated in
    the grouplike double-bracket tensor."""
    rng = np.random.default_rng(23)
    worst = 0.0
    for n in (1, 2, 3):
        for D in range(7):
            words = [
                w for k in range(D + 1)
                for w in itertools.product(range(1, n + 1), repeat=k)
            ]
            for N in (1, 2, 3):
                X = MatrixTuple.random(n, N, radius=0.6, seed=10 * D + N)
                for density in (1.0, 0.2):
                    coeffs = {
                        w: complex(*rng.standard_normal(2))
                        for w in words if rng.random() < density
                    }
                    series = FreeSeries(n, D, coeffs, COMPLEX)
                    worst = max(worst, _relative_error(
                        evaluate(levels.from_series(series), X.matrices),
                        _reference_evaluate(series, X.matrices),
                    ))
    assert worst <= 1e-14

    level_eval = levels.evaluate
    checked = []

    def checking(arrays, mats):
        got = level_eval(arrays, mats)
        want = _reference_evaluate(levels.to_series(len(mats), arrays), mats)
        checked.append((mats[0].shape[0], _relative_error(got, want)))
        return got

    monkeypatch.setattr(levels, "evaluate", checking)
    words = [w for k in range(5) for w in itertools.product((1, 2, 3), repeat=k)]

    def dense():
        return FreeSeries(
            3, 4, {w: complex(*rng.standard_normal(2)) for w in words}, COMPLEX
        )

    for N in (2, 3):
        X = MatrixTuple.random(3, N, radius=0.3, seed=N)
        a, b = dense(), dense()
        r = levels.rho_kks(levels.from_series(a), levels.from_series(b), 3)
        Ma, Mb = (evaluate(levels.from_series(s), X.matrices) for s in (a, b))
        rep_space._grouplike_double_bracket_tensor(r, X, Ma, Mb)
        assert (N * N) in [size for size, _ in checked]
    assert max(err for _, err in checked) <= 1e-14


def test_tail_bound_values():
    X = MatrixTuple.random(3, 2, radius=0.1, seed=0)
    r = 3 * 0.1
    assert tail_bound(5, X) == pytest.approx(r**6 / (1 - r), rel=1e-9)
    Y = MatrixTuple.random(2, 2, radius=0.6, seed=0)
    assert tail_bound(5, Y) == math.inf


# ---------------------------------------------------------------------------
# exact gradients
# ---------------------------------------------------------------------------
def test_level_gradient_matches_finite_differences():
    """The gradient read off the level arrays against Richardson central
    differences and, exactly, against the block-triangular gradient, on
    dense complex level arrays."""
    rng = np.random.default_rng(29)
    worst = exact = 0.0
    for n, N, D in itertools.product((1, 2, 3), (1, 2, 3), range(6)):
        arrays = [
            rng.standard_normal(n**k) + 1j * rng.standard_normal(n**k)
            for k in range(D + 1)
        ]
        X = MatrixTuple.random(n, N, radius=0.3, seed=7 * D + N)
        got = levels.gradient(arrays, X.matrices)
        want = _matrix_gradient(
            lambda Y: levels.evaluate(arrays, Y.matrices), X
        )
        worst = max(worst, np.max(np.abs(got - want)))
        exact = max(exact, np.max(np.abs(got - _block_gradient(arrays, X))))
    assert worst <= 1e-9
    assert exact <= 1e-14


def test_level_gradient_makes_no_evaluation(monkeypatch):
    """The gradient contracts the level arrays with word products: no
    `levels.evaluate` call, where the block-triangular route made n N^2."""
    calls = []
    evaluate_levels = levels.evaluate

    def counting(arrays, mats):
        calls.append(mats[0].shape)
        return evaluate_levels(arrays, mats)

    monkeypatch.setattr(levels, "evaluate", counting)
    for n, N in ((1, 1), (3, 2), (2, 3)):
        grad = levels.gradient([np.ones(n**k, dtype=complex) for k in range(4)],
                               MatrixTuple.random(n, N, seed=1).matrices)
        assert grad.shape == (n, N, N, N, N)
    assert calls == []


# ---------------------------------------------------------------------------
# entrywise brackets: contraction vs finite-difference oracle
# ---------------------------------------------------------------------------
def test_vdb_bracket_coordinate_pattern():
    """{(x_a)_ij, (x_b)_uv} = delta_ab (delta_ju (x_a)_iv - delta_iv (x_a)_uj)."""
    X = MatrixTuple.random(2, 3, radius=0.3, seed=7)
    D = 4
    for a in (1, 2):
        for b in (1, 2):
            xa = FreeSeries.generator(a, 2, D, COMPLEX)
            xb = FreeSeries.generator(b, 2, D, COMPLEX)
            db = double_bracket_kks(xa, xb)
            Xa = X.matrices[a - 1]
            for i in range(3):
                for j in range(3):
                    for u in range(3):
                        for v in range(3):
                            expected = 0.0
                            if a == b:
                                expected = (j == u) * Xa[i, v] - (i == v) * Xa[u, j]
                            got = vdb_bracket(db, X, i, j, u, v)
                            assert abs(got - expected) < 1e-12


def test_kks_oracle_on_coordinates():
    X = MatrixTuple.random(1, 3, radius=0.4, seed=2)
    X1 = X.matrices[0]
    for i, j, u, v in [(0, 1, 1, 2), (0, 0, 1, 1), (2, 1, 1, 0), (0, 2, 2, 0)]:
        F = lambda Y: Y.matrices[0][i, j]
        G = lambda Y: Y.matrices[0][u, v]
        expected = (j == u) * X1[i, v] - (i == v) * X1[u, j]
        assert abs(kks_oracle(F, G, X) - expected) < 1e-8


def test_kks_oracle_trace_is_casimir():
    X = MatrixTuple.random(2, 3, radius=0.4, seed=9)
    F = lambda Y: complex(np.trace(Y.matrices[0]))
    for G in (
        lambda Y: Y.matrices[0][0, 1],
        lambda Y: Y.matrices[1][2, 0],
        lambda Y: complex(np.trace(Y.matrices[0] @ Y.matrices[1])),
    ):
        assert abs(kks_oracle(F, G, X)) < 1e-8


def test_kks_oracle_bilinear_and_leibniz():
    X = MatrixTuple.random(1, 2, radius=0.5, seed=4)
    F1 = lambda Y: Y.matrices[0][0, 1]
    F2 = lambda Y: Y.matrices[0][1, 0]
    G = lambda Y: Y.matrices[0][0, 0]
    lhs = kks_oracle(lambda Y: F1(Y) + 2.0 * F2(Y), G, X)
    rhs = kks_oracle(F1, G, X) + 2.0 * kks_oracle(F2, G, X)
    assert abs(lhs - rhs) < 1e-8
    # Leibniz: {F1 F2, G} = F1 {F2, G} + {F1, G} F2
    lhs = kks_oracle(lambda Y: F1(Y) * F2(Y), G, X)
    rhs = F1(X) * kks_oracle(F2, G, X) + kks_oracle(F1, G, X) * F2(X)
    assert abs(lhs - rhs) < 1e-8


def test_vdb_matches_oracle_on_coordinate_pairs():
    """The entrywise contraction of the generator double bracket agrees with
    the finite-difference bracket for N <= 3."""
    for N in (2, 3):
        X = MatrixTuple.random(2, N, radius=0.3, seed=N)
        for a in (1, 2):
            for b in (1, 2):
                db = double_bracket_kks(
                    FreeSeries.generator(a, 2, 3, COMPLEX),
                    FreeSeries.generator(b, 2, 3, COMPLEX),
                )
                for i in range(N):
                    for v in range(N):
                        F = lambda Y: Y.matrices[a - 1][i, (i + 1) % N]
                        G = lambda Y: Y.matrices[b - 1][(v + 1) % N, v]
                        got = vdb_bracket(db, X, i, (i + 1) % N, (v + 1) % N, v)
                        want = kks_oracle(F, G, X)
                        assert abs(got - want) < 1e-8


# ---------------------------------------------------------------------------
# the bivector
# ---------------------------------------------------------------------------
def _wedge(X, m):
    """The left and right parts of the bivector core, entry by entry:
    ``core[c, k, l, d, w, z]`` gains ``d_wl (X_d)_kz - (X_d)_wl d_kz`` when
    c = m (F-direction on generator m) and the same in X_c when d = m."""
    n, N = X.n, X.N
    core = np.zeros((n, N, N, n, N, N), dtype=complex)
    for c, d, k, l, w, z in itertools.product(range(n), range(n), *[range(N)] * 4):
        for e, Xe in ((c == m - 1, X.matrices[d]), (d == m - 1, X.matrices[c])):
            if e:
                core[c, k, l, d, w, z] += (w == l) * Xe[k, z] - Xe[w, l] * (k == z)
    return core


def test_regularization_series_constant_term():
    """At X_m = 0 the adjoint series R reduces to -1/2 times the identity, so
    the inner core is ``-1/2 ([X_c, [X_d, E_zw]])_kl``: the core less its
    wedge part, on a tuple whose other matrix is nonzero."""
    X = MatrixTuple([np.zeros((2, 2)), [[0.1, 0.2j], [-0.3, 0.05]]])
    inner = bivector_pi(X, 1, 8) - _wedge(X, 1).reshape(8, 8)
    want = np.zeros((2, 2, 2, 2, 2, 2), dtype=complex)
    for c, d, w, z in itertools.product(range(2), repeat=4):
        Xc, Xd = X.matrices[c], X.matrices[d]
        E = np.zeros((2, 2))
        E[z, w] = 1.0
        B = Xd @ E - E @ Xd
        want[c, :, :, d, w, z] = -0.5 * (Xc @ B - B @ Xc)
    assert np.max(np.abs(want)) > 0.01
    assert np.max(np.abs(inner - want.reshape(8, 8))) < 1e-14


def test_bivector_wedge_antisymmetric():
    """The left-plus-right (wedge) core pairs two gradients antisymmetrically,
    and at degree 0, where R = -1/2 and the inner part pairs symmetrically,
    it is all of the core's antisymmetric part."""
    X = MatrixTuple.random(3, 2, radius=0.2, seed=6)
    gF = _matrix_gradient(lambda Y: Y.matrices[0][0, 1] * Y.matrices[2][1, 1], X)
    gG = _matrix_gradient(lambda Y: Y.matrices[1][1, 0] + Y.matrices[0][0, 0] ** 2, X)

    def pair(core, g1, g2):
        return complex(np.einsum("ckl,ckldwz,dwz->", g1, core.reshape((3, 2, 2) * 2), g2))

    wedge = _wedge(X, 1)
    assert abs(pair(wedge, gF, gG)) > 0.01
    assert abs(pair(wedge, gF, gG) + pair(wedge, gG, gF)) < 1e-8
    inner = bivector_pi(X, 1, 0) - wedge.reshape(12, 12)
    assert abs(pair(inner, gF, gG) - pair(inner, gG, gF)) < 1e-8


def _loop_core(X, m, degree):
    """The bivector core ``core[c, k, l, d, w, z]`` built entry by entry:
    R applied as a sum of repeated commutators with ``X_m``, the inner part
    ``([X_c, R([X_d, E_zw])])_kl`` by loops over generators and matrix
    entries, plus the left and right parts of `_wedge`; the reference for
    the operator-product core of `bivector_pi`."""
    n, N = X.n, X.N
    coeffs = {len(w): c for w, c in r_am_series(1, degree, 1, COMPLEX).coeffs.items()}
    Xm = X.matrices[m - 1]
    core = np.zeros((n, N, N, n, N, N), dtype=complex)
    E = np.zeros((N, N), dtype=complex)
    for d in range(n):
        Xd = X.matrices[d]
        for w in range(N):
            for z in range(N):
                E[z, w] = 1.0
                B = Xd @ E - E @ Xd
                E[z, w] = 0.0
                RB = np.zeros((N, N), dtype=complex)
                for k in range(degree + 1):
                    RB += coeffs.get(k, 0.0) * B
                    B = Xm @ B - B @ Xm
                for c in range(n):
                    Xc = X.matrices[c]
                    core[c, :, :, d, w, z] = Xc @ RB - RB @ Xc
    return core + _wedge(X, m)


def test_bivector_core_matches_loop_construction():
    """The operator-product core ad_{X_c} R ad_{X_d} plus the wedge against
    the entry-by-entry construction, for every base generator."""
    worst = 0.0
    for n, N in itertools.product((1, 2, 3), repeat=2):
        X = MatrixTuple.random(n, N, radius=0.3, seed=10 * n + N)
        for m in range(1, n + 1):
            for degree in (0, 5, 16):
                want = _loop_core(X, m, degree).reshape(n * N * N, n * N * N)
                worst = max(worst, np.max(np.abs(bivector_pi(X, m, degree) - want)))
    assert worst <= 1e-14


def test_gl_action_on_coordinates_is_adjoint():
    """The diagonal matrix-algebra action on a scalar function,
    ``sum_l [X_l, grad_l F]`` with ``(grad_l F)[a, b] = dF/d(X_l)_ab``, applied
    to the coordinate (x_b)_vu reproduces [X_b, E_vu] entrywise; on tr(x_1)
    it vanishes."""
    X = MatrixTuple.random(2, 3, radius=0.3, seed=8)
    N = X.N

    def gl_action(F):
        g = _matrix_gradient(F, X)
        return sum(Xl @ gl - gl @ Xl for Xl, gl in zip(X.matrices, g))

    for b in (0, 1):
        Xb = X.matrices[b]
        for v in range(N):
            for u in range(N):
                E = np.zeros((N, N))
                E[v, u] = 1.0
                got = gl_action(lambda Y: Y.matrices[b][v, u])
                assert np.max(np.abs(got - (Xb @ E - E @ Xb))) < 1e-7
    assert np.max(np.abs(gl_action(lambda Y: complex(np.trace(Y.matrices[0]))))) < 1e-10


def test_bivector_rejects_bad_generator_index():
    X = MatrixTuple.random(2, 2)
    with pytest.raises(DomainError):
        bivector_pi(X, 3, 4)


# ---------------------------------------------------------------------------
# three-way loop-holonomy bracket comparison
# ---------------------------------------------------------------------------
def _tolerance(report):
    """The command line's poisson tolerance above degree 3."""
    return max(1e-4, report["tail_bound"])


@pytest.fixture(scope="module")
def small_report():
    conn = ConnectionSpec(P3, 3)
    X = MatrixTuple.random(3, 2, radius=0.1, seed=0)
    return verify_theorem2(conn, _loop(LOOP_BUP), _loop(LOOP_A4), X)


def test_three_way_agreement_small(small_report):
    rep = small_report
    assert rep["n_crossings"] == 2
    assert rep["base_linking"] == 0.0
    assert rep["max_discrepancy"] <= _tolerance(rep)


def test_three_way_trace_specialization(small_report):
    rep = small_report
    assert rep["trace_pi_contribution"] < 1e-6
    # the crossing sum carries the truncation tail of the subholonomies
    assert rep["trace_crossing_gap"] < _tolerance(rep)


def test_report_json_fields(small_report):
    data = small_report
    for key in (
        "lhs_oracle",
        "rhs_formula",
        "vdb",
        "max_disc",
        "max_discrepancy",
        "tail_bound",
        "trace_pi_contribution",
        "trace_crossing_gap",
    ):
        assert key in data
    assert "tolerance" not in data and "passed" not in data
    assert json.loads(json.dumps(data)) == data
    assert set(data["max_disc"]) == {
        "oracle_vs_formula",
        "oracle_vs_vdb",
        "formula_vs_vdb",
    }


def _einsum_oracle(gF, gG, X):
    """The entry-pair bracket as two 3-operand einsums per generator: the
    reference for the matmul contraction of `_oracle_tensor`."""
    out = 0
    for Xl, F, G in zip(X.matrices, gF, gG):
        out = out + np.einsum("pq,rquv,prij->ijuv", Xl, G, F)
        out = out - np.einsum("pq,rqij,pruv->ijuv", Xl, F, G)
    return out


@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_oracle_contraction_matches_einsum(N):
    rng = np.random.default_rng(N)
    X = MatrixTuple.random(3, N, seed=N)
    shape = (3,) + (N,) * 4
    gF, gG = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in "FG")
    want = _einsum_oracle(gF, gG, X)
    assert np.max(np.abs(_oracle_tensor(gF, gG, X) - want)) <= 1e-14 * np.max(np.abs(want))


def test_same_loop_bracket_antisymmetric():
    """With both arguments the same loop, the entry-bracket tensor is
    antisymmetric under (i, j) <-> (u, v) and vanishes on the diagonal."""
    conn = ConnectionSpec(P3, 3)
    X = MatrixTuple.random(3, 2, radius=0.1, seed=1)
    g = levels.gradient(holonomy_reg(conn, _loop(LOOP_A4)).levels, X.matrices)
    T = _oracle_tensor(g, g, X)
    assert np.max(np.abs(T + T.transpose(2, 3, 0, 1))) < 1e-8
    for i in range(2):
        for j in range(2):
            assert abs(T[i, j, i, j]) < 1e-8


def test_verify_theorem2_validations():
    conn = ConnectionSpec(P3, 3)
    X = MatrixTuple.random(2, 2)  # wrong generator count
    with pytest.raises(ShapeError):
        verify_theorem2(conn, _loop(LOOP_BUP), _loop(LOOP_A4), X)


def test_verify_theorem2_rejects_infinite_tail_bound():
    conn = ConnectionSpec(P3, 3)
    X = MatrixTuple.random(3, 2, radius=5.0, seed=0)
    with pytest.raises(ValidationError, match=r"n \* \|\|X\|\| = 15 >= 1"):
        verify_theorem2(conn, _loop(LOOP_BUP), _loop(LOOP_A4), X)


def test_verify_theorem2_makes_no_series_products(load_path, count_series_calls):
    """Evaluation, gradients and crossing pieces all run on level arrays."""
    loop1, loop2 = load_path("loop_a4.json"), load_path("loop_bup.json")
    conn = ConnectionSpec(loop1.punctures, 5)
    X = MatrixTuple.random(3, 2, radius=0.1, seed=0)
    calls = count_series_calls("__mul__")
    rep = verify_theorem2(conn, loop2, loop1, X)
    assert rep["max_discrepancy"] <= _tolerance(rep)
    assert calls == {"__mul__": 0}


def test_verify_theorem2_evaluates_each_holonomy_once(load_path, monkeypatch):
    """Every evaluation runs through `levels.evaluate`, and each holonomy's
    level arrays are evaluated once: the two loops, four pieces per crossing,
    then the bivector's r_am series on ad and route (iii)'s Kronecker
    evaluation."""
    loop1, loop2 = load_path("loop_a4.json"), load_path("loop_bup.json")
    conn = ConnectionSpec(loop1.punctures, 5)
    X = MatrixTuple.random(3, 2, radius=0.1, seed=0)
    calls, holonomies = [], []
    for module, name, record in ((levels, "evaluate", calls),
                                 (rep_space, "transport_pair", holonomies)):
        original = getattr(module, name)

        def recording(*args, _original=original, _record=record):
            result = _original(*args)
            _record.append((args, result))
            return result

        monkeypatch.setattr(module, name, recording)
    rep = verify_theorem2(conn, loop2, loop1, X)
    assert rep["max_discrepancy"] <= _tolerance(rep)
    assert rep["n_crossings"] == 2
    assert len(calls) == 2 + 4 * rep["n_crossings"] + 2
    evaluated = [id(args[0]) for args, _ in calls]
    assert len(set(evaluated)) == len(evaluated)
    ((_, (_, hol2, hol1)),) = holonomies
    assert evaluated[:2] == [id(hol1.levels), id(hol2.levels)]


def test_verify_poisson_converts_no_levels_to_series(data_dir, monkeypatch, capsys):
    """The evaluated double bracket pairs the transports' level arrays: the
    poisson campaign converts no holonomy to a FreeSeries and makes no sparse
    pairing (every rho_kks call runs `_rho_kks_func`)."""
    calls = {"to_series": 0, "_rho_kks_func": 0}
    for module, name in ((levels, "to_series"), (fox_calculus, "_rho_kks_func")):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    loops = [str(data_dir / name) for name in ("loop_a4.json", "loop_bup.json")]
    assert main(["verify", "poisson", "--loops", loops[0], "--loops", loops[1]]) == 0
    assert calls == {"to_series": 0, "_rho_kks_func": 0}


def test_exact_gradients_leave_no_finite_difference_floor(load_path):
    """At D = 9 truncation no longer dominates, and the oracle meets the two
    other routes to roundoff (finite differences left about 2e-12)."""
    loop1, loop2 = load_path("loop_a4.json"), load_path("loop_bup.json")
    conn = ConnectionSpec(loop1.punctures, 9)
    X = MatrixTuple.random(3, 2, radius=0.1, seed=7)
    disc = verify_theorem2(conn, loop2, loop1, X)["max_disc"]
    assert disc["oracle_vs_vdb"] <= 1e-13
    assert disc["oracle_vs_formula"] <= 1e-13


@pytest.mark.parametrize(
    "names, degree, seed, bound",
    [pytest.param(pair, 5, 0, 1e-7, id="-".join(pair) + "-D5") for pair in LOOP_PAIRS]
    + [pytest.param(pair, 9, 7, 1e-13, id="-".join(pair) + "-D9")
       for pair in (("loop_a1.json", "loop_b1.json"), ("loop_bup.json", "loop_a1.json"))],
)
def test_three_way_agreement_on_fixture_pairs(load_path, names, degree, seed, bound):
    """The geometric formula, with the four corner terms at the base, meets
    the oracle on every admissible ordered fixture pair (base linking -1, 0
    and +1): at D = 5 within the truncation tail, at D = 9 to roundoff."""
    loop1, loop2 = (load_path(name) for name in names)
    conn = ConnectionSpec(loop1.punctures, degree)
    X = MatrixTuple.random(loop1.punctures.n, 2, 0.1, seed)
    rep = verify_theorem2(conn, loop2, loop1, X)
    assert rep["max_discrepancy"] <= _tolerance(rep)
    assert rep["max_disc"]["oracle_vs_formula"] <= bound


def test_three_way_agreement_on_pairs_with_nonzero_brackets():
    """The two seeded pairs whose necklace bracket has size 1
    (`random_loop_pairs(11, 9)`, pairs 1 and 8) meet the oracle at D = 5
    within the fixture pairs' bound."""
    pairs = random_loop_pairs(11, 9)
    conn = ConnectionSpec(P3, 5)
    X = MatrixTuple.random(3, 2, 0.1, 0)
    for loop1, loop2 in (pairs[1], pairs[8]):
        rep = verify_theorem2(conn, loop2, loop1, X)
        assert rep["max_disc"]["oracle_vs_formula"] <= 1e-7


def test_three_way_agreement_at_n_8(load_path):
    """On 8 x 8 matrices, with 3 N^2 = 192 gradient directions per holonomy,
    the three routes meet on `loop_a4` x `loop_bup` at D = 5 within the
    fixture pairs' bound."""
    loop1, loop2 = load_path("loop_a4.json"), load_path("loop_bup.json")
    conn = ConnectionSpec(loop1.punctures, 5)
    rep = verify_theorem2(conn, loop2, loop1, MatrixTuple.random(3, 8, 0.1, 0))
    assert rep["n_crossings"] == 2
    assert rep["max_discrepancy"] <= _tolerance(rep)
    assert max(rep["max_disc"].values()) <= 1e-7


def test_rep_space_transports_nothing_itself():
    """rep_space reads its loop pairs through `kz_holonomy.transport_pair`:
    it imports no underscore name from another kzfox module and none of the
    transport and crossing-scan entry points."""
    import ast

    with open(rep_space.__file__, encoding="utf-8") as fp:
        tree = ast.parse(fp.read())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.level for alias in node.names}
    assert imported
    assert not {name for name in imported if name.startswith("_")}
    assert not imported & {"holonomy_reg", "intersections", "tangential_points"}
