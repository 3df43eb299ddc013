"""The graded pair scan behind every sparse bilinear product, checked against
the loops it replaced: each reference below visits all key pairs of its two
arguments and discards the pairs above the truncation degree by length."""

import gc
import itertools
import weakref
from typing import Dict, Tuple

import pytest

from kzfox import (
    COMPLEX,
    RATIONAL,
    CyclicByFree,
    FreeSeries,
    TensorSeries,
    double_bracket_from_pairing,
    rho_inner,
    rho_kks,
    rho_kks_pairing,
    rho_left,
    rho_right,
)
from kzfox import free_hopf
from kzfox.cli import _cbf_mul_free_left, _cbf_mul_free_right
from kzfox.errors import ShapeError
from kzfox.free_hopf import Word
from conftest import dense_complex, random_series

SHAPES = [(n, D) for n in (1, 2, 3) for D in range(7)]


# ---------------------------------------------------------------------------
# all-pairs references
# ---------------------------------------------------------------------------
def _ref_mul(a: FreeSeries, b: FreeSeries) -> FreeSeries:
    D = a.degree
    terms: Dict[Word, object] = {}
    for wa, ca in a.coeffs.items():
        la = len(wa)
        for wb, cb in b.coeffs.items():
            if la + len(wb) > D:
                continue
            w = wa + wb
            c = ca * cb
            acc = terms.get(w)
            terms[w] = c if acc is None else acc + c
    return FreeSeries(a.n, D, terms, a.backend)


def _ref_outer(a: FreeSeries, b: FreeSeries) -> TensorSeries:
    terms = {}
    for wa, ca in a.coeffs.items():
        for wb, cb in b.coeffs.items():
            if len(wa) + len(wb) <= a.degree:
                key = (wa, wb)
                c = ca * cb
                acc = terms.get(key)
                terms[key] = c if acc is None else acc + c
    return TensorSeries(a.n, a.degree, terms, a.backend)


def _ref_tensor_mul(s: TensorSeries, t: TensorSeries) -> TensorSeries:
    D = s.degree
    terms: Dict[Tuple[Word, Word], object] = {}
    for (a1, b1), c1 in s.coeffs.items():
        for (a2, b2), c2 in t.coeffs.items():
            if len(a1) + len(b1) + len(a2) + len(b2) > D:
                continue
            key = (a1 + a2, b1 + b2)
            c = c1 * c2
            acc = terms.get(key)
            terms[key] = c if acc is None else acc + c
    return TensorSeries(s.n, D, terms, s.backend)


def _ref_rho_kks(a: FreeSeries, b: FreeSeries) -> FreeSeries:
    terms = {}
    D = a.degree
    for wa, ca in a.coeffs.items():
        if not wa:
            continue
        for wb, cb in b.coeffs.items():
            if not wb or wa[-1] != wb[0]:
                continue
            w = wa + wb[1:]
            if len(w) > D:
                continue
            c = ca * cb
            acc = terms.get(w)
            terms[w] = c if acc is None else acc + c
    return FreeSeries(a.n, a.degree, terms, a.backend)


def _ref_cbf_right(t: CyclicByFree, b: FreeSeries) -> CyclicByFree:
    terms = (
        ((cw, w + wb), c * cb)
        for (cw, w), c in t.coeffs.items()
        for wb, cb in b.coeffs.items()
    )
    return CyclicByFree(t.n, t.degree, terms, t.backend)


def _ref_cbf_left(a: FreeSeries, t: CyclicByFree) -> CyclicByFree:
    terms = (
        ((cw, wa + w), ca * c)
        for (cw, w), c in t.coeffs.items()
        for wa, ca in a.coeffs.items()
    )
    return CyclicByFree(t.n, t.degree, terms, t.backend)


def _ref_double_bracket(rho, a: FreeSeries, b: FreeSeries) -> TensorSeries:
    n, D, backend = a.n, a.degree, a.backend
    gens = [FreeSeries.generator(i, n, D, backend) for i in range(1, n + 1)]
    table = {
        (i, j): sorted(
            (len(r1) + len(r2), r1[::-1], r2, -cr if len(r1) % 2 else cr)
            for (r1, r2), cr in rho(xi, xj).coproduct().coeffs.items()
        )
        for i, xi in enumerate(gens, 1)
        for j, xj in enumerate(gens, 1)
    }
    terms: Dict[Tuple[Word, Word], object] = {}
    for u, cu in a.coeffs.items():
        for v, cv in b.coeffs.items():
            budget = D + 2 - len(u) - len(v)
            if budget < 0:
                continue
            cuv = cu * cv
            for p, up in enumerate(u):
                for q, vq in enumerate(v):
                    for deg, s1, r2, cr in table[up, vq]:
                        if deg > budget:
                            break
                        key = (v[:q] + s1 + u[p + 1 :], u[:p] + r2 + v[q + 1 :])
                        acc = terms.get(key)
                        terms[key] = cuv * cr if acc is None else acc + cuv * cr
    return TensorSeries(n, D, terms, backend)


# ---------------------------------------------------------------------------
# the seven product sites against their references
# ---------------------------------------------------------------------------
def _sites(a: FreeSeries, b: FreeSeries, s: TensorSeries, t: TensorSeries):
    """(name, scan result, reference result) for each product site, on the
    series a, b and the tensors s, t."""
    cbf = CyclicByFree.from_tensor(s)
    kks = rho_kks_pairing()
    yield "mul", a * b, _ref_mul(a, b)
    yield "outer", TensorSeries.outer(a, b), _ref_outer(a, b)
    yield "tensor_mul", s * t, _ref_tensor_mul(s, t)
    yield "rho_kks", rho_kks(a, b), _ref_rho_kks(a, b)
    yield "cbf_right", _cbf_mul_free_right(cbf, b), _ref_cbf_right(cbf, b)
    yield "cbf_left", _cbf_mul_free_left(a, cbf), _ref_cbf_left(a, cbf)
    for rho in (kks, kks.transpose()):
        yield (
            "double_bracket",
            double_bracket_from_pairing(rho, a, b),
            _ref_double_bracket(rho, a, b),
        )


@pytest.mark.parametrize("n, D", SHAPES)
def test_sites_match_all_pairs_reference_rational(rng, n, D):
    series = [FreeSeries.zero(n, D), FreeSeries.unit(n, D)] + [
        random_series(rng, n, D, D + 1, 6) for _ in range(3)
    ]
    for a, b in itertools.product(series, repeat=2):
        s, t = TensorSeries.outer(a, b), TensorSeries.outer(b, a)
        for name, got, ref in _sites(a, b, s, t):
            assert got == ref, name


def _lower_half(a: FreeSeries) -> FreeSeries:
    return FreeSeries(
        a.n, a.degree, {w: c for w, c in a.coeffs.items() if 2 * len(w) <= a.degree},
        a.backend,
    )


@pytest.mark.parametrize("n, D", SHAPES)
def test_sites_match_all_pairs_reference_dense_complex(rng, n, D):
    a, b = dense_complex(rng, n, D), dense_complex(rng, n, D)
    # the tensors pair the words of degree <= D/2 of a and b: the all-pairs
    # reference of a product of two tensors dense through D = 6 at n = 3
    # would visit 7108^2 pairs
    ha, hb = _lower_half(a), _lower_half(b)
    s, t = TensorSeries.outer(ha, hb), TensorSeries.outer(hb, ha)
    for name, got, ref in _sites(a, b, s, t):
        assert got.coeffs.keys() == ref.coeffs.keys(), name
        assert got.allclose(ref, 1e-14), name


def test_sites_keep_shape_checks():
    a = FreeSeries.unit(2, 3)
    for other in (
        FreeSeries.unit(3, 3),
        FreeSeries.unit(2, 4),
        FreeSeries.unit(2, 3).to_complex(),
    ):
        with pytest.raises(ShapeError):
            a * other
        with pytest.raises(ShapeError):
            TensorSeries.outer(a, other)
        with pytest.raises(ShapeError):
            TensorSeries.outer(a, a) * TensorSeries.outer(other, other)
        with pytest.raises(ShapeError):
            rho_kks(a, other)
        with pytest.raises(ShapeError):
            double_bracket_from_pairing(rho_kks_pairing(), a, other)


def test_dense_product_visits_only_the_pairs_that_fit(rng, monkeypatch):
    """Work counter: a dense product at n = 3, D = 6 visits the
    sum over k <= 6 of (k + 1) 3^k key pairs, not all 1093^2."""
    visited = []
    scan = free_hopf._graded_pairs

    def counting(*args):
        for pair in scan(*args):
            visited.append(pair)
            yield pair

    monkeypatch.setattr(free_hopf, "_graded_pairs", counting)
    a, b = dense_complex(rng, 3, 6), dense_complex(rng, 3, 6)
    assert len(a.coeffs) == len(b.coeffs) == 1093
    a * b
    assert len(visited) == sum((k + 1) * 3**k for k in range(7)) == 7108


# ---------------------------------------------------------------------------
# letter tables kept per pairing and shape
# ---------------------------------------------------------------------------
def _in_backend(a: FreeSeries, backend: str) -> FreeSeries:
    return a.to_complex() if backend == COMPLEX else a


def test_letter_tables_match_the_reference_in_every_shape(rng):
    """Each pairing keeps one letter table per (n, D, backend).  Once the
    (2, 3, rational) tables are held, the other shapes and the other
    pairings still match the reference, which builds its table per call:
    no table is read for a shape or a pairing it was not built for."""
    kks = rho_kks_pairing()
    assert rho_kks_pairing() is kks
    shared = [kks, kks.transpose(), rho_left(1), rho_left(2), rho_right(2),
              rho_right(1).transpose()]
    for n, D, backend in [(2, 3, RATIONAL), (2, 5, RATIONAL), (3, 3, RATIONAL),
                          (2, 3, COMPLEX)]:
        a, b = (_in_backend(random_series(rng, n, D, D, 6), backend) for _ in range(2))
        inner = [rho_inner(_in_backend(random_series(rng, n, D, 2), backend))
                 for _ in range(2)]
        for rho in shared + inner:
            ref = _ref_double_bracket(rho, a, b)
            for _ in range(2):  # the first call may build the table
                got = double_bracket_from_pairing(rho, a, b)
                assert got.coeffs.keys() == ref.coeffs.keys()
                assert got == ref if backend == RATIONAL else got.allclose(ref, 1e-14)
            assert (n, D, backend) in rho._tables
        assert inner[0]._tables is not inner[1]._tables


def test_letter_tables_are_freed_with_their_pairing(rng):
    a, b = random_series(rng, 2, 3), random_series(rng, 2, 3)
    rho = rho_inner(random_series(rng, 2, 3, 2))
    double_bracket_from_pairing(rho, a, b)
    assert rho._tables
    alive = weakref.ref(rho)
    del rho
    gc.collect()
    assert alive() is None  # nothing outside the pairing holds it or its tables
