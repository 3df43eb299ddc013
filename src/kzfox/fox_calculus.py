"""Fox derivatives and Fox pairings on the truncated free algebra.

A Fox pairing is a bilinear map rho: A x A -> A that is a left Fox derivative
in its first slot and a right Fox derivative in its second slot:

    rho(ab, c) = a rho(b, c) + rho(a, c) eps(b)
    rho(a, bc) = rho(a, b) c + eps(b) rho(a, c)

Pairings are first-class values so downstream modules stay generic over rho.
"""

from __future__ import annotations

from typing import Callable

from .free_hopf import FreeSeries, _graded_pairs

def d_right(m: int, a: FreeSeries) -> FreeSeries:
    """Strip a leading x_m: coeff of w in d_right(m, a) = coeff of (m, *w) in a."""
    return a._like((w[1:], c) for w, c in a.coeffs.items() if w and w[0] == m)


def d_left(m: int, a: FreeSeries) -> FreeSeries:
    """Strip a trailing x_m."""
    return a._like((w[:-1], c) for w, c in a.coeffs.items() if w and w[-1] == m)


def _without_counit(a: FreeSeries) -> FreeSeries:
    return a - FreeSeries.unit(a.n, a.degree, a.backend, a.counit())


class FoxPairing:
    """Bilinear pairing object; ``pair(a, b)`` evaluates it.  It keeps its
    double bracket's letter tables, one per shape (n, D, backend)."""

    def __init__(self, func: Callable[[FreeSeries, FreeSeries], FreeSeries]):
        self._func = func
        self._tables: dict = {}

    def __call__(self, a: FreeSeries, b: FreeSeries) -> FreeSeries:
        a._check(b)
        return self._func(a, b)

    def transpose(self) -> "FoxPairing":
        """The transposed pairing a, b -> S(rho(S(b), S(a)))."""

        def func(a: FreeSeries, b: FreeSeries) -> FreeSeries:
            return self._func(b.antipode(), a.antipode()).antipode()

        return FoxPairing(func)


def _rho_kks_func(a: FreeSeries, b: FreeSeries) -> FreeSeries:
    # monomial rule: rho(h_1..h_m, k_1..k_r) = h_1..h_{m-1} rho(h_m, k_1) k_2..k_r
    # with rho(x_i, x_j) = delta_ij x_i; zero if either word is empty.  The
    # shared letter is kept once, so the word pair may reach degree D + 1.
    return a._like(
        (wa + wb[1:], ca * cb)
        for wa, ca, wb, cb in _graded_pairs(a, b, a.degree + 1)
        if wa and wb and wa[-1] == wb[0]
    )


_RHO_KKS = FoxPairing(_rho_kks_func)


def rho_kks_pairing() -> FoxPairing:
    """The adjacent-letter pairing, one shared instance (and letter tables)."""
    return _RHO_KKS


def rho_kks(a: FreeSeries, b: FreeSeries) -> FreeSeries:
    a._check(b)
    return _rho_kks_func(a, b)


def rho_inner(g: FreeSeries) -> FoxPairing:
    """rho_g(a, b) = (a - eps(a)) g (b - eps(b))."""

    def func(a: FreeSeries, b: FreeSeries) -> FreeSeries:
        return _without_counit(a) * g * _without_counit(b)

    return FoxPairing(func)


def rho_left(m: int) -> FoxPairing:
    """rho_{L,m}(a, b) = d_left(m, a) (b - eps(b))."""

    def func(a: FreeSeries, b: FreeSeries) -> FreeSeries:
        return d_left(m, a) * _without_counit(b)

    return FoxPairing(func)


def rho_right(m: int) -> FoxPairing:
    """rho_{R,m}(a, b) = (a - eps(a)) d_right(m, b)."""

    def func(a: FreeSeries, b: FreeSeries) -> FreeSeries:
        return _without_counit(a) * d_right(m, b)

    return FoxPairing(func)
