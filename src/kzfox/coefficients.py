"""Coefficient constants and the two regularizing one-variable series.

Provides Riemann zeta values at integer arguments (Euler-Maclaurin
accelerated Dirichlet series, no external tables), exact Bernoulli numbers,
and the two one-variable series built from them, as coefficients c_0..c_D (the
one home of both formulas) and as FreeSeries:

    r_zeta(x)  = -(1/2*pi*i) * sum_{m>=2} zeta(m) * (x/2*pi*i)^(m-1)
    r_am(x)    = -1/2 + sum_{k>=1} B_{2k}/(2k)! * x^(2k-1)
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .free_hopf import COMPLEX, FreeSeries

TWO_PI_I = complex(0.0, 2.0 * math.pi)


@lru_cache(maxsize=None)
def _bernoulli_all(k: int) -> Fraction:
    """B_k (B_1 = -1/2 convention) via the defining recursion."""
    if k == 0:
        return Fraction(1)
    # sum_{j=0}^{k} C(k+1, j) B_j = 0  for k >= 1
    acc = Fraction(0)
    for j in range(k):
        acc += math.comb(k + 1, j) * _bernoulli_all(j)
    return -acc / (k + 1)


def bernoulli(k: int) -> Fraction:
    """Exact Bernoulli number B_k for even k >= 2."""
    if k < 2 or k % 2 != 0:
        raise DomainError(f"bernoulli requires an even integer >= 2, got {k}")
    return _bernoulli_all(k)


@lru_cache(maxsize=None)
def zeta(m: int) -> float:
    """zeta(m) for integer m >= 2, accurate to <= 1e-14 relative error.

    Dirichlet series up to N-1 plus the Euler-Maclaurin tail correction:
        sum_{k>=N} k^-m ~ N^(1-m)/(m-1) + N^-m/2
                          + sum_j B_{2j}/(2j)! * (m)_(2j-1) * N^(-m-2j+1)
    """
    if not isinstance(m, int) or m < 2:
        raise DomainError(f"zeta requires an integer m >= 2, got {m!r}")
    N = 24
    s = sum(k ** (-float(m)) for k in range(1, N))
    s += N ** (1.0 - m) / (m - 1.0)
    s += 0.5 * N ** (-float(m))
    rising = float(m)  # (m)_(2j-1) = m (m+1) ... (m+2j-2)
    for j in range(1, 9):
        term = float(_bernoulli_all(2 * j)) / math.factorial(2 * j)
        s += term * rising * N ** (-(m + 2.0 * j - 1.0))
        rising *= (m + 2 * j - 1) * (m + 2 * j)
    return s


def zeta_from_bernoulli(k: int) -> float:
    """Independent cross-check: zeta(2k) = (-1)^(k+1) B_{2k} (2 pi)^{2k} / (2 (2k)!)."""
    if k < 1:
        raise DomainError("need k >= 1")
    b = _bernoulli_all(2 * k)
    val = (-1) ** (k + 1) * b * Fraction(1, 2 * math.factorial(2 * k))
    return float(val) * (2.0 * math.pi) ** (2 * k)


def r_zeta_coefficients(degree: int, sign: int = 1) -> list:
    """c_0..c_degree of r_zeta(sign * x) in one variable: c_0 = 0 and
    c_(m-1) = -zeta(m) * sign^(m-1) / (2 pi i)^m."""
    if degree < 0:
        raise DomainError("degree must be >= 0")
    return [0.0] + [-zeta(m) / TWO_PI_I**m * sign ** (m - 1)
                    for m in range(2, degree + 2)]


def r_am_coefficients(degree: int) -> list:
    """c_0..c_degree of r_am in one variable, exactly: c_j = B_(j+1)/(j+1)!,
    since B_1 = -1/2 and the odd Bernoulli numbers above it vanish."""
    if degree < 0:
        raise DomainError("degree must be >= 0")
    return [_bernoulli_all(j + 1) / math.factorial(j + 1) for j in range(degree + 1)]


def r_zeta_series(
    generator: int,
    degree: int,
    n_generators: int | None = None,
    negate_variable: bool = False,
) -> FreeSeries:
    """The zeta-side regularizing series evaluated at (+/-) x_generator, on
    the complex backend."""
    coeffs = r_zeta_coefficients(degree, -1 if negate_variable else 1)
    terms = {(generator,) * j: c for j, c in enumerate(coeffs)}  # zeros are dropped
    return FreeSeries(n_generators or generator, degree, terms, COMPLEX)


def r_am_series(
    generator: int,
    degree: int,
    n_generators: int | None = None,
    backend: str = COMPLEX,
) -> FreeSeries:
    """The Bernoulli-side regularizing series: -1/2 + sum B_{2k}/(2k)! x^{2k-1}."""
    terms = {(generator,) * j: c for j, c in enumerate(r_am_coefficients(degree))}
    return FreeSeries(n_generators or generator, degree, terms, backend)
