"""Output checks that do not rely on the program's own verdicts.

Every campaign record is re-read for ``passed``, ``max_discrepancy`` and
``tolerance``; the associator series is compared with zeta values computed
here, independently of ``kzfox.coefficients``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Tuple

# A check whose discrepancy sits this many digits or more below its tolerance
# counts as exactly this many: below that, discrepancies are roundoff (the
# quadrature accuracy target is 1e-10) and move with any reimplementation.
# Exact-equality checks also count as this many.
MARGIN_CAP_DIGITS = 6.0

ZETA_ORACLE_TOL = 1e-9
ZETA_ORACLE_DEGREES = range(2, 7)

# B_2, B_4, ..., B_14 for the Euler-Maclaurin tail of the zeta sum
_BERNOULLI_EVEN = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
                   Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6)]


def zeta(s: int, n_terms: int = 30) -> float:
    """Riemann zeta at an integer s >= 2 by Euler-Maclaurin summation."""
    total = math.fsum(k ** -s for k in range(1, n_terms))
    N = float(n_terms)
    tail = [N ** (1 - s) / (s - 1), 0.5 * N ** -s]
    rising = float(s)  # s (s+1) ... (s+2j-2)
    for j, b in enumerate(_BERNOULLI_EVEN, start=1):
        tail.append(float(b) / math.factorial(2 * j) * rising * N ** (-s - 2 * j + 1))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total + math.fsum(tail)


def margin(discrepancy: float, tolerance: float) -> float:
    if discrepancy <= 0:
        return MARGIN_CAP_DIGITS
    return min(MARGIN_CAP_DIGITS, math.log10(tolerance / discrepancy))


def associator_discrepancy(record: dict) -> float:
    """Largest |coefficient of x1^(k-1) x2 + zeta(k)/(2 pi i)^k|, k = 2..6."""
    coeffs = {
        tuple(t["word"]): complex(t["re"], t["im"]) for t in record["series"]["terms"]
    }
    two_pi_i = complex(0.0, 2.0 * math.pi)
    return max(
        abs(coeffs.get((1,) * (k - 1) + (2,), 0j) + zeta(k) / two_pi_i ** k)
        for k in ZETA_ORACLE_DEGREES
    )


def check_records(
    records: List[dict], expect: dict
) -> Tuple[Optional[str], float]:
    """(failure reason or None, margin in digits) for one campaign's records."""
    if not records:
        return "no records", 0.0
    digits = MARGIN_CAP_DIGITS
    for rec in records:
        name = rec.get("check", rec.get("command"))
        if rec.get("passed") is not True:
            return f"{name}: passed is {rec.get('passed')!r}", 0.0
        if "max_discrepancy" in rec:
            disc, tol = rec["max_discrepancy"], rec.get("tolerance")
            if not isinstance(tol, (int, float)) or not tol > 0:
                return f"{name}: no tolerance", 0.0
            if not disc <= tol:
                return f"{name}: discrepancy {disc:.3e} above tolerance {tol:.1e}", 0.0
            digits = min(digits, margin(disc, tol))
        if "n_crossings" in expect and rec.get("n_crossings") != expect["n_crossings"]:
            return (f"{name}: {rec.get('n_crossings')} crossings, "
                    f"expected {expect['n_crossings']}"), 0.0
        if expect.get("zeta_oracle"):
            disc = associator_discrepancy(rec)
            if not disc <= ZETA_ORACLE_TOL:
                return f"associator: zeta oracle discrepancy {disc:.3e}", 0.0
            digits = min(digits, margin(disc, ZETA_ORACLE_TOL))
    return None, digits
