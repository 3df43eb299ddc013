"""Evaluation of truncated series, as level arrays, on tuples of matrices and
the induced Poisson geometry of their matrix entries.

A point of the representation space is a tuple ``X = (X_1, ..., X_n)`` of
complex ``N x N`` matrices, one per generator.  Matrix entries of evaluated
series are then smooth functions on that space, and the linear
(Kirillov-Kostant-Souriau) Poisson structure induces a bracket on them.  This
module provides

* :func:`evaluate` -- `levels.evaluate` itself, ``evaluate(levels,
  X.matrices)``: level arrays evaluated on the matrices of a tuple; this
  module calls it as ``levels.evaluate``, so one patch of the level module
  sees every evaluation,
* :func:`bivector_pi` -- the bivector collecting the non-crossing terms of
  the loop-holonomy bracket formula, as one core matrix in the adjoint
  operators, ``ad_c R ad_d + [c = m] ad_d + [d = m] ad_c`` on vectorized
  matrices, which pairs two gradients by two matmuls,
* :func:`verify_theorem2` -- a three-way comparison (oracle / geometric
  crossing formula plus bivector / algebraic double bracket) for a pair of
  loop holonomies, whose oracle side pairs exact gradients read off the
  level arrays (`levels.gradient`).  The double bracket side pairs the two
  holonomies' level arrays.  It returns a plain report dict and sets no tolerance and
  no verdict; the command line judges it like every other numeric check.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce

import numpy as np

from . import levels
from .coefficients import r_am_coefficients
from .errors import DomainError, ShapeError, ValidationError
from .kz_holonomy import ConnectionSpec, loop_pair_base, transport_pair
from .kz_paths import DEFAULT_ACCURACY, PLPath, strand_pairs
from .levels import Levels, evaluate

# ---------------------------------------------------------------------------
# matrix tuples
# ---------------------------------------------------------------------------
class MatrixTuple:
    """A tuple of complex N x N matrices, one per generator.

    The spectral-norm bound of the tuple is computed on first use;
    evaluation of truncated series is trusted only when the bound is small
    relative to the truncation error budget (see :func:`tail_bound`).
    """

    def __init__(self, matrices):
        mats = tuple(np.asarray(M, dtype=complex) for M in matrices)
        if not mats:
            raise DomainError("matrix tuple must contain at least one matrix")
        if mats[0].ndim != 2:
            raise ShapeError("matrices must be two-dimensional")
        N = mats[0].shape[0]
        for M in mats:
            if M.shape != (N, N):
                raise ShapeError("all matrices must be square of equal size")
            if not np.all(np.isfinite(M.view(float))):
                raise ValidationError("matrix entries must be finite")
        if N == 0:
            raise DomainError("matrices must be at least 1 x 1")
        self.matrices, self.n, self.N = mats, len(mats), N

    @cached_property
    def norm_bound(self) -> float:
        """The largest spectral norm of the tuple's matrices."""
        return max(float(np.linalg.norm(M, 2)) for M in self.matrices)

    @classmethod
    def random(cls, n: int, N: int, radius: float = 0.1, seed: int = 0):
        """Random tuple with each spectral norm scaled to exactly ``radius``."""
        if radius <= 0:
            raise DomainError("radius must be positive")
        if seed < 0:
            raise DomainError(f"seed must be non-negative, got {seed}")
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(n):
            M = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            M *= radius / np.linalg.norm(M, 2)
            mats.append(M)
        return cls(mats)


# ---------------------------------------------------------------------------
# the truncation tail
# ---------------------------------------------------------------------------
def tail_bound(degree: int, X: MatrixTuple) -> float:
    """Geometric estimate of the discarded tail: sum over word lengths
    ``k > degree`` of ``(n * ||X||)^k``.  Advisory only (assumes order-one
    coefficients)."""
    r = X.n * X.norm_bound
    if r >= 1.0:
        return float("inf")
    return r ** (degree + 1) / (1.0 - r)


# ---------------------------------------------------------------------------
# exact gradients and the bracket oracle
# ---------------------------------------------------------------------------
def _oracle_tensor(gF: np.ndarray, gG: np.ndarray, X: MatrixTuple) -> np.ndarray:
    """Linear Poisson bracket of all entry pairs, from the gradient tensors
    of `levels.gradient`: ``out[i, j, u, v] = {F_ij, G_uv}``,
    oriented by the coordinate bracket
    ``{(x_a)_{ij}, (x_a)_{kl}} = d_{jk} (x_a)_{il} - d_{il} (x_a)_{kj}``."""
    N = X.N
    out = np.zeros((N * N, N * N), dtype=complex)
    for Xl, F, G in zip(X.matrices, gF, gG):
        # (grad_l F_ij)[b, a] = F[a, b, i, j]; tr(X P Q) = X[p, q] P[q, r] Q[r, p]
        # with P = grad G_uv, Q = grad F_ij, summed over q first:
        # XF[p, r, i, j] = X[p, q] F[r, q, i, j], likewise XG
        XF, XG = (Xl @ g.swapaxes(0, 1).reshape(N, -1) for g in (F, G))
        out += F.reshape(N * N, -1).T @ XG.reshape(N * N, -1)
        out -= XF.reshape(N * N, -1).T @ G.reshape(N * N, -1)
    return out.reshape((N,) * 4)


# ---------------------------------------------------------------------------
# the bivector
# ---------------------------------------------------------------------------
def bivector_pi(X: MatrixTuple, m: int, degree: int) -> np.ndarray:
    """The bivector collecting the non-crossing contributions to the bracket
    of two loop-holonomy entries based at the puncture of generator ``m``
    (1-based), as its ``(n N^2, n N^2)`` core on row-major vectorizations.

    It is the biderivation whose values on coordinate pairs are

    * inner part: ``([X_a, R([X_b, E_vu])])_ij`` for
      ``((x_a)_ij, (x_b)_uv)``, with ``R`` the regularization series of the
      adjoint operator of ``X_m`` truncated at ``degree``;
    * left/right parts: ``d_am (d_uj (X_b)_iv - (X_b)_uj d_iv)`` plus
      ``d_bm (d_uj (X_a)_iv - (X_a)_uj d_iv)``.

    In the adjoint operators it is one expression,
    ``core_cd = ad_c R ad_d + [c = m] ad_d + [d = m] ad_c``, so that two
    gradient tensors ``gF, gG`` (from `levels.gradient`, reshaped to
    ``(n N^2, N^2)``) pair as ``gF.T @ core @ gG``.
    """
    if not 1 <= m <= X.n:
        raise DomainError("generator index out of range")
    n, N = X.n, X.N
    eye = np.eye(N)
    ad = np.stack([np.kron(M, eye) - np.kron(eye, M.T) for M in X.matrices])
    # R = sum_k c_k ad_{X_m}^k: r_am in one variable evaluated on ad_{X_m}
    R = levels.evaluate(levels.letter(1, 1, r_am_coefficients(degree)), [ad[m - 1]])
    # core[c, (k, l), d, (z, w)] = (ad_{X_c} R ad_{X_d})[(k, l), (z, w)]
    core = np.tensordot(ad @ R, ad, axes=(2, 1))
    core[m - 1] += ad.transpose(1, 0, 2)  # [c = m] ad_d
    core[:, :, m - 1] += ad  # [d = m] ad_c
    return core.reshape(n * N * N, n, N, N).swapaxes(2, 3).reshape(n * N * N, -1)


# ---------------------------------------------------------------------------
# double bracket of grouplike series, evaluated
# ---------------------------------------------------------------------------
def _grouplike_double_bracket_tensor(
    r: Levels, X: MatrixTuple, Ma: np.ndarray, Mb: np.ndarray
) -> np.ndarray:
    """Entry brackets ``out[i, j, u, v] = {a_ij, b_uv}`` induced by the
    double bracket of a pairing, for (numerically) grouplike ``a, b`` whose
    evaluations on ``X`` are ``Ma, Mb``; ``r`` holds the level arrays of
    the pairing of ``a`` with ``b``.

    For grouplike arguments the double bracket collapses to a single
    Sweedler term ``b S(r') a (x) r''``; the two legs of
    ``(S (x) id) Delta(r)`` are evaluated jointly in the product
    representation ``x_i -> (-X_i^T) (x) I + I (x) X_i``.
    """
    N = X.N
    eye = np.eye(N)
    big = [np.kron(-M.T, eye) + np.kron(eye, M) for M in X.matrices]
    # np.kron interleaves the indices: W[p, q, r, s] = S-leg[r, p] * leg[q, s];
    # the left leg of {{a, b}} is b S(r') a, contracted as (')_{uj} ('')_{iv}
    W = levels.evaluate(r, big).reshape(N, N, N, N)
    return np.einsum("ua,biav,bj->ijuv", Mb, W, Ma)


# ---------------------------------------------------------------------------
# three-way verification for loop pairs
# ---------------------------------------------------------------------------
def verify_theorem2(
    conn: ConnectionSpec,
    loop2: PLPath,
    loop1: PLPath,
    X: MatrixTuple,
    accuracy: float = DEFAULT_ACCURACY,
) -> dict:
    """Three-way check of the loop-holonomy bracket formula.

    Computes the bracket tensor ``{(H2)_ij, (H1)_uv}`` of the two loop
    holonomies three ways: (i) the linear Poisson bracket of the evaluated
    entries, from their exact gradients, (ii) the geometric formula (signed
    crossing subholonomies, plus the bivector, plus a corner term for each
    pair of tail strands x of loop1 and y of loop2 at the base: with M1, M2
    the evaluated holonomies and (x, y, sign, [x>y]) the entries of
    `strand_pairs`, ``sign [x>y] (t_a)_uj (t_b)_iv``, where
    t_a = (M1 if x leaves)(M2 if y arrives) and
    t_b = (M2 if y leaves)(M1 if x arrives), the identity when neither
    factor occurs), (iii) the evaluated double bracket of the
    two grouplike holonomies, from the adjacent-letter pairing of their level
    arrays.  ``base_linking`` records the signed sum of the orders.  The base
    point, the tuple and the corner orders are read first; then
    `kz_holonomy.transport_pair` transports each loop once, with breakpoints
    at its crossing parameters; the crossing subholonomies are read off those
    transports, and every evaluation runs on their level arrays.

    Returns a report dict and judges nothing (the caller picks the
    tolerance): the three routes' largest entries, their pairwise
    ``max_disc`` and its largest, ``max_discrepancy``, the advisory
    ``tail_bound``, ``n_crossings``, ``base_linking``, and two trace checks,
    ``trace_pi_contribution`` = |tr Pi| (zero on invariant functions) and
    ``trace_crossing_gap`` = |tr oracle - tr crossing part| (Goldman's trace
    identity).  A tuple with ``n * ||X|| >= 1``, on which the series' tail
    diverges, raises ValidationError.
    """
    m = loop_pair_base(loop2, loop1)
    if conn.n_generators != X.n:
        raise ShapeError("connection and matrix tuple have different generator counts")
    tail = tail_bound(conn.trunc_degree, X)
    if math.isinf(tail):
        raise ValidationError(f"n * ||X|| = {X.n * X.norm_bound:.6g} >= 1: the "
                              "series' tail diverges on this tuple, so the "
                              "truncated series bounds nothing")
    pairs = strand_pairs(loop1, loop2)
    cuts, hol2, hol1 = transport_pair(conn, loop2, loop1, accuracy, (), ())

    def at(series: Levels) -> np.ndarray:
        return levels.evaluate(series, X.matrices)

    M1, M2 = at(hol1.levels), at(hol2.levels)

    # (i) linear Poisson bracket of all entry pairs, from exact gradients
    g2, g1 = (levels.gradient(h.levels, X.matrices) for h in (hol2, hol1))
    oracle = _oracle_tensor(g2, g1, X)

    # (ii) crossing subholonomies and corners, each a signed product
    # s (t_a)_uj (t_b)_iv, plus the bivector
    eye = np.eye(X.N)
    terms = [(float(c.sign), at(hol1.piece(c.t, 1.0)) @ at(hol2.piece(0.0, c.s)),
              at(hol2.piece(c.s, 1.0)) @ at(hol1.piece(0.0, c.t))) for c in cuts]
    for x, y, sign, order in pairs:
        t_a = [M for M, used in ((M1, x == "out"), (M2, y == "in")) if used]
        t_b = [M for M, used in ((M2, y == "out"), (M1, x == "in")) if used]
        terms.append((sign * order, *(reduce(np.matmul, t) if t else eye for t in (t_a, t_b))))
    crossing = sum((s * np.einsum("uj,iv->ijuv", t_a, t_b) for s, t_a, t_b in terms if s),
                   np.zeros((X.N,) * 4, dtype=complex))
    F, G = (g.reshape(-1, X.N * X.N) for g in (g2, g1))
    pi = (F.T @ bivector_pi(X, m, conn.trunc_degree) @ G).reshape((X.N,) * 4)
    formula = crossing + pi

    # (iii) evaluated double bracket of the grouplike holonomies
    r = levels.rho_kks(hol2.levels, hol1.levels, X.n)
    vdb = _grouplike_double_bracket_tensor(r, X, M2, M1)

    def peak(tensor: np.ndarray) -> float:
        return float(np.max(np.abs(tensor)))

    max_disc = {"oracle_vs_formula": peak(oracle - formula),
                "oracle_vs_vdb": peak(oracle - vdb),
                "formula_vs_vdb": peak(formula - vdb)}
    return {
        "lhs_oracle": peak(oracle),
        "rhs_formula": peak(formula),
        "vdb": peak(vdb),
        "max_disc": max_disc,
        "max_discrepancy": max(max_disc.values()),
        "tail_bound": tail,
        "n_crossings": len(cuts),
        "base_linking": sum(sign * order for _, _, sign, order in pairs),
        "trace_pi_contribution": abs(complex(np.einsum("iiuu->", pi))),
        "trace_crossing_gap": abs(complex(np.einsum("iiuu->", oracle - crossing))),
    }
