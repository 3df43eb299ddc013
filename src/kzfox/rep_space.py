"""Evaluation of free-algebra series on tuples of matrices and the induced
Poisson geometry of their matrix entries.

A point of the representation space is a tuple ``X = (X_1, ..., X_n)`` of
complex ``N x N`` matrices, one per generator.  Matrix entries of evaluated
series are then smooth functions on that space, and the linear
(Kirillov-Kostant-Souriau) Poisson structure induces a bracket on them.  This
module provides

* :func:`evaluate` -- truncated series evaluated on a matrix tuple,
* :func:`bivector_pi` -- the bivector collecting the non-crossing terms of
  the loop-holonomy bracket formula, the operator product ``ad R ad`` on
  vectorized matrices, which pairs two gradients by two matmuls,
* :func:`verify_theorem2` -- a three-way comparison (oracle / geometric
  crossing formula plus bivector / algebraic double bracket) for a pair of
  loop holonomies, whose oracle side pairs exact gradients: a series
  evaluated on a block upper-triangular tuple carries its derivative in the
  upper-right block.  The double bracket side pairs the two holonomies'
  level arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional

import numpy as np

from .coefficients import r_am_series
from .errors import DomainError, ShapeError, ValidationError
from .free_hopf import COMPLEX, FreeSeries
from .kz_holonomy import (
    DEFAULT_ACCURACY,
    ConnectionSpec,
    Levels,
    _base_corners,
    _base_linking,
    _require_tangential,
    _rho_kks_levels,
    _to_levels,
    holonomy_reg,
)
from .kz_paths import PLPath, intersections

__all__ = [
    "MatrixTuple",
    "BivectorPi",
    "BivectorReport",
    "evaluate",
    "tail_bound",
    "bivector_pi",
    "verify_theorem2",
]


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
# evaluation
# ---------------------------------------------------------------------------
def _evaluate_levels(levels: Levels, mats) -> np.ndarray:
    """``sum_w c_w M_{w_1} ... M_{w_k}`` from level arrays, by Horner's scheme
    from the top degree down.  The stack holds ``sum_u c_{uv} M_u`` for each
    suffix v of length k, transposed as R[c, v, a]: its rows (c, first letter
    of v) make the step to k - 1 one (N x nN)(nN x n^(k-1) N) matmul against
    the stacked generators, with no transpose."""
    n, N = len(mats), mats[0].shape[0]
    # stacked[c, (b, i)] = (M_i)[b, c]
    stacked = np.stack(mats, axis=1).transpose(2, 0, 1).reshape(N, N * n)
    diag = np.arange(N)
    R = np.zeros((N, n ** (len(levels) - 1), N), dtype=complex)
    R[diag, :, diag] = levels[-1]
    for c_k in reversed(levels[:-1]):
        R = (stacked @ R.reshape(N * n, -1)).reshape(N, c_k.size, N)
        R[diag, :, diag] += c_k
    return R.reshape(N, N).T


def evaluate(series: FreeSeries, X: MatrixTuple) -> np.ndarray:
    """Evaluate a truncated series on a matrix tuple.

    Returns ``sum_w c_w X_{w_1} ... X_{w_k}``, computed from the series'
    level arrays by Horner's scheme with one matmul per degree.  The
    truncation tail is not included; use :func:`tail_bound` for the
    geometric advisory bound.
    """
    if series.backend != COMPLEX:
        raise DomainError("evaluation requires the float backend")
    if series.n != X.n:
        raise ShapeError("series and matrix tuple have different generator counts")
    return _evaluate_levels(_to_levels(series), X.matrices)


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
def _level_gradient(levels: Levels, X: MatrixTuple) -> np.ndarray:
    """Exact gradient of the series of ``levels`` evaluated on the tuple:
    ``grad[l, a, b, i, j] = d f(X)_ij / d (X_{l+1})_ab``.  Evaluated on the
    block tuple ``[[X_k, d_kl E_ab], [0, X_k]]`` the series carries that
    derivative in its upper-right block (Mathias 1996), so one evaluation of
    doubled size per direction gives it with no step and no difference error."""
    n, N = X.n, X.N
    block = np.zeros((n, 2 * N, 2 * N), dtype=complex)
    for k, M in enumerate(X.matrices):
        block[k, :N, :N] = block[k, N:, N:] = M
    grad = np.empty((n, N, N, N, N), dtype=complex)
    for l, a, b in np.ndindex(n, N, N):
        block[l, a, N + b] = 1.0
        grad[l, a, b] = _evaluate_levels(levels, block)[:N, N:]
        block[l, a, N + b] = 0.0
    return grad


def _oracle_tensor(gF: np.ndarray, gG: np.ndarray, X: MatrixTuple) -> np.ndarray:
    """Linear Poisson bracket of all entry pairs, from the gradient tensors
    of :func:`_level_gradient`: ``out[i, j, u, v] = {F_ij, G_uv}``,
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
def _adjoint_operator(M: np.ndarray) -> np.ndarray:
    """``ad_M`` on N x N matrices as an ``N^2 x N^2`` matrix acting on
    row-major vectorizations."""
    N = M.shape[0]
    eye = np.eye(N)
    return np.kron(M, eye) - np.kron(eye, M.T)


def _wedge_core(X: MatrixTuple, m: int) -> np.ndarray:
    """The left and right parts of the bivector, ``wedge[c, k, l, d, w, z]``:
    ``T[d, k, l, w, z] = d_wl (X_d)_kz - (X_d)_wl d_kz`` pairs F-direction m
    with G-direction d, and F-direction d with G-direction m."""
    n, N = X.n, X.N
    mats = np.stack(X.matrices)
    eye = np.broadcast_to(np.eye(N), mats.shape)
    T = np.einsum("sdwl,sdkz->dklwz", np.stack([eye, -mats]), np.stack([mats, eye]))
    wedge = np.zeros((n, N, N, n, N, N), dtype=complex)
    wedge[m - 1] += T.transpose(1, 2, 0, 3, 4)
    wedge[:, :, :, m - 1] += T
    return wedge


class BivectorPi:
    """The bivector collecting the non-crossing contributions to the bracket
    of two loop-holonomy entries based at the puncture of generator ``m``.

    It is the biderivation whose values on coordinate pairs are

    * inner part: ``([X_a, R([X_b, E_vu])])_ij`` for
      ``((x_a)_ij, (x_b)_uv)``, with ``R`` the regularization series of the
      adjoint operator of ``X_m`` truncated at ``degree``;
    * left/right parts: ``d_am (d_uj (X_b)_iv - (X_b)_uj d_iv)`` plus
      ``d_bm (d_uj (X_a)_iv - (X_a)_uj d_iv)``.

    On row-major vectorizations the inner part is the operator product
    ``ad_{X_a} R ad_{X_b}``; with the wedge part it is stored as one
    ``(n N^2, n N^2)`` core, so that two gradient tensors pair by two matmuls
    (:meth:`pair_gradients`).
    """

    def __init__(self, X: MatrixTuple, m: int, degree: int):
        if not 1 <= m <= X.n:
            raise DomainError("generator index out of range")
        n, N = X.n, X.N
        ad = np.stack([_adjoint_operator(M) for M in X.matrices])
        # R = sum_k c_k ad_{X_m}^k by Horner's scheme, c_k from r_am in one variable
        coeffs, eye = r_am_series(1, degree, 1, COMPLEX).coeffs, np.eye(N * N)
        R = np.zeros((N * N, N * N), dtype=complex)
        for k in range(degree, -1, -1):
            R = R @ ad[m - 1] + coeffs.get((1,) * k, 0.0) * eye
        self._r_op = R
        # inner core[c, k, l, d, w, z] = (ad_{X_c} R ad_{X_d})[(k, l), (z, w)]
        inner = np.tensordot(ad @ R, ad, axes=(2, 1)).reshape((n, N, N) * 2)
        core = inner.swapaxes(4, 5) + _wedge_core(X, m)
        self._core = core.reshape(n * N * N, n * N * N)

    # -- pairing ------------------------------------------------------------
    def pair_gradients(self, gF: np.ndarray, gG: np.ndarray) -> np.ndarray:
        """Pair two gradient tensors (from :func:`_level_gradient`):
        returns ``out[i, j, u, v] = Pi(F_ij, G_uv)``."""
        N = gF.shape[-1]
        F, G = (g.reshape(-1, N * N) for g in (gF, gG))
        return (F.T @ self._core @ G).reshape((N,) * 4)


def bivector_pi(X: MatrixTuple, m: int, degree: int = 16) -> BivectorPi:
    """Materialize the bivector pairing for loops based at the puncture of
    generator ``m`` (1-based); the adjoint-operator series is truncated at
    ``degree``."""
    return BivectorPi(X, m, degree)


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
    W = _evaluate_levels(r, big).reshape(N, N, N, N)
    return np.einsum("ua,biav,bj->ijuv", Mb, W, Ma)


# ---------------------------------------------------------------------------
# three-way verification for loop pairs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BivectorReport:
    """Three-way comparison of the bracket of two loop-holonomy entry
    matrices; tensors are indexed ``[i, j, u, v]`` for the bracket of entry
    ``(i, j)`` of the first holonomy with entry ``(u, v)`` of the second."""

    lhs_oracle: np.ndarray
    rhs_formula: np.ndarray
    vdb: np.ndarray
    crossing_part: np.ndarray
    pi_part: np.ndarray
    n_crossings: int
    base_linking: float
    tail: float
    tolerance: float

    @property
    def max_disc(self) -> Dict[str, float]:
        return {
            "oracle_vs_formula": float(
                np.max(np.abs(self.lhs_oracle - self.rhs_formula))
            ),
            "oracle_vs_vdb": float(np.max(np.abs(self.lhs_oracle - self.vdb))),
            "formula_vs_vdb": float(np.max(np.abs(self.rhs_formula - self.vdb))),
        }

    @property
    def max_discrepancy(self) -> float:
        return max(self.max_disc.values())

    @property
    def passed(self) -> bool:
        return self.max_discrepancy <= self.tolerance

    def trace_bracket(self) -> complex:
        """Bracket of the two trace functions, from the oracle tensor."""
        return complex(np.einsum("iiuu->", self.lhs_oracle))

    def trace_crossing(self) -> complex:
        """Crossing-term contribution to the trace bracket."""
        return complex(np.einsum("iiuu->", self.crossing_part))

    def trace_pi(self) -> complex:
        """Bivector contribution to the trace bracket (vanishes for
        invariant functions)."""
        return complex(np.einsum("iiuu->", self.pi_part))

    def to_json_dict(self) -> dict:
        return {
            "lhs_oracle": float(np.max(np.abs(self.lhs_oracle))),
            "rhs_formula": float(np.max(np.abs(self.rhs_formula))),
            "vdb": float(np.max(np.abs(self.vdb))),
            "max_disc": self.max_disc,
            "tail_bound": self.tail,
            "tolerance": self.tolerance,
            "n_crossings": self.n_crossings,
            "base_linking": self.base_linking,
            "trace_pi_contribution": abs(self.trace_pi()),
            "passed": self.passed,
        }


def verify_theorem2(
    conn: ConnectionSpec,
    loop2: PLPath,
    loop1: PLPath,
    X: MatrixTuple,
    accuracy: float = DEFAULT_ACCURACY,
    tolerance: Optional[float] = None,
) -> BivectorReport:
    """Three-way check of the loop-holonomy bracket formula.

    Computes the bracket tensor ``{(H2)_ij, (H1)_uv}`` of the two loop
    holonomies three ways: (i) the linear Poisson bracket of the evaluated
    entries, from their exact gradients, (ii) the geometric formula (signed
    crossing subholonomies, plus the bivector, plus the four corner terms of
    the tail strands at the base: with M1, M2 the evaluated holonomies and
    [X>Y] the strand order of `_base_corners`,
    ``[p>Q] d_uj (M2 M1)_iv - [P>Q] (M1)_uj (M2)_iv - [p>q] (M2)_uj (M1)_iv
    + [P>q] (M1 M2)_uj d_iv``), (iii) the evaluated double bracket of the
    two grouplike holonomies, from the adjacent-letter pairing of their level
    arrays.  ``base_linking`` records the alternating corner sum.  Each loop
    is transported once, with breakpoints at its crossing parameters; the
    crossing subholonomies are read off those transports, and every
    evaluation runs on their level arrays.  The tolerance defaults to
    ``max(1e-4, tail_bound)``; a tuple with ``n * ||X|| >= 1``, whose tail
    bound is infinite, raises ValidationError.
    """
    m = _require_tangential(loop1, "start")
    for path, which in ((loop1, "end"), (loop2, "start"), (loop2, "end")):
        if _require_tangential(path, which) != m:
            raise ValidationError("both loops must share one tangential base point")
    if conn.n_generators != X.n:
        raise ShapeError("connection and matrix tuple have different generator counts")
    tail = tail_bound(conn.trunc_degree, X)
    if math.isinf(tail):
        raise ValidationError(f"n * ||X|| = {X.n * X.norm_bound:.6g} >= 1: the "
                              "tail bound, and so the tolerance, would be infinite")
    cuts = intersections(loop1, loop2)
    hol1 = holonomy_reg(conn, loop1, accuracy, [c.t for c in cuts])
    hol2 = holonomy_reg(conn, loop2, accuracy, [c.s for c in cuts])

    def at(levels: Levels) -> np.ndarray:
        return _evaluate_levels(levels, X.matrices)

    M1, M2 = at(hol1.levels), at(hol2.levels)

    # (i) linear Poisson bracket of all entry pairs, from exact gradients
    g2, g1 = _level_gradient(hol2.levels, X), _level_gradient(hol1.levels, X)
    oracle = _oracle_tensor(g2, g1, X)

    # (ii) crossing subholonomies plus the bivector
    N = X.N
    crossing = np.zeros((N, N, N, N), dtype=complex)
    for c in cuts:
        t_a = at(hol1._piece_levels(c.t, 1.0)) @ at(hol2._piece_levels(0.0, c.s))
        t_b = at(hol2._piece_levels(c.s, 1.0)) @ at(hol1._piece_levels(0.0, c.t))
        crossing += float(c.sign) * np.einsum("uj,iv->ijuv", t_a, t_b)
    eye = np.eye(N)
    pQ, PQ, pq, Pq = _base_corners(loop1, loop2)
    for corner, t_a, t_b in ((pQ, eye, M2 @ M1), (-PQ, M1, M2), (-pq, M2, M1),
                             (Pq, M1 @ M2, eye)):
        if corner:
            crossing += corner * np.einsum("uj,iv->ijuv", t_a, t_b)
    pi = bivector_pi(X, m, conn.trunc_degree).pair_gradients(g2, g1)
    formula = crossing + pi

    # (iii) evaluated double bracket of the grouplike holonomies
    r = _rho_kks_levels(hol2.levels, hol1.levels, X.n)
    vdb = _grouplike_double_bracket_tensor(r, X, M2, M1)

    return BivectorReport(
        lhs_oracle=oracle,
        rhs_formula=formula,
        vdb=vdb,
        crossing_part=crossing,
        pi_part=pi,
        n_crossings=len(cuts),
        base_linking=_base_linking(loop1, loop2),
        tail=tail,
        tolerance=max(1e-4, tail) if tolerance is None else tolerance,
    )
