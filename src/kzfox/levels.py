"""Level arrays: the dense numeric form of a truncated complex series.

Level k of a series in n generators holds the coefficients of the n^k words
of length k in lexicographic order, so word w has index
sum_i (w_i - 1) n^(k-1-i).  The transport, the assembled identity right-hand
sides and the evaluation on matrices, with its gradient, all run on this
format; `to_series` and `from_series` are the one pair of conversions to and
from FreeSeries, and a series in one letter enters as `letter`, for `mul` or
`evaluate`.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from typing import List, Sequence, Tuple

import numpy as np

from .free_hopf import COMPLEX, FreeSeries

Levels = List[np.ndarray]  # level k: the n^k words of length k, ravel order


def unit(n: int, degree: int) -> Levels:
    """The unit series through `degree`."""
    return letter(n, 1, [1.0] + [0.0] * degree)


def letter(n: int, p: int, coeffs: Sequence) -> Levels:
    """sum_j c_j x_p^j: the word p^j sits at index (p-1)(1 + n + ... + n^(j-1))."""
    out, index = [], 0
    for j, c in enumerate(coeffs):
        out.append(np.zeros(n**j, dtype=complex))
        out[j][index] = c
        index = index * n + p - 1
    return out


def to_series(n: int, levels: Levels) -> FreeSeries:
    """The one conversion from level arrays to a FreeSeries; the keys are
    normal words within D by construction, so only stored zeros are dropped."""
    letters = range(1, n + 1)
    words = (w for k in range(len(levels)) for w in product(letters, repeat=k))
    terms = dict(zip(words, np.concatenate(levels).tolist()))
    return FreeSeries._trusted(n, len(levels) - 1, (), COMPLEX, terms)


def from_series(series: FreeSeries) -> Levels:
    """The one conversion from a complex FreeSeries to level arrays, the
    inverse of `to_series`."""
    n = series.n
    levels = [np.zeros(n**k, dtype=complex) for k in range(series.degree + 1)]
    for w, c in series.items():
        levels[len(w)][reduce(lambda i, x: i * n + x - 1, w, 0)] = c
    return levels


def mul(a: Levels, b: Levels) -> Levels:
    """Truncated product: level k sums outer(a_i, b_{k-i}) over i, in place."""
    out = [a[0][0] * b_k for b_k in b[: len(a)]]
    for k in range(1, len(a)):
        for i in range(1, k + 1):
            out[k] += (a[i][:, None] * b[k - i]).ravel()
    return out


def antipode(levels: Levels, n: int) -> Levels:
    """S(w) = (-1)^|w| reversed(w): each level with its axes reversed."""
    return [(-1) ** k * v.reshape((n,) * k).T.ravel() for k, v in enumerate(levels)]


def combine(terms: Sequence[Tuple[float, Levels]], n: int, degree: int) -> Levels:
    """The sum of s * A over the (s, A) terms, through `degree`."""
    zero = [np.zeros(n**k, dtype=complex) for k in range(degree + 1)]
    return [sum((s * a[k] for s, a in terms), z) for k, z in enumerate(zero)]


def mu_bar(levels: Levels, n: int) -> Levels:
    """mu_bar through D-1: level k sums the adjacent-axis diagonals of level k+1."""
    out = []
    for k, a in enumerate(levels[1:]):
        cube = a.reshape((n,) * (k + 1))
        diagonals = (np.moveaxis(cube.diagonal(0, i, i + 1), -1, i) for i in range(k))
        out.append(sum(diagonals, np.zeros((n,) * k, dtype=complex)).ravel())
    return out


def fox(levels: Levels, m: int, n: int, left: bool) -> Levels:
    """d_left(m, .) when `left`, else d_right(m, .): slices, through degree D-1."""
    return [(a.reshape(-1, n) if left else a.reshape(n, -1).T)[:, m - 1]
            for a in levels[1:]]


def rho_kks(a: Levels, b: Levels, n: int) -> Levels:
    """rho_kks(a, b) through degree D: u.x paired with x.v gives u.x.v, so
    level k joins a_i and b_(k+1-i) on their shared letter, for i = 1..k."""
    return [np.zeros(1, dtype=complex)] + [
        sum(np.einsum("px,xq->pxq", a[i].reshape(-1, n), b[k + 1 - i].reshape(n, -1))
            .ravel() for i in range(1, k + 1))
        for k in range(1, len(a))
    ]


def rotations(a: np.ndarray, n: int, k: int) -> np.ndarray:
    """The sum of the k rotations of the length-k words along axis 0 of `a`
    (`a` itself for k <= 1): the rotation by j letters, w = u.v -> v.u with
    |u| = j, swaps the axes of the (n^j, n^(k-j)) reshape.  At a word of
    period p the sum is k/p times the coefficient of its cyclic class, so it
    is injective on classes and never smaller than the class coefficient."""
    return sum(a.reshape(n**j, -1, *a.shape[1:]).swapaxes(0, 1).reshape(a.shape)
               for j in range(max(k, 1)))


def necklace_bracket(a: Levels, b: Levels, n: int) -> Levels:
    """Level arrays whose cyclic classes are the necklace bracket {|a|, |b|}:
    rho_kks(R a, R b) - rho_kks(R b, R a), R summing rotations.  rho pairs
    U.x with x.V to U.x.V, whose class |x.V.U| is the term of the
    equal-letter form (Goldman 1986; Schedler 2005)."""
    ra, rb = ([rotations(v, n, k) for k, v in enumerate(s)] for s in (a, b))
    return [p - q for p, q in zip(rho_kks(ra, rb, n), rho_kks(rb, ra, n))]


def necklace_cobracket(a: Levels, n: int, degree: int) -> dict:
    """The necklace cobracket of |a| as leg arrays A[i, j] (n^i x n^j), for
    every i + j <= `degree`: it is A - P21 A on cyclic classes.  The diagonal
    of the first letter's axis and a later one of R a holds the words
    x.M.x.R, and each gives half of |M| (x) |x.R| - |M.x| (x) |R|: every
    unordered pair of equal letters is met twice among the rotations, and
    both meetings give the same antisymmetrized term."""
    out = {(i, d - i): np.zeros((n**i, n ** (d - i)), dtype=complex)
           for d in range(degree + 1) for i in range(d + 1)}
    for k in range(2, min(len(a), degree + 2)):
        r = rotations(a[k], n, k)
        for m in range(k - 1):  # |M| = m, |R| = k - 2 - m
            # the diagonal's axes are (M, R, x); half's are (M, x, R)
            half = 0.5 * np.moveaxis(r.reshape(n, n**m, n, -1).diagonal(0, 0, 2), -1, 1)
            out[m, k - 1 - m] += half.reshape(n**m, -1)
            out[m + 1, k - 2 - m] -= half.reshape(n ** (m + 1), -1)
    return out


def evaluate(levels: Levels, mats) -> np.ndarray:
    """``sum_w c_w M_{w_1} ... M_{w_k}`` from level arrays, by Horner's scheme
    from the top degree down.  The stack holds ``sum_u c_{uv} M_u`` for each
    suffix v of length k, transposed as R[c, v, a]: its rows (c, first letter
    of v) make the step to k - 1 one (N x nN)(nN x n^(k-1) N) matmul against
    the stacked generators, with no transpose.  The top level enters already
    contracted, R[c, v, a] = sum_i c_{iv} (M_i)[a, c]."""
    n, N, M = len(mats), mats[0].shape[0], np.stack(mats)
    if len(levels) == 1:
        return levels[0][0] * np.eye(N, dtype=complex)
    stacked = M.transpose(2, 1, 0).reshape(N, N * n)  # stacked[c, (b, i)] = (M_i)[b, c]
    diag = np.arange(N)
    # order "C", so that the first reshape below is a view and not a copy
    R = np.einsum("iv,iac->cva", levels[-1].reshape(n, -1), M, order="C")
    for c_k in reversed(levels[1:-1]):
        R[diag, :, diag] += c_k
        R = (stacked @ R.reshape(N * n, -1)).reshape(N, -1, N)
    return R.reshape(N, N).T + levels[0][0] * np.eye(N)


def gradient(levels: Levels, mats) -> np.ndarray:
    """The exact gradient of `evaluate`, ``grad[l, a, b, i, j] = d f_ij /
    d (M_{l+1})_ab``: cut at one letter x_l, the word u.x_l.v gives
    ``c_{u l v} (M_u)_ia (M_v)_bj``.  For each prefix length the level
    arrays, sliced as (prefix, letter, suffix), meet the stack of suffix
    products first and the stack of prefix products last."""
    n, N, M = len(mats), mats[0].shape[0], np.stack(mats)
    # words[k][v, (b, c)] = (M_v)_bc for the n^k words v of length k
    words = [np.eye(N, dtype=complex).reshape(1, -1)]
    for _ in range(len(levels) - 2):
        words.append((words[-1].reshape(-1, 1, N, N) @ M).reshape(-1, N * N))
    grad = np.zeros((N * N, n * N * N), dtype=complex)
    for p in range(len(levels) - 1):  # the prefix u has length p
        # S[(u, l), (b, c)] = sum_v c_{ulv} (M_v)_bc over the suffixes v of every length
        S = sum(c.reshape(n ** (p + 1), -1) @ words[k - p - 1]
                for k, c in enumerate(levels) if k > p)
        grad += words[p].T @ S.reshape(n**p, -1)
    return grad.reshape(N, N, n, N, N).transpose(2, 1, 3, 0, 4)
