"""Shared fixtures: canonical path files, a seeded series factory, seeded
loop, loop-pair and open-path generators, and a counter of FreeSeries method
calls."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from kzfox import COMPLEX, FreeSeries, RATIONAL
from kzfox.cli import load_path_file
from kzfox.kz_paths import Anchor, PLPath, PunctureConfig

DATA = Path(__file__).parent / "data"

# The ordered pairs (loop1, loop2) of fixture loops at one base point whose
# crossings are all transverse: every other ordered pair of distinct loops
# among a1, a4, a5, b1 and bup touches non-transversally and is rejected.
LOOP_PAIRS = [
    (f"loop_{a}.json", f"loop_{b}.json")
    for a, b in (("a1", "b1"), ("a1", "bup"), ("a4", "b1"), ("a4", "bup"),
                 ("a5", "b1"), ("a5", "bup"), ("b1", "a1"), ("b1", "a4"),
                 ("b1", "a5"), ("bup", "a1"), ("bup", "a4"), ("bup", "a5"))
]


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def load_path():
    def _load(name: str):
        return load_path_file(str(DATA / name))

    return _load


def random_series(rng: random.Random, n: int, degree: int, max_word: int = 3,
                  terms: int = 5) -> FreeSeries:
    """Sparse random rational series, used across the exact-identity tests."""
    coeffs = {}
    for _ in range(terms):
        k = rng.randint(0, max_word)
        w = tuple(rng.randint(1, n) for _ in range(k))
        coeffs[w] = coeffs.get(w, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return FreeSeries(n, degree, coeffs, RATIONAL)


def dense_complex(rng: random.Random, n: int, degree: int) -> FreeSeries:
    """Complex series with a random coefficient on every word of degree <= D,
    stored in degree order."""
    words = (
        w for k in range(degree + 1) for w in itertools.product(range(1, n + 1), repeat=k)
    )
    return FreeSeries(
        n, degree, {w: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for w in words}, COMPLEX
    )


def random_base_loop(rng: random.Random) -> PLPath:
    """A random loop among the punctures 0, 1 and 2, based tangentially at 0
    in direction +1, with tails of spans s1, s2 in (0.1, 0.9) on the ray.
    It leaves to side sigma at height h1 and turns at x = X beyond 1 or
    beyond 2; then it either comes back on the opposite side,
    (s1, 0), (s1, h1), (X, h1), (X, -h2), (s2, -h2), (s2, 0),
    or closes round the left of the base and comes back on the same side,
    (s1, 0), (s1, h1), (X, h1), (X, -h3), (-L, -h3), (-L, h2), (s2, h2),
    (s2, 0), with every height h of sign sigma.  The strand germs are
    sigma/s1 out and -sigma/s2 or sigma/s2 in, so pairs of these loops reach
    every order of the four tail strands at the base."""
    s1, s2 = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
    sigma = rng.choice((1, -1))
    h1, h2, h3 = (sigma * rng.uniform(0.1, 0.6) for _ in range(3))
    x = rng.uniform(1.2, 1.8) + rng.randint(0, 1)
    if rng.random() < 0.5:
        points = [s1, complex(s1, h1), complex(x, h1), complex(x, -h2),
                  complex(s2, -h2), s2]
    else:
        left = -rng.uniform(0.2, 0.8)
        points = [s1, complex(s1, h1), complex(x, h1), complex(x, -h3),
                  complex(left, -h3), complex(left, h2), complex(s2, h2), s2]
    base = Anchor.tangential(1, 1.0)
    return PLPath(PunctureConfig([0.0, 1.0, 2.0]), base, base,
                  [complex(p) for p in points])


def random_loop_pairs(seed: int, count: int) -> list:
    """The first `count` pairs (loop1, loop2) of `random_base_loop` draws from
    random.Random(seed).  With seed 11, pairs 1 and 8 have a necklace bracket
    of size 1 on rotation sums and the other seven a bracket of roundoff."""
    rng = random.Random(seed)
    return [(random_base_loop(rng), random_base_loop(rng)) for _ in range(count)]


def random_open_path(rng: random.Random, n: int, p: int, q: int,
                     start: float = 0.0) -> PLPath:
    """A random path among the punctures 0, 1, ..., n - 1, from puncture p
    (1-based) in direction d_p to puncture q, arriving against direction d_q,
    with d_p = `start` when it is nonzero and each other direction a random
    +-1.  Its tails have spans s1, s2 in (0.1, 0.9) on the rays; it leaves
    to height h1, runs to x = X, at least 0.2 from every puncture and within
    0.8 of the anchors' span, changes to height h2 and comes back:
    (z_p + d_p s1, 0), (., h1), (X, h1), (X, h2), (z_q + d_q s2, h2),
    (z_q + d_q s2, 0), with h1, h2 of random signs.  So pairs of these paths
    cross 0, 1 or 2 times and reach both orders of two strands at a shared
    middle point."""
    zp, zq = float(p - 1), float(q - 1)
    d_p = start or rng.choice((1.0, -1.0))
    d_q = rng.choice((1.0, -1.0))
    s1, s2 = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
    h1, h2 = (rng.choice((1, -1)) * rng.uniform(0.1, 0.6) for _ in range(2))
    x = rng.randint(int(min(zp, zq)) - 1, int(max(zp, zq))) + rng.uniform(0.2, 0.8)
    a, b = zp + d_p * s1, zq + d_q * s2
    points = [a, complex(a, h1), complex(x, h1), complex(x, h2), complex(b, h2), b]
    return PLPath(PunctureConfig([float(k) for k in range(n)]),
                  Anchor.tangential(p, d_p), Anchor.tangential(q, d_q),
                  [complex(z) for z in points])


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260823)


@pytest.fixture
def count_series_calls(monkeypatch):
    """Wrap the named FreeSeries methods (looked up in FreeSeries.__dict__)
    for the rest of the test; returns a dict of their call counts."""

    def wrap(*names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = FreeSeries.__dict__[name]

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(FreeSeries, name, counting)
        return calls

    return wrap
