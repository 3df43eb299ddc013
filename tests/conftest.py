"""Shared fixtures: canonical path files, a seeded series factory, and a
counter of FreeSeries method calls."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from kzfox import COMPLEX, FreeSeries, RATIONAL
from kzfox.cli import load_path_file

DATA = Path(__file__).parent / "data"


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
