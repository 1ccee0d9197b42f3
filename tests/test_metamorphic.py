"""Metamorphic checks of spectrum(): exact symmetries of the eigenvalue
problem that every route must respect, on a small seeded corpus."""

import numpy as np
import pytest

from specmat import CMatrix2, spectrum
from conftest import EXAMPLE, STREATER, a4

CORPUS = {
    "worked_example": EXAMPLE,
    "defective": a4(0.0, 2.0),
    "complex": CMatrix2(1.2 + 0.1j, 0.3, -0.2, 0.9 - 0.2j),
    "triangular": CMatrix2(1.3 + 0.4j, 1.0, 0.0, -2.1 + 0.5j),
    "streater": STREATER,
    "band": a4(0.5, 3.0),
}
COUNT = 10
RTOL = 1e-9


def _spec(A):
    return spectrum(A, count=COUNT).eigenvalues


def _assert_same(got, want):
    """Equal spectra to RTOL with equal multiplicities.  Values at the
    largest modulus are left out: a count cut-off may split a tie there."""
    edge = 0.999 * max(max(abs(v) for v, _ in got), max(abs(v) for v, _ in want))
    for a, b in ((got, want), (want, got)):
        for v, m in a:
            if abs(v) >= edge:
                continue
            u, k = min(b, key=lambda p: abs(p[0] - v))
            assert abs(u - v) <= RTOL * (1 + abs(v)), (v, u)
            assert m == k, (v, m, k)


@pytest.fixture(scope="module")
def base():
    return {name: _spec(A) for name, A in CORPUS.items()}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_diagonal_similarity(base, name):
    A = CORPUS[name]
    theta = np.random.default_rng([7, len(name)]).uniform(0, 2 * np.pi)
    e = np.exp(1j * theta)
    similar = CMatrix2(A.a, A.b / e, A.c * e, A.d)   # D A D^-1, D = diag(1, e)
    _assert_same(_spec(similar), base[name])


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_complex_scaling(base, name):
    A = CORPUS[name]
    rng = np.random.default_rng([11, len(name)])
    s = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(-1.2, 1.2))
    scaled = CMatrix2(s * A.a, s * A.b, s * A.c, s * A.d)
    _assert_same(_spec(scaled), [(s * v, m) for v, m in base[name]])


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_conjugation(base, name):
    A = CORPUS[name]
    conj = CMatrix2(np.conj(A.a), np.conj(A.b), np.conj(A.c), np.conj(A.d))
    _assert_same(_spec(conj), [(np.conj(v), m) for v, m in base[name]])
