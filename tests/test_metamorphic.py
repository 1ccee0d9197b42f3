"""Metamorphic checks of spectrum() and of the similarity certificates:
exact symmetries of the eigenvalue problem that every route must respect,
on a small seeded corpus."""

import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from specmat import CMatrix2, IllConditioned, eig2, similarity_certificates, spectrum
from specmat.mat2 import EigKind
from specmat.secular import build
from specmat.cli import main
from conftest import EXAMPLE, STREATER, a4

CORPUS = {
    "worked_example": EXAMPLE,
    "defective": a4(0.0, 2.0),
    "complex": CMatrix2(1.2 + 0.1j, 0.3, -0.2, 0.9 - 0.2j),
    "triangular": CMatrix2(1.3 + 0.4j, 1.0, 0.0, -2.1 + 0.5j),
    "streater": STREATER,
    "band": a4(0.5, 3.0),
    # 1e-9 off the defective line |a - d| = 2, real and complex
    "near_defective": CMatrix2.real(1.6276123860199783, -1, 1, 3.627612389036903),
    "near_defective_c": CMatrix2(0.4 + 0.3j, -1, 1, 2.4 + 0.3j + 1e-11),
}
COUNT = 10
RTOL = 1e-9


def _spec(A):
    return spectrum(A, count=COUNT).eigenvalues


def _assert_same(got, want, rtol=RTOL):
    """Equal spectra to rtol with equal multiplicities.  Values at the
    largest modulus are left out: a count cut-off may split a tie there."""
    edge = 0.999 * max(max(abs(v) for v, _ in got), max(abs(v) for v, _ in want))
    for a, b in ((got, want), (want, got)):
        for v, m in a:
            if abs(v) >= edge:
                continue
            u, k = min(b, key=lambda p: abs(p[0] - v))
            assert abs(u - v) <= rtol * (1 + abs(v)), (v, u)
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


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_count_prefix(name):
    """spectrum(A, count=c) is the first c values of a longer spectrum,
    whatever box the count sizes its search from."""
    A = CORPUS[name]
    full = spectrum(A, count=30).eigenvalues
    for c in (6, 12, 20):
        got = spectrum(A, count=c).eigenvalues
        assert len(got) == c
        # a tie in modulus at the cut may be cut on either side
        edge = abs(full[c - 1][0])
        tied = lambda v: abs(abs(v) - edge) <= 1e-8 * (1 + edge)
        for (v, m), (u, k) in zip(got, full[:c]):
            if tied(v) or tied(u):
                continue
            assert abs(v - u) <= RTOL * (1 + abs(u)), (c, v, u)
            assert m == k, (c, v, m, k)


# one matrix up to diagonal similarity, at three scales of b
CERT_CORPUS = {f"family_b={b:g}": CMatrix2(1.0, b, 0.3 * np.exp(0.4j) / b, 1.0)
               for b in (1.0, 1e-2, 1e-4)}
CERT_CORPUS.update({
    "a4(3,1)": a4(3.0, 1.0),
    "streater": STREATER,
    "triangular": CMatrix2.real(1, 0, 1, 2),
    # complex off-diagonal entries with bc > 0: similar to a Hermitian
    # matrix, whose numerical-range minor axis is 0
    "complex": CMatrix2(2.0, 0.3 * np.exp(0.5j), 0.6 * np.exp(-0.5j), 1.5),
    # |det| is fixed by diagonal similarity: no conjugate may count as singular
    "far_conjugate": CMatrix2(1.0, 1e-4, 3000.0 * np.exp(0.4j), 1.0),
    # an imaginary part near the tolerance of the real-entry tests
    "tiny_imag": CMatrix2(2.0 + 1e-8j, 0.5, 0.5, 1.0),
})


def _certs(A):
    return {c.kind: c for c in similarity_certificates(A)}


@pytest.mark.parametrize("s", [1e-6, 1e-3, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("name", sorted(CERT_CORPUS))
def test_certificates_diagonal_similarity(name, s):
    """A(s) = diag(1, s) A diag(1, 1/s) gets the same certificates."""
    A = CERT_CORPUS[name]
    similar = CMatrix2(A.a, A.b / s, A.c * s, A.d)
    want, got = _certs(A), _certs(similar)
    assert sorted(got) == sorted(want)
    if "SectorBound" in want:
        assert_allclose(got["SectorBound"].sector, want["SectorBound"].sector,
                        rtol=0, atol=1e-12)
    if "NearReal" in want:
        for field in ("residual", "omega"):
            assert_allclose(getattr(got["NearReal"], field),
                            getattr(want["NearReal"], field), rtol=1e-12)



@pytest.mark.parametrize("s", [1e-20, 1e-100, 1e-200])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_tiny_scaling(base, name, s):
    """spec(sA) = s spec(A) far below the scale where |A|^2 underflows,
    compared relative to the eigenvalues of A."""
    got = _spec(CORPUS[name].scaled(s))
    _assert_same([(v / s, m) for v, m in got], base[name])


def test_tiny_matrix_from_the_cli(capsys):
    # A = 1e-200 [[1, 0], [1, 2]]: the lattice 1e-200 k^2 pi^2 {1, 2}
    code = main(["spectrum", "--real", "1e-200", "0", "1e-200", "2e-200", "--count", "8"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    got = [complex(e["re"], e["im"]) / 1e-200 for e in doc["eigenvalues"]]
    lattice = sorted({c * k * k * np.pi ** 2 for c in (1, 2) for k in range(6)})
    assert_allclose(got, lattice[:8], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("tol", [1e-13, 1e-16])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_small_tol(base, name, tol):
    """A tol below what rounding lets Newton's step reach still converges,
    to the spectrum of the default tol."""
    _assert_same(spectrum(CORPUS[name], count=COUNT, tol=tol).eigenvalues, base[name],
                 rtol=1e-12)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_eig2_kind_is_scale_free(name):
    """eig2 compares against the norm, so scaling A keeps its kind."""
    A = CORPUS[name]
    for s in (1e-13, 1e-100, 1e-140, 1e20, 1e90):
        assert eig2(A.scaled(s)).kind is eig2(A).kind, s


# 9.3e-9 off the defective line: the discriminant (a - d)^2 + 4bc of A
# itself underflows below about 1e-150, and the matrix would read DEFECTIVE
UNDERFLOW = CMatrix2.real(0.5511256392525916, -1, 1, 2.5511256485669924)


@pytest.mark.parametrize("s", [1e-160, 1e-200, 1e-300])
@pytest.mark.parametrize("name", sorted(CORPUS) + ["underflow"])
def test_tiny_scale_eigenstructure(name, s):
    """eig2 works on the normalised matrix: below the discriminant's
    underflow A s keeps its kind and its eigenvalues scale by s, and the
    secular function builds without a floating-point warning."""
    A = CORPUS.get(name, UNDERFLOW)
    want, got = eig2(A), eig2(A.scaled(s))
    assert got.kind is want.kind
    assert_allclose([got.a_plus / s, got.a_minus / s], [want.a_plus, want.a_minus],
                    rtol=RTOL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        S = build(A.scaled(s))
    assert S.kind is want.kind


@pytest.mark.parametrize("s", [1e-110, 1e-200, 1e-300, 1e90])
def test_defective_secular_function_at_extreme_scales(s):
    """The defective form's q is of order |A|^-3 in eig2's gauge: build()
    takes the gauge of the normalised matrix, so that at every scale its
    coefficients are finite and its log-derivative is the unscaled one's,
    ``g_s(x sqrt(s)) = g_1(x) / sqrt(s)``."""
    A = a4(0.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        S = build(A.scaled(s))
        x = np.array([1.3 + 0.2j, 4.1 - 0.7j, 7.9 + 3.0j])
        got = S.logderiv(x * np.sqrt(s)) * np.sqrt(s)
    assert S.kind is EigKind.DEFECTIVE
    assert np.isfinite([S.q, S.c2, S.f2]).all()
    assert_allclose(got, build(A).logderiv(x), rtol=1e-12)


def test_defective_secular_function_out_of_range():
    """Below the normal range eig2's generalised vector overflows: build()
    says so instead of returning infinite coefficients."""
    with warnings.catch_warnings(), pytest.raises(IllConditioned):
        warnings.simplefilter("ignore")
        build(a4(0.0, 2.0).scaled(1e-310))


def test_eig2_out_of_range_raises_without_warning(capsys):
    """Below the normal range eig2's generalised vector would divide by a
    subnormal 2^e: it raises IllConditioned, without a floating-point
    warning, and the CLI exits 3 with one message line.  spectrum() works
    on the normalised matrix and still scales."""
    A = a4(0.0, 2.0).scaled(1e-310)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditioned):
            eig2(A)
        code = main(["ev", "--real", "0", " -1e-310", "1e-310", "2e-310", "--at=1,0"])
        got = spectrum(A, count=COUNT)
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err.startswith("specmat:") and out.err.count("\n") == 1
    want = spectrum(a4(0.0, 2.0), count=COUNT)
    assert got.analytic_order_at_zero == want.analytic_order_at_zero
    assert [m for _, m in got.eigenvalues] == [m for _, m in want.eigenvalues]
    # the entries are subnormal, exact only to about 2^-44 of themselves
    assert_allclose(got.values(), 1e-310 * want.values(), rtol=1e-12, atol=0)


def test_cli_ev_of_a_tiny_defective_matrix(capsys):
    """`ev` of a defective matrix at 1e-110 prints a finite value, without
    a floating-point warning (NaN at the parent, with exit 0)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["ev", "--real", "0", " -1e-110", "1e-110", "2e-110", "--at=1e-55,0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert np.isfinite(doc["value"]).all() and np.isfinite(doc["log10_abs"])
    S = build(CMatrix2.real(0, -1e-110, 1e-110, 2e-110))
    assert abs(complex(*doc["value"]) - complex(S.value(np.array([1e-55]))[0])) == 0
