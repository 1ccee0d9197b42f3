import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from specmat import (CMatrix2, EigKind, InvalidInput, SingularMatrix,
                     adjoint_projection, eig2, enclosing_sector, numerical_range)
from specmat.mat2 import ENTRY_MAX
from conftest import EXAMPLE


def random_matrices(n, seed=0, real=False):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        vals = rng.standard_normal(8) * rng.choice([0.1, 1.0, 10.0])
        if real:
            yield CMatrix2.real(*vals[:4])
        else:
            yield CMatrix2(complex(vals[0], vals[1]), complex(vals[2], vals[3]),
                           complex(vals[4], vals[5]), complex(vals[6], vals[7]))


class TestCMatrix2:
    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError):
            CMatrix2(np.nan, 0, 0, 1)
        with pytest.raises(ValueError):
            CMatrix2(1, complex(0, np.inf), 0, 1)

    def test_rejects_entries_whose_squares_overflow(self):
        with pytest.raises(InvalidInput):
            CMatrix2.real(1e160, 0, 1, 2e160)
        with pytest.raises(InvalidInput):
            CMatrix2(1, 0, complex(0, -2 * ENTRY_MAX), 1)
        A = CMatrix2.real(ENTRY_MAX, 0, 1, ENTRY_MAX)
        assert not A.is_singular
        assert eig2(A).a_plus == ENTRY_MAX

    def test_determinant_and_singularity(self):
        assert CMatrix2.real(1, 1, 1, 1).is_singular
        assert not CMatrix2.real(1, 1, 0.5, 1).is_singular
        assert CMatrix2.real(2, 1, 0, 3).det == 6

    @pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-150, 1.0, 1e90])
    def test_singularity_verdict_does_not_depend_on_scale(self, s):
        # at 1e-200 both |det| and the squared norm underflow to 0
        assert not CMatrix2.real(1, 0, 1, 2).scaled(s).is_singular
        assert CMatrix2.real(1, 1, 1, 1).scaled(s).is_singular
        B, e = CMatrix2(3j * s, 0, s, -s).normalized()
        assert e % 2 == 0 and 0.5 <= abs(B.a) <= 2.0
        assert B.scaled(2.0 ** e).a == 3j * s

    def test_balanced_norm_is_similarity_invariant(self):
        A = CMatrix2(1.0 - 0.5j, 2.0 + 1.0j, -0.3j, 0.7)
        for r in (1e-6, 0.3, 1.0, 5.0, 1e6):
            similar = CMatrix2(A.a, A.b * r, A.c / r, A.d)
            assert similar.balanced_norm() == pytest.approx(A.balanced_norm(), rel=1e-14)
        # the Frobenius norm of the balanced conjugate r = sqrt(|c| / |b|)
        r = np.sqrt(abs(A.c) / abs(A.b))
        balanced = CMatrix2(A.a, A.b * r, A.c / r, A.d)
        assert balanced.norm() == pytest.approx(A.balanced_norm(), rel=1e-14)


class TestEig2:
    def test_worked_example(self):
        e = eig2(EXAMPLE)
        assert e.kind is EigKind.DISTINCT
        assert_allclose(e.a_plus, 1.0, atol=1e-12)
        assert_allclose(e.a_minus, 0.25, atol=1e-12)
        # eigenvectors proportional to (1,1) and (2i,1)
        assert abs(e.v_plus[0] - e.v_plus[1]) < 1e-12
        assert abs(e.v_minus[0] - 2j * e.v_minus[1]) < 1e-12

    def test_identity_scalar(self):
        e = eig2(CMatrix2.real(1, 0, 0, 1))
        assert e.kind is EigKind.SCALAR
        assert e.a_plus == e.a_minus == 1.0

    def test_defective_example(self):
        e = eig2(CMatrix2.real(0, -1, 1, 2))
        assert e.kind is EigKind.DEFECTIVE
        assert_allclose(e.a_plus, 1.0, atol=1e-12)
        # Jordan convention: lower triangular, unit subdiagonal
        assert_allclose(e.C, [[1, 0], [1, 1]], atol=1e-12)

    def test_real_ordering_convention(self):
        e = eig2(CMatrix2.real(1, 0.3, 0.3, -2))
        assert e.a_plus.real > e.a_minus.real
        assert abs(e.a_plus.imag) < 1e-14

    def test_reconstruction_random(self):
        for A in random_matrices(10_000, seed=1):
            e = eig2(A)
            err = np.linalg.norm(A.as_array() - e.reconstruct())
            assert err <= 1e-10 * max(A.norm(), 1e-10)

    def test_eigen_residual_random(self):
        for A in random_matrices(2_000, seed=2):
            e = eig2(A)
            if e.kind is EigKind.DEFECTIVE:
                continue
            M = A.as_array()
            for val, vec in ((e.a_plus, e.v_plus), (e.a_minus, e.v_minus)):
                res = np.linalg.norm(M @ vec - val * vec)
                assert res <= 1e-12 * max(A.norm(), 1e-6) * np.linalg.norm(vec) * 10

    def test_conjugation_closure_real(self):
        for A in random_matrices(500, seed=3, real=True):
            e = eig2(A)
            vals = {complex(np.round(e.a_plus, 9)), complex(np.round(e.a_minus, 9))}
            conj = {complex(np.round(np.conj(e.a_plus), 9)),
                    complex(np.round(np.conj(e.a_minus), 9))}
            assert vals == conj

    def test_gauge_normalisation(self):
        for A in random_matrices(200, seed=4):
            e = eig2(A)
            for vec in (e.v_plus, e.v_minus):
                assert_allclose(np.linalg.norm(vec), 1.0, atol=1e-12)
                lead = vec[0] if abs(vec[0]) > 1e-12 else vec[1]
                assert abs(lead.imag) <= 1e-12
                assert lead.real > 0

    def test_near_defective_threshold(self):
        # gap far below threshold with ill-conditioned eigenvectors
        eps = 1e-12
        A = CMatrix2.real(1.0, 1.0, eps, 1.0)  # eigen gap 2 sqrt(eps) = 2e-6... no:
        # gap = 2 sqrt(b c) = 2e-6; use a smaller off entry for a genuine collapse
        A = CMatrix2.real(1.0, 1.0, 1e-20, 1.0)
        assert eig2(A).kind is EigKind.DEFECTIVE


class TestAdjointProjection:
    def test_diagonal_reduces_to_p(self):
        P = adjoint_projection(CMatrix2.real(3, 0, 0, -2))
        assert_allclose(P, [[1, 0], [0, 0]], atol=1e-13)

    def test_triangular_by_hand(self):
        # ranges: span{(d, -b)} = (1, -1) and kernel span{(c, -a)} = (0, -1);
        # solving P p = p, P q = 0 by hand gives [[1, 0], [-1, 0]]
        P = adjoint_projection(CMatrix2.real(1, 1, 0, 1))
        assert_allclose(P, [[1, 0], [-1, 0]], atol=1e-13)

    def test_range_conditions_random(self):
        for A in random_matrices(300, seed=5):
            if A.is_singular:
                continue
            P = adjoint_projection(A)
            assert np.linalg.norm(P @ P - P) <= 1e-12 * max(1, np.linalg.norm(P)**2)
            # range(P) perp A(I-P0) e2 and range(I-P) perp A P0 e1
            col_free = A.as_array() @ np.array([0, 1.0])
            col_fixed = A.as_array() @ np.array([1.0, 0])
            rng_p = P @ np.array([1.0, 1.0j])
            rng_ip = (np.eye(2) - P) @ np.array([1.0, -0.7j])
            assert abs(np.vdot(col_free, rng_p)) <= 1e-10 * A.norm()
            assert abs(np.vdot(col_fixed, rng_ip)) <= 1e-10 * A.norm()

    def test_singular_refusal(self):
        with pytest.raises(SingularMatrix):
            adjoint_projection(CMatrix2.real(1, 0, 0, 0))


class TestNumericalRange:
    def test_identity_degenerates_to_point(self):
        ell = numerical_range(CMatrix2.real(1, 0, 0, 1))
        assert ell.major_axis_length <= 1e-12
        assert ell.focus1 == ell.focus2 == 1.0
        assert not ell.contains_origin

    def test_jordan_disc(self):
        ell = numerical_range(CMatrix2.real(0.7, 0, 1, 0.7))
        assert_allclose(ell.major_axis_length, 1.0, atol=1e-12)
        assert_allclose(ell.minor_axis_length, 1.0, atol=1e-12)
        assert_allclose(ell.focus1, 0.7, atol=1e-12)
        # disc of radius 1/2 around 0.7: origin outside
        assert not ell.contains_origin
        assert numerical_range(CMatrix2.real(0.3, 0, 1, 0.3)).contains_origin

    def test_normal_segment(self):
        ell = numerical_range(CMatrix2.real(0, 0, 0, 1))
        assert ell.minor_axis_length <= 1e-8
        assert_allclose(ell.major_axis_length, 1.0, atol=1e-12)

    @pytest.mark.parametrize("a,d", [(4.0, 1.0), (3.0, 0.5), (5.0, 2.0)])
    def test_sector_half_angle(self, a, d):
        # antisymmetric family with split positive eigenvalues: the minimal
        # sector half-angle satisfies sin(omega) = 1 / sqrt(ad + 1)
        ell = numerical_range(CMatrix2.real(a, -1, 1, d))
        sec = enclosing_sector(ell)
        assert sec is not None
        alpha, beta = sec
        assert_allclose(beta, -alpha, atol=1e-6)
        assert_allclose(np.sin(beta), 1.0 / np.sqrt(a * d + 1.0), rtol=1e-4)
        assert_allclose(ell.major_axis_length, abs(a - d), rtol=1e-12)

    def test_foci_continuity_along_path(self):
        A0 = np.array([[1.0, 0.5], [0.3, -0.8]])
        A1 = np.array([[0.2, -1.1], [0.9, 1.4]])
        prev = None
        for t in np.linspace(0, 1, 2001):
            ell = numerical_range(CMatrix2.from_array((1 - t) * A0 + t * A1))
            foci = (ell.focus1, ell.focus2)
            if prev is not None:
                # unordered-pair distance: the labels may swap at a collision
                direct = max(abs(foci[0] - prev[0]), abs(foci[1] - prev[1]))
                swapped = max(abs(foci[0] - prev[1]), abs(foci[1] - prev[0]))
                assert min(direct, swapped) < 0.05
            prev = foci


def _minor_axis_mp(A: CMatrix2) -> float:
    """``sqrt(tr(A*A) - |a+|^2 - |a-|^2)`` in 50-digit arithmetic."""
    with mpmath.workdps(50):
        a, b, c, d = (mpmath.mpc(v.real, v.imag) for v in (A.a, A.b, A.c, A.d))
        sq = mpmath.sqrt((a - d) ** 2 + 4 * b * c)
        gram = sum(abs(v) ** 2 for v in (a, b, c, d))
        w2 = gram - abs((a + d + sq) / 2) ** 2 - abs((a + d - sq) / 2) ** 2
        return float(mpmath.sqrt(max(w2, 0)))


def _near_normal_matrices(seed=5):
    """Seeded general matrices, plus near-symmetric, near-Hermitian and
    near-normal ones on which the trace formula for the minor axis cancels."""
    rng = np.random.default_rng(seed)
    mats = list(random_matrices(10, seed=seed)) + list(random_matrices(10, seed=seed, real=True))
    for k in range(30):
        eps = 10.0 ** rng.uniform(-12, -4)
        x = rng.standard_normal(4) * rng.choice([0.1, 1.0, 10.0])
        y = rng.standard_normal(4)
        if k % 3 == 0:    # real symmetric plus eps
            M = [[x[0], x[1]], [x[1] + eps * y[0], x[2]]]
        elif k % 3 == 1:  # Hermitian plus eps
            M = [[x[0], complex(x[1], x[3])], [complex(x[1], -x[3] + eps * y[1]), x[2]]]
        else:             # normal (scaled rotation) plus eps
            M = [[x[0], -x[1]], [x[1], x[0] + eps * y[2]]]
        mats.append(CMatrix2.from_array(np.array(M, dtype=complex)))
    return mats


class TestMinorAxisAccuracy:
    def test_minor_axis_matches_mpmath(self):
        for A in _near_normal_matrices():
            got = numerical_range(A).minor_axis_length
            assert abs(got - _minor_axis_mp(A)) <= 1e-14 * A.norm(), A
