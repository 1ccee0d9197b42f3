import mpmath
import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from specmat import (CMatrix2, EigKind, Rect, SingularMatrix, build,
                     boundary_determinant, fundamental_matrix, spectrum,
                     winding_count)
from specmat.secular import _scaled_trig
from conftest import EXAMPLE, EXAMPLE_V, STREATER, gauge_to


def ref_product_form(A, x):
    """Independent reference: the raw product form evaluated per point with
    explicitly chosen square-root branches."""
    vals, vecs = np.linalg.eig(A.as_array())
    order = np.argsort(-vals.real - 1e-12 * vals.imag)
    vals, vecs = vals[order], vecs[:, order]
    v1, v2, v3, v4 = vecs[0, 0], vecs[0, 1], vecs[1, 0], vecs[1, 1]
    sp, sm = np.sqrt(vals[0]), np.sqrt(vals[1])
    k1 = 2 * v1 * v2 * v3 * v4
    k2 = v1**2 * v4**2 * (sp / sm) + v2**2 * v3**2 * (sm / sp)
    return (k1 * (1 - np.cos(x / sp) * np.cos(x / sm))
            - k2 * np.sin(x / sp) * np.sin(x / sm)), vecs


class TestBuildAndValues:
    def test_worked_example_formula(self):
        S = build(EXAMPLE)
        g = gauge_to(S, EXAMPLE_V)
        xs = np.array([0.31, 1.7, np.pi, 2.0 + 0.5j, -4.1 + 0.3j])
        ref = 4j * (1 - np.cos(xs) * np.cos(2 * xs))
        got = S.value(xs) / g
        assert_allclose(got, ref, rtol=1e-12, atol=1e-14)

    def test_worked_example_at_pi(self):
        S = build(EXAMPLE)
        val = complex(S.value(np.array([np.pi]))[0]) / gauge_to(S, EXAMPLE_V)
        assert_allclose(val, 8j, rtol=1e-12)

    def test_worked_example_lattice_zeros(self):
        S = build(EXAMPLE)
        xs = 2 * np.pi * np.arange(1, 5)
        scale = np.exp(np.max(S.logabs(xs + 0.5)))
        assert np.all(np.abs(S.value(xs)) <= 1e-12 * scale)

    def test_identity_reduces_to_sin_squared(self):
        S = build(CMatrix2.real(1, 0, 0, 1))
        xs = np.linspace(0.2, 7, 23) + 0.1j
        g = gauge_to(S, np.eye(2))
        assert_allclose(S.value(xs) / g, -np.sin(xs) ** 2, rtol=1e-12)

    def test_defective_closed_form(self):
        # defective point with repeated eigenvalue 1: in the upper-unitriangular
        # eigenbasis the function is x^2/4 - sin(x)^2 / 4
        S = build(CMatrix2.real(0, -1, 1, 2))
        assert S.kind is EigKind.DEFECTIVE
        g = gauge_to(S, np.array([[1.0, -1.0], [0.0, 1.0]]))
        xs = np.linspace(0.1, 9, 17) + 0.2j
        assert_allclose(S.value(xs) / g, xs**2 / 4 - np.sin(xs) ** 2 / 4,
                        rtol=1e-11)

    def test_value_zero_at_origin(self):
        for A in (EXAMPLE, STREATER, CMatrix2.real(0, -1, 1, 2)):
            S = build(A)
            assert S.value(np.array([0.0]))[0] == 0.0

    def test_evenness_property(self):
        rng = np.random.default_rng(11)
        for A in (EXAMPLE, STREATER, CMatrix2.real(0, -1, 1, 2),
                  CMatrix2(1.1 + 0.4j, -0.3, 0.8, -0.9 + 0.1j)):
            S = build(A)
            lam = rng.standard_normal(1000) * 5 + 1j * rng.standard_normal(1000) * 3
            v1, v2 = S.value(lam), S.value(-lam)
            assert np.all(np.abs(v1 - v2) <= 1e-12 * np.maximum(1, np.abs(v1)))

    def test_branch_flip_invariance(self):
        # the product form with either square-root branch agrees with the
        # built function up to one gauge constant
        rng = np.random.default_rng(12)
        A = CMatrix2(1.3 + 0.2j, 0.4, -0.7, 2.1 - 0.5j)
        S = build(A)
        xs = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        ref, vecs = ref_product_form(A, xs)
        g = gauge_to(S, vecs)
        assert_allclose(S.value(xs), g * ref, rtol=1e-10)

    def test_singular_refused(self):
        with pytest.raises(SingularMatrix):
            build(CMatrix2.real(1, 1, 1, 1))

    def test_conjugate_zero_sets_real_matrix(self):
        # for real coefficients, a point is a zero iff its conjugate is:
        # winding counts over conjugate rectangles agree
        rng = np.random.default_rng(14)
        for A in (CMatrix2.real(0, -1, 1, 2), CMatrix2.real(2, 1, 1, 3),
                  CMatrix2.real(1.5, -1, 1, -2)):
            S = build(A)
            for _ in range(4):
                x0, y0 = rng.uniform(0.5, 8), rng.uniform(0.1, 3)
                box = Rect(x0, x0 + 2.1, y0, y0 + 1.7)
                conj_box = Rect(x0, x0 + 2.1, -(y0 + 1.7), -y0)
                assert winding_count(S, box, rng=rng) == \
                    winding_count(S, conj_box, rng=rng)

    def test_scalar_multiple_gauge_covariance(self):
        # zeros of the secular function of cA sit at sqrt(c) times those of
        # A (the operator spectrum scales by c): the whole function is a
        # constant multiple after rescaling the argument
        A = STREATER
        S1 = build(A)
        S2 = build(A.scaled(4.0))
        xs = np.linspace(0.3, 6, 19)
        v1 = S1.value(xs)
        v2 = S2.value(2.0 * xs)
        ratio = v2[3] / v1[3]
        assert_allclose(v2, ratio * v1, rtol=1e-10)


class TestDerivative:
    @pytest.mark.parametrize("A", [EXAMPLE, STREATER, CMatrix2.real(0, -1, 1, 2)])
    def test_against_central_differences(self, A):
        S = build(A)
        rng = np.random.default_rng(13)
        xs = rng.standard_normal(25) * 4 + 1j * rng.standard_normal(25)
        h = 1e-6 * (1 + np.abs(xs))
        fd = (S.value(xs + h) - S.value(xs - h)) / (2 * h)
        an = S.deriv(xs)
        assert_allclose(an, fd, rtol=1e-6, atol=1e-9 * np.max(np.abs(an)))

    def test_derivative_vanishes_at_origin(self):
        for A in (CMatrix2.real(1, 0, 0, 1), EXAMPLE):
            S = build(A)
            assert abs(S.deriv(np.array([0.0]))[0]) <= 1e-14

    def test_identity_derivative_at_half_pi(self):
        S = build(CMatrix2.real(1, 0, 0, 1))
        # d/dx of -sin^2 = -sin(2x), zero at pi/2
        g = gauge_to(S, np.eye(2))
        assert abs(S.deriv(np.array([np.pi / 2]))[0] / g) <= 1e-13


    @pytest.mark.parametrize("A", [EXAMPLE, CMatrix2.real(0, -1, 1, 2)])
    def test_higher_orders_differentiate_each_other(self, A):
        # polish_multiple runs Newton on orders k and k + 1 of the kernel
        S = build(A)
        xs = np.array([0.7 + 0.2j, 2.9 - 0.4j, 5.1 + 0.1j])
        h = 1e-5
        for k in range(1, 4):
            (lo,), e_lo = S._derivs_scaled(xs - h, (k,))
            (hi,), e_hi = S._derivs_scaled(xs + h, (k,))
            (mid,), e = S._derivs_scaled(xs, (k + 1,))
            fd = (hi * np.exp(e_hi) - lo * np.exp(e_lo)) / (2 * h)
            assert_allclose(mid * np.exp(e), fd, rtol=1e-6,
                            atol=1e-8 * np.max(np.abs(mid * np.exp(e))))
        (val, der), _ = S._derivs_scaled(xs, (0, 1))
        assert_allclose(S.logderiv(xs), der / val, rtol=1e-14)


class TestPolishMultiple:
    def test_double_zero_and_reported_failure(self):
        # the identity's secular function is a multiple of sin^2: double
        # zeros at k pi
        S = build(CMatrix2.real(1, 0, 0, 1))
        z, ok = S.polish_multiple(np.pi + 1e-3, 2)
        assert ok and abs(z - np.pi) <= 1e-14 * np.pi
        # from 1, Newton on the derivative jumps out of its basin
        z, ok = S.polish_multiple(1.0 + 0j, 2)
        assert not ok


class TestScalarInput:
    @pytest.mark.parametrize("A", [EXAMPLE, CMatrix2.real(0, -1, 1, 2)])
    @pytest.mark.parametrize("x", [3.0, 2.3 + 0.4j])
    def test_scalar_matches_one_element_array(self, A, x):
        S = build(A)
        for fn in (S.value, S.deriv, S.logabs, S.logderiv):
            got = fn(x)
            assert np.ndim(got) == 0
            assert got == fn(np.array([x]))[0]
        for fn in (S.eval_scaled, S.deriv_scaled):
            (m, e), (m1, e1) = fn(x), fn(np.array([x]))
            assert np.ndim(m) == 0 and (m, e) == (m1[0], e1[0])


class TestOverflowSafety:
    def test_scaled_evaluation_deep_in_the_plane(self):
        S = build(CMatrix2.real(1, 0, 0, 1))
        x = np.array([3.0 + 700.0j])
        mant, ls = S.eval_scaled(x)
        assert np.isfinite(mant[0]) and np.isfinite(ls[0])
        assert ls[0] > 1000  # |sin^2| ~ e^(1400): unrepresentable directly
        assert np.isfinite(S.logderiv(x)[0])
        assert np.isinf(abs(S.value(x)[0]))  # honest overflow of the raw value

    def test_value_valid_up_to_the_double_range(self):
        S = build(CMatrix2.real(1, 0, 0, 1))
        x = np.array([1.0 + 350.0j])
        v = S.value(x)[0]
        assert np.isfinite(v.real) and np.isfinite(v.imag)
        assert_allclose(v, -np.sin(complex(x[0])) ** 2 * gauge_to(S, np.eye(2)),
                        rtol=1e-10)


class TestScaledTrig:
    def test_matches_complex_cos_sin(self):
        rng = np.random.default_rng(5)
        w = np.concatenate([rng.uniform(-40, 40, 400) + 1j * rng.uniform(-30, 30, 400),
                            rng.uniform(-3, 3, 50) + 1j * rng.uniform(-1e-9, 1e-9, 50),
                            [0.0, 2.5, 1e-300j, -1e-300j, 4.0 - 0.0j]])
        cm, sm, e = _scaled_trig(w)
        assert_allclose(e, np.abs(w.imag), rtol=0, atol=0)
        scale = np.exp(e)
        assert_allclose(cm * scale, np.cos(w), rtol=1e-13, atol=1e-15)
        assert_allclose(sm * scale, np.sin(w), rtol=1e-13, atol=1e-15)

    def test_mantissas_bounded_far_from_the_axis(self):
        w = np.array([1.0 + 800.0j, -2.0 - 900.0j])
        cm, sm, e = _scaled_trig(w)
        assert np.all(np.abs(cm) <= 1.0) and np.all(np.abs(sm) <= 1.0)
        assert_allclose(np.abs(cm), 0.5, rtol=1e-15)
        assert_allclose(np.abs(sm), 0.5, rtol=1e-15)


class TestOrderAtOrigin:
    def test_generic_is_two(self):
        for A in (EXAMPLE, STREATER, CMatrix2.real(1, 0, 0, 4)):
            assert build(A).order_at_origin() == 2

    def test_degenerate_curve_point_is_four(self):
        # eigenvalue-ratio curve point with first entry 0: the quadratic
        # Taylor coefficient cancels identically
        assert build(CMatrix2.real(0, -1, 1, 2.5)).order_at_origin() == 4
        assert build(CMatrix2.real(0, -1, 1, 2)).order_at_origin() == 4

    def test_defective_singleton_is_two(self):
        assert build(CMatrix2.real(0.5, -1, 1, -1.5)).order_at_origin() == 2


class TestFundamentalMatrix:
    def test_identity_at_zero_position(self):
        F = fundamental_matrix(np.diag([2.0, 3.0]), 1.3, 0.0)
        assert_allclose(F, np.eye(4), atol=1e-14)

    def test_nilpotent_limit(self):
        F = fundamental_matrix(np.diag([2.0, 3.0]), 0.0, 0.7)
        expected = np.eye(4)
        expected[:2, 2:] = 0.7 * np.eye(2)
        assert_allclose(F, expected, atol=1e-14)

    def test_unit_jordan_at_pi(self):
        F = fundamental_matrix(np.eye(2), np.pi, 1.0)
        assert_allclose(F, np.diag([-1, -1, -1, -1.0]), atol=1e-12)

    @pytest.mark.parametrize("defective", [False, True])
    def test_against_expm(self, defective):
        rng = np.random.default_rng(21)
        for _ in range(6):
            if defective:
                mu = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
                C = np.array([[mu, 0], [1, mu]])
            else:
                C = np.diag(rng.uniform(0.5, 3, 2) + 1j * rng.uniform(-1, 1, 2))
            lam = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            x = float(rng.uniform(0.1, 1.0))
            B = np.block([[np.zeros((2, 2)), np.eye(2)],
                          [-lam**2 * np.linalg.inv(C), np.zeros((2, 2))]])
            assert_allclose(fundamental_matrix(C, lam, x),
                            scipy.linalg.expm(B * x), atol=1e-11, rtol=1e-10)

    def test_singular_jordan_refused(self):
        from specmat import SingularJordan
        with pytest.raises(SingularJordan):
            fundamental_matrix(np.diag([1.0, 0.0]), 1.0, 0.5)

    def test_cocycle(self):
        rng = np.random.default_rng(22)
        C = np.diag([1.5 + 0.2j, 0.7 - 0.4j])
        lam = 1.1 - 0.6j
        Fx = fundamental_matrix(C, lam, 0.3)
        Fy = fundamental_matrix(C, lam, 0.4)
        Fxy = fundamental_matrix(C, lam, 0.7)
        assert np.linalg.norm(Fxy - Fx @ Fy) <= 1e-10 * np.linalg.norm(Fxy)

    def test_determinant_tracks_secular_function(self):
        rng = np.random.default_rng(23)
        for trial in range(100):
            vals = rng.standard_normal(8)
            A = CMatrix2(complex(vals[0], vals[1]), complex(vals[2], vals[3]),
                         complex(vals[4], vals[5]), complex(vals[6], vals[7]))
            if A.is_singular:
                continue
            S = build(A)
            lams = rng.standard_normal(20) * 3 + 1j * rng.standard_normal(20)
            dets = np.array([boundary_determinant(S, lam) for lam in lams])
            evs = S.value(lams)
            # points too close to a zero lose relative accuracy in the ratio
            mask = np.abs(evs) > 1e-3 * np.max(np.abs(evs))
            ratios = dets[mask] / evs[mask]
            assert np.max(np.abs(ratios - ratios[0])) <= 1e-9 * abs(ratios[0])


class TestNearDefectiveHandoff:
    def test_margin_zone_consistency_check_passes(self):
        # eigenvalue gap inside 10x of the defective threshold but still
        # diagonalizable: the diagonalizable form builds there
        A = CMatrix2.real(1.0, 1.0, 2.25e-17, 1.0)   # gap = 2 sqrt(bc) = 3e-8.5
        S = build(A)
        assert S is not None

    def test_exact_defective_uses_defective_form(self):
        S = build(CMatrix2.real(0, -1, 1, 2))
        assert S.kind is EigKind.DEFECTIVE

    def test_zero_sets_agree_across_the_margin(self):
        # zero counts on a reference box on both sides of the threshold:
        # the defective form and the diagonalizable one just off it
        box = Rect(-0.43, 9.2, -2.2, 2.1)
        rng = np.random.default_rng(7)
        n_def = winding_count(build(CMatrix2.real(1.0, 1.0, 0.0, 1.0)), box, rng=rng)
        n_near = winding_count(build(CMatrix2.real(1.0, 1.0, 1e-13, 1.0)), box, rng=rng)
        assert n_def == n_near


def _mp_root(A, x0):
    """Zero of the product form near x0 at 60 digits, from an mpmath
    eigendecomposition: an independent reference for the eigenvalue x^2."""
    with mpmath.workdps(60):
        M = mpmath.matrix([[mpmath.mpc(A.a), mpmath.mpc(A.b)],
                           [mpmath.mpc(A.c), mpmath.mpc(A.d)]])
        E, V = mpmath.eig(M)
        sp, sm = mpmath.sqrt(E[0]), mpmath.sqrt(E[1])
        v1, v2, v3, v4 = V[0, 0], V[0, 1], V[1, 0], V[1, 1]
        k1 = 2 * v1 * v2 * v3 * v4
        k2 = v1 ** 2 * v4 ** 2 * sp / sm + v2 ** 2 * v3 ** 2 * sm / sp

        def ev(x):
            return (k1 * (1 - mpmath.cos(x / sp) * mpmath.cos(x / sm))
                    - k2 * mpmath.sin(x / sp) * mpmath.sin(x / sm))

        return complex(mpmath.findroot(ev, mpmath.mpc(x0)) ** 2)


class TestNearDefectiveAccuracy:
    """Eigenvalues delta off the defective line |a - d| = 2, where a+ and a-
    coalesce, keep full accuracy: the value has no cancellation there."""

    A_REAL = 0.5511256392525916

    @pytest.mark.parametrize("delta", [1e-4, 1e-7, 1e-10, 1e-13])
    @pytest.mark.parametrize("family", ["real", "complex"])
    def test_matches_mpmath(self, family, delta):
        if family == "real":
            A = CMatrix2.real(self.A_REAL, -1, 1, self.A_REAL + 2 + delta)
        else:
            A = CMatrix2(0.4 + 0.3j, -1, 1, 2.4 + 0.3j + delta)
        vals = [v for v in spectrum(A, count=6).values() if v != 0][:3]
        assert len(vals) == 3
        for v in vals:
            ref = _mp_root(A, np.sqrt(complex(v)))
            assert abs(v - ref) <= 1e-9 * abs(ref), (v, ref)
