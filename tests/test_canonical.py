import numpy as np
import pytest
from numpy.testing import assert_allclose

from specmat import (CMatrix2, Family, InvalidInput, LocusKind, NonRealInput, RegionTag,
                     SingularMatrix, a4_eigs, classify_region, family_matrix,
                     perturbation_coeffs, predict, reduce_real,
                     similarity_certificates, spectrum)
from conftest import EXAMPLE, STREATER, a4


class TestReduceReal:
    def test_streater(self):
        form = reduce_real(STREATER)
        assert form.family is Family.A1
        assert_allclose(form.alpha, np.sqrt(0.5), rtol=1e-14)
        assert_allclose(form.a, np.sqrt(2), rtol=1e-14)
        assert_allclose(form.d, np.sqrt(2), rtol=1e-14)
        assert_allclose(form.r, np.sqrt(2), rtol=1e-14)

    def test_diagonal(self):
        form = reduce_real(CMatrix2.real(3, 0, 0, -2))
        assert form.family is Family.A0
        assert (form.alpha, form.a, form.d) == (1.0, 3.0, -2.0)

    def test_rotation(self):
        form = reduce_real(CMatrix2.real(0, -1, 1, 0))
        assert form.family is Family.A4
        assert form.sign == +1
        assert (form.alpha, form.a, form.d) == (1.0, 0.0, 0.0)

    def test_negative_antisymmetric_branch(self):
        A = CMatrix2.real(0.5, 2.0, -0.5, -1.0)   # b/c < 0 with c < 0
        form = reduce_real(A)
        assert form.family is Family.A4 and form.sign == -1
        assert_allclose(form.reconstruct(), A.as_array().real, atol=1e-14)

    @pytest.mark.parametrize("b,c,family", [(0, 3.0, Family.A2), (-2.0, 0, Family.A3)])
    def test_triangular(self, b, c, family):
        form = reduce_real(CMatrix2.real(1.2, b, c, -0.4))
        assert form.family is family
        assert form.alpha == 1.0
        assert_allclose(form.reconstruct(),
                        CMatrix2.real(1.2, b, c, -0.4).as_array().real, atol=1e-13)

    def test_round_trip_random(self):
        rng = np.random.default_rng(51)
        for _ in range(10_000):
            A = CMatrix2.real(*rng.standard_normal(4) * rng.choice([0.3, 1, 5]))
            form = reduce_real(A)
            err = np.linalg.norm(form.reconstruct() - A.as_array().real)
            assert err <= 1e-12 * max(A.norm(), 1e-12)

    def test_complex_rejected(self):
        with pytest.raises(NonRealInput):
            reduce_real(EXAMPLE)


class TestRegions:
    @pytest.mark.parametrize("a,d,tag", [
        (0.0, 2.0, RegionTag.R1), (-1.0, 1.0, RegionTag.R6),
        (3.0, 2.0, RegionTag.R5), (2.0, -1.0, RegionTag.R2),
        (0.5, 3.0, RegionTag.R3), (-0.5, -3.0, RegionTag.R4),
        (1.0, 3.0, RegionTag.BOUNDARY), (-1.0, -3.0, RegionTag.BOUNDARY),
        # R6 is where the A4 matrix is singular: not within an absolute
        # 1e-9 of ad = -1 (this one is closed), but relative to its norm
        (0.5, -1.9999999999, RegionTag.R4), (1e4, -1.0000001e-4, RegionTag.R6),
    ])
    def test_examples(self, a, d, tag):
        assert classify_region(a, d).tag is tag

    def test_partition_random(self):
        rng = np.random.default_rng(52)
        pts = rng.uniform(-5, 5, size=(100_000, 2))
        for a, d in pts:
            region = classify_region(a, d)
            tag = region.tag
            if tag is RegionTag.R2:
                assert a * d < -1
            elif tag is RegionTag.R3:
                assert a * d > -1 and abs(a - d) > 2 and a + d > 0
            elif tag is RegionTag.R4:
                assert a * d > -1 and abs(a - d) > 2 and a + d < 0
            elif tag is RegionTag.R5:
                assert abs(a - d) < 2
            elif tag in (RegionTag.R1, RegionTag.R6, RegionTag.BOUNDARY):
                assert min(abs(abs(a - d) - 2), abs(a * d + 1)) <= 1e-9

    def test_a4_eigs_examples(self):
        assert_allclose(a4_eigs(0, 2), (1, 1), atol=1e-14)
        bp, bm = a4_eigs(-1, 0)
        assert_allclose(bp, (-1 + 1j * np.sqrt(3)) / 2, atol=1e-14)
        assert_allclose(bm, (-1 - 1j * np.sqrt(3)) / 2, atol=1e-14)
        assert_allclose(a4_eigs(0, 0), (1j, -1j), atol=1e-14)

    def test_a4_product_identity(self):
        rng = np.random.default_rng(53)
        for _ in range(10_000):
            a, d = rng.uniform(-6, 6, 2)
            bp, bm = a4_eigs(a, d)
            assert abs(bp * bm - (a * d + 1)) <= 1e-12 * (1 + a * a + d * d)


class TestPredict:
    def test_triangular_lattice(self):
        pred = predict(CMatrix2.real(1, 0, 1, 4))
        assert pred.locus.kind is LocusKind.LATTICE
        vals = np.array(pred.locus.values)
        for target in (np.pi**2, 4 * np.pi**2, 16 * np.pi**2):
            assert min(abs(vals - target)) <= 1e-9

    def test_lattice_size_is_capped(self):
        pred = predict(CMatrix2.real(1, 0, 0, 2), lambda_max=1e6)
        vals = np.array(pred.locus.values)
        assert vals.size == len(set(pred.locus.values))
        assert np.all(np.diff(np.abs(vals)) >= 0) and np.max(np.abs(vals)) <= 1e6
        with pytest.raises(InvalidInput):
            predict(CMatrix2.real(1, 0, 0, 2), lambda_max=1e24)

    def test_defective_singleton(self):
        for A in (a4(0.5, -1.5), a4(-0.5, 1.5), CMatrix2.real(1, -2, 2, -3)):
            assert predict(A).locus.kind is LocusKind.SINGLETON_0

    def test_real_curve_formula(self):
        pred = predict(a4(-1.0, 0.0))
        assert pred.locus.kind is LocusKind.REAL_WITH_FORMULA
        vals = sorted(v.real for v in pred.locus.values)[::-1]
        expect = [-4 * np.pi**2 / 3 * k * k for k in range(5)]
        assert_allclose(vals[:5], expect, rtol=1e-12, atol=1e-9)

    def test_singular_whole_plane(self):
        pred = predict(CMatrix2.real(1, 1, 1, 1))
        assert pred.locus.kind is LocusKind.WHOLE_PLANE

    def test_symmetric_family_halflines(self):
        pred = predict(STREATER)  # ad > 1, entries positive
        assert pred.locus.kind is LocusKind.NONNEG_HALF_LINE
        pred_neg = predict(CMatrix2.real(-1, -1, -0.5, -1))
        assert pred_neg.locus.kind is LocusKind.NONPOS_HALF_LINE
        pred_real = predict(CMatrix2.real(2, 1, 1, -3))  # ad < 1
        assert pred_real.locus.kind is LocusKind.REAL_LINE

    def test_whole_real_line_regime(self):
        pred = predict(a4(2.0, -1.0))
        assert pred.locus.kind is LocusKind.REAL_LINE

    def test_band_with_sector(self):
        pred = predict(a4(1.0, 4.0))
        assert pred.locus.kind is LocusKind.PARABOLIC_BAND
        assert pred.sector is not None
        omega = pred.sector.omega
        assert_allclose(np.sin(omega), 1 / np.sqrt(5), rtol=1e-12)

    def test_reflection_symmetry(self):
        for a, d in [(1.0, 4.0), (0.3, 1.1), (2.0, -1.0), (0.0, 2.0)]:
            p_pos = predict(a4(a, d))
            p_neg = predict(a4(-a, -d))
            z = 3.1 + 0.7j
            assert_allclose(p_neg.distance(-z), p_pos.distance(z), atol=1e-9)

    def test_region_recorded(self):
        pred = predict(a4(0.5, 3.0))
        assert pred.region is not None and pred.region.tag is RegionTag.R3
        assert pred.theorems

    def test_containment_against_computed_spectra(self, region_corpus):
        for A in region_corpus:
            if not A.is_real:
                continue
            pred = predict(A)
            if pred.locus.kind in (LocusKind.WHOLE_PLANE,):
                continue
            sp = spectrum(A, count=6)
            for v, _ in sp.eigenvalues:
                assert pred.distance(v) <= 1e-6 * (1 + abs(v)), (A, v, pred.locus)

    @pytest.mark.parametrize("a,d,count", [
        # next to the singleton and the real-spectrum curve, where the
        # secular function keeps every cosine term
        (0.5 + 1e-10, -1.5 + 1e-10, 6),
        (-0.9, (0.81 - 1) / -0.9 + 1e-10, 40),
    ])
    def test_containment_next_to_special_points(self, a, d, count):
        pred = predict(a4(a, d))
        for v, _ in spectrum(a4(a, d), count=count).eigenvalues:
            if abs(v) <= 0.95 * 400 * np.pi ** 2:    # the lattice's default bound
                assert pred.distance(v) <= 1e-6 * (1 + abs(v)), (v, pred.locus.kind)

    def test_scaled_matrix_scales_values(self):
        base = predict(CMatrix2.real(1, 0, 1, 4))
        scaled = predict(CMatrix2.real(2, 0, 2, 8))
        assert_allclose(sorted(v.real for v in scaled.locus.values)[:8],
                        [2 * v for v in sorted(v.real for v in base.locus.values)[:8]],
                        rtol=1e-9, atol=1e-9)


class TestPerturbationCoeffs:
    def test_identity(self):
        mu1, mu2 = perturbation_coeffs(CMatrix2.real(1, 0, 0, 1))
        assert mu1 == 1 and mu2 is None

    def test_streater(self):
        mu1, mu2 = perturbation_coeffs(STREATER)
        assert_allclose(mu1, 2.0, rtol=1e-14)
        assert mu2 is None

    def test_offdiagonal_second_order(self):
        mu1, mu2 = perturbation_coeffs(CMatrix2.real(0, 1, 1, 0))
        assert mu1 == 0
        # independent oracle: direct summation of 8/(bc pi^4 (2m-1)^4)
        m = np.arange(1, 200_000)
        series = np.sum(8.0 / (np.pi**4 * (2 * m - 1.0) ** 4))
        assert_allclose(mu2, -series, rtol=1e-12)
        assert_allclose(mu2, -1.0 / 12.0, rtol=1e-12)

    def test_random_inverse_entry(self):
        rng = np.random.default_rng(54)
        for _ in range(100):
            A = CMatrix2(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
            if A.is_singular:
                continue
            mu1, _ = perturbation_coeffs(A)
            inv = np.linalg.inv(A.as_array())
            assert abs(mu1 - inv[1, 1]) <= 1e-12 * (1 + abs(mu1))

    def test_singular_refused(self):
        with pytest.raises(SingularMatrix):
            perturbation_coeffs(CMatrix2.real(0, 0, 1, 1))

    def test_at_least_one_nonzero(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            A = CMatrix2.real(*rng.standard_normal(4))
            if A.is_singular:
                continue
            mu1, mu2 = perturbation_coeffs(A)
            assert abs(mu1) > 0 or abs(mu2) > 0


class TestCertificates:
    def test_streater_symmetrizable(self):
        certs = {c.kind: c for c in similarity_certificates(STREATER)}
        cert = certs["DiagonalSymmetrizable"]
        B = cert.B
        H = np.linalg.inv(B) @ STREATER.as_array() @ B
        assert np.linalg.norm(H - H.conj().T) <= 1e-12
        eigs = np.linalg.eigvalsh(H)
        assert_allclose(sorted(eigs), [1 - 1 / np.sqrt(2), 1 + 1 / np.sqrt(2)],
                        rtol=1e-10)

    def test_positive_diagonal(self):
        certs = {c.kind: c for c in similarity_certificates(CMatrix2.real(3, 0, 0, 2))}
        assert "DiagonalSymmetrizable" in certs
        assert_allclose(certs["DiagonalSymmetrizable"].B, np.eye(2))

    def test_triangular_near_real(self):
        certs = {c.kind: c for c in similarity_certificates(CMatrix2.real(1, 0, 1, -2))}
        cert = certs["NearReal"]
        assert cert.omega < 0.1
        # witness: ||A(r) B - I|| = r |c/a| for this family
        r = cert.similarity_r
        Ar = np.diag([1, r]) @ CMatrix2.real(1, 0, 1, -2).as_array() @ np.diag([1, 1 / r])
        assert_allclose(np.linalg.norm(Ar @ cert.B - np.eye(2), 2), cert.residual,
                        rtol=1e-10)

    def test_triangular_not_symmetrizable(self):
        kinds = {c.kind for c in similarity_certificates(CMatrix2.real(1, 0, 1, 2))}
        assert "DiagonalSymmetrizable" not in kinds
        assert "SectorBound" in kinds

    def test_sector_bound_covers_numerical_range(self):
        certs = {c.kind: c for c in similarity_certificates(a4(3.0, 1.0))}
        cert = certs["SectorBound"]
        alpha, beta = cert.sector
        assert beta - alpha < np.pi

    def test_singular_refused(self):
        with pytest.raises(SingularMatrix):
            similarity_certificates(CMatrix2.real(1, 1, 1, 1))


def _range_boundary(M, n):
    """n points on the boundary of the numerical range of the 2x2 array M:
    for each direction t, ``x* M x`` at the top eigenvector x of the
    Hermitian part of ``exp(-it) M`` (closed form for 2x2)."""
    e = np.exp(-1j * np.linspace(0.0, 2 * np.pi, n, endpoint=False))
    p, s = (e * M[0, 0]).real, (e * M[1, 1]).real
    q = 0.5 * (e * M[0, 1] + np.conj(e * M[1, 0]))
    lam = 0.5 * (p + s) + np.hypot(0.5 * (p - s), np.abs(q))
    x1, x2 = np.stack([q, lam - p]), np.stack([lam - s, np.conj(q)])
    x = np.where(np.sum(np.abs(x1) ** 2, 0) >= np.sum(np.abs(x2) ** 2, 0), x1, x2)
    return np.sum(x.conj() * (M @ x), 0) / np.sum(np.abs(x) ** 2, 0)


def _sector_corpus(n=60, seed=20261018):
    """Seeded real and complex matrices whose balanced conjugate keeps the
    origin outside its numerical range: diagonal entries in a right-half
    sector, off-diagonal product a fraction of ``|ad|``."""
    rng = np.random.default_rng(seed)
    mats = []
    for k in range(n):
        diag, off = rng.uniform(0.5, 3.0, 2), rng.standard_normal(2)
        if k % 2:
            diag = diag * np.exp(1j * rng.uniform(-0.7, 0.7, 2))
            off = off * np.exp(1j * rng.uniform(-np.pi, np.pi, 2))
        off = off * rng.uniform(0.1, 0.6) * np.sqrt(abs(diag[0] * diag[1] / (off[0] * off[1])))
        mats.append(CMatrix2(diag[0], off[0], off[1], diag[1]))
    return mats


class TestExactCertificates:
    def test_sector_contains_sampled_numerical_range(self):
        for A in _sector_corpus():
            cert = {c.kind: c for c in similarity_certificates(A)}["SectorBound"]
            M = np.linalg.inv(cert.B) @ A.as_array() @ cert.B
            z = _range_boundary(M, 100_000)
            alpha, beta = cert.sector
            excess = np.abs(np.angle(z * np.exp(-0.5j * (alpha + beta)))) - 0.5 * (beta - alpha)
            assert np.max(excess) <= 1e-12, (A, np.max(excess))

    @pytest.mark.parametrize("a,d", [(3.0, 1.0), (4.0, 1.0), (0.5, 3.0), (1.0, 1.0),
                                     (2.0, 0.1), (0.2, 5.0)])
    def test_a4_sector_half_angle(self, a, d):
        cert = {c.kind: c for c in similarity_certificates(a4(a, d))}["SectorBound"]
        omega = np.arcsin(1.0 / np.sqrt(a * d + 1.0))
        assert_allclose(cert.sector, (-omega, omega), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("b", [1.0, 1e-2, 1e-4])
    def test_near_real_optimum(self, b):
        A = CMatrix2(1.0, b, 0.3 * np.exp(0.4j) / b, 1.0)
        certs = {c.kind: c for c in similarity_certificates(A)}
        assert {"SectorBound", "NearReal"} <= set(certs)
        assert_allclose(certs["NearReal"].residual, np.sqrt(0.3), rtol=0, atol=1e-12)
