import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from specmat import (CMatrix2, InvalidInput, NearSpectrum, NonConverged,
                     ResolutionTooLow, discretize, growth_probe, lambda_curve,
                     oracle_spectrum, resolvent_norm, spectrum)
from specmat import oracle
from specmat.oracle import _band_lu, _canonical_order
from conftest import EXAMPLE, a4, corpus30, dense_matrix

import scipy.linalg
import scipy.sparse.linalg

# real a = -d ties: the discrete spectra are exactly +-(same moduli)
TIES = [CMatrix2.real(1, 0, 1, -1), CMatrix2.real(2, 0, 1, -2),
        CMatrix2.real(0.5, 1, 0, -0.5)]


def lattice(coeffs, kmax=12):
    return sorted({c * k**2 * np.pi**2 for c in coeffs for k in range(kmax)},
                  key=abs)


def loop_assembly(A, n):
    """Reference dense matrix, assembled entry by entry."""
    h = 1.0 / (n + 1)
    ih2 = 1.0 / h ** 2
    m = n + 2
    Dphi = np.zeros((n, n))
    for i in range(n):
        Dphi[i, i] = 2.0 * ih2
        if i > 0:
            Dphi[i, i - 1] = -ih2
        if i < n - 1:
            Dphi[i, i + 1] = -ih2
    Dgam = np.zeros((m, m))
    for i in range(m):
        Dgam[i, i] = 2.0 * ih2
        if i == 0:
            Dgam[i, i + 1] = -2.0 * ih2
        elif i == m - 1:
            Dgam[i, i - 1] = -2.0 * ih2
        else:
            Dgam[i, i - 1] = -ih2
            Dgam[i, i + 1] = -ih2
    Bphi = np.zeros((m, n))
    Bphi[0, 0], Bphi[0, 1], Bphi[0, 2] = 5.0 * ih2, -4.0 * ih2, 1.0 * ih2
    Bphi[m - 1, n - 1], Bphi[m - 1, n - 2], Bphi[m - 1, n - 3] = 5.0 * ih2, -4.0 * ih2, 1.0 * ih2
    Bphi[1:n + 1, :] = Dphi
    M = np.zeros((2 * n + 2, 2 * n + 2), dtype=complex)
    M[:n, :n] = A.a * Dphi
    M[:n, n:] = A.b * Dgam[1:n + 1, :]
    M[n:, :n] = A.c * Bphi
    M[n:, n:] = A.d * Dgam
    return M


def dense_low_end(A, n):
    """Reference low end from dense eigvals of the whole grid: for d = 0
    the +-delta average, paired greedily over the whole spectrum."""
    scale = 1.0 + A.norm()
    if abs(A.d) > 1e-9 * scale:
        ev = scipy.linalg.eigvals(dense_matrix(discretize(A, n)))
    else:
        delta = 1e-3 * scale
        up, dn = (scipy.linalg.eigvals(dense_matrix(discretize(CMatrix2(A.a, A.b, A.c, d), n)))
                  for d in (A.d + delta, A.d - delta))
        up = up[np.argsort(np.abs(up))]
        ev = np.empty_like(up)
        used = np.zeros(dn.size, dtype=bool)
        for i, v in enumerate(up):
            dist = np.abs(dn - v)
            dist[used] = np.inf
            j = int(np.argmin(dist))
            used[j] = True
            ev[i] = 0.5 * (v + dn[j])
    return ev[_canonical_order(ev)]


def spy_eigs(monkeypatch):
    """Record the keyword arguments of every scipy.sparse.linalg.eigs call."""
    asked = []
    eigs = scipy.sparse.linalg.eigs

    def counting(*args, **kwargs):
        asked.append(kwargs)
        return eigs(*args, **kwargs)
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", counting)
    return asked


def spy_band_lu(monkeypatch):
    """Record the size of every band LU factorization the oracle makes."""
    sizes = []
    band_lu = oracle._band_lu

    def counting(disc, shift):
        sizes.append(disc.size)
        return band_lu(disc, shift)
    monkeypatch.setattr(oracle, "_band_lu", counting)
    return sizes


class TestDiscretize:
    def test_diagonal_low_eigenvalues(self):
        disc = discretize(CMatrix2.real(1, 0, 0, 1), 200)
        ev = np.sort(np.abs(scipy.linalg.eigvals(dense_matrix(disc))))
        targets = [0, np.pi**2, np.pi**2, 4 * np.pi**2, 4 * np.pi**2]
        for got, want in zip(ev[:5], targets):
            assert abs(got - want) <= 1e-3 * (1 + want)

    def test_triangular_lattice(self):
        disc = discretize(CMatrix2.real(1, 0, 1, 4), 200)
        ev = scipy.linalg.eigvals(dense_matrix(disc))
        ev = np.sort_complex(ev[np.argsort(np.abs(ev))][:8])
        for got in ev:
            err = min(abs(got - want) for want in lattice((1, 4)))
            assert err <= 1e-3 * (1 + abs(got))

    @pytest.mark.parametrize("A", [CMatrix2.real(1, 0, 0, 4),
                                   CMatrix2.real(1, 0, 1, 4),
                                   CMatrix2.real(0.8, 1, 0, -2)])
    def test_richardson_ratio_second_order(self, A):
        # the discretization error of each low nonzero eigenvalue shrinks
        # by ~4 when the grid is refined 2x
        coarse = discretize(A, 100)
        fine = discretize(A, 200)
        evc = scipy.linalg.eigvals(dense_matrix(coarse))
        evf = scipy.linalg.eigvals(dense_matrix(fine))
        evc = evc[np.argsort(np.abs(evc))]
        evf = evf[np.argsort(np.abs(evf))]
        exact = lattice((A.a.real, A.d.real))
        for j in range(1, 7):
            target = exact[j]
            ec = np.min(np.abs(evc - target))
            ef = np.min(np.abs(evf - target))
            assert 3.5 <= ec / ef <= 4.5, (A, target, ec / ef)

    @pytest.mark.parametrize("n", [8, 37])
    @pytest.mark.parametrize("A", [EXAMPLE, CMatrix2.real(0.8, 1, 0, -2),
                                   a4(0.5, 3.0)])
    def test_assembly_matches_loop_reference(self, A, n):
        disc = discretize(A, n)
        ref = loop_assembly(A, n)
        assert np.array_equal(dense_matrix(disc), ref)

    @pytest.mark.parametrize("n", [8, 37])
    @pytest.mark.parametrize("A", [EXAMPLE, CMatrix2.real(0.8, 1, 0, -2),
                                   a4(0.5, 3.0)])
    def test_band_lu_solves_the_shifted_matrix(self, A, n):
        # pins the interleaved order and the widths (6, 5); a width or a
        # position off by one drops a stored entry from the band
        disc = discretize(A, n)
        shift = 30 + 1j
        T = dense_matrix(disc) - shift * np.eye(disc.size)
        solve = _band_lu(disc, shift)
        rng = np.random.default_rng(n)
        b = rng.standard_normal(disc.size) + 1j * rng.standard_normal(disc.size)
        for trans, op in ((0, T), (2, T.conj().T)):
            assert np.linalg.norm(op @ solve(b, trans) - b) <= 1e-12 * np.linalg.norm(b)

    def test_band_is_read_only(self):
        disc = discretize(EXAMPLE, 20)
        with pytest.raises(ValueError, match="read-only"):
            disc.band[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            disc.band = np.zeros_like(disc.band)

    def test_factoring_leaves_the_band_unchanged(self):
        # the shifts of test_invit_factors_once, on one discretization
        A = CMatrix2.real(1, 0, 1, 1)
        disc = discretize(A, 150)
        band = disc.band.copy()
        rng = np.random.default_rng(5)
        b = rng.standard_normal(disc.size) + 1j * rng.standard_normal(disc.size)
        for z in (30 + 1j, -4.0, 60.0 + 2j):
            solve, fresh = _band_lu(disc, z), _band_lu(discretize(A, 150), z)
            assert np.array_equal(disc.band, band)
            for trans in (0, 2):
                assert np.array_equal(solve(b, trans), fresh(b, trans))

    def test_resolution_floor(self):
        with pytest.raises(ResolutionTooLow):
            discretize(CMatrix2.real(1, 0, 0, 1), 4)

    def test_lattice_value_matches_scalar_stencil(self):
        disc = discretize(CMatrix2.real(1, 0, 0, 1), 100)
        # the discrete image of pi^2 k^2 converges to it
        assert abs(disc.lattice_value(1.0, 3) - 9 * np.pi**2) < 0.1


class TestOracleSpectrum:
    def test_example_matrix_two_resolutions(self):
        lam = np.arccos(complex(-0.5, 0.5))
        disc = discretize(EXAMPLE, 200)
        sp = oracle_spectrum(disc, 8, companion=discretize(EXAMPLE, 100))
        vals = sp.values()
        for target in (0, lam**2, np.conj(lam) ** 2, 4 * np.pi**2):
            rel = np.min(np.abs(vals - target)) / (1 + abs(target))
            assert rel < 1e-2
        assert sp.method == "oracle"
        assert len(sp.residuals) == 8

    def test_diagonal_trivial(self):
        sp = oracle_spectrum(discretize(CMatrix2.real(1, 0, 0, 4), 150), 6)
        for v, _ in sp.eigenvalues:
            err = min(abs(v - want) for want in lattice((1, 4)))
            assert err <= 1e-2 * (1 + abs(v))

    def test_curve_point_negative_eigenvalues(self):
        # the nonzero eigenvalues here are double: the discretization splits
        # each into a pair whose mean converges at second order
        sp = oracle_spectrum(discretize(a4(-1.0, 0.0), 300), 5)
        vals = np.sort(sp.values().real)   # ascending: most negative first
        pair2 = 0.5 * (vals[0] + vals[1])
        pair1 = 0.5 * (vals[2] + vals[3])
        assert_allclose([pair2, pair1],
                        [-16 * np.pi**2 / 3, -4 * np.pi**2 / 3], rtol=3e-3)
        assert abs(vals[4]) < 1e-6

    def test_singular_flag(self):
        sp = oracle_spectrum(discretize(CMatrix2.real(1, 0, 0, 0), 100), 6)
        assert any("not-closed" in n for n in sp.notes)
        sp_ok = oracle_spectrum(discretize(CMatrix2.real(1, 0, 0, 2), 100), 6)
        assert not any("not-closed" in n for n in sp_ok.notes)

    @pytest.mark.parametrize("A, n, k, singular", [
        (a4(-1.0, 0.0), 100, 6, False),
        (CMatrix2.real(1, 2, 2, 4.0001), 100, 6, False),
        (CMatrix2.real(1, 0, 0, 1e-6), 60, 3, False),
        (CMatrix2.real(1, 0, 0, 0), 100, 6, True),
        (CMatrix2.real(1, 1, 1, 1), 100, 6, True)])
    def test_not_closed_exactly_when_singular(self, A, n, k, singular):
        # closed operators whose low end drifts with n or clusters near 0
        # (a double negative pair, a near-singular A, a tiny d) get no note
        assert A.is_singular == singular
        sp = oracle_spectrum(discretize(A, n), k)
        assert any("not-closed" in note for note in sp.notes) == singular

    def test_trust_radius(self):
        with pytest.raises(ResolutionTooLow):
            oracle_spectrum(discretize(CMatrix2.real(1, 0, 0, 1), 20), 40)
        for k in (0, -3):
            with pytest.raises(InvalidInput):
                oracle_spectrum(discretize(CMatrix2.real(1, 0, 1, 4), 40), k)

    @pytest.mark.parametrize("A", TIES + [EXAMPLE])
    def test_diagonal_similarity_invariance(self, A):
        # D A D^-1 with D = diag(1, e^{i phi}) discretizes to a similar
        # matrix, so values and bars must not move.  At a = -d rounding
        # noise puts the negative eigenvalues on either side of the branch
        # cut of the argument.
        ref = oracle_spectrum(discretize(A, 100), 8)
        for phi in np.linspace(0.1, 3.0, 12):
            B = CMatrix2(A.a, A.b * np.exp(-1j * phi), A.c * np.exp(1j * phi), A.d)
            sp = oracle_spectrum(discretize(B, 100), 8)
            assert_allclose(sp.values(), ref.values(), rtol=1e-8, atol=1e-6)
            assert_allclose(sp.residuals, ref.residuals, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("error", [
        scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0),
                                                np.empty((0, 0))),
        scipy.sparse.linalg.ArpackError(-9999)])
    def test_arpack_failure_is_nonconverged(self, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(scipy.sparse.linalg, "eigs", fail)
        with pytest.raises(NonConverged):
            oracle_spectrum(discretize(CMatrix2.real(1, 0, 1, 4), 40), 4)

    def test_exactly_singular_shift_is_nonconverged(self, monkeypatch):
        # zgbtrf's info reports an exactly zero pivot of U
        import scipy.linalg.lapack

        zgbtrf = scipy.linalg.lapack.zgbtrf
        monkeypatch.setattr(scipy.linalg.lapack, "zgbtrf",
                            lambda *args, **kw: zgbtrf(*args, **kw)[:2] + (7,))
        with pytest.raises(NonConverged, match="exactly singular"):
            oracle_spectrum(discretize(CMatrix2.real(1, 0, 1, 4), 40), 3)

    def test_singular_low_end_is_zero(self):
        # rank(M) <= n + 2 for singular A: at least n zero eigenvalues
        A = CMatrix2.real(1, 1, 1, 1)
        sp = oracle_spectrum(discretize(A, 40), 6)
        assert np.all(sp.values() == 0)
        assert any("not-closed" in n for n in sp.notes)
        M = dense_matrix(discretize(A, 40))
        ev = np.sort(np.abs(scipy.linalg.eigvals(M)))
        assert ev[39] <= 1e-8 * np.linalg.norm(M)

    def test_conjugate_symmetry_real_matrix(self):
        M = dense_matrix(discretize(a4(0.0, 2.5), 100))
        ev = scipy.linalg.eigvals(M)
        scale = np.linalg.norm(M, ord="fro")
        for v in ev[np.argsort(np.abs(ev))][:20]:
            assert np.min(np.abs(ev - np.conj(v))) <= 1e-11 * scale

    def test_agreement_with_secular_spectra(self, region_corpus):
        # two-resolution bars: tolerance of 5x the reported estimate plus a
        # small floor covers both first- and second-order convergent modes
        for A in region_corpus[:12]:
            sec = spectrum(A, count=8)
            sec_vals = sec.with_multiplicity()
            disc = discretize(A, 200)
            orc = oracle_spectrum(disc, 6, companion=discretize(A, 100))
            for v, err in zip(orc.values(), orc.residuals):
                gap = np.min(np.abs(sec_vals - v))
                assert gap <= 5 * err + 1e-4 * (1 + abs(v)), (A, v, gap, err)


class TestShiftInvertAgainstDense:
    """The certified low end equals the dense one in canonical order, for
    k = 6 and for the whole resolved quarter, k = size // 4."""

    @pytest.mark.parametrize("n", [100, 200])
    def test_low_end_matches_dense_eigvals(self, region_corpus, n):
        mats = region_corpus + TIES + [CMatrix2(1, 0, np.exp(0.7j), -1),
                                       CMatrix2.real(1, 0, 0, 1)]
        for A in mats:
            disc = discretize(A, n)
            ref = dense_low_end(A, n)
            # a defective zero is resolved only to O(sqrt(eps ||M||)) by
            # either solver; those values are compared against that floor
            zero = 10.0 * np.sqrt(np.finfo(float).eps * np.linalg.norm(dense_matrix(disc)))
            for k in (6, disc.size // 4):
                got = oracle_spectrum(disc, k).values()
                want = ref[:k]
                gap = np.abs(got - want)
                both_zero = (np.abs(got) <= zero) & (np.abs(want) <= zero)
                assert np.all(both_zero | (gap <= 1e-8 * (1 + np.abs(want)))), (A, n, k)

    def test_doubling_until_certified(self, monkeypatch):
        # a near-singular A puts a cluster of ~n tiny eigenvalues around 0:
        # the 8, 16 and 32 values nearest the shift do not certify the low
        # end, and the request doubles from its start of k + 2, at both
        # resolutions, each on one band factorization
        A = CMatrix2.real(1, 2, 2, 4.0001)
        asked = spy_eigs(monkeypatch)
        factored = spy_band_lu(monkeypatch)
        got = oracle_spectrum(discretize(A, 100), 6).values()
        assert [kw["k"] for kw in asked] == [8, 16, 32, 64] * 2
        assert factored == [202, 102]
        assert_allclose(got, dense_low_end(A, 100)[:6], rtol=1e-8, atol=1e-10)


class TestOracleCost:
    """An oracle_spectrum call at k = 6 makes one shift-invert Arnoldi call
    per resolution, each for k + 2 = 8 values at Ritz tolerance 1e-12, and
    none of them has to double."""

    @pytest.mark.parametrize("A", [CMatrix2.real(1, 0, 1, 4),
                                   lambda_curve(3, 2, +1, 0.5).matrix()],
                             ids=["triangular", "a4-curve"])
    def test_one_request_per_resolution(self, monkeypatch, A):
        asked = spy_eigs(monkeypatch)
        oracle_spectrum(discretize(A, 200), 6, companion=discretize(A, 100))
        assert [(kw["k"], kw["tol"]) for kw in asked] == [(8, 1e-12)] * 2

    def test_corpus_never_doubles(self, monkeypatch):
        asked = spy_eigs(monkeypatch)
        for A in corpus30():
            oracle_spectrum(discretize(A, 200), 6, companion=discretize(A, 100))
        assert asked and all(kw["k"] == 8 for kw in asked)


class TestResolventNorm:
    def test_self_adjoint_distance_formula(self):
        disc = discretize(CMatrix2.real(1, 0, 0, 1), 200)
        assert_allclose(resolvent_norm(disc, -1.0), 1.0, rtol=5e-2)
        for z in (-4.0, 20 + 5j, 60.0):
            dist = min(abs(z - v) for v in lattice((1, 1), 20))
            if dist >= 1:
                assert_allclose(resolvent_norm(disc, z), 1 / dist, rtol=5e-2)

    def test_invit_matches_svd(self):
        disc = discretize(CMatrix2.real(1, 0, 1, 1), 150)
        z = 30 + 1j
        n_svd = 1.0 / scipy.linalg.svdvals(dense_matrix(disc) - z * np.eye(disc.size))[-1]
        assert_allclose(resolvent_norm(disc, z), n_svd, rtol=1e-6)

    def test_invit_factors_once(self, monkeypatch):
        disc = discretize(CMatrix2.real(1, 0, 1, 1), 150)
        factored = spy_band_lu(monkeypatch)
        for z in (30 + 1j, -4.0, 60.0 + 2j):
            resolvent_norm(disc, z)
        assert factored == [disc.size] * 3

    @pytest.mark.parametrize("z", [1e200, 1e300])
    def test_far_probe_point(self, z):
        # sigma_min(S - z I) = |z| to ||S|| / |z|, while sigma_min^-2 would
        # underflow without the power-of-two scaling of the solves
        disc = discretize(CMatrix2.real(1, 0, 0, 1), 29)
        assert resolvent_norm(disc, z) == pytest.approx(1.0 / z, rel=1e-12)

    def test_near_spectrum_guard(self):
        disc = discretize(CMatrix2.real(1, 0, 0, 1), 100)
        ev = scipy.linalg.eigvals(dense_matrix(disc))
        ev = ev[np.argsort(np.abs(ev))]
        with pytest.raises(NearSpectrum):
            resolvent_norm(disc, complex(ev[1]) + 1e-13)
        # constant gamma is an exact null vector: the factorization itself
        # finds a zero pivot
        with pytest.raises(NearSpectrum, match="exactly singular"):
            resolvent_norm(disc, 0.0)

    @pytest.mark.parametrize("error", [
        scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0),
                                                np.empty((0, 0))),
        scipy.sparse.linalg.ArpackError(-9999)])
    def test_arpack_failure_is_nonconverged(self, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
        with pytest.raises(NonConverged):
            resolvent_norm(discretize(CMatrix2.real(1, 0, 1, 1), 40), 30 + 1j)

    def test_whole_real_line_regime_stays_bounded(self):
        # similarity to self-adjoint predicts k / dist(z, R) behaviour
        disc = discretize(a4(2.0, -1.0), 200)
        for re in (0.0, 40.0, 120.0, 300.0):
            assert resolvent_norm(disc, re + 1j) <= 30.0


class TestGrowthProbe:
    def test_jordan_type_growth(self):
        probe = growth_probe(CMatrix2.real(1, 0, 1, 1), 1.0, range(2, 7), n=150)
        assert probe.slope("coarse") >= 0.4
        assert probe.slope("fine") >= 0.4
        norms = [r.norm_2n for r in probe.rows]
        assert all(x < y for x, y in zip(norms, norms[1:]))

    def test_upper_triangular_growth(self):
        probe = growth_probe(CMatrix2.real(1, 1, 0, 1), 1.0, range(2, 7), n=150)
        assert probe.slope("fine") >= 0.4

    def test_diagonal_flat(self):
        probe = growth_probe(CMatrix2.real(1, 0, 0, 1), 1.0, range(2, 7), n=150)
        assert abs(probe.slope("fine")) <= 0.05
        for row in probe.rows:
            assert_allclose(row.norm_2n, 1.0, rtol=5e-3)

    def test_self_adjoint_matches_dense_svd(self):
        # the Dirichlet and Neumann lattices of a self-adjoint A differ only
        # by O(h^2), so the two smallest singular values nearly coincide
        A = CMatrix2.real(1, 0, 0, 1)
        probe = growth_probe(A, 1.0, range(2, 7), n=300)
        for n, attr in ((300, "norm_n"), (600, "norm_2n")):
            disc = discretize(A, n)
            for row in probe.rows:
                z = disc.lattice_value(1.0, 2 * row.r) + 1j
                ref = 1.0 / scipy.linalg.svdvals(dense_matrix(disc) - z * np.eye(disc.size))[-1]
                assert_allclose(getattr(row, attr), ref, rtol=1e-9)

    def test_continuum_anchor_available(self):
        probe = growth_probe(CMatrix2.real(1, 0, 0, 1), 1.0, range(2, 4),
                             n=100, anchor="continuum")
        assert probe.anchor == "continuum"
        assert len(probe.rows) == 2
