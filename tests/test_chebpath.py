import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from specmat import (DegreeTooHigh, OutOfDomain, Rect, RegionTag, build,
                     build_g, cheb_spectrum, classify_region, lambda_curve,
                     level_curve_d, spectrum, winding_count)


class TestLevelCurve:
    def test_alpha_3_at_zero(self):
        assert_allclose(level_curve_d(3.0, +1, 0.0), 10.0 / 3.0, rtol=1e-12)

    def test_alpha_2_at_zero(self):
        pt = lambda_curve(2, 1, +1, 0.0)
        assert_allclose(pt.d, 2.5, rtol=1e-14)
        assert_allclose((pt.b_plus, pt.b_minus), (2.0, 0.5), rtol=1e-12)

    def test_alpha_nine_eighths(self):
        pt = lambda_curve(9, 8, +1, -0.5)
        assert_allclose(pt.d, 1.5035, atol=5e-5)

    def test_ratio_identity_along_curves(self):
        for p, q, sign in [(2, 1, +1), (3, 2, +1), (7, 4, -1)]:
            lo = -0.9 if sign > 0 else 1.05
            for a in np.linspace(lo, lo + 4, 100):
                pt = lambda_curve(p, q, sign, float(a))
                assert abs(np.sqrt(pt.b_plus / pt.b_minus) - p / q) <= 1e-10 * (1 + p / q)
                assert classify_region(pt.a, pt.d).tag is RegionTag.R3

    def test_fraction_reduced(self):
        pt = lambda_curve(4, 2, +1, 0.0)
        assert (pt.p, pt.q) == (2, 1)

    @pytest.mark.parametrize("p,q,sign,a", [
        (1, 1, +1, 0.0),      # ratio not > 1
        (2, 1, +1, -1.0),     # at the domain edge
        (2, 1, -1, 0.5),      # lower branch needs a > 1
    ])
    def test_out_of_domain(self, p, q, sign, a):
        with pytest.raises(OutOfDomain):
            lambda_curve(p, q, sign, a)


class TestBuildG:
    def test_cubic_at_origin_point(self):
        g = build_g(lambda_curve(2, 1, +1, 0.0))
        assert g.degree == 6
        # G(w) = (w-1)^2 (w+2) in the gauge of the secular function; in
        # zeta it is (zeta-1)^4 (zeta^2 + 4 zeta + 1)
        assert_allclose(g.coeffs / g.coeffs[0], [1, 0, -9, 16, -9, 0, 1], atol=1e-12)

    def test_g_at_one_always_zero(self):
        for p, q, a in [(2, 1, 0.3), (3, 2, -0.4), (5, 4, 1.7), (7, 2, 0.0)]:
            g = build_g(lambda_curve(p, q, +1, a))
            assert abs(g(1.0)) <= 1e-10 * np.abs(g.coeffs).sum()

    @pytest.mark.parametrize("p,q,sign,a", [(2, 1, +1, 0.6), (3, 2, +1, -0.5),
                                            (5, 2, +1, 1.2), (4, 1, -1, 2.0)],
                             ids=["2-1-0.6", "3-2--0.5", "5-2-1.2", "4-1-lower-2.0"])
    def test_secular_identity_sampled(self, p, q, sign, a):
        # gauge-free: P is built from the secular function's own coefficients
        pt = lambda_curve(p, q, sign, a)
        g = build_g(pt)
        S = build(pt.matrix())
        rng = np.random.default_rng(61)
        xs = rng.uniform(0.3, 12, 50) + 1j * rng.uniform(-1, 1, 50)
        zeta = np.exp(1j * xs / (pt.q * np.sqrt(pt.b_plus)))
        lhs = S.value(xs)
        rhs = zeta ** -(p + q) * g(zeta)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))

    def test_degree_is_p_plus_q(self):
        # 2(p+q), with five nonzero coefficients
        g = build_g(lambda_curve(3, 2, +1, -0.5))
        assert g.degree == 10 and np.count_nonzero(g.coeffs) == 5

    def test_logderiv_in_z(self):
        # d/dz log P(e^{iz}) against a central difference of log P, and far
        # below the real axis (|zeta| = e^40, degree 60) finite, with P
        # dominated there by its leading term c1/2 zeta^60
        g = build_g(lambda_curve(17, 13, +1, 0.4))
        z = np.array([0.7 + 0.3j, 2.9 - 0.2j])
        h = 1e-6
        diff = (np.log(g(np.exp(1j * (z + h)))) - np.log(g(np.exp(1j * (z - h))))) / (2 * h)
        assert_allclose(g.logderiv(z), diff, rtol=1e-8)
        with np.errstate(over="raise"):
            far = g.logderiv(np.array([1.0 - 40j]))
        assert_allclose(far, 1j * g.degree, rtol=1e-12)


def _agreement(pt, count=25):
    """Worst relative gap between cheb_spectrum and spectrum(count=25),
    both ways, over the moduli below spectrum's largest."""
    sp_r = spectrum(pt.matrix(), count=count)
    r = sp_r.values()
    edge = 0.999 * np.max(np.abs(r))
    n_max = int(np.ceil(np.sqrt(edge) / (2 * np.pi * pt.q * np.sqrt(pt.b_plus)))) + 2
    sp_c = cheb_spectrum(pt, n_max)
    c = sp_c.values()
    worst = 0.0
    for got, ref in ((c[np.abs(c) < edge], r), (r[np.abs(r) < edge], c)):
        for v in got[got != 0]:
            worst = max(worst, np.min(np.abs(ref - v)) / abs(v))
    assert sp_c.analytic_order_at_zero == sp_r.analytic_order_at_zero
    return worst


def _real_spectrum_a(p, q):
    """The a at which the level curve p/q meets a^2 - ad - 1 = 0."""
    import scipy.optimize

    def off_curve(a):
        pt = lambda_curve(p, q, +1, a)
        return pt.a ** 2 - pt.a * pt.d - 1.0
    return scipy.optimize.brentq(off_curve, -0.9, 0.0, xtol=1e-16)


def _high_degree_sample():
    """Eight seeded curve points with coprime 20 < p+q <= 32, every other
    one on the a = 0 line."""
    ratios = [(p, q) for p in range(11, 32) for q in range(1, p)
              if 20 < p + q <= 32 and math.gcd(p, q) == 1]
    rng = np.random.default_rng(16)
    return [(*ratios[i], 0.0 if k % 2 == 0 else round(float(rng.uniform(-0.8, 1.8)), 4))
            for k, i in enumerate(rng.choice(len(ratios), 8, replace=False))]


class TestChebSpectrum:
    def test_agrees_with_contour_search(self):
        pt = lambda_curve(2, 1, +1, 0.6)
        sp_c = cheb_spectrum(pt, 4, lambda2_max=250.0)
        sp_r = spectrum(pt.matrix(), count=10)
        vals_r = sp_r.values()
        for v, _ in sp_c.eigenvalues:
            if abs(v) > 200:
                continue
            gap = np.min(np.abs(vals_r - v))
            assert gap <= 1e-7 * (1 + abs(v)), (v, gap)

    def test_random_points_match_contour_search(self):
        # both routes produce the same eigenvalue set in the window
        rng = np.random.default_rng(63)
        ratios = [(2, 1), (3, 2), (4, 3), (5, 4), (5, 2), (4, 1), (3, 1),
                  (5, 3), (7, 2), (8, 1)]
        count = 0
        while count < 20:
            p, q = ratios[count % len(ratios)]
            a = float(rng.uniform(-0.8, 1.8))
            pt = lambda_curve(p, q, +1, a)
            n_max = int(np.ceil(14.2 / (2 * np.pi * pt.q * np.sqrt(pt.b_plus)))) + 2
            c_vals = np.array([v for v, _ in cheb_spectrum(pt, n_max).eigenvalues
                               if abs(v) <= 200])
            r_vals = np.array([v for v, _ in
                               spectrum(pt.matrix(),
                                        lambda_rect=Rect(0.0, 14.5, -14.47, 14.53)
                                        ).eigenvalues if abs(v) <= 200])
            for v in c_vals:
                assert np.min(np.abs(r_vals - v)) <= 1e-7 * (1 + abs(v))
            for v in r_vals:
                assert np.min(np.abs(c_vals - v)) <= 1e-7 * (1 + abs(v))
            count += 1

    def test_every_ratio_on_the_a0_line(self):
        # on a = 0 the root w = 1 of G is double and the lattice zeros are
        # quadruple: both routes must still agree, and the orders at 0 too
        ratios = [(p, q) for p in range(2, 20) for q in range(1, p)
                  if p + q <= 20 and math.gcd(p, q) == 1]
        assert len(ratios) == 63
        for p, q in ratios:
            pt = lambda_curve(p, q, +1, 0.0)
            n_max = int(np.ceil(14.2 / (2 * np.pi * pt.q * np.sqrt(pt.b_plus)))) + 2
            cheb = cheb_spectrum(pt, n_max)
            assert cheb.analytic_order_at_zero == build(pt.matrix()).order_at_origin()
            c_vals = np.array([v for v, _ in cheb.eigenvalues if abs(v) <= 200])
            r_vals = np.array([v for v, _ in
                               spectrum(pt.matrix(),
                                        lambda_rect=Rect(0.0, 14.5, -14.47, 14.53)
                                        ).eigenvalues if abs(v) <= 200])
            for v in c_vals:
                assert np.min(np.abs(r_vals - v)) <= 1e-7 * (1 + abs(v)), (p, q, v)
            for v in r_vals:
                assert np.min(np.abs(c_vals - v)) <= 1e-7 * (1 + abs(v)), (p, q, v)

    @pytest.mark.parametrize("p,q,a,band", [
        pytest.param(2, 1, 2e-5, (2e-5, 1e-4), id="2-1-2e-05"),
        pytest.param(3, 2, 5e-5, (2e-5, 1e-4), id="3-2-5e-05"),
        pytest.param(3, 1, -2e-5, (2e-5, 1e-4), id="3-1--2e-05"),
        # |delta| below the clustering radius 1e-5 (1 + |w|)
        pytest.param(2, 1, 3e-6, (5e-6, 2e-5), id="2-1-3e-06"),
        pytest.param(2, 1, 1e-6, (1e-6, 5e-6), id="2-1-1e-06"),
    ])
    def test_near_the_a0_line(self, p, q, a, band):
        # G keeps its root 1 and has a second simple root 1 + delta with
        # |delta| in the band: the lattice of 1 + delta (its n = 0
        # eigenvalue has modulus about 2 |delta| (q sqrt(b+))^2) must stay
        pt = lambda_curve(p, q, +1, a)
        step2 = pt.q ** 2 * pt.b_plus
        n_max = int(np.ceil(14.2 / (2 * np.pi * pt.q * np.sqrt(pt.b_plus)))) + 2
        c_vals = np.array([v for v, _ in cheb_spectrum(pt, n_max).eigenvalues
                           if abs(v) <= 200])
        r_vals = np.array([v for v, _ in
                           spectrum(pt.matrix(),
                                    lambda_rect=Rect(0.0, 14.5, -14.47, 14.53)
                                    ).eigenvalues if abs(v) <= 200])
        small = c_vals[(np.abs(c_vals) > 1e-9) & (np.abs(c_vals) <= 1e-2 * step2)]
        assert small.size == 1 and band[0] < abs(small[0]) / (2 * step2) <= band[1]
        for v in c_vals:
            assert np.min(np.abs(r_vals - v)) <= 1e-7 * (1 + abs(v)), (v,)
        for v in r_vals:
            assert np.min(np.abs(c_vals - v)) <= 1e-7 * (1 + abs(v)), (v,)

    @pytest.mark.parametrize("p,q", [(2, 1), (3, 2)])
    def test_on_the_real_spectrum_curve(self, p, q):
        # where the level curve meets a^2 - ad - 1 = 0 the leading
        # coefficient c1 cancels exactly and P has degree 2(p - q)
        pt = lambda_curve(p, q, +1, _real_spectrum_a(p, q))
        assert build_g(pt).degree == 2 * (p - q)
        c_vals = np.array([v for v, _ in cheb_spectrum(pt, 6).eigenvalues
                           if abs(v) <= 1000])
        r_vals = spectrum(pt.matrix(), count=6).values()
        r_vals = r_vals[np.abs(r_vals) <= 1000]
        assert c_vals.size == r_vals.size >= 3
        for v in r_vals:
            assert np.min(np.abs(c_vals - v)) <= 1e-9 * (1 + abs(v))

    @pytest.mark.parametrize("p,q,offset,rtol", [
        (5, 1, 0.0, 1e-12), (7, 3, 0.0, 1e-12), (4, 1, 1e-9, 1e-12), (7, 3, 1e-12, 1e-12),
        (32, 1, 1e-9, 1e-12), (5, 1, 1e-6, 1e-5)])
    def test_at_and_next_to_the_real_spectrum_curve(self, p, q, offset, rtol):
        # on the curve P = c2/2 (zeta^(p-q) - 1)^2, double roots off +-1
        # included.  Next to it c1 is small: each double root splits into a
        # close pair, which spectrum() reports as one double zero at the
        # pair's centre when the two are closer than its cluster size, and
        # 2q roots go far from the unit circle, with their reciprocals
        assert _agreement(lambda_curve(p, q, +1, _real_spectrum_a(p, q) + offset)) <= rtol

    def test_contains_zero_and_n_max_zero(self):
        pt = lambda_curve(3, 2, +1, -0.3)
        sp = cheb_spectrum(pt, 0)
        assert sp.eigenvalues[0] == (0j, 1)
        assert len(sp.eigenvalues) >= 2

    def test_double_roots_at_degenerate_point(self):
        # first entry 0: G has double roots at +-1, the real lattice carries
        # method multiplicity 2
        pt = lambda_curve(3, 1, +1, 0.0)
        sp = cheb_spectrum(pt, 3)
        real_pos = [(v, m) for v, m in sp.eigenvalues
                    if abs(v.imag) < 1e-9 and v.real > 1]
        assert real_pos and all(m == 2 for _, m in real_pos)
        assert_allclose(real_pos[0][0], 3 * np.pi**2, rtol=1e-10)

    @pytest.mark.parametrize("p,q,a", _high_degree_sample(),
                             ids=lambda v: f"{v:.4g}" if isinstance(v, float) else str(v))
    def test_high_degree_agrees_with_contour_search(self, p, q, a):
        # 20 < p+q <= 32, past the degree where the monomial expansion of
        # G lost its digits: to 1e-12 relative both ways, a = 0 included
        assert _agreement(lambda_curve(p, q, +1, a)) <= 1e-12

    def test_point_where_the_monomial_polish_wandered(self):
        # 8 of the 18 monomial roots of G never met Newton's stop here
        assert _agreement(lambda_curve(15, 4, +1, 3.17164134177955)) <= 1e-12

    def test_degree_limit(self):
        # polyroots takes P with the structural roots +-1 divided out: at
        # p+q = 34 (p, q odd) both are double and 68 - 4 = 64 is accepted,
        # at p+q = 35 only 1 is and 70 - 2 = 68 is not
        assert cheb_spectrum(lambda_curve(19, 15, +1, 0.4), 0).eigenvalues
        with pytest.raises(DegreeTooHigh):
            cheb_spectrum(lambda_curve(18, 17, +1, 0.4), 0)

    def test_periodicity_of_zero_set(self):
        pt = lambda_curve(2, 1, +1, 0.6)
        S = build(pt.matrix())
        period = 2 * np.pi * pt.q * np.sqrt(pt.b_plus)
        box = Rect(0.4, 0.4 + period, -2.1, 2.25)
        shifted = Rect(0.4 + period, 0.4 + 2 * period, -2.1, 2.25)
        rng = np.random.default_rng(62)
        assert winding_count(S, box, rng=rng) == winding_count(S, shifted, rng=rng)

    def test_roots_collapse_toward_degenerate_corner(self):
        # along the ratio-2 curve toward the singular corner the six roots
        # of P collapse to 1 and the spectrum concentrates on [0, inf):
        # the smallest conjugate pair approaches the origin and all
        # imaginary parts shrink
        spreads, pair_mags, im_spans = [], [], []
        for a in (-0.8, -0.95, -0.99, -0.999):
            pt = lambda_curve(2, 1, +1, a)
            spreads.append(np.max(np.abs(np.roots(build_g(pt).coeffs) - 1.0)))
            vals = cheb_spectrum(pt, 4).values()
            nonreal = vals[np.abs(vals.imag) > 1e-11]
            pair_mags.append(np.min(np.abs(nonreal)))
            window = vals[np.abs(vals) < 50]
            im_spans.append(np.max(np.abs(window.imag)))
        assert all(x > y for x, y in zip(spreads, spreads[1:]))
        assert all(x > y for x, y in zip(pair_mags, pair_mags[1:]))
        assert all(x > y for x, y in zip(im_spans, im_spans[1:]))
        assert pair_mags[-1] < 0.05 and im_spans[-1] < 0.2
