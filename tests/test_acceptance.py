"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them all).  Tolerances are pinned here, not calibrated elsewhere.
"""

import time
from fractions import Fraction

import mpmath
import numpy as np
from specmat import (CMatrix2, Rect, SweepSpec, build, cheb_spectrum,
                     discretize, growth_probe, lambda_curve, oracle_spectrum,
                     perturbation_coeffs, run_sweep, spectrum, winding_count)
from specmat.rootfind import _OriginDeflated
from conftest import EXAMPLE, a4, corpus30, dense_matrix, gauge_to

import scipy.linalg


def report(n, name, ok, detail=""):
    line = f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_01_worked_example_reproduction(self):
        t0 = time.perf_counter()
        sp = spectrum(EXAMPLE, count=10)
        elapsed = time.perf_counter() - t0

        # high-precision reference for lambda+- = arccos(-1/2 +- i/2):
        # 2.0231 -+ 0.5306 i (the two-digit display 2.02 -+ 0.53 i)
        mpmath.mp.dps = 50
        lam_hi = complex(mpmath.acos(mpmath.mpc(-0.5, 0.5)))
        lam_lo = complex(mpmath.acos(mpmath.mpc(-0.5, -0.5)))
        assert abs(lam_hi - np.conj(lam_lo)) < 1e-15
        assert abs(abs(lam_hi.real) - 2.02) < 5e-3 and abs(abs(lam_hi.imag) - 0.53) < 5e-3
        # the double-precision arccos agrees with the 50-digit one to 1e-9
        assert abs(np.arccos(complex(-0.5, 0.5)) - lam_hi) < 1e-9

        reference = [0.0]
        for k in range(0, 4):
            if k:
                reference.append((2 * k * np.pi) ** 2)
            for lam in (lam_hi, lam_lo):
                for shift in (2 * k * np.pi, -2 * k * np.pi):
                    reference.append(complex(lam + shift) ** 2)
        reference = sorted(set(np.round(np.array(reference), 10)), key=abs)

        got = sp.with_multiplicity()[:10]
        ok = True
        detail = []
        for v in got:
            err = min(abs(v - r) for r in reference) / (1 + abs(v))
            if err > 1e-8:
                ok = False
                detail.append(f"{v}: rel err {err:.2e}")
        if elapsed >= 5.0:
            ok = False
            detail.append(f"runtime {elapsed:.1f}s")
        report(1, "worked-example spectrum", ok,
               detail or f"10 eigenvalues to 1e-8 in {elapsed:.2f}s")

    def test_02_triangular_lattices(self):
        rng = np.random.default_rng(1002)
        t0 = time.perf_counter()
        worst = 0.0
        for trial in range(20):
            a = rng.uniform(0.4, 4.0) * rng.choice([-1, 1])
            d = rng.uniform(0.4, 4.0) * rng.choice([-1, 1])
            A = CMatrix2.real(a, 0, 1, d) if trial % 2 else CMatrix2.real(a, 1, 0, d)
            sp = spectrum(A, count=12)
            lattice = sorted({c * k * k * np.pi**2 for c in (a, d)
                              for k in range(25)}, key=abs)
            for v, _ in sp.eigenvalues:
                err = min(abs(v - u) for u in lattice) / (1 + abs(v))
                worst = max(worst, err)
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-8 and elapsed < 10.0
        report(2, "triangular lattice", ok,
               f"worst rel err {worst:.2e}, {elapsed:.1f}s for 20 matrices")

    def test_03_real_spectrum_curve(self):
        # reference recomputed from the branch-invariant formula
        bp = (-1 + 1j * np.sqrt(3)) / 2
        unit = -np.pi**2 / (1.0 / np.sqrt(bp)).imag ** 2
        reference = [0.0] + [unit * k * k for k in range(1, 6)]
        sp = spectrum(a4(-1.0, 0.0), count=6)
        got = sp.values()
        worst = max(abs(v - r) / (1 + abs(r)) for v, r in zip(got, reference))
        ok = worst <= 1e-7 and abs(unit + 4 * np.pi**2 / 3) < 1e-12
        report(3, "real-spectrum curve", ok, f"worst rel err {worst:.2e}")

    def test_04_defective_cases(self):
        # singleton point: no zeros besides the origin in a huge box
        S1 = build(a4(0.5, -1.5))
        order0 = S1.order_at_origin()
        big = Rect(0.0, 50.0, -20.0, 20.0)
        w = winding_count(S1, big, rng=np.random.default_rng(4))
        singleton_ok = (w - order0 == 0)

        # nonreal spectrum at the other defective point: the only real-axis
        # zero is the origin, yet a quarter-plane box holds several zeros
        S2 = build(a4(0.0, 2.0))
        fun = _OriginDeflated(S2, S2.order_at_origin())
        real_axis = winding_count(fun, Rect(0.15, 30.0, -0.21, 0.2),
                                  rng=np.random.default_rng(5))
        # independent sign check on the axis: x^2/4 - sin(x)^2/4 > 0 for x > 0
        ts = np.linspace(0.05, 30, 4000)
        g = gauge_to(S2, np.array([[1.0, -1.0], [0.0, 1.0]]))
        axis_vals = (S2.value(ts) / g).real
        nonreal = winding_count(S2, Rect(0.0, 30.0, 0.1, 20.0),
                                rng=np.random.default_rng(6))
        ok = singleton_ok and real_axis == 0 and np.all(axis_vals > 0) \
            and nonreal >= 3
        report(4, "defective spectra", ok,
               f"singleton winding-minus-origin {w - order0}, "
               f"axis zeros {real_axis}, quarter-plane count {nonreal}")

    def test_05_chebyshev_secular_equivalence(self):
        points = [(2, 1, 0.6), (2, 1, -0.4), (3, 2, 0.5), (3, 2, 1.3),
                  (4, 3, -0.2), (5, 4, 0.35), (5, 2, 0.8), (4, 1, 0.25),
                  (3, 1, 0.45), (5, 3, 1.1)]
        t0 = time.perf_counter()
        worst = 0.0
        for p, q, a in points:
            pt = lambda_curve(p, q, +1, a)
            n_max = int(np.ceil(14.2 / (2 * np.pi * pt.q * np.sqrt(pt.b_plus)))) + 2
            sp_c = cheb_spectrum(pt, n_max, lambda2_max=240.0)
            rect = Rect(0.0, 14.5, -14.47, 14.53)
            sp_r = spectrum(pt.matrix(), lambda_rect=rect)
            c_vals = np.array([v for v, _ in sp_c.eigenvalues if abs(v) <= 200])
            r_vals = np.array([v for v, _ in sp_r.eigenvalues if abs(v) <= 200])
            for v in c_vals:
                worst = max(worst, np.min(np.abs(r_vals - v)) / (1 + abs(v)))
            for v in r_vals:
                worst = max(worst, np.min(np.abs(c_vals - v)) / (1 + abs(v)))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-7 and elapsed < 30.0
        report(5, "chebyshev-secular equivalence", ok,
               f"worst rel gap {worst:.2e}, {elapsed:.1f}s for 10 points")

    def test_06_discretization_convergence(self):
        # second-order Richardson ratios for diagonal and lower-triangular
        ratio_ok = True
        for A in (CMatrix2.real(1, 0, 0, 4), CMatrix2.real(1, 0, 1, 4),
                  CMatrix2.real(2.5, 0, 0, -1.5)):
            evc = scipy.linalg.eigvals(dense_matrix(discretize(A, 100)))
            evf = scipy.linalg.eigvals(dense_matrix(discretize(A, 200)))
            exact = sorted({c * k * k * np.pi**2 for c in (A.a.real, A.d.real)
                            for k in range(12)}, key=abs)
            for target in exact[1:7]:
                ec = np.min(np.abs(evc - target))
                ef = np.min(np.abs(evf - target))
                if not 3.5 <= ec / ef <= 4.5:
                    ratio_ok = False

        # oracle agrees with the secular spectra within the two-resolution
        # error bars across the 30-matrix regional corpus
        agree_ok = True
        worst = ("", 0.0)
        for A in corpus30():
            sec_vals = spectrum(A, count=9).with_multiplicity()
            orc = oracle_spectrum(discretize(A, 200), 6,
                                  companion=discretize(A, 100))
            for v, est in zip(orc.values(), orc.residuals):
                gap = np.min(np.abs(sec_vals - v))
                bar = 5.0 * est + 1e-4 * (1 + abs(v))
                if gap > bar:
                    agree_ok = False
                    if gap / bar > worst[1]:
                        worst = (f"{A}@{v:.3f}", gap / bar)
        ok = ratio_ok and agree_ok
        report(6, "discretization convergence", ok,
               f"ratios {'ok' if ratio_ok else 'bad'}, agreement "
               f"{'ok' if agree_ok else f'bad: {worst[0]}'}")

    def test_07_resolvent_growth(self):
        probe = growth_probe(CMatrix2.real(1, 0, 1, 1), 1.0, range(2, 7), n=300)
        s_coarse, s_fine = probe.slope("coarse"), probe.slope("fine")
        jordan_ok = (s_coarse >= 0.4 and s_fine >= 0.4
                     and abs(s_fine - s_coarse) <= 0.10 * abs(s_fine))
        flat = growth_probe(CMatrix2.real(1, 0, 0, 1), 1.0, range(2, 7), n=300)
        f_coarse, f_fine = flat.slope("coarse"), flat.slope("fine")
        diag_ok = abs(f_coarse) <= 0.05 and abs(f_fine) <= 0.05
        report(7, "resolvent growth exponent", jordan_ok and diag_ok,
               f"jordan slopes {s_coarse:.3f}/{s_fine:.3f}, "
               f"diagonal {f_coarse:.3f}/{f_fine:.3f}")

    def test_08_perturbation_coefficients(self):
        rng = np.random.default_rng(1008)
        ok = True
        for _ in range(100):
            A = CMatrix2(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
            if A.is_singular:
                continue
            mu1, _ = perturbation_coeffs(A)
            ref = A.a / (A.a * A.d - A.b * A.c)
            if abs(mu1 - ref) > 1e-12 * (1 + abs(ref)):
                ok = False
        for _ in range(20):
            b, c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            d = complex(rng.standard_normal())
            A = CMatrix2(0, b, c, d)
            mu1, mu2 = perturbation_coeffs(A)
            # independent oracle: direct summation until the tail < 1e-14
            m = np.arange(1, 30_000)
            series = -np.sum(8.0 / (b * c * np.pi**4 * (2 * m - 1.0) ** 4))
            closed = -1.0 / (12.0 * b * c)
            if abs(mu2 - series) > 1e-12 * (1 + abs(series)) or \
               abs(mu2 - closed) > 1e-12 * (1 + abs(closed)):
                ok = False
        report(8, "perturbation coefficients", ok)

    def test_09_sweep_figures(self):
        # fixed first entry -1/2, six rational ratios: per step a single real
        # negative eigenvalue whose modulus grows as d decreases to 3/2
        spec_a = SweepSpec(kind="alphas", method="chebyshev", a_fixed=-0.5,
                           alphas=tuple(Fraction(x) for x in
                                        ("2", "8/5", "4/3", "5/4", "7/6", "9/8")),
                           n_max=10, count=40)
        recs = run_sweep(spec_a)
        d_vals = [r.d for r in recs]
        neg = []
        fig2_ok = all(x > y for x, y in zip(d_vals, d_vals[1:]))
        for r in recs:
            negs = [e.value.real for e in r.eigenvalues
                    if e.value.real < -1e-9 and abs(e.value.imag) < 1e-9]
            if len(negs) != 1:
                fig2_ok = False
            else:
                neg.append(-negs[0])
        fig2_ok = fig2_ok and all(x < y for x, y in zip(neg, neg[1:]))

        # first entry 0: real double eigenvalues at ratio 3 split into
        # conjugate simple pairs by ratio 9/8
        spec_b = SweepSpec(kind="alphas", method="chebyshev", a_fixed=0.0,
                           alphas=(Fraction(3), Fraction(5, 2), Fraction(9, 4),
                                   Fraction(2), Fraction(9, 5), Fraction(3, 2),
                                   Fraction(5, 4), Fraction(9, 8)),
                           n_max=8, count=40)
        recs_b = run_sweep(spec_b)
        first = recs_b[0].eigenvalues
        real_doubles = [e for e in first
                        if abs(e.value.imag) < 1e-9 and e.value.real > 1
                        and e.multiplicity == 2]
        all_real_at_3 = all(abs(e.value.imag) < 1e-9 for e in first)
        last = recs_b[-1].eigenvalues
        nonreal_simple = [e for e in last
                          if e.value.imag > 1e-9 and e.multiplicity == 1]
        pairs = 0
        vals_last = np.array([e.value for e in last])
        for e in nonreal_simple:
            if np.min(np.abs(vals_last - np.conj(e.value))) < 1e-9 * (1 + abs(e.value)):
                pairs += 1
        fig5_ok = len(real_doubles) >= 3 and all_real_at_3 and pairs >= 3
        report(9, "sweep figure phenomenology", fig2_ok and fig5_ok,
               f"negative-eigenvalue track {neg if len(neg) < 8 else 'n/a'}; "
               f"{len(real_doubles)} real doubles -> {pairs} conjugate pairs")
