import numpy as np
import pytest
from numpy.testing import assert_allclose

from specmat import (BoundaryZero, CMatrix2, DegreeTooHigh, InvalidInput, NonConvergent,
                     NumericalFailure, Rect, SingularMatrix, build,
                     cluster_roots, isolate_zeros, polyroots, rootfind,
                     spectrum, winding_count)
from specmat.canonical import Family, family_matrix
from specmat.chebpath import cheb_spectrum, lambda_curve
from specmat.secular import SecularFn
from conftest import EXAMPLE


def sin_pair():
    return (lambda z: np.sin(z), lambda z: np.cos(z))


def sin2_pair():
    return (lambda z: np.sin(z) ** 2, lambda z: 2 * np.sin(z) * np.cos(z))


class TestWinding:
    def test_sin_squared_box(self):
        f, fp = sin2_pair()
        assert winding_count(f, Rect(0.5, 9.9, -1, 1), fprime=fp) == 6

    def test_no_zeros(self):
        f, fp = sin_pair()
        assert winding_count(f, Rect(0.5, 1.0, 0.1, 0.2), fprime=fp) == 0

    def test_example_isolated_complex_zero(self):
        S = build(EXAMPLE)
        assert winding_count(S, Rect(1.82, 2.22, 0.33, 0.73)) == 1

    def test_boundary_zero_dilation(self):
        # zeros of sin at k pi on the contour: dilation must recover a count
        f, fp = sin_pair()
        n = winding_count(f, Rect(0.0, np.pi, -1.0, 1.0), fprime=fp)
        assert n in (0, 1, 2)  # pi and 0 both sit on edges; count is integers

    def test_polynomial_with_multiplicity(self):
        f = lambda z: (z - 1.0) ** 3 * (z + 0.5)
        fp = lambda z: 3 * (z - 1.0) ** 2 * (z + 0.5) + (z - 1.0) ** 3
        assert winding_count(f, Rect(-2, 2, -1.3, 1.1), fprime=fp) == 4

    def test_five_dilations_then_boundary_zero(self, monkeypatch):
        # a box that no dilation can count: the call with its first grid,
        # then five dilations of the box alone, then BoundaryZero
        class Nowhere:
            def logderiv(self, z):
                return np.full(np.shape(z), np.nan, dtype=complex)

        rows = []
        real = rootfind._contour_moments

        def watching(fun, segs, *args, **kw):
            rows.append(segs.incidence.shape[0])
            return real(fun, segs, *args, **kw)
        monkeypatch.setattr(rootfind, "_contour_moments", watching)
        with pytest.raises(BoundaryZero):
            rootfind._count_box(Nowhere(), Rect(0, 1, 0, 1), np.random.default_rng(0), 2)
        assert rows == [1 + 4] + [1] * 5


class TestIsolate:
    def test_identity_lattice_with_multiplicities(self):
        S = build(CMatrix2.real(1, 0, 0, 1))
        zeros = isolate_zeros(S, Rect(-0.5, 10, -1, 1.07))
        zeros.sort(key=lambda t: t[0].real)
        assert [m for _, m in zeros] == [2, 2, 2, 2]
        assert_allclose([z for z, _ in zeros], [0, np.pi, 2 * np.pi, 3 * np.pi],
                        atol=2e-6)

    def test_example_zeros(self):
        S = build(EXAMPLE)
        zeros = isolate_zeros(S, Rect(-0.5, 7, -1.5, 1.53))
        lam = np.arccos(complex(-0.5, 0.5))
        targets = [0.0, 2 * np.pi, lam, np.conj(lam)]
        for t in targets:
            assert min(abs(z - t) for z, _ in zeros) < 5e-3

    def test_empty(self):
        f, fp = sin_pair()
        assert isolate_zeros(f, Rect(0.5, 1.0, 0.1, 0.2), fprime=fp) == []

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tol_must_be_finite_and_positive(self, tol):
        # no Newton step can reach 1e-3 tol (1 + |z|) for these: refused
        # up front instead of splitting down to exhausted cells
        f, fp = sin_pair()
        with pytest.raises(InvalidInput):
            isolate_zeros(f, Rect(-1, 4, -1, 1), tol=tol, fprime=fp)
        with pytest.raises(InvalidInput):
            spectrum(CMatrix2.real(1, 0, 1, 4), tol=tol)

    def test_count_conservation(self):
        S = build(CMatrix2.real(2, 1, 1, 3))
        box = Rect(-0.4, 11, -2.1, 1.9)
        zeros = isolate_zeros(S, box)
        assert sum(m for _, m in zeros) == winding_count(S, box)

    def test_subdivision_independence(self):
        S = build(EXAMPLE)
        whole = Rect(-0.45, 7.1, -1.55, 1.48)
        zeros_whole = isolate_zeros(S, whole)
        xs, ys = whole.grid_lines([0.52], [0.47])
        parts = [Rect(xs[i], xs[i + 1], ys[j], ys[j + 1]) for j in range(2) for i in range(2)]
        zeros_parts = []
        for p in parts:
            zeros_parts.extend(isolate_zeros(S, p))
        assert len(zeros_whole) == len(zeros_parts)
        for z, m in zeros_whole:
            zp, mp = min(zeros_parts, key=lambda t: abs(t[0] - z))
            assert abs(zp - z) <= 1e-7 * (1 + abs(z))
            assert mp == m

    def test_newton_refuses_stagnation(self):
        # Newton steps that alternate between 1 and 1 + 1e-8 forever, as at
        # the noise floor of a function evaluated to 1e-8, never converge
        class Oscillating:
            def logderiv(self, z):
                z = np.asarray(z, dtype=complex)
                return 1.0 / (z - np.where(abs(z - 1.0) < 5e-9, 1.0 + 1e-8, 1.0))

        z, ok = rootfind._newton(Oscillating(), 1.0, 1, 1e-10)
        assert not ok
        z, ok = rootfind._newton(_Poly([1.0]), 1.1, 1, 1e-10)
        assert ok and abs(z - 1.0) <= 1e-13

        # one vector call: a start that converges to the zero at 5, one
        # that oscillates at 1, and one where the log-derivative vanishes
        class Mixed(Oscillating):
            def logderiv(self, z):
                z = np.asarray(z, dtype=complex)
                with np.errstate(divide="ignore", invalid="ignore"):
                    near5 = 1.0 / (z - 5.0)
                return np.where(z.real > 8, 0.0,
                                np.where(z.real > 3, near5, super().logderiv(z)))

        z, ok = rootfind._newton(Mixed(), [5.3, 1.0, 9.0], 1, 1e-10)
        assert ok.tolist() == [True, False, False]
        assert abs(z[0] - 5.0) <= 1e-13 and z[2] == 9.0

    def test_newton_residuals(self):
        S = build(CMatrix2.real(2, 1, 1, 3))
        box = Rect(-0.4, 11, -2.1, 1.9)
        ref = np.exp(np.max(S.logabs(box.corners())))
        for z, m in isolate_zeros(S, box, tol=1e-10):
            if m == 1:
                assert abs(S.value(np.array([z]))[0]) <= 1e-10 * ref


    def test_unsplittable_cell_width_is_bounded(self, monkeypatch):
        # with every split refused, a multiple zero is accepted only when a
        # square one cluster size wide (2e-4 near z = 1) around the polished
        # point counts all the cell's zeros: the bound is the square's
        # width, whatever the width of the cell whose split was refused
        class Poly:
            def __init__(self, roots):
                self.roots = roots

            def logderiv(self, z):
                return sum(1.0 / (np.asarray(z, dtype=complex) - r) for r in self.roots)

            def polish_multiple(self, z0, m):
                # the (m-1)-th derivative of a degree-m polynomial vanishes
                # at the centroid of its zeros, so this always converges
                return complex(np.mean(self.roots)), True

        def refuse(*args):
            raise NonConvergent("split refused")
        monkeypatch.setattr(rootfind, "_split_level", refuse)
        zeros = isolate_zeros(Poly([1.0, 1.0]), Rect(0.999, 1.001, -0.001, 0.0011))
        assert zeros == [(1.0, 2)]
        # two simple zeros 0.01 apart are not one double zero: the power
        # sums of the 0.28 cell resolve them without a split
        zeros = isolate_zeros(Poly([1.0, 1.01]), Rect(0.9, 1.1, -0.1, 0.11))
        assert [m for _, m in zeros] == [1, 1]
        assert_allclose([z for z, _ in zeros], [1.0, 1.01], atol=1e-12)
        with pytest.raises(NonConvergent):
            # 1e-3 apart the power-sum starts fall within 1/50 of the cell
            # diameter, the square around the centroid holds neither zero,
            # and the cell goes to the (refused) split
            isolate_zeros(Poly([1.0, 1.001]), Rect(0.9, 1.1, -0.1, 0.11))

class TestSpectrum:
    def test_triangular_lattice(self):
        sp = spectrum(CMatrix2.real(1, 0, 1, 4), count=10)
        lattice = sorted({k**2 * np.pi**2 for k in range(20)}
                         | {4 * k**2 * np.pi**2 for k in range(10)})
        for (v, m), ref in zip(sp.eigenvalues, lattice):
            assert abs(v - ref) <= 1e-8 * (1 + abs(v))

    def test_example_spectrum(self):
        sp = spectrum(EXAMPLE, count=8)
        lam = np.arccos(complex(-0.5, 0.5))
        targets = [0, lam**2, np.conj(lam) ** 2, (2 * np.pi - lam) ** 2,
                   np.conj((2 * np.pi - lam) ** 2), 4 * np.pi**2]
        vals = sp.values()
        for t in targets:
            assert min(abs(vals - t)) <= 1e-8 * (1 + abs(t))
        mult_4pi2 = [m for v, m in sp.eigenvalues
                     if abs(v - 4 * np.pi**2) < 1e-6][0]
        assert mult_4pi2 == 2

    def test_diagonal(self):
        sp = spectrum(CMatrix2.real(2.0, 0, 0, 0.5), count=8)
        lattice = sorted({2 * k**2 * np.pi**2 for k in range(8)}
                         | {0.5 * k**2 * np.pi**2 for k in range(8)})
        for (v, m), ref in zip(sp.eigenvalues, lattice):
            assert abs(v - ref) <= 1e-8 * (1 + abs(v))

    @pytest.mark.parametrize("count", [6, 12, 20])
    def test_quadruple_zeros_on_the_a0_line(self, count):
        # (0, 2.5) is the a = 0 point of the ratio-2 curve: its real
        # eigenvalues 8 pi^2 k^2 are quadruple secular zeros
        A = family_matrix(Family.A4, 0.0, 2.5)
        sp = spectrum(A, count=count)
        assert len(sp.eigenvalues) == count
        vals = sp.values()
        ref = cheb_spectrum(lambda_curve(2, 1, +1, 0.0), 8).values()
        top = np.max(np.abs(vals))
        for v in vals:
            assert np.min(np.abs(ref - v)) <= 1e-9 * (1 + abs(v)), v
        for v in ref:
            if abs(v) < top:
                assert np.min(np.abs(vals - v)) <= 1e-9 * (1 + abs(v)), v
        k = 1
        while 8 * np.pi**2 * k * k <= top:
            target = 8 * np.pi**2 * k * k
            v, m = min(sp.eigenvalues, key=lambda p: abs(p[0] - target))
            assert abs(v - target) <= 1e-9 * target and m == 4
            k += 1
        assert k > 1

    def test_conjugate_pairs_list_the_lower_member_first(self):
        # equal moduli tie to rounding: the canonical order puts -imag
        # first, so a count cut inside a pair always keeps that member
        rng = np.random.default_rng(1812)
        pairs = 0
        for _ in range(40):
            A = CMatrix2.real(*rng.standard_normal(4))
            eigs = spectrum(A, count=12).eigenvalues
            cut_checked = False
            for i, ((u, _), (v, _)) in enumerate(zip(eigs, eigs[1:])):
                if abs(u.imag) <= 1e-9 * abs(u) or abs(u - np.conj(v)) > 1e-8 * abs(u):
                    continue
                pairs += 1
                assert u.imag < 0, (A, u, v)
                if not cut_checked:
                    last, _ = spectrum(A, count=i + 1).eigenvalues[-1]
                    assert abs(last - u) <= 1e-8 * abs(u), (A, last, u)
                    cut_checked = True
        assert pairs >= 40

    def test_zero_always_included(self):
        sp = spectrum(CMatrix2.real(1, 1, 0.5, 1), count=5)
        assert sp.eigenvalues[0] == (0j, 1)
        assert sp.analytic_order_at_zero == 2

    def test_conjugate_symmetry_real_matrix(self):
        sp = spectrum(CMatrix2.real(0, -1, 1, 2), count=7)
        vals = sp.values()
        for v in vals:
            assert min(abs(vals - np.conj(v))) <= 1e-7 * (1 + abs(v))

    def test_scale_covariance(self):
        base = spectrum(CMatrix2.real(1, 1, 0.5, 1), count=6).values()
        for c in (0.5, 2.0, 10.0):
            scaled = spectrum(CMatrix2.real(1, 1, 0.5, 1).scaled(c), count=6).values()
            assert_allclose(scaled, c * base, rtol=1e-8, atol=1e-9)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            spectrum(CMatrix2.real(1, 1, 1, 1))

    def test_known_lattice_regression(self):
        rng = np.random.default_rng(31)
        for trial in range(50):
            a = rng.uniform(0.3, 4) * rng.choice([-1, 1])
            d = rng.uniform(0.3, 4) * rng.choice([-1, 1])
            shape = rng.integers(0, 3)
            if shape == 0:
                A = CMatrix2.real(a, 0, 0, d)
            elif shape == 1:
                A = CMatrix2.real(a, 0, 1, d)
            else:
                A = CMatrix2.real(a, 1, 0, d)
            sp = spectrum(A, count=6, tol=1e-11)
            lattice = sorted({c * k**2 * np.pi**2 for k in range(12)
                              for c in (a, d)}, key=abs)
            for v, m in sp.eigenvalues:
                err = min(abs(v - u) for u in lattice)
                assert err <= 1e-8 * (1 + abs(v)), (a, d, shape, v, err)

    def test_explicit_rect(self):
        sp = spectrum(CMatrix2.real(1, 0, 0, 1), lambda_rect=Rect(0.5, 7, -1, 1))
        vals = [v for v, _ in sp.eigenvalues if v != 0]
        assert_allclose(sorted(np.real(vals)),
                        [np.pi**2, 4 * np.pi**2], rtol=1e-10)


class TestPolyroots:
    def test_quadratic(self):
        assert_allclose(sorted(polyroots([1, 0, -1]).real), [-1, 1], atol=1e-12)

    def test_chebyshev_cubic(self):
        roots = polyroots([4, 0, -3, 0])
        assert_allclose(sorted(roots.real), [-np.sqrt(3) / 2, 0, np.sqrt(3) / 2],
                        atol=1e-10)

    def test_degree_cap(self):
        with pytest.raises(DegreeTooHigh):
            polyroots(np.ones(67))

    def test_residual_bound_random(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            deg = int(rng.integers(2, 14))
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            roots = polyroots(c)
            p = np.polyval(c, roots)
            bound = 1e-10 * np.linalg.norm(c) * np.maximum(1, np.abs(roots)) ** deg
            assert np.all(np.abs(p) <= bound)

    def test_multiple_root_clustering(self):
        c = np.polymul(np.polymul([1, -1], [1, -1]), [1, 2])  # (w-1)^2 (w+2)
        clusters = cluster_roots(polyroots(c))
        clusters.sort(key=lambda t: t[0].real)
        assert clusters[0][1] == 1 and abs(clusters[0][0] + 2) < 1e-8
        assert clusters[1][1] == 2 and abs(clusters[1][0] - 1) < 1e-6

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            polyroots([0, 1, 1])


# -- per-segment panel quadrature ------------------------------------------


class _Recorder:
    """Log-derivative protocol around a polynomial that records every point
    at which it is evaluated."""

    def __init__(self, zeros):
        self.zeros = np.asarray(zeros, dtype=complex)
        self.points = []

    def logderiv(self, z):
        z = np.asarray(z, dtype=complex)
        self.points.extend(z.ravel().tolist())
        return np.sum(1.0 / (z[..., None] - self.zeros), axis=-1)


def _poly_pair(zeros):
    zeros = np.asarray(zeros, dtype=complex)
    f = lambda z: np.prod(np.asarray(z)[..., None] - zeros, axis=-1)
    fp = lambda z: f(z) * np.sum(1.0 / (np.asarray(z)[..., None] - zeros), axis=-1)
    return f, fp


def _undilated_count(fun, rect):
    """The winding count of one contour call over ``rect``'s own polygon,
    None when the contour fails."""
    (s0,), _, (ok,) = rootfind._contour_moments(fun, rootfind._polygon(rect.corners()))
    return int(round(s0.real)) if ok else None


class TestEdgeQuadrature:
    def test_only_the_edge_near_a_zero_refines(self):
        # unit square, one simple zero 0.02 from the right edge
        rec = _Recorder([0.98 + 0.43j])
        assert _undilated_count(rec, Rect(0.0, 1.0, 0.0, 1.0)) == 1
        pts = rec.points
        assert len(set(pts)) == len(pts)          # no point evaluated twice
        assert not {0j, 1 + 0j, 1 + 1j, 1j} & set(pts)   # panels sample no vertex
        side = lambda on: sum(1 for z in pts if on(z))
        per_edge = {
            "bottom": side(lambda z: z.imag == 0.0),
            "right": side(lambda z: z.real == 1.0),
            "top": side(lambda z: z.imag == 1.0),
            "left": side(lambda z: z.real == 0.0),
        }
        # far edges stop at their four start panels; on the near one at
        # least one panel is cut into four
        start = rootfind._CUTS * rootfind._GL_N
        for side in ("bottom", "top", "left"):
            assert per_edge[side] == start, per_edge
        assert per_edge["right"] >= start + rootfind._CUTS * rootfind._GL_N, per_edge
        assert len(pts) == sum(per_edge.values())

    def test_moments_of_known_zeros(self):
        zeros = [0.3 + 0.2j, -0.4 + 0.1j, 0.1 - 0.35j]
        segs = rootfind._polygon(Rect(-1, 1, -1, 1).corners())
        (s0,), (sums,), (ok,) = rootfind._contour_moments(_Recorder(zeros), segs)
        assert ok
        # Gauss-Legendre panels are spectrally accurate: far below the
        # winding's tolerance
        assert abs(s0 - 3) <= 1e-8
        centre, radius = segs.centre[0], segs.radius[0]
        assert (centre, radius) == (0j, np.sqrt(2))
        assert abs(3 * centre + radius * sums[0] - sum(zeros)) <= 1e-8
        # the higher power sums, in the frame's units
        u = (np.array(zeros) - centre) / radius
        for k in range(2, 5):
            assert abs(sums[k - 1] - np.sum(u ** k)) <= 1e-8, k

    def test_non_integer_winding_refines_the_contour(self):
        # conj(z) is no log-derivative: linear, so every panel passes its own
        # tests at once, but its integral over the unit square is 2i, a
        # winding of 1/pi.  The integer check cuts every panel of the
        # contour into four again, level after level, until the sample cap
        # fails it
        class Conj(_Recorder):
            def logderiv(self, z):
                super().logderiv(z)
                return np.conj(z)

        rec = Conj([])
        _, _, ok = rootfind._contour_moments(rec, rootfind._polygon(Rect(0, 1, 0, 1).corners()),
                                             cap=2 ** 12)
        assert ok.tolist() == [False]
        assert len(set(rec.points)) == len(rec.points)
        # 4, 16 and 64 panels of 16 nodes on each of the four edges, 1344
        # samples an edge; the next level's 256 panels would pass the cap
        assert len(rec.points) == 4 * rootfind._GL_N * (4 + 16 + 64)

    def test_gauss_legendre_table(self):
        # the 16-point rule integrates every polynomial of degree <= 31
        # exactly on [-1, 1]
        x, w = rootfind._GL_X, rootfind._GL_W
        for k in range(2 * rootfind._GL_N):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.sum(w * x ** k) - exact) <= 1e-15, k

    @pytest.mark.parametrize("zeros, rect, expected", [
        ([0.5, 1.5 + 0.2j, 3.0], Rect(0.0, 2.0, -1.0, 1.0), 2),
        ([1.0, 1.0, 1.0, -0.5], Rect(-2.0, 2.0, -1.3, 1.1), 4),
        ([2.0 + 2.0j, -1.0], Rect(0.0, 1.0, 0.0, 1.0), 0),
        ([0.1j, -0.1j, 0.2, 0.2, 5.0], Rect(-0.5, 0.7, -0.3, 0.4), 4),
        (np.exp(2j * np.pi * np.arange(12) / 12), Rect(-1.3, 1.2, -1.1, 1.4), 12),
    ])
    def test_polynomial_counts(self, zeros, rect, expected):
        fun = rootfind._as_protocol(*_poly_pair(zeros))
        assert _undilated_count(fun, rect) == expected

    def test_zero_on_contour_fails(self):
        # the panels next to the zero refine until the reach rule fails
        # the contour: eight levels of four panels on the bottom edge, or
        # four on each of the two edges that meet at the corner
        for zeros in ([0.3, 2.0], [1.0 + 1.0j]):
            rec = _Recorder(zeros)
            assert _undilated_count(rec, Rect(0.0, 1.0, 0.0, 1.0)) is None
            assert len(rec.points) == len(set(rec.points)) == 4 * 4 * 16 + 8 * 4 * 16

    def test_tiny_cap_fails_before_the_first_sample(self):
        # the four start panels of each edge would take 64 samples
        rec = _Recorder([0.5 + 0.5j])
        _, _, ok = rootfind._contour_moments(rec, rootfind._polygon(Rect(0, 1, 0, 1).corners()),
                                             cap=16)
        assert ok.tolist() == [False]
        assert rec.points == []


def _assert_sampled_once(pts, xs, ys):
    """Every sample lies on exactly one segment of the grid over the
    abscissae ``xs`` and ordinates ``ys`` (never on a vertex), and every
    segment, a piece of an interior line shared by two cells included, is
    sampled as whole panels, at least its four start panels; with no point
    evaluated twice, each is sampled once."""
    per_seg = {}
    for z in pts:
        on = [("h", i, j) for j, y in enumerate(ys) for i in range(len(xs) - 1)
              if z.imag == y and xs[i] < z.real < xs[i + 1]]
        on += [("v", i, j) for i, x in enumerate(xs) for j in range(len(ys) - 1)
               if z.real == x and ys[j] < z.imag < ys[j + 1]]
        assert len(on) == 1, (z, on)
        per_seg[on[0]] = per_seg.get(on[0], 0) + 1
    k, l = len(xs) - 1, len(ys) - 1
    assert len(per_seg) == k * (l + 1) + l * (k + 1)
    for piece, n in per_seg.items():
        assert n % rootfind._GL_N == 0 and n >= rootfind._CUTS * rootfind._GL_N, (piece, n)


def _counted(rect, n):
    """A quadtree cell of n zeros, for the split (which reads no power sums)."""
    return rootfind._Cell(rect, n, np.zeros(4, dtype=complex), rect.center, 1.0)


class TestSharedSegments:
    def test_split_evaluates_each_point_once(self):
        zeros = [0.2 + 0.3j, 0.7 + 0.8j, 0.8 + 0.1j, 0.3 + 0.75j]
        rec = _Recorder(zeros)
        cell = Rect(0.0, 1.0, 0.0, 1.0)
        found = rootfind._split_level(rec, [_counted(cell, len(zeros))],
                                      np.random.default_rng(0))
        pts = rec.points
        assert len(set(pts)) == len(pts)          # no point evaluated twice
        _assert_sampled_once(pts, *cell.grid_lines([0.513137], [0.4870113]))
        assert sum(child.n for child in found) == len(zeros)
        for child in found:
            inside = [z for z in zeros if child.rect.contains(z)]
            assert child.n == len(inside)
            assert abs(child.s1 - sum(inside)) <= 1e-4

    def test_grid_split_of_sixteen_zeros(self):
        # 16 zeros give a 4 x 4 grid whose lines first sit at (i + 0.026274)/4
        # across and (j - 0.0259774)/4 up: 25 vertices, 40 segments, 16
        # contours in one call
        zeros = [0.56 + 0.65j, 0.43 + 0.18j, 0.12 + 0.4j, 0.36 + 0.29j, 0.61 + 0.93j,
                 0.05 + 0.31j, 0.85 + 0.56j, 0.83 + 0.41j, 0.07 + 0.16j, 0.78 + 0.39j,
                 0.2 + 0.75j, 0.68 + 0.42j, 0.18 + 0.67j, 0.68 + 0.58j, 0.93 + 0.1j,
                 0.96 + 0.72j]
        rec = _Recorder(zeros)
        found = rootfind._split_level(rec, [_counted(Rect(0.0, 1.0, 0.0, 1.0), len(zeros))],
                                      np.random.default_rng(0))
        pts = rec.points
        assert len(set(pts)) == len(pts)          # no point evaluated twice
        xs = [0.0, *((np.arange(1, 4) + 0.026274) / 4), 1.0]
        ys = [0.0, *((np.arange(1, 4) - 0.0259774) / 4), 1.0]
        _assert_sampled_once(pts, xs, ys)
        assert sum(child.n for child in found) == len(zeros)
        for child in found:
            assert child.rect.re_min in xs and child.rect.im_max in ys
            inside = [z for z in zeros if child.rect.contains(z)]
            assert child.n == len(inside)
            assert abs(child.s1 - sum(inside)) <= 1e-4

    def test_zero_on_the_first_split_line_retries(self, monkeypatch):
        # the first split of the unit square puts its vertical line at
        # x = 0.513137, straight through the first zero; five zeros are
        # more than one cell's power sums resolve, so the square must split
        zeros = [0.513137 + 0.3j, 0.2 + 0.7j, 0.8 + 0.85j, 0.3 + 0.2j, 0.75 + 0.45j]
        calls = []
        real = rootfind._contour_moments

        def watching(fun, segs, *args, **kw):
            out = real(fun, segs, *args, **kw)
            calls.append(out[2].tolist())
            return out

        monkeypatch.setattr(rootfind, "_contour_moments", watching)
        f, fp = _poly_pair(zeros)
        found = isolate_zeros(f, Rect(0.0, 1.0, 0.0, 1.0), fprime=fp)
        # the square, its first 2 x 2 grid, refused, and a jittered one
        assert calls == [[True], [False] * 4, [True] * 4]
        assert sorted(m for _, m in found) == [1] * len(zeros)
        for z in zeros:
            assert min(abs(w - z) for w, _ in found) <= 1e-10


class TestPartFailure:
    """A failure in one part of a bundle stops only that part: the others
    finish with the moments, and the samples, they have alone."""

    ZEROS = [0.513137 + 0.3j, 0.2 + 0.7j, 2.4 + 0.5j, 0.6 + 2.3j, 0.3 + 2.6j]

    @staticmethod
    def _parts(rects):
        """The unit square's first 2 x 2 grid, whose vertical line passes
        through the zero at x = 0.513137, and the polygons of ``rects``."""
        grid = rootfind._split_grid(Rect(0.0, 1.0, 0.0, 1.0), 2, 0, None)[2]
        return [grid] + [rootfind._polygon(r.corners()) for r in rects]

    def test_one_part_fails_alone(self):
        parts = self._parts([Rect(2.0, 3.1, 0.0, 0.9), Rect(0.0, 1.0, 2.0, 3.0)])
        rec = _Recorder(self.ZEROS)
        s0, sums, ok = rootfind._contour_moments(rec, rootfind._bundle(parts))
        assert ok.tolist() == [False] * 4 + [True, True]
        alone = []
        points = []
        for p in parts:
            single = _Recorder(self.ZEROS)
            alone.append(rootfind._contour_moments(single, p))
            points += single.points
        assert not alone[0][2].any()
        for row, (a0, asums, aok) in zip((4, 5), alone[1:]):
            assert aok.all()
            assert s0[row] == a0[0] and (sums[row] == asums[0]).all()
        assert [int(round(w)) for w in s0[4:].real] == [1, 2]
        # the failed part stops where it stops alone
        assert sorted(rec.points, key=lambda z: (z.real, z.imag)) == \
            sorted(points, key=lambda z: (z.real, z.imag))

    def test_every_part_fails(self):
        # a zero on the first grid's line and one on the square's edge
        parts = self._parts([Rect(2.4, 3.1, 0.0, 0.9)])
        _, _, ok = rootfind._contour_moments(_Recorder(self.ZEROS), rootfind._bundle(parts))
        assert not ok.any()


class TestIsolationInvariant:
    def test_count_mismatch_raises_numerical_failure(self, monkeypatch):
        real_split = rootfind._split_level

        def lossy(*args, **kw):
            return real_split(*args, **kw)[:-1]     # loses a child's zeros

        monkeypatch.setattr(rootfind, "_split_level", lossy)
        # five zeros: more than the power sums resolve, so the box splits
        f, fp = _poly_pair([1.0, 2.0, 3.0, 1.5 + 0.3j, 2.5 - 0.2j])
        with pytest.raises(NumericalFailure):
            isolate_zeros(f, Rect(0.5, 3.5, -0.5, 0.6), fprime=fp)


class TestIncrementalGrowth:
    """spectrum()'s one loop resizes the box where its first, sized by the
    zero density, falls short: all-multiple spectra, whose zeros the
    density counts with multiplicity, and a first box made too small by an
    overstated perimeter.  The result is one isolation of the final box."""

    HARD = {"2I": CMatrix2.real(2, 0, 0, 2), "lower(1,1)": CMatrix2.real(1, 0, 1, 1),
            "lower(1,4)": CMatrix2.real(1, 0, 1, 4),
            "A4(0,2.5)": family_matrix(Family.A4, 0.0, 2.5)}
    CASES = ([(name, count, 1.0) for name in HARD for count in (6, 12, 20)]
             + [("lower(1,4)", 12, 8.0), ("diag(1,-1)", 24, 8.0)])

    @pytest.mark.parametrize("name, count, overstate", CASES,
                             ids=[f"{n}-{c}" + ("-overstated" if o > 1 else "")
                                  for n, c, o in CASES])
    def test_matches_one_isolation_of_the_final_box(self, monkeypatch, name, count,
                                                    overstate):
        A = self.HARD.get(name, CMatrix2.real(1, 0, 0, -1))
        real_perimeter = SecularFn.indicator_perimeter
        monkeypatch.setattr(SecularFn, "indicator_perimeter",
                            lambda self: overstate * real_perimeter(self))
        rounds = []
        real_count = rootfind._count_box

        def counting(*args, **kw):
            rounds.append(args[1])
            return real_count(*args, **kw)

        monkeypatch.setattr(rootfind, "_count_box", counting)
        sp = spectrum(A, count=count)
        assert len(rounds) >= 2                   # the first box fell short
        S = build(A)
        fun = rootfind._OriginDeflated(S, S.order_at_origin())
        zeros = rootfind._canonical_zeros(isolate_zeros(fun, sp.search_region))
        once = rootfind._canonical_sorted([(0j, 1)] + [(z * z, m) for z, m in zeros])
        once = once[:count]
        assert len(once) == len(sp.eigenvalues) == count
        for (v, m), (u, k) in zip(sp.eigenvalues, once):
            assert abs(v - u) <= 1e-9 * (1 + abs(v)) and m == k

    @staticmethod
    def _contour_calls(monkeypatch):
        calls = []
        real_moments = rootfind._contour_moments

        def counting(*args, **kw):
            calls.append(1)
            return real_moments(*args, **kw)

        monkeypatch.setattr(rootfind, "_contour_moments", counting)
        return calls

    @pytest.mark.parametrize("count", [1, 6, 12])
    @pytest.mark.parametrize("a, d", [(0.5, -1.5), (-0.5, 1.5)])
    def test_defective_singleton_takes_no_contour_call(self, monkeypatch, a, d, count):
        # no cosine term: EV = q x^2 has no zero but the origin, so the
        # first box is returned uncounted
        calls = self._contour_calls(monkeypatch)
        sp = spectrum(family_matrix(Family.A4, a, d), count=count)
        assert sp.eigenvalues == ((0j, 1),)
        assert sp.analytic_order_at_zero == 2
        assert sp.residuals == (0.0,)
        assert calls == []

    @pytest.mark.parametrize("count", [1, 6, 12])
    @pytest.mark.parametrize("a, d", [(0.5, -1.5), (-0.5, 1.5)])
    def test_defective_singleton_takes_one_contour_call(self, monkeypatch, a, d, count):
        # the uncounted first box is sound: one contour over it counts no
        # zero, so it is the last box
        A = family_matrix(Family.A4, a, d)
        sp = spectrum(A, count=count)
        S = build(A)
        assert S.indicator_perimeter() == 0
        fun = rootfind._OriginDeflated(S, S.order_at_origin())
        calls = self._contour_calls(monkeypatch)
        assert isolate_zeros(fun, sp.search_region) == []
        assert len(calls) == 1

    def test_count_one_takes_no_contour_call(self, monkeypatch):
        # the one eigenvalue asked for is 0; this matrix's zeros are costly
        # to search (its entries span eight orders)
        calls = self._contour_calls(monkeypatch)
        sp = spectrum(family_matrix(Family.A4, 16.073846045527574, 8.20184e7), count=1)
        assert sp.eigenvalues == ((0j, 1),)
        assert sp.residuals == (0.0,)
        assert calls == []

    def test_the_loop_is_bounded(self, monkeypatch):
        # a box that can never be isolated: 16 rounds, then NonConvergent
        counts = []
        real_count = rootfind._count_box

        def counting(*args, **kw):
            counts.append(1)
            return real_count(*args, **kw)

        def fail(*args, **kw):
            raise BoundaryZero("zero on every box")

        monkeypatch.setattr(rootfind, "_count_box", counting)
        monkeypatch.setattr(rootfind, "_isolate_counted", fail)
        with pytest.raises(NonConvergent, match="last box"):
            spectrum(CMatrix2.real(1.3, 1, 0, -2.1), count=6)
        assert 1 <= len(counts) <= 16


class TestZeroDensity:
    """The first box of spectrum() comes from Polya's zero density: about
    P R / (4 pi) zeros in the right half of |x| < R, P the perimeter of the
    convex hull of the exponents."""

    @staticmethod
    def _disc_count(S, R):
        # a 64-gon inscribed in |x| = R, enlarged a little past a zero on it
        for _ in range(6):
            verts = R * np.exp(2j * np.pi * (np.arange(64) + 0.31) / 64)
            (s0,), _, (ok,) = rootfind._contour_moments(S, rootfind._polygon(verts))
            if ok:
                return int(round(s0.real)), R
            R *= 1.0037
        raise AssertionError("no count on the circle")

    def _matrices(self):
        rng = np.random.default_rng(2020)
        mats = []
        for i in range(10):
            a, d = rng.uniform(0.3, 4.0, size=2) * rng.choice([-1, 1], size=2)
            if i % 2:
                a, d = a * np.exp(1j * rng.uniform(-3, 3)), d * np.exp(1j * rng.uniform(-3, 3))
            mats.append(CMatrix2(a, 0, 1, d) if i % 3 else CMatrix2(a, 1, 0, d))
        for _ in range(5):
            mats.append(CMatrix2(*(rng.standard_normal(4) + 1j * rng.standard_normal(4))))
        return mats

    def test_perimeter_of_a_triangular_matrix(self):
        # exponents +-2i/sqrt(a), +-2i/sqrt(d) (up to the sums and differences)
        S = build(CMatrix2.real(1, 0, 1, 4))
        assert abs(S.indicator_perimeter() - 4 * (1 + 0.5)) <= 1e-12

    def test_predicts_the_right_half_count(self):
        for A in self._matrices():
            S = build(A)
            P = S.indicator_perimeter()
            order0 = S.order_at_origin()
            for k in (5.3, 11.7, 23.1):
                n, R = self._disc_count(S, 4 * np.pi * k / P)
                right = (n - order0) / 2          # zeros come in +- pairs
                assert abs(right - P * R / (4 * np.pi)) <= 2, (A, k, n)


class _Poly:
    """Log-derivative protocol of a polynomial with the given zeros."""

    def __init__(self, zeros):
        self.zeros = np.asarray(zeros, dtype=complex)

    def logderiv(self, z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.sum(1.0 / (z[..., None] - self.zeros), axis=-1)


class TestPowerSums:
    """Cells of 2 to 4 zeros are solved from their power sums."""

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        real = rootfind._split_level

        def spy(fun, cells, rng):
            calls.extend(cell.n for cell in cells)
            return real(fun, cells, rng)
        monkeypatch.setattr(rootfind, "_split_level", spy)
        return calls

    def test_three_separated_zeros_need_no_split(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("split")
        monkeypatch.setattr(rootfind, "_split_level", refuse)
        zeros = [0.3 + 0.2j, -0.4 + 0.1j, 0.1 - 0.35j]
        found = isolate_zeros(_Poly(zeros), Rect(-1, 1.1, -0.9, 1))
        assert [m for _, m in found] == [1, 1, 1]
        for z in zeros:
            assert min(abs(w - z) for w, _ in found) <= 1e-12

    def test_double_zero_takes_the_split(self, monkeypatch):
        calls = self._spy(monkeypatch)
        found = isolate_zeros(_Poly([0.3 + 0.2j, 0.3 + 0.2j, -0.5]), Rect(-1, 1.1, -0.9, 1))
        assert calls and calls[0] == 3
        assert sorted(m for _, m in found) == [1, 2]
        z2 = [w for w, m in found if m == 2][0]
        assert abs(z2 - (0.3 + 0.2j)) <= 1e-8

    def test_five_zeros_take_the_split(self, monkeypatch):
        calls = self._spy(monkeypatch)
        zeros = [0.3 + 0.2j, -0.4 + 0.1j, 0.1 - 0.35j, -0.6 - 0.5j, 0.7 + 0.6j]
        found = isolate_zeros(_Poly(zeros), Rect(-1, 1.1, -0.9, 1))
        assert calls[0] == 5
        assert [m for _, m in found] == [1] * 5
        for z in zeros:
            assert min(abs(w - z) for w, _ in found) <= 1e-12

    def test_plain_callable_pair(self):
        # four zeros through the (f, fprime) adapter: one power-sum cell
        zeros = [1.0, 2.0 + 0.5j, 2.5 - 0.3j, 1.5 + 0.1j]
        f, fp = _poly_pair(zeros)
        found = isolate_zeros(f, Rect(0.5, 3.1, -0.7, 0.8), fprime=fp)
        assert [m for _, m in found] == [1] * 4
        for z in zeros:
            assert min(abs(w - z) for w, _ in found) <= 1e-12


class _PolyWithPolish(_Poly):
    """:class:`_Poly` with ``polish_multiple``: the zero of the polynomial's
    (m-1)-th derivative nearest the start, as the secular functions do."""

    def __init__(self, zeros):
        super().__init__(zeros)
        self.polished = []

    def polish_multiple(self, z0, m):
        self.polished.append(m)
        roots = np.roots(np.polyder(np.poly(self.zeros), m - 1))
        return complex(roots[np.argmin(np.abs(roots - z0))]), True


class TestCertifiedCluster:
    """A cell of 2 to 4 zeros that the power sums do not resolve is
    accepted as one m-fold zero when one small square around the polished
    point counts m."""

    @staticmethod
    def _refuse_splits(monkeypatch):
        def refuse(*args):
            raise NonConvergent("split refused")
        monkeypatch.setattr(rootfind, "_split_level", refuse)

    @staticmethod
    def _squares(monkeypatch):
        """Record the vertices of every one-contour integral after the
        first (the top-level count)."""
        seen = []
        real = rootfind._contour_moments

        def watching(fun, segs, *args, **kw):
            if segs.incidence.shape[0] == 1:
                seen.append(segs.vertices)
            return real(fun, segs, *args, **kw)
        monkeypatch.setattr(rootfind, "_contour_moments", watching)
        return lambda: seen[1:]

    def test_triple_zero(self, monkeypatch):
        self._refuse_splits(monkeypatch)
        z = 0.3 + 0.2j
        found = isolate_zeros(_Poly([z, z, z]), Rect(-1, 1.1, -0.9, 1))
        assert len(found) == 1 and found[0][1] == 3
        assert abs(found[0][0] - z) <= 1e-12

    def test_double_zero_by_the_edge_has_a_clipped_square(self, monkeypatch):
        self._refuse_splits(monkeypatch)
        squares = self._squares(monkeypatch)
        z = 0.99998 + 0.2j            # 2e-5 from the right edge
        fun = _PolyWithPolish([z, z])
        found = isolate_zeros(fun, Rect(0.8, 1.0, 0.1, 0.3))
        assert len(found) == 1 and found[0][1] == 2
        assert abs(found[0][0] - z) <= 1e-12
        (square,) = squares()
        width = np.ptp(square.real)
        height = np.ptp(square.imag)
        assert square.real.max() == 1.0
        assert height == pytest.approx(rootfind._CLUSTER_REL * (1 + abs(z)))
        assert width < 0.7 * height

    def test_two_simple_zeros_are_not_one_double_zero(self, monkeypatch):
        # 1.5 cluster sizes apart: the square around their centroid, one
        # cluster size wide, holds neither, and the cell goes to the split
        self._refuse_splits(monkeypatch)
        squares = self._squares(monkeypatch)
        d = 0.75 * rootfind._CLUSTER_REL * 2.0
        fun = _PolyWithPolish([1.0 - d, 1.0 + d])
        with pytest.raises(NonConvergent):
            isolate_zeros(fun, Rect(0.9, 1.1, -0.1, 0.11))
        assert fun.polished == [2]
        (square,) = squares()
        assert abs(np.mean(square) - 1.0) <= 1e-12
        (count,), _, (ok,) = rootfind._contour_moments(fun, rootfind._polygon(square))
        assert ok and round(count.real) == 0

    def test_five_zeros_never_reach_the_rule(self, monkeypatch):
        self._refuse_splits(monkeypatch)
        fun = _PolyWithPolish([0.3 + 0.2j] * 3 + [0.31 + 0.2j, -0.5])
        with pytest.raises(NonConvergent):
            isolate_zeros(fun, Rect(-1, 1.1, -0.9, 1))
        assert fun.polished == []

    def test_square_that_cannot_be_counted(self, monkeypatch):
        # the squares of one level are counted in one call, and a square
        # that cannot be counted (here: a non-finite sample near z) fails
        # alone and leaves its cell to the split
        calls = []
        real = rootfind._contour_moments

        class Refusing:
            def __init__(self, fun):
                self.fun = fun

            def logderiv(self, u):
                return np.where(np.abs(u - z) < 1e-3, np.inf, self.fun.logderiv(u))

        def failing(fun, segs, *args, **kw):
            if segs.radius.max() < 0.1:             # certifying squares only
                squares = segs.vertices.reshape(-1, 4)
                calls.append([(sq.mean(), np.ptp(sq.real)) for sq in squares])
                fun = Refusing(fun)
            return real(fun, segs, *args, **kw)
        monkeypatch.setattr(rootfind, "_contour_moments", failing)

        def assert_tried(*squares):
            assert len(calls) == len(squares), calls
            for call, points in zip(calls, squares):
                assert len(call) == len(points), calls
                for (centre, width), v in zip(call, points):
                    assert abs(centre - v) <= 1e-12
                    assert width == pytest.approx(rootfind._CLUSTER_REL * (1 + abs(v)))

        z, w = 0.3 + 0.2j, -0.4 + 0.5j
        fun = _PolyWithPolish([z, z, w, w])
        cells = [rootfind._Cell(Rect(0, 1, 0, 1), 2, np.zeros(4, dtype=complex), z, 1.0),
                 rootfind._Cell(Rect(-1, 0, 0, 1), 2, np.zeros(4, dtype=complex), w, 1.0)]
        found = rootfind._multiple_zeros(fun, cells, 1e-10)
        assert found[0] is None and abs(found[1] - w) <= 1e-12
        # the two squares in one call: the one around z is refused, the
        # other counts its two zeros
        assert_tried([z, w])

        # a lone square is tried once, in its level's one call, then the
        # (refused) split
        self._refuse_splits(monkeypatch)
        calls.clear()
        with pytest.raises(NonConvergent):
            isolate_zeros(_PolyWithPolish([z, z]), Rect(-1, 1.1, -0.9, 1))
        assert_tried([z])


class TestMultipleZeroCost:
    """Guards on the work spectrum() spends on multiple zeros, counted with
    the default rng so that the counts repeat exactly."""

    @staticmethod
    def _count(monkeypatch, A, count):
        seen = {"points": 0, "power_sums": 0}
        real_ld = SecularFn.logderiv
        real_ps = rootfind._power_sum_zeros

        def logderiv(self, z):
            seen["points"] += np.size(z)
            return real_ld(self, z)

        def power_sums(*args, **kw):
            seen["power_sums"] += 1
            return real_ps(*args, **kw)

        monkeypatch.setattr(SecularFn, "logderiv", logderiv)
        monkeypatch.setattr(rootfind, "_power_sum_zeros", power_sums)
        spectrum(A, count=count)
        return seen

    def test_all_double_spectrum(self, monkeypatch):
        seen = self._count(monkeypatch, CMatrix2.real(2, 0, 0, 2), 6)
        assert seen["power_sums"] <= 20, seen
        assert seen["points"] <= 60_000, seen

    def test_double_zero_at_every_other_lattice_point(self, monkeypatch):
        seen = self._count(monkeypatch, CMatrix2.real(1, 0, 1, 4), 12)
        assert seen["points"] <= 120_000, seen

    def test_quadruple_zeros_on_the_a0_line(self, monkeypatch):
        seen = self._count(monkeypatch, family_matrix(Family.A4, 0.0, 2.5), 12)
        assert seen["points"] <= 150_000, seen


class TestPointBudget:
    """Guards on the logderiv points one spectrum() takes where a long box
    edge passes near a zero: only the panels near it refine.  Counted with
    the default rng so that the counts repeat exactly."""

    @staticmethod
    def _points(monkeypatch, A, **kw):
        seen = [0]
        real_ld = SecularFn.logderiv

        def logderiv(self, z):
            seen[0] += np.size(z)
            return real_ld(self, z)

        monkeypatch.setattr(SecularFn, "logderiv", logderiv)
        spectrum(A, **kw)
        return seen[0]

    def test_a5_rectangle_of_a_curve_point(self, monkeypatch):
        A = lambda_curve(7, 2, +1, 0.23813524139118686).matrix()
        points = self._points(monkeypatch, A, lambda_rect=Rect(0, 14.5, -14.47, 14.53))
        assert points <= 108_000, points

    def test_first_box_with_a_zero_by_its_long_edge(self, monkeypatch):
        points = self._points(monkeypatch, CMatrix2.real(3.478, 1, 1, 3.253), count=20)
        assert points <= 140_000, points


class TestLevelCost:
    """Guards on the calls one spectrum() makes: the first box is counted
    with its first grid in one contour call, each later quadtree level
    makes at most one call for its certifying squares and one for its
    splits, and each level runs one Newton."""

    @staticmethod
    def _calls(monkeypatch, A, **kw):
        calls = {"logderiv": 0, "newton": 0, "moments": 0, "points": 0}

        def counting(key, real):
            def wrapper(*args, **kw):
                calls[key] += 1
                if key == "logderiv":
                    calls["points"] += np.size(args[1])
                return real(*args, **kw)
            return wrapper

        monkeypatch.setattr(SecularFn, "logderiv", counting("logderiv", SecularFn.logderiv))
        monkeypatch.setattr(rootfind, "_newton", counting("newton", rootfind._newton))
        monkeypatch.setattr(rootfind, "_contour_moments",
                            counting("moments", rootfind._contour_moments))
        return spectrum(A, **kw), calls

    def test_calls_of_a_triangular_spectrum(self, monkeypatch):
        sp, calls = self._calls(monkeypatch, CMatrix2.real(1.3, 1, 0, -2.1), count=12)
        assert len(sp.eigenvalues) == 12
        assert calls["logderiv"] <= 9, calls
        assert calls["newton"] <= 2, calls
        assert calls["moments"] <= 2, calls

    def test_calls_of_an_a5_rectangle(self, monkeypatch):
        # a zero within 1e-2 of the rectangle's right edge: the first
        # grid's outer segments take the box's cap, so one call counts the
        # box and splits it
        A = lambda_curve(7, 2, +1, 0.23813524139118686).matrix()
        sp, calls = self._calls(monkeypatch, A, lambda_rect=Rect(0, 14.5, -14.47, 14.53))
        assert len(sp.eigenvalues) == 10
        assert calls["logderiv"] <= 9, calls
        assert calls["newton"] <= 1, calls
        assert calls["moments"] <= 1, calls

    def test_calls_of_a_far_small_rectangle(self, monkeypatch):
        # the first grid is sized by the zeros the box can hold, those
        # between its nearest and farthest point from the origin, not by
        # all the zeros out to its farthest corner (about 6,400 here)
        A = CMatrix2.real(1.3, 1, 0, -2.1)
        rows = []
        real = rootfind._contour_moments

        def watching(fun, segs, *args, **kw):
            rows.append(segs.incidence.shape[0])
            return real(fun, segs, *args, **kw)
        monkeypatch.setattr(rootfind, "_contour_moments", watching)
        sp, calls = self._calls(monkeypatch, A, lambda_rect=Rect(1e4, 1e4 + 1, -0.5, 0.5))
        # the box's polygon and a 2 x 2 grid
        assert rows == [1 + 4], rows
        assert calls["points"] <= 2000, calls
        # the one zero inside, sqrt(1.3) pi k for k = 2792
        assert [m for _, m in sp.eigenvalues] == [1, 1]
        assert_allclose(sp.eigenvalues[1][0], 1.3 * (2792 * np.pi) ** 2, rtol=1e-12)

    def test_a_rectangle_goes_through_count_box(self, monkeypatch):
        # the isolation of a given rectangle starts with one _count_box
        # call, which counts the box with its first grid
        A = CMatrix2.real(1.3, 1, 0, -2.1)
        seen = []
        real = rootfind._count_box

        def spy(fun, rect, rng, k=None):
            seen.append(k)
            return real(fun, rect, rng, k)
        monkeypatch.setattr(rootfind, "_count_box", spy)
        monkeypatch.setattr(rootfind, "isolate_zeros", None)
        sp = spectrum(A, lambda_rect=Rect(0, 14.5, -14.47, 14.53))
        assert len(seen) == 1 and seen[0] >= 2
        assert len(sp.eigenvalues) > 1

    def test_failed_grid_keeps_the_box_count(self, monkeypatch):
        # a zero on a line of the A5 rectangle's first 3 x 3 grid: in the
        # call that bundles the box with its grid only the grid fails, the
        # box's count stands, and one 2 x 2 level isolates it
        A = lambda_curve(4, 1, +1, 0.9100669616352928).matrix()
        calls = []
        real = rootfind._contour_moments

        def watching(fun, segs, *args, **kw):
            out = real(fun, segs, *args, **kw)
            calls.append(out[2].tolist())
            return out
        monkeypatch.setattr(rootfind, "_contour_moments", watching)
        sp = spectrum(A, lambda_rect=Rect(0, 14.5, -14.47, 14.53))
        assert calls == [[True] + [False] * 9, [True] * 4]
        assert len(sp.eigenvalues) == 6

    def test_grid_size_is_capped(self):
        assert [rootfind._grid_size(n) for n in (1, 6, 7, 384, 385, 1e6)] == [2, 2, 3, 16, 16, 16]


class TestBatchedLevels:
    """Each split attempt of a quadtree level counts the grids of all the
    cells it has still to split in one contour call, each cell in its own
    frame and with its own count-sum check.  A grid that fails fails alone;
    the cells their grids do not split go on together to the level's next,
    jittered attempt."""

    CELLS = [(Rect(0.0, 1.0, 0.0, 1.0), [0.2 + 0.3j, 0.7 + 0.8j, 0.8 + 0.1j, 0.3 + 0.75j, 0.6 + 0.5j]),
             (Rect(2.0, 3.1, 0.0, 0.9), [2.1 + 0.1j, 2.3 + 0.7j, 2.5 + 0.4j, 2.8 + 0.2j,
                                         2.9 + 0.8j, 2.45 + 0.15j, 2.65 + 0.6j]),
             (Rect(0.0, 1.0, 2.0, 3.0), [0.4 + 2.4j, 0.6 + 2.7j])]

    @staticmethod
    def _moments_calls(monkeypatch):
        rows = []
        real = rootfind._contour_moments

        def watching(fun, segs, *args, **kw):
            rows.append(segs.incidence.shape[0])
            return real(fun, segs, *args, **kw)
        monkeypatch.setattr(rootfind, "_contour_moments", watching)
        return rows

    @staticmethod
    def _assert_children(cell, zeros, children):
        """The children hold every zero of the cell, each child's count and
        power sums those of the zeros inside, in the frame of the cell."""
        assert sum(child.n for child in children) == len(zeros)
        for child in children:
            assert (child.centre, child.radius) == (cell.center, 0.5 * cell.diameter)
            inside = np.array([z for z in zeros if child.rect.contains(z)])
            assert child.n == inside.size
            u = (inside - child.centre) / child.radius
            assert_allclose(child.sums, [np.sum(u ** k) for k in range(1, 5)],
                            rtol=0, atol=1e-10)

    def test_batched_level_matches_per_cell_splits(self, monkeypatch):
        zeros = [z for _, zs in self.CELLS for z in zs]
        cells = [_counted(rect, len(zs)) for rect, zs in self.CELLS]
        rows = self._moments_calls(monkeypatch)
        batched = rootfind._split_level(_Poly(zeros), cells, np.random.default_rng(0))
        # one call: two 2 x 2 grids (5 and 2 zeros) and one 3 x 3 (7 zeros)
        assert rows == [4 + 9 + 4]
        alone = [rootfind._split_level(_Poly(zeros), [cell], np.random.default_rng(0))
                 for cell in cells]
        assert rows[1:] == [4, 9, 4]
        assert len(batched) == sum(len(children) for children in alone)
        for b, a in zip(batched, [child for children in alone for child in children]):
            assert (b.rect, b.n, b.centre, b.radius) == (a.rect, a.n, a.centre, a.radius)
            assert_allclose(b.sums, a.sums, rtol=0, atol=1e-10)
        at = 0
        for (rect, zs), children in zip(self.CELLS, alone):
            self._assert_children(rect, zs, batched[at:at + len(children)])
            at += len(children)

    @staticmethod
    def _failed_calls(monkeypatch):
        """The row counts of every contour call (as :meth:`_moments_calls`)
        and, for each, the rows that failed."""
        rows = TestBatchedLevels._moments_calls(monkeypatch)
        failed = []
        real = rootfind._contour_moments

        def watching(fun, segs, *args, **kw):
            out = real(fun, segs, *args, **kw)
            failed.append(np.flatnonzero(~out[2]).tolist())
            return out
        monkeypatch.setattr(rootfind, "_contour_moments", watching)
        return rows, failed

    def test_batch_with_a_zero_on_one_grid_line(self, monkeypatch):
        # the first vertical line of the unit square's 2 x 2 grid passes
        # through a zero at x = 0.513137: in the batched call only that
        # grid fails, and only the unit square goes on to the level's next
        # attempt
        cells = [(Rect(0.0, 1.0, 0.0, 1.0), [0.513137 + 0.3j, 0.2 + 0.7j, 0.8 + 0.85j,
                                             0.3 + 0.2j, 0.75 + 0.45j])] + self.CELLS[1:]
        zeros = [z for _, zs in cells for z in zs]
        rows, failed = self._failed_calls(monkeypatch)
        children = rootfind._split_level(_Poly(zeros), [_counted(r, len(zs)) for r, zs in cells],
                                         np.random.default_rng(0))
        # the batch, then the unit square's jittered grid
        assert failed == [[0, 1, 2, 3], []]
        assert rows == [4 + 9 + 4, 4]
        for rect, zs in cells:
            self._assert_children(rect, zs, [c for c in children if rect.contains(c.rect.center)])

    def test_jittered_grids_of_a_level_share_one_call(self, monkeypatch):
        # a zero on the first vertical grid line of each of two cells: both
        # first grids fail, and the level's next attempt counts both
        # jittered grids in one call
        cells = [(Rect(0.0, 1.0, 0.0, 1.0), [0.513137 + 0.3j, 0.2 + 0.7j, 0.8 + 0.85j,
                                             0.3 + 0.2j, 0.75 + 0.45j]),
                 (Rect(2.0, 3.0, 0.0, 1.0), [2.513137 + 0.6j, 2.2 + 0.3j, 2.8 + 0.2j,
                                             2.3 + 0.8j, 2.7 + 0.7j])]
        zeros = [z for _, zs in cells for z in zs]
        rows, failed = self._failed_calls(monkeypatch)
        children = rootfind._split_level(_Poly(zeros), [_counted(r, len(zs)) for r, zs in cells],
                                         np.random.default_rng(0))
        assert failed == [list(range(8)), []]
        assert rows == [4 + 4, 4 + 4]
        for rect, zs in cells:
            self._assert_children(rect, zs, [c for c in children if rect.contains(c.rect.center)])

    def test_first_grid_changes_no_zero(self):
        rect, zs = self.CELLS[1]
        plain = isolate_zeros(_Poly(zs), rect)
        for k in (2, 3, 5):
            rng = np.random.default_rng(0)
            counted, first = rootfind._count_box(_Poly(zs), rect, rng, k)
            assert counted.n == len(zs) and first
            gridded = rootfind._isolate_counted(_Poly(zs), counted, 1e-10, rng, first)
            assert [m for _, m in gridded] == [m for _, m in plain]
            assert_allclose([z for z, _ in gridded], [z for z, _ in plain], rtol=1e-12)

    def test_first_box_count_sum_check(self, monkeypatch):
        # the first grid of spectrum()'s box loses the cell that holds the
        # zero sqrt(1.3) pi: its children add up to one less than the box's
        # own polygon, so the box itself is the first level, its split
        # comes from that level's own call, and the spectrum is the same
        A = CMatrix2.real(1.3, 1, 0, -2.1)
        real_grid = rootfind._grid
        lost = []

        def lossy(xs, ys):
            segs = real_grid(xs, ys)
            if not lost:
                k = len(xs) - 1
                i = int(np.searchsorted(xs, np.sqrt(1.3) * np.pi)) - 1
                j = int(np.searchsorted(ys, 0.0)) - 1
                segs.incidence[i + k * j] = 0.0
                lost.append(Rect(xs[0], xs[-1], ys[0], ys[-1]))
            return segs

        levels = []
        real_level = rootfind._split_level

        def spy(fun, cells, rng):
            levels.append([cell.rect for cell in cells])
            return real_level(fun, cells, rng)

        monkeypatch.setattr(rootfind, "_grid", lossy)
        monkeypatch.setattr(rootfind, "_split_level", spy)
        sp = spectrum(A, count=12)
        assert levels[0] == [lost[0]]
        lattice = sorted({c * k * k * np.pi ** 2 for c in (1.3, -2.1) for k in range(12)}, key=abs)
        assert [m for _, m in sp.eigenvalues] == [1] * 12
        assert_allclose(sp.values(), lattice[:12], rtol=1e-10, atol=1e-10)
