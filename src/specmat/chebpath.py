"""Closed-form spectra on the rational level curves of the eigenvalue
ratio inside the band region, via a palindromic polynomial in e^{iz}.

For the family ``(a, -1; 1, d)`` with both eigenvalues ``b+ > b- > 0``,
the curves ``d = d_pm(a)`` on which ``sqrt(b+/b-) = alpha`` foliate the
region.  The secular function is kept in its cosine-sum form
``EV(x) = c1 (cos(f1 x) - 1) + c2 (cos(f2 x) - 1)``, which
:class:`specmat.secular.SecularFn` evaluates as ``-2 sum c sin^2(f x/2)``,
with ``f1, f2 = 1/sqrt(b+) +- 1/sqrt(b-)`` up to sign.  When ``alpha = p/q``
is rational, ``z = x / (q sqrt(b+))`` gives ``f1 x = (p+q) z`` and
``f2 x = +-(p-q) z``.  Since cosine is even, ``EV(x) = G(cos z)`` with
``G(w) = c1 (T_{p+q}(w) - 1) + c2 (T_{p-q}(w) - 1)``, and with
``zeta = e^{iz}``, ``cos(m z) = (zeta^m + zeta^-m)/2``, so

    EV(x) = zeta^-(p+q) P(zeta),
    P(zeta) = c1/2 zeta^(2(p+q)) + c2/2 zeta^(2p) - (c1 + c2) zeta^(p+q)
              + c2/2 zeta^(2q) + c1/2,

a palindromic polynomial with five coefficients of the size of c1 and c2,
in the same gauge as the secular function itself (see
docs/chebyshev_reduction.md and the sampled identity test that pins it).
Each root ``zeta0`` generates the zeros ``x = (-i log zeta0 + 2 n pi) q
sqrt(b+)``.  ``P(1) = 0`` is the structural zero at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .canonical import Family, RegionTag, classify_region, family_matrix
from .errors import DegreeTooHigh, NonConvergent, OutOfDomain
from . import secular
from .mat2 import CMatrix2
from .rootfind import (_MAX_DEGREE, Spectrum, _canonical_sorted, _newton, cluster_roots,
                       polyroots)

_CLUSTER_REL = 1e-8      # polished roots closer than this in z, over 1 + |z|, are one root


@dataclass(frozen=True)
class ChebPoint:
    """A point of a rational level curve of the eigenvalue ratio."""

    a: float
    p: int
    q: int
    sign: int
    d: float
    b_plus: float
    b_minus: float

    @property
    def alpha(self) -> float:
        return self.p / self.q

    def matrix(self) -> CMatrix2:
        """``(a, -1; 1, d)`` in floating point: the float rounding of the
        exact curve point, not the operator whose eigenvalues are ``b+-``.
        Where ``b-`` is small the two part measurably: for
        ``lambda_curve(31, 1, -1, 2.9118)`` this matrix's eigenvalues differ
        from ``b+-`` by 3e-11 relative, since its ``det = a d + 1`` cancels."""
        return family_matrix(Family.A4, self.a, self.d)


def ratio_float(ratio) -> float:
    """``float(ratio)``, or OutOfDomain for a ratio beyond the float range."""
    try:
        return float(ratio)
    except OverflowError:
        raise OutOfDomain("ratio beyond the float range") from None


def level_curve_d(alpha: float, sign: int, a: float) -> float:
    """The two solutions d_pm(a) of sqrt(b+/b-) = alpha:
    ``[a (alpha^4 + 1) +- sqrt((alpha^4 - 1)^2 a^2 + 4 alpha^2 (alpha^2 + 1)^2)]
    / (2 alpha^2)``.  OutOfDomain where alpha is so large that these
    powers overflow a float, or so small that ``alpha^2`` underflows to 0."""
    try:
        a4 = alpha ** 4
        disc = (a4 - 1.0) ** 2 * a * a + 4.0 * alpha ** 2 * (alpha ** 2 + 1.0) ** 2
        return (a * (a4 + 1.0) + sign * math.sqrt(disc)) / (2.0 * alpha ** 2)
    except (OverflowError, ZeroDivisionError):
        raise OutOfDomain(f"level curve of ratio {alpha} is beyond the float range") from None


def lambda_curve(p: int, q: int, sign: int, a: float) -> ChebPoint:
    """Construct the curve point for alpha = p/q (> 1, coprime after
    reduction), sign selecting the upper (+) or lower (-) branch.

    Domain: ``a > -1`` for the upper branch and ``a > 1`` for the lower
    one; outside, the point leaves the band region.
    """
    p, q = int(p), int(q)
    if p <= 0 or q <= 0:
        raise OutOfDomain("p and q must be positive integers")
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if p <= q:
        raise OutOfDomain(f"ratio p/q = {p}/{q} must exceed 1")
    if sign not in (+1, -1):
        raise OutOfDomain("sign must be +1 or -1")
    if sign > 0 and not a > -1.0:
        raise OutOfDomain(f"upper branch needs a > -1, got a = {a}")
    if sign < 0 and not a > 1.0:
        raise OutOfDomain(f"lower branch needs a > 1, got a = {a}")
    alpha = ratio_float(Fraction(p, q))
    d = level_curve_d(alpha, sign, a)
    # on the curve the ratio is alpha exactly, so the trace fixes both
    # eigenvalues: b- = (a+d)/(alpha^2+1), b+ = alpha^2 b-.  The quadratic
    # formula cancels catastrophically near the singular corner.
    trace = a + d
    if trace <= 0.0:
        raise OutOfDomain(f"eigenvalues not split positive at (a, d) = ({a}, {d})")
    bm = trace / (alpha * alpha + 1.0)
    bp = alpha * alpha * bm
    if abs(bp * bm - (a * d + 1.0)) > 1e-9 * (1.0 + a * a + d * d):
        raise OutOfDomain(f"curve eigenvalue identity failed at (a, d) = ({a}, {d})")
    region = classify_region(a, d)
    if region.tag is not RegionTag.R3:
        raise OutOfDomain(f"curve point left the band region: {region.tag.value}")
    return ChebPoint(a=float(a), p=p, q=q, sign=sign, d=float(d),
                     b_plus=float(bp), b_minus=float(bm))


@dataclass(frozen=True)
class GPoly:
    """Palindromic polynomial ``P(zeta) = zeta^(p+q) G((zeta + 1/zeta)/2)``
    of degree 2(p+q) (2(p-q) on the real-spectrum curve) whose roots
    generate the whole spectrum: ``secular(x) = zeta^-(p+q) P(zeta)`` at
    ``zeta = exp(iz)``, ``z = x / (q sqrt(b+))``.

    P is held as a sum of two squares,
    ``P = c1/2 (zeta^(m+n) - 1)^2 + c2/2 (zeta^m - zeta^n)^2``, the form in
    zeta of the secular function's ``-2 sum c sin^2(f x/2)``, since
    ``(zeta^k - 1)^2 = -4 zeta^k sin^2(k z/2)``.  ``(m, n)`` is ``(p, q)``,
    or ``(p-q, 0)`` where c1 = 0 and the factor ``zeta^(2q)`` is dropped.
    Evaluated in this form, P keeps its relative accuracy at a double root
    of either square, where its five expanded terms cancel.

    Called with zeta, it evaluates P.  :meth:`logderiv` and
    :meth:`residual` take z, the variable in which the roots are polished
    and whose lattices ``z + 2 n pi`` are the zeros.
    """

    c1: complex
    c2: complex
    m: int
    n: int

    @property
    def coeffs(self) -> np.ndarray:
        """The five coefficients ``c1/2, c2/2, -(c1+c2), c2/2, c1/2`` at the
        degrees ``2(m+n), 2m, m+n, 2n, 0``, highest degree first."""
        m, n = self.m, self.n
        c = np.zeros(2 * (m + n) + 1, dtype=complex)
        c[[0, -1]] += 0.5 * self.c1
        c[[2 * n, 2 * m]] += 0.5 * self.c2
        c[m + n] -= self.c1 + self.c2
        return c

    @property
    def degree(self) -> int:
        return 2 * (self.m + self.n)

    def _at(self, zeta):
        """P, zeta P' and the rounding scale of the two-squares form at zeta."""
        zm, zn = zeta ** self.m, zeta ** self.n
        A, B = zm * zn - 1.0, zm - zn
        P = 0.5 * (self.c1 * A * A + self.c2 * B * B)
        zdP = (self.m + self.n) * self.c1 * A * zm * zn + self.c2 * B * (self.m * zm - self.n * zn)
        scale = (abs(self.c1) * np.abs(A) * (np.abs(zm * zn) + 1.0)
                 + abs(self.c2) * np.abs(B) * (np.abs(zm) + np.abs(zn)))
        return P, zdP, scale

    def __call__(self, zeta):
        return self._at(np.asarray(zeta, dtype=complex))[0]

    def _inside(self, z):
        """Where ``Im z < 0``, and :meth:`_at` at ``e^{iz}`` or there at
        ``e^{-iz}``: inside the unit circle, so that no power overflows."""
        z = np.asarray(z, dtype=complex)
        flip = z.imag < 0
        return flip, self._at(np.exp(1j * np.where(flip, -z, z)))

    def logderiv(self, z):
        """``d/dz log P(e^{iz})``; infinite on a root.  Reflected through
        ``P(zeta) = zeta^degree P(1/zeta)`` outside the unit circle."""
        flip, (P, zdP, _) = self._inside(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            ld = 1j * zdP / P
        return np.where(flip, 1j * self.degree - ld, ld)

    def residual(self, z):
        """``|P|`` at ``e^{iz}`` over the rounding scale of its two-squares
        form: the relative backward error of z as a root, which the
        reflection leaves unchanged."""
        _, (P, _, scale) = self._inside(z)
        return np.abs(P) / scale


def build_g(pt: ChebPoint) -> GPoly:
    """Assemble P from the cosine-sum coefficients of the secular function
    of the curve point."""
    S = secular.build(pt.matrix())
    # on the real-spectrum curve a^2 - ad - 1 = 0 secular.build cancels c1
    # exactly, and P = c2/2 zeta^(2q) (zeta^(p-q) - 1)^2 drops its factor
    # zeta^(2q): zeta = 0 is never a root of G
    m, n = (pt.p, pt.q) if S.c1 != 0 else (pt.p - pt.q, 0)
    return GPoly(c1=complex(S.c1), c2=complex(S.c2), m=m, n=n)


def _divide(coeffs: np.ndarray, t: float):
    """Quotient and remainder of ``coeffs / (zeta - t)`` for ``t = +-1``:
    Horner's recurrence ``b_k = a_k + t b_(k-1)``, which for ``t = +-1`` is
    a signed running sum."""
    sign = t ** np.arange(coeffs.size)
    b = sign * np.cumsum(sign * coeffs)
    return b[:-1], b[-1]


def _divide_square(coeffs: np.ndarray, t: float) -> np.ndarray:
    """``coeffs / (zeta - t)^2`` for a palindromic polynomial with the root
    t = +-1, palindromic again.  The recurrence runs from the leading
    coefficient, so it carries the rounding of the large coefficients into
    the small trailing ones (c1/2 at the ends near the real-spectrum curve);
    the quotient's upper half is mirrored onto its lower half instead."""
    q = _divide(_divide(coeffs, t)[0], t)[0]
    half = q.size // 2
    q[q.size - half:] = q[:half][::-1]
    return q


def _deflate_structural(coeffs: np.ndarray):
    """Divide the structural roots +-1 out of P: ``(zeta -+ 1)^2`` as many
    times as the polynomial left vanishes there to rounding, which is as
    many times as G and its derivatives do at ``w = +-1`` (since ``w -+ 1 =
    +-(zeta -+ 1)^2 / (2 zeta)``, every root of P at +-1 is of even order).
    Returns the quotient and the ``(t, G multiplicity)`` pairs divided
    out.

    A root of G next to +-1 (at small a != 0 the root 1 + delta beside the
    structural 1) gives a pair of roots of the quotient, away from any
    root they could be clustered with or polished onto.
    """
    found = []
    for t in (1.0, -1.0):
        mult = 0
        while coeffs.size > 2:
            if abs(_divide(coeffs, t)[1]) > 1e-10 * np.abs(coeffs).sum():
                break
            coeffs = _divide_square(coeffs, t)
            mult += 1
        if mult:
            found.append((t, mult))
    return coeffs, found


def _roots(pt: ChebPoint):
    """The roots of P as ``(z0, multiplicity)`` pairs, ``z0 = -i log zeta0``,
    multiplicity the root multiplicity of G at ``cos z0``.

    The structural roots +-1 (``z0 = 0, pi``) are divided out first
    (:func:`_deflate_structural`).  Every root of the quotient is then
    polished in one Newton run in z on P itself: the quotient's
    coefficients can span many orders of magnitude (after
    ``(zeta - 1)^4`` at a = 0), P's do not, and in z the step test is
    relative also for the roots far from the unit circle.  Each polished
    root must be a root of P to a relative backward error of 1e-13
    (:meth:`GPoly.residual`), else NonConvergent is raised.  The copies of
    a multiple root (on the real-spectrum curve every other root is
    double) polish to one point, and are counted there.
    """
    g = build_g(pt)
    if g.degree > 2 * _MAX_DEGREE:
        # far above polyroots' degree cap even once the few roots at +-1 are
        # divided out: refused before the coefficients (one per degree) exist
        raise DegreeTooHigh(f"P has degree {g.degree} at {pt}")
    quotient, found = _deflate_structural(g.coeffs)
    roots = [(complex(math.acos(t)), mult) for t, mult in found]
    if quotient.size > 1:
        zeta = polyroots(quotient)
        if not np.all(zeta):
            # np.roots gives 0 where c1/2, the trailing coefficient, is
            # below the rounding of the others (next to the real-spectrum curve)
            raise NonConvergent(f"a root of P was found at zeta = 0 at {pt}")
        z, _ = _newton(g, -1j * np.log(zeta), 1, tol=1e-12)
        bad = np.count_nonzero(g.residual(z) > 1e-13)
        if bad:
            raise NonConvergent(f"{bad} polished roots of P are not its roots at {pt}")
        roots += cluster_roots(z, rel_tol=_CLUSTER_REL)
    return roots


def root_lattices(pt: ChebPoint, n_max: int):
    """One ``(multiplicity, lambda2)`` pair per root zeta0 of P:
    ``lambda2`` holds the eigenvalues ``((z0 + 2 n pi) q sqrt(b+))^2``,
    ``z0 = -i log zeta0``, for ``-n_max <= n <= n_max``.

    Multiplicity is the root multiplicity of G (:func:`_roots`).  The
    roots of P come in pairs zeta0, 1/zeta0 with the same lattice.
    """
    if n_max < 0 or n_max > 10_000:
        raise ValueError("n_max out of range")
    step = pt.q * math.sqrt(pt.b_plus)
    shifts = 2.0 * np.pi * np.arange(-n_max, n_max + 1)
    out = []
    for z0, mult in _roots(pt):
        lam = (z0 + shifts) * step
        out.append((mult, lam * lam))
    return out


def cheb_spectrum(pt: ChebPoint, n_max: int,
                  lambda2_max: Optional[float] = None) -> Spectrum:
    """Exact spectrum on a rational curve point: every zero of the secular
    function is ``(z0 + 2 n pi) q sqrt(b+)`` for a root ``zeta0 = e^{i z0}``
    of P.

    Eigenvalue multiplicity is the root multiplicity of G; at ``w0 = +-1``
    (``zeta0 = +-1``) the secular zero order doubles, which is recorded in
    the notes rather than in the multiplicity.

    The spectrum is that of the exact curve point, built from ``b+-``;
    ``Spectrum.matrix`` is :meth:`ChebPoint.matrix`, only its float
    rounding, whose own spectrum parts from it where ``b-`` is small.
    """
    raw = [(complex(v), mult)
           for mult, lam2 in root_lattices(pt, n_max) for v in lam2]
    # sorted merge: equal eigenvalues land adjacently in canonical order
    merged = []
    for v, m in _canonical_sorted(raw):
        if lambda2_max is not None and abs(v) > lambda2_max:
            continue
        for i in range(len(merged) - 1, max(len(merged) - 6, -1), -1):
            u, k = merged[i]
            if abs(v - u) <= 1e-8 * (1.0 + abs(v)):
                merged[i] = (u, max(k, m))
                break
        else:
            merged.append((v, m))
    order0 = 2 * max([m for v, m in merged if abs(v) <= 1e-9], default=1)
    eigs = _canonical_sorted([(0j, 1)] + [(v, m) for v, m in merged if abs(v) > 1e-9])
    notes = ("multiplicity = G-root multiplicity; the secular zero order "
             "doubles at w0 = +-1",)
    return Spectrum(eigenvalues=tuple(eigs), method="chebyshev",
                    search_region=None, matrix=pt.matrix(),
                    analytic_order_at_zero=order0, notes=notes)
