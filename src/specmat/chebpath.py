"""Closed-form spectra on the rational level curves of the eigenvalue
ratio inside the band region, via Chebyshev polynomials.

For the family ``(a, -1; 1, d)`` with both eigenvalues ``b+ > b- > 0``,
the curves ``d = d_pm(a)`` on which ``sqrt(b+/b-) = alpha`` foliate the
region.  The secular function is kept in its cosine-sum form
``EV(x) = c1 (cos(f1 x) - 1) + c2 (cos(f2 x) - 1)``, which
:class:`specmat.secular.SecularFn` evaluates as ``-2 sum c sin^2(f x/2)``,
with ``f1, f2 = 1/sqrt(b+) +- 1/sqrt(b-)`` up to sign.  When ``alpha = p/q``
is rational, ``z = x / (q sqrt(b+))`` gives ``f1 x = (p+q) z`` and
``f2 x = +-(p-q) z``, and since cosine is even

    EV(x) = G(cos z),    G(w) = c1 (T_{p+q}(w) - 1) + c2 (T_{p-q}(w) - 1),

so the whole zero set is generated by the roots of the degree p+q
polynomial G, in the same gauge as the secular function itself (see
docs/chebyshev_reduction.md and the sampled identity test that pins it).
``G(1) = 0`` is the structural zero at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .canonical import Family, RegionTag, classify_region, family_matrix
from .errors import DegreeTooHigh, OutOfDomain
from . import secular
from .mat2 import CMatrix2
from .rootfind import (Spectrum, _as_protocol, _canonical_sorted, _newton, cluster_roots,
                       polyroots)

DEGREE_CAP_DEFAULT = 20   # polynomial rooting is unstable past this
_G_CLUSTER_REL = 1e-5      # G roots closer than this, over 1 + |w|, form one cluster


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
        return family_matrix(Family.A4, self.a, self.d)


def level_curve_d(alpha: float, sign: int, a: float) -> float:
    """The two solutions d_pm(a) of sqrt(b+/b-) = alpha:
    ``[a (alpha^4 + 1) +- sqrt((alpha^4 - 1)^2 a^2 + 4 alpha^2 (alpha^2 + 1)^2)]
    / (2 alpha^2)``."""
    a4 = alpha ** 4
    disc = (a4 - 1.0) ** 2 * a * a + 4.0 * alpha ** 2 * (alpha ** 2 + 1.0) ** 2
    return (a * (a4 + 1.0) + sign * math.sqrt(disc)) / (2.0 * alpha ** 2)


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
    alpha = p / q
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
    if abs(math.sqrt(bp / bm) - alpha) > 1e-10 * (1 + alpha):
        raise OutOfDomain("curve identity sqrt(b+/b-) = p/q failed")
    region = classify_region(a, d)
    if region.tag is not RegionTag.R3:
        raise OutOfDomain(f"curve point left the band region: {region.tag.value}")
    return ChebPoint(a=float(a), p=p, q=q, sign=sign, d=float(d),
                     b_plus=float(bp), b_minus=float(bm))


def chebyshev_t(m: int, max_degree: int = 64) -> np.ndarray:
    """Monomial coefficients (highest degree first) of the degree-m
    Chebyshev polynomial of the first kind, by the three-term recurrence."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    if m > max_degree:
        raise DegreeTooHigh(f"Chebyshev degree {m} > {max_degree}")
    if m == 0:
        return np.array([1.0])
    prev = np.array([1.0])          # T_0
    cur = np.array([1.0, 0.0])      # T_1
    for _ in range(m - 1):
        nxt = 2.0 * np.append(cur, 0.0)
        nxt[2:] -= prev
        prev, cur = cur, nxt
    return cur


@dataclass(frozen=True)
class GPoly:
    """Polynomial of degree p+q (p-q on the real-spectrum curve) whose roots
    generate the whole spectrum: ``secular(x) = G(cos(x / (q sqrt(b+))))``."""

    coeffs: np.ndarray      # monomial basis, highest degree first

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, w):
        return np.polyval(self.coeffs, w)


def build_g(pt: ChebPoint) -> GPoly:
    """Assemble G(w) = c1 (T_{p+q}(w) - 1) + c2 (T_{p-q}(w) - 1) from the
    cosine-sum coefficients of the secular function of the curve point."""
    S = secular.build(pt.matrix())
    coeffs = S.c1 * chebyshev_t(pt.p + pt.q).astype(complex)
    coeffs[-1] -= S.c1 + S.c2
    tlow = chebyshev_t(pt.p - pt.q)
    coeffs[-tlow.size:] += S.c2 * tlow
    # on the real-spectrum curve a^2 - ad - 1 = 0 secular.build cancels c1
    # exactly and G drops to degree p-q
    return GPoly(coeffs=np.trim_zeros(coeffs, "f"))


def _deflate_structural(coeffs: np.ndarray):
    """Divide the structural roots +-1 out of G: each as many times as the
    polynomial left vanishes there to rounding, which is as many times as
    G and its derivatives do.  Returns the quotient and the ``(root,
    multiplicity)`` pairs divided out.

    A root of G next to +-1 (at small a != 0 the root 1 + delta beside the
    structural 1) is then a root of the quotient, away from any root it
    could be clustered with or polished onto.
    """
    found = []
    for target in (1.0, -1.0):
        mult = 0
        while (coeffs.size > 1 and abs(np.polyval(coeffs, target))
               <= 1e-10 * np.abs(coeffs).sum()):
            coeffs = np.polydiv(coeffs, np.array([1.0, -target]))[0]
            mult += 1
        if mult:
            found.append((complex(target), mult))
    return coeffs, found


def _polish_roots(coeffs: np.ndarray, w0s, mults) -> np.ndarray:
    """Full-precision roots from root cluster centres ``w0s`` of
    multiplicities ``mults``: multiplicity-aware Newton (the
    companion-matrix eigenvalues resolve an m-fold root only to
    O(eps^(1/m)), and Newton with the known multiplicity restores full
    precision), stopping once a step falls to ``1e-15 (1 + |w|)``.
    Results within rounding of the real axis are put on it.
    """
    poly = _as_protocol(partial(np.polyval, coeffs), partial(np.polyval, np.polyder(coeffs)))
    w, _ = _newton(poly, w0s, mults, tol=1e-12)
    return np.where(np.abs(w.imag) <= 1e-10 * (1.0 + np.abs(w)), w.real.astype(complex), w)


def root_lattices(pt: ChebPoint, n_max: int,
                  degree_cap: int = DEGREE_CAP_DEFAULT):
    """One ``(multiplicity, lambda2)`` pair per root w0 of G: ``lambda2``
    holds the eigenvalues ``((+-arccos(w0) + 2 n pi) q sqrt(b+))^2`` for
    ``-n_max <= n <= n_max``, the + branch first.

    Multiplicity is the root multiplicity of G.  The structural roots +-1
    are divided out first (:func:`_deflate_structural`); the roots of the
    quotient are clustered, and each cluster is polished on the quotient
    by :func:`_polish_roots`.
    """
    if pt.p + pt.q > degree_cap:
        raise DegreeTooHigh(
            f"p+q = {pt.p + pt.q} exceeds the stability cap {degree_cap}; "
            "pass a larger degree_cap to override")
    if n_max < 0 or n_max > 10_000:
        raise ValueError("n_max out of range")
    quotient, roots = _deflate_structural(build_g(pt).coeffs)
    if quotient.size > 1:
        centres, mults = zip(*cluster_roots(polyroots(quotient), rel_tol=_G_CLUSTER_REL))
        roots += zip(_polish_roots(quotient, centres, mults), mults)
    step = pt.q * math.sqrt(pt.b_plus)
    shifts = 2.0 * np.pi * np.arange(-n_max, n_max + 1)
    out = []
    for w0, mult in roots:
        z0 = complex(np.arccos(w0 + 0j))
        lam = np.concatenate([(z0 + shifts) * step, (-z0 + shifts) * step])
        out.append((mult, lam * lam))
    return out


def cheb_spectrum(pt: ChebPoint, n_max: int, degree_cap: int = DEGREE_CAP_DEFAULT,
                  lambda2_max: Optional[float] = None) -> Spectrum:
    """Exact spectrum on a rational curve point: every zero of the secular
    function is ``(+-arccos(w0) + 2 n pi) q sqrt(b+)`` for a root w0 of G.

    Eigenvalue multiplicity is the root multiplicity of G; at ``w0 = +-1``
    the two arccos branches coincide and the secular zero order doubles,
    which is recorded in the notes rather than in the multiplicity.
    """
    raw = [(complex(v), mult)
           for mult, lam2 in root_lattices(pt, n_max, degree_cap) for v in lam2]
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
