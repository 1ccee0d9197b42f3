"""Reduction of real matrices to the five canonical two-parameter
families, the six-region partition of the (a, d) plane that governs the
qualitative spectrum of the antisymmetric-off-diagonal family, and the
theorem-backed spectral predictions and similarity certificates.

Canonical families (a, d real)::

    A0 = (a, 0; 0, d)   A1 = (a, 1; 1, d)   A2 = (a, 0; 1, d)
    A3 = (a, 1; 0, d)   A4 = (a, -1; 1, d)

Every real 2x2 matrix is diagonally similar to ``alpha * Aj`` for some
real ``alpha`` and ``j``; diagonal similarities commute with the boundary
conditions, so the operator spectrum only moves by the factor
``sign * alpha``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInput, NonRealInput, OutOfDomain
from .mat2 import CMatrix2, enclosing_sector, numerical_range
from .secular import SecularFn, build

BOUNDARY_TOL = 1e-9      # absolute fuzz for the region-defining equalities
LAMBDA_MAX_DEFAULT = 400.0 * np.pi ** 2
TRIANGULAR_OFFDIAG = 1e-3  # triangular A: A(r)'s off-diagonal entry over min(|a|, |d|)
LATTICE_CAP = 10 ** 6     # most lattice values a prediction enumerates


# -- canonical reduction -------------------------------------------------


class Family(enum.Enum):
    A0 = "A0"
    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    A4 = "A4"


_FAMILY_SHAPE = {
    Family.A0: (0.0, 0.0),
    Family.A1: (1.0, 1.0),
    Family.A2: (0.0, 1.0),
    Family.A3: (1.0, 0.0),
    Family.A4: (-1.0, 1.0),
}


def family_matrix(family: Family, a: float, d: float) -> CMatrix2:
    off_b, off_c = _FAMILY_SHAPE[family]
    return CMatrix2.real(a, off_b, off_c, d)


@dataclass(frozen=True)
class CanonicalForm:
    """Diagonal-similarity normal form ``A = B (sign*alpha*A_family) B^{-1}``.

    ``r`` is the similarity parameter: ``diag(1, r) A diag(1, 1/r)`` equals
    the scaled family matrix, so the reconstruction matrix is
    ``B = diag(1, 1/r)``.
    """

    family: Family
    alpha: float
    a: float
    d: float
    sign: int
    r: float

    @property
    def B(self) -> np.ndarray:
        return np.diag([1.0, 1.0 / self.r]).astype(float)

    def canonical_matrix(self) -> CMatrix2:
        return family_matrix(self.family, self.a, self.d)

    def reconstruct(self) -> np.ndarray:
        M = self.sign * self.alpha * self.canonical_matrix().as_array().real
        B = self.B
        return B @ M @ np.linalg.inv(B)


def _require_real(A: CMatrix2) -> None:
    if not A.is_real:
        raise NonRealInput(f"real matrix required, got {A}")


def reduce_real(A: CMatrix2) -> CanonicalForm:
    """Reduce a real matrix to ``sign * alpha * A_family(a, d)``.

    Off-diagonal signs decide the family: ``b = c = 0`` is diagonal,
    exactly one zero gives the triangular families (off-entry scaled to 1),
    ``b c > 0`` the symmetric family with ``alpha = sqrt(bc)``, and
    ``b c < 0`` the antisymmetric one with ``alpha = sqrt(-bc)``.
    """
    _require_real(A)
    at, b, c, dt = A.a.real, A.b.real, A.c.real, A.d.real
    if b == 0.0 and c == 0.0:
        return CanonicalForm(Family.A0, 1.0, at, dt, +1, 1.0)
    if b == 0.0:  # lower triangular: scale c to 1 with r = 1/c
        return CanonicalForm(Family.A2, 1.0, at, dt, +1, 1.0 / c)
    if c == 0.0:  # upper triangular: scale b to 1 with r = b
        return CanonicalForm(Family.A3, 1.0, at, dt, +1, b)
    if b * c > 0.0:
        alpha = float(np.sqrt(b * c))
        # the off-entries scale to sign(b) * sqrt(bc): both-negative entries
        # need the reflected family
        sign = +1 if b > 0 else -1
        return CanonicalForm(Family.A1, alpha, sign * at / alpha,
                             sign * dt / alpha, sign, float(np.sqrt(b / c)))
    alpha = float(np.sqrt(-b * c))
    r = float(np.sqrt(-b / c))
    sign = +1 if c > 0 else -1
    return CanonicalForm(Family.A4, alpha, sign * at / alpha, sign * dt / alpha,
                         sign, r)


# -- regions -------------------------------------------------------------


class RegionTag(enum.Enum):
    R1 = "R1"   # defective line |a-d| = 2 (nonsingular part)
    R2 = "R2"   # ad < -1
    R3 = "R3"   # ad > -1, |a-d| > 2, a+d > 0
    R4 = "R4"   # ad > -1, |a-d| > 2, a+d < 0
    R5 = "R5"   # |a-d| < 2
    R6 = "R6"   # ad = -1 (singular)
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class Region:
    tag: RegionTag
    detail: str


def classify_region(a: float, d: float) -> Region:
    """Classify (a, d) into the six-region partition.

    R6, the operator that is not closed, is exactly where
    ``family_matrix(A4, a, d).is_singular``, the one decider of closedness
    (so a or d beyond ``ENTRY_MAX`` is refused as that matrix is).  The
    defective lines ``|a-d| = 2`` are tested with the absolute boundary
    tolerance, and their two literal-definition gap points (``a = +-1``
    with ``ad != -1``) are tagged Boundary.
    """
    if not (np.isfinite(a) and np.isfinite(d)):
        raise ValueError("coordinates must be finite")
    prod_gap = a * d + 1.0
    line_gap = abs(a - d) - 2.0
    if family_matrix(Family.A4, a, d).is_singular:
        return Region(RegionTag.R6, f"ad = -1 (ad+1 = {prod_gap:.2e})")
    if abs(line_gap) <= BOUNDARY_TOL:
        if min(abs(a - 1.0), abs(a + 1.0)) <= BOUNDARY_TOL:
            return Region(RegionTag.BOUNDARY,
                          "|a-d| = 2 with a = +-1: excluded from the "
                          "defective-line region by definition")
        return Region(RegionTag.R1, f"|a-d| = 2 (gap {line_gap:.2e}), a != +-1")
    if prod_gap < 0.0:
        return Region(RegionTag.R2, f"ad < -1 (ad = {a * d:.6g})")
    if line_gap < 0.0:
        return Region(RegionTag.R5, f"|a-d| = {abs(a - d):.6g} < 2")
    if a + d > 0.0:
        return Region(RegionTag.R3, "ad > -1, |a-d| > 2, a+d > 0")
    return Region(RegionTag.R4, "ad > -1, |a-d| > 2, a+d < 0")


def a4_eigs(a: float, d: float):
    """Eigenvalues ``(b+, b-)`` of the antisymmetric-off-diagonal family:
    ``(a + d +- sqrt((a-d)^2 - 4)) / 2`` with the principal square root;
    for real roots ``b- <= b+``, and always ``b+ b- = ad + 1``."""
    try:
        disc = (a - d) ** 2 - 4.0
    except OverflowError:
        raise OutOfDomain(f"(a - d)^2 overflows at a = {a}, d = {d}") from None
    sq = np.sqrt(complex(disc))
    bp = 0.5 * ((a + d) + sq)
    bm = 0.5 * ((a + d) - sq)
    return complex(bp), complex(bm)


# -- spectral loci -------------------------------------------------------


class LocusKind(enum.Enum):
    WHOLE_PLANE = "WholePlane"
    REAL_LINE = "RealLine"
    NONNEG_HALF_LINE = "NonnegativeHalfLine"
    NONPOS_HALF_LINE = "NonpositiveHalfLine"
    LATTICE = "Lattice"
    SECTOR = "Sector"
    PARABOLIC_BAND = "ParabolicBand"
    SINGLETON_0 = "Singleton0"
    REAL_WITH_FORMULA = "RealWithFormula"
    FINITE_REAL_INTERSECTION = "FiniteRealIntersection"


def _dist_to_ray(z: complex, theta: float) -> float:
    """Distance from z to the ray {r e^{i theta} : r >= 0}."""
    w = z * np.exp(-1j * theta)
    if w.real >= 0.0:
        return abs(w.imag)
    return abs(w)


@dataclass(frozen=True)
class Locus:
    """A spectral locus with a point-to-set distance and sign/scale maps."""

    kind: LocusKind
    values: tuple = ()               # lattice / formula values
    omega: Optional[float] = None    # half-angle for sectors
    sector: Optional[tuple] = None   # (alpha, beta) for plain sectors
    orientation: int = +1            # parabolic band: +1 right, -1 left
    description: str = ""

    def distance(self, z: complex) -> float:
        z = complex(z)
        k = self.kind
        if k in (LocusKind.WHOLE_PLANE, LocusKind.FINITE_REAL_INTERSECTION,
                 LocusKind.PARABOLIC_BAND):
            # the band's height is not known: containment is vacuous
            return 0.0
        if k is LocusKind.REAL_LINE:
            return abs(z.imag)
        if k is LocusKind.NONNEG_HALF_LINE:
            return _dist_to_ray(z, 0.0)
        if k is LocusKind.NONPOS_HALF_LINE:
            return _dist_to_ray(z, np.pi)
        if k in (LocusKind.LATTICE, LocusKind.REAL_WITH_FORMULA):
            return float(min(abs(z - v) for v in self.values)) if self.values else np.inf
        if k is LocusKind.SINGLETON_0:
            return abs(z)
        if k is LocusKind.SECTOR:
            alpha, beta = self.sector
            ang = np.angle(z * np.exp(-1j * 0.5 * (alpha + beta)))
            half = 0.5 * (beta - alpha)
            if abs(ang) <= half:
                return 0.0
            return min(_dist_to_ray(z, alpha), _dist_to_ray(z, beta))
        raise AssertionError(k)

    def transform(self, s: float) -> "Locus":
        """Image of the locus under multiplication by a real nonzero s."""
        if s == 0.0:
            raise ValueError("scale must be nonzero")
        out = self
        if self.values:
            out = Locus(self.kind, values=tuple(s * v for v in self.values),
                        description=self.description)
        if s > 0:
            return out
        k = self.kind
        if k is LocusKind.NONNEG_HALF_LINE:
            return Locus(LocusKind.NONPOS_HALF_LINE)
        if k is LocusKind.NONPOS_HALF_LINE:
            return Locus(LocusKind.NONNEG_HALF_LINE)
        if k is LocusKind.SECTOR:
            alpha, beta = self.sector
            return Locus(LocusKind.SECTOR, sector=(alpha + np.pi, beta + np.pi),
                         omega=self.omega)
        if k is LocusKind.PARABOLIC_BAND:
            return Locus(LocusKind.PARABOLIC_BAND, orientation=-self.orientation)
        return out  # symmetric kinds are invariant


@dataclass(frozen=True)
class SpectralPrediction:
    """Theorem-backed locus for the operator spectrum of one matrix."""

    locus: Locus
    theorems: tuple
    sector: Optional[Locus] = None        # extra sector constraint, if any
    resolvent_bound: tuple = ()           # sectors outside which k/|z| decay holds
    region: Optional[Region] = None
    canonical: Optional[CanonicalForm] = None

    def distance(self, z: complex) -> float:
        d = self.locus.distance(z)
        if self.sector is not None:
            d = max(d, self.sector.distance(z))
        return d


def _lattice_values(units, lambda_max: float):
    """0 and ``u k^2`` for every nonzero unit u and k >= 1 with
    ``|u| k^2 <= lambda_max``, without repeats, sorted by modulus then real
    part.  Raises InvalidInput when that would be more than
    ``LATTICE_CAP`` values, at the default ``lambda_max`` too: a unit near
    0 (a tiny diagonal entry, or a canonical root near an axis) makes the
    lattice too dense to list."""
    parts = [np.zeros(1)]
    total = 0.0
    for u in units:
        if u == 0:
            continue
        kmax = float(np.sqrt(lambda_max / abs(u)))
        total += kmax
        if total > LATTICE_CAP:
            raise InvalidInput(
                f"lambda_max / |lattice unit| = {lambda_max / abs(u):.3g} gives more than "
                f"{LATTICE_CAP} lattice values: the unit is too small for the bound; "
                "pass a smaller lambda_max")
        k = np.arange(1, int(kmax) + 2)
        k = k[abs(u) * k * k <= lambda_max]
        parts.append(u * k * k)
    # sort, then keep the first of each run of equal values (np.unique
    # would load numpy.ma)
    vals = np.sort(np.concatenate(parts).astype(complex))
    vals = vals[np.concatenate(([True], vals[1:] != vals[:-1]))]
    return tuple(complex(v) for v in vals[np.lexsort((vals.real, np.abs(vals)))])


def _a4_prediction(a: float, d: float, region: Region, S: Optional[SecularFn],
                   lambda_max: float) -> tuple:
    """(locus, extra sector, theorems, resolvent sectors) for the
    antisymmetric-off-diagonal family at canonical (a, d).

    ``S`` is the secular function of ``A4(a, d)`` in regions R1 and R5,
    and decides their two special points as :func:`specmat.rootfind.spectrum`
    does: the defective singleton where it keeps no cosine term, and the
    real-spectrum curve ``a^2 - ad - 1 = 0`` where it keeps one.
    """
    theorems = []
    sector = None
    bounds = ()
    tag = region.tag
    if tag is RegionTag.R2:
        locus = Locus(LocusKind.REAL_LINE)
        theorems.append("whole-real-line-similarity")
        bounds = ((-0.0, 0.0), (np.pi, np.pi))
    elif tag is RegionTag.R5:
        # on the real-spectrum curve secular.build cancels one cosine term:
        # EV = c (cos(f x) - 1), zero at x = 2 pi k / f
        f = S.f2 if S.c1 == 0 else S.f1 if S.c2 == 0 else None
        if S.q == 0 and f is not None:
            unit = (4.0 * np.pi ** 2 / f ** 2).real
            locus = Locus(LocusKind.REAL_WITH_FORMULA,
                          values=_lattice_values((unit,), lambda_max),
                          description="k^2 (2 pi / f)^2, f the frequency of the one cosine term")
            theorems.append("real-curve-nonpositive-lattice" if unit < 0
                            else "real-curve-nonnegative-lattice")
        else:
            locus = Locus(LocusKind.FINITE_REAL_INTERSECTION)
            theorems.append("finite-real-intersection")
    elif tag in (RegionTag.R3, RegionTag.R4):
        orient = +1 if tag is RegionTag.R3 else -1
        locus = Locus(LocusKind.PARABOLIC_BAND, orientation=orient)
        theorems.append("parabolic-band")
    elif tag is RegionTag.R1:
        if S.indicator_perimeter() == 0:   # EV = q x^2: no zero but the origin
            locus = Locus(LocusKind.SINGLETON_0)
            theorems.append("defective-singleton")
        else:
            locus = Locus(LocusKind.FINITE_REAL_INTERSECTION)
            theorems.append("defective-finite-real-intersection")
    else:  # Boundary gap points on the defective lines
        locus = Locus(LocusKind.FINITE_REAL_INTERSECTION)
        theorems.append("defective-finite-real-intersection")
    if (a > 0.0 and d > 0.0) or (a < 0.0 and d < 0.0):
        # the numerical range's sector, about the positive or negative axis
        omega = float(np.arcsin(1.0 / np.sqrt(a * d + 1.0)))
        centre = 0.0 if a > 0.0 else np.pi
        bounds = ((centre - omega, centre + omega),)
        sector = Locus(LocusKind.SECTOR, sector=bounds[0], omega=omega)
        theorems.append("numerical-range-sector" if a > 0.0
                        else "numerical-range-sector-reflected")
    return locus, sector, theorems, bounds


def predict(A: CMatrix2, lambda_max: float = LAMBDA_MAX_DEFAULT) -> SpectralPrediction:
    """Sharpest theorem-backed locus for the spectrum of the operator of a
    real matrix, with the list of rules that fired.

    Singular input is a valid prediction (the whole plane).  The canonical
    scale ``sign * alpha`` maps the canonical-family result back to the
    input matrix.
    """
    _require_real(A)
    if not 0.0 <= lambda_max < np.inf:
        raise InvalidInput(f"lambda_max must be finite and >= 0, got {lambda_max!r}")
    if A.is_singular:
        return SpectralPrediction(Locus(LocusKind.WHOLE_PLANE),
                                  ("singular-not-closed",))
    form = reduce_real(A)
    s = form.sign * form.alpha
    a, d = form.a, form.d
    theorems = []
    sector = None
    bounds = ()
    region = None

    if form.family in (Family.A0, Family.A2, Family.A3):
        locus = Locus(LocusKind.LATTICE,
                      values=_lattice_values((a * np.pi ** 2, d * np.pi ** 2), lambda_max))
        theorems.append("diagonal-lattice" if form.family is Family.A0
                        else "triangular-lattice")
        if a * d > 0:
            bounds = ((0.0, 0.0),) if a > 0 else ((np.pi, np.pi),)
        else:
            bounds = ((0.0, 0.0), (np.pi, np.pi))
    elif form.family is Family.A1:
        if a * d > 1.0:
            if a > 0:
                locus = Locus(LocusKind.NONNEG_HALF_LINE)
                theorems.append("symmetrizable-nonnegative")
                bounds = ((0.0, 0.0),)
            else:
                locus = Locus(LocusKind.NONPOS_HALF_LINE)
                theorems.append("symmetrizable-nonpositive")
                bounds = ((np.pi, np.pi),)
        else:  # ad < 1; ad = 1 is singular and handled above
            locus = Locus(LocusKind.REAL_LINE)
            theorems.append("real-line-by-continuity")
    else:
        region = classify_region(a, d)
        S = (build(form.canonical_matrix())
             if region.tag in (RegionTag.R1, RegionTag.R5) else None)
        locus, sector, theorems, bounds = _a4_prediction(
            a, d, region, S, lambda_max / max(abs(s), 1e-300))

    # map canonical-scale loci back to the input matrix
    locus = locus.transform(s)
    if sector is not None:
        sector = sector.transform(s)
    if s < 0 and bounds:
        bounds = tuple((al + np.pi, be + np.pi) for al, be in bounds)

    return SpectralPrediction(locus=locus, theorems=tuple(theorems),
                              sector=sector, resolvent_bound=bounds,
                              region=region, canonical=form)


# -- eigenvalue-0 perturbation coefficients ------------------------------


def perturbation_coeffs(A: CMatrix2):
    """First coefficients of the analytic eigenvalue branch through 0.

    ``mu1 = (A^{-1})_{22} = a / det A``; when that vanishes (``a = 0``) the
    second coefficient ``mu2 = -(8 / (b c pi^4)) * sum (2m-1)^{-4}`` is
    returned as well, in closed form ``-1 / (12 b c)`` since the sum is
    ``pi^4 / 96``.  At least one of the two is nonzero, witnessing that
    the spectrum is not the whole plane.
    """
    A.require_nonsingular()
    mu1 = A.a / A.det
    if abs(mu1) > 1e-12:
        return mu1, None
    # a = 0 and A nonsingular force b, c != 0
    return mu1, -1.0 / (12.0 * A.b * A.c)


# -- similarity certificates ---------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """A numerically verified sufficient condition for spectral control.
    ``similarity_r`` is r in ``A(r) = diag(1, r) A diag(1, 1/r)``, as ``CanonicalForm.r``."""

    kind: str                     # DiagonalSymmetrizable | SectorBound | NearReal
    B: Optional[np.ndarray]      # the diagonal matrix of the certificate
    omega: Optional[float] = None
    sector: Optional[tuple] = None
    similarity_r: Optional[float] = None
    residual: float = 0.0
    detail: str = ""


def _balancing_r(A: CMatrix2, weight: float = 1.0) -> float:
    """The r with ``weight |b| / r = |c| r``, balancing the off-diagonal entries
    of ``A(r)``; 1 for diagonal A, and ``TRIANGULAR_OFFDIAG`` for triangular A."""
    b, c = abs(A.b), abs(A.c)
    if b and c:
        return float(np.sqrt(weight * b / c))
    floor = TRIANGULAR_OFFDIAG * min(abs(A.a), abs(A.d))
    return b / floor if b else (floor / c if c else 1.0)


def _diagonal_symmetrizable(A: CMatrix2) -> Optional[Certificate]:
    tol = 1e-12 * (1.0 + A.balanced_norm())
    if abs(A.a.imag) > tol or abs(A.d.imag) > tol:
        return None
    a, d = A.a.real, A.d.real
    if abs(A.b) <= tol and abs(A.c) <= tol:
        if a > 0 and d > 0:
            return Certificate("DiagonalSymmetrizable", np.eye(2),
                               detail="already real diagonal, positive")
        return None
    bc = A.b * A.c
    if abs(bc.imag) > tol * (1 + abs(bc)) or bc.real <= 0.0:
        return None
    # B = diag(1, rho) with |rho|^2 = c / conj(b) makes B^-1 A B Hermitian
    rho = np.sqrt(A.c / np.conj(A.b))
    B = np.diag([1.0, rho]).astype(complex)
    H = np.linalg.inv(B) @ A.as_array() @ B
    residual = float(np.linalg.norm(H - H.conj().T))
    eigs = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
    if np.min(eigs) <= 0.0:
        return None
    return Certificate("DiagonalSymmetrizable", B, residual=residual,
                       detail=f"similar Hermitian eigenvalues {eigs.tolist()}")


def _sector_bound(A: CMatrix2) -> Optional[Certificate]:
    # the A(r) are confocal; the balanced one has the least minor axis and sector
    r = _balancing_r(A)
    sec = enclosing_sector(numerical_range(CMatrix2(A.a, A.b / r, A.c * r, A.d)))
    if sec is None:
        return None
    return Certificate("SectorBound", np.diag([1.0, 1.0 / r]), sector=sec, similarity_r=r,
                       detail=f"numerical range of the r={r:.4g} conjugate "
                              f"inside S({sec[0]:.4f}, {sec[1]:.4f})")


def _near_real(A: CMatrix2) -> Optional[Certificate]:
    tol = 1e-12 * (1.0 + A.balanced_norm())
    if abs(A.a.imag) > tol or abs(A.d.imag) > tol:
        return None
    a, d = A.a.real, A.d.real
    if a == 0.0 or d == 0.0:
        return None
    # ||A(r) diag(1/a, 1/d) - I||_2 = max(|b|/(r|d|), |c| r/|a|): sqrt|bc/ad| at the balance
    r = _balancing_r(A, abs(a / d))
    nrm = max(abs(A.b / (r * d)), abs(A.c * r / a))
    if nrm >= 1.0:
        return None
    omega = float(np.arcsin(nrm))
    return Certificate("NearReal", np.diag([1.0 / a, 1.0 / d]), omega=omega,
                       similarity_r=r, residual=nrm,
                       detail=f"||A(r) B - I|| = {nrm:.4g} at r = {r:.4g}; "
                              f"spectrum inside the double sector of half-angle {omega:.4g}")


def similarity_certificates(A: CMatrix2):
    """All applicable similarity certificates for a nonsingular matrix."""
    A.require_nonsingular()
    certs = []
    for builder in (_diagonal_symmetrizable, _sector_bound, _near_real):
        cert = builder(A)
        if cert is not None:
            certs.append(cert)
    return certs
