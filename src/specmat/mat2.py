"""Exact and numerically robust 2x2 complex linear algebra.

Everything downstream is driven by the eigenstructure computed here:
eigenvalues with a fixed ordering convention, gauge-normalised
eigenvectors, an explicit Jordan factorisation ``A = V C V^{-1}`` (with
the defective block written lower-triangular with unit subdiagonal),
the oblique boundary projection of the adjoint operator, and the
numerical-range ellipse.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, InvalidInput, SingularMatrix

# Classification thresholds.  The secular function changes formula across
# the defective split, so the cutoffs are part of the module contract.
DEFECTIVE_GAP_TOL = 1e-8
DEFECTIVE_COND_TOL = 1e8
SCALAR_TOL = 1e-12
SINGULAR_TOL = 1e-14
# largest real or imaginary part of an entry: the squares and products of
# entries that the eigenstructure and the norms take stay finite, also
# after the finite-difference oracle's 1/h^2 scaling
ENTRY_MAX = 1e100
_SECTOR_TOL = 1e-12  # a tangent point closer to the origin gives no sector


class EigKind(enum.Enum):
    DISTINCT = "distinct"
    SCALAR = "scalar"
    DEFECTIVE = "defective"


@dataclass(frozen=True)
class CMatrix2:
    """A 2x2 complex matrix, row-major entries ``(a, b; c, d)``.

    Entries must be finite (else ValueError) with real and imaginary parts
    at most ``ENTRY_MAX`` in modulus (else InvalidInput).
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            v = complex(getattr(self, name))
            if not cmath.isfinite(v):
                raise ValueError(f"entry {name} is not finite: {v!r}")
            if max(abs(v.real), abs(v.imag)) > ENTRY_MAX:
                raise InvalidInput(f"entry {name} = {v!r} exceeds {ENTRY_MAX:g}: "
                                   "its square would overflow")
            object.__setattr__(self, name, v)

    @classmethod
    def from_array(cls, M) -> "CMatrix2":
        M = np.asarray(M)
        if M.shape != (2, 2):
            raise ValueError(f"expected a 2x2 array, got shape {M.shape}")
        return cls(complex(M[0, 0]), complex(M[0, 1]), complex(M[1, 0]), complex(M[1, 1]))

    @classmethod
    def real(cls, a: float, b: float, c: float, d: float) -> "CMatrix2":
        return cls(complex(a), complex(b), complex(c), complex(d))

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> complex:
        return self.a + self.d

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.as_array()))

    def balanced_norm(self) -> float:
        """``sqrt(|a|^2 + |d|^2 + 2|bc|)``, the Frobenius norm of the balanced
        conjugate: the same for every ``diag(1, r) A diag(1, 1/r)``."""
        return float(np.sqrt(abs(self.a) ** 2 + abs(self.d) ** 2 + 2.0 * abs(self.b * self.c)))

    @property
    def is_real(self) -> bool:
        return all(abs(v.imag) == 0.0 for v in (self.a, self.b, self.c, self.d))

    def normalized(self):
        """``(B, e)`` with ``A = 2^e B`` and ``2^e`` the even power of two
        nearest the largest entry modulus, so that B's largest entry
        modulus lies in [1/2, 2] and ``2^(e/2)`` is a power of two too;
        ``(A, 0)`` for the zero matrix.  Exact, unless an entry of B
        falls below the smallest normal number, 2^-1022."""
        big = max(abs(v) for v in (self.a, self.b, self.c, self.d))
        if big == 0.0:
            return self, 0
        e = 2 * round(0.5 * math.log2(big))
        return CMatrix2(*(complex(math.ldexp(v.real, -e), math.ldexp(v.imag, -e))
                          for v in (self.a, self.b, self.c, self.d))), e

    @property
    def is_singular(self) -> bool:
        """Singularity at working precision: below this the operator is not
        closed and downstream modules must refuse.  Judged on the
        :meth:`normalized` entries, so that it does not underflow, and
        scaled by their balanced norm, so the verdict is the same for every
        diagonal conjugate and every scale of A."""
        B, _ = self.normalized()
        return abs(B.det) <= SINGULAR_TOL * B.balanced_norm() ** 2

    def require_nonsingular(self) -> None:
        if self.is_singular:
            raise SingularMatrix(
                f"matrix {self.as_array().tolist()} is singular at working "
                "precision; the operator is not closed and its spectrum is C"
            )

    def scaled(self, s: complex) -> "CMatrix2":
        return CMatrix2(s * self.a, s * self.b, s * self.c, s * self.d)

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


@dataclass(frozen=True)
class Eigen2:
    """Eigenstructure of a 2x2 matrix.

    ``V`` has the (generalised) eigenvectors as columns and ``C`` is the
    Jordan factor, diagonal for the non-defective kinds and
    ``[[a+, 0], [1, a+]]`` for the defective one, so that
    ``A = V C V^{-1}`` always holds.
    """

    a_plus: complex
    a_minus: complex
    v_plus: np.ndarray
    v_minus: np.ndarray
    kind: EigKind
    V: np.ndarray
    C: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.V @ self.C @ np.linalg.inv(self.V)


@dataclass(frozen=True)
class Ellipse:
    """Numerical-range ellipse of a 2x2 matrix (possibly degenerate)."""

    focus1: complex
    focus2: complex
    major_axis_length: float
    minor_axis_length: float
    contains_origin: bool

    @property
    def center(self) -> complex:
        return 0.5 * (self.focus1 + self.focus2)


def _gauge_normalize(v: np.ndarray) -> np.ndarray:
    """Unit Euclidean norm, first nonzero component rotated real positive."""
    v = np.asarray(v, dtype=complex)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValueError("zero eigenvector")
    v = v / nv
    lead = v[0] if abs(v[0]) > 1e-12 else v[1]
    return v * (abs(lead) / lead)


def _eigvec_for(M: np.ndarray, mu: complex) -> np.ndarray:
    """Null vector of the rank-one matrix M - mu by cross-product rows."""
    B = M - mu * np.eye(2)
    # candidates orthogonal to each row of B (without conjugation: B v = 0)
    c1 = np.array([B[0, 1], -B[0, 0]])
    c2 = np.array([B[1, 1], -B[1, 0]])
    v = c1 if np.linalg.norm(c1) >= np.linalg.norm(c2) else c2
    if np.linalg.norm(v) <= 1e-14 * np.linalg.norm(M):
        # B is (numerically) zero: any vector works
        v = np.array([1.0, 0.0], dtype=complex)
    return v


def eig2(A: CMatrix2) -> Eigen2:
    """Eigen decomposition with explicit Jordan structure.

    The larger-real-part convention follows the principal square root of
    the discriminant: ``a_plus = (tr + sqrt(tr^2 - 4 det))/2``, so real
    distinct eigenvalues satisfy ``a_minus < a_plus``.

    Computed on ``B = A / 2^e`` of :meth:`CMatrix2.normalized`, whose
    discriminant neither underflows nor overflows, and multiplied back by
    the exact power of two, so that the kind does not depend on the scale
    of A.
    """
    B, e = A.normalized()
    scale = 2.0 ** e
    M = B.as_array()
    nrm = max(B.norm(), 1e-300)
    tr = B.trace
    disc = (B.a - B.d) ** 2 + 4.0 * B.b * B.c
    sq = np.sqrt(complex(disc))
    ap = 0.5 * (tr + sq)
    am = 0.5 * (tr - sq)
    gap = abs(ap - am)

    # the thresholds are relative to the norm, so the kind does not depend on scale
    if abs(B.b) <= SCALAR_TOL * nrm and abs(B.c) <= SCALAR_TOL * nrm \
            and gap <= SCALAR_TOL * nrm:
        mu = 0.5 * tr * scale
        V = np.eye(2, dtype=complex)
        C = np.diag([mu, mu]).astype(complex)
        return Eigen2(mu, mu, V[:, 0], V[:, 1], EigKind.SCALAR, V, C)

    vp = _eigvec_for(M, ap)
    vm = _eigvec_for(M, am)
    Vcand = np.column_stack([vp / np.linalg.norm(vp), vm / np.linalg.norm(vm)])
    cond = np.linalg.cond(Vcand)

    if gap <= DEFECTIVE_GAP_TOL * nrm and cond > DEFECTIVE_COND_TOL:
        mu = 0.5 * tr  # the repeated eigenvalue, symmetrised
        w = _gauge_normalize(_eigvec_for(M, mu))
        # generalised vector: (A - mu) u = w, minimal-norm solution, which
        # is the one of B over 2^e; below the normal range 2^e is
        # subnormal and the quotient overflows
        with np.errstate(over="ignore", invalid="ignore"):
            u = np.linalg.pinv(M - mu * np.eye(2), rcond=1e-10) @ w / scale
        if not np.isfinite(u).all():
            raise IllConditioned(f"generalised eigenvector of {A} overflows")
        mu = mu * scale
        V = np.column_stack([u, w])
        C = np.array([[mu, 0.0], [1.0, mu]], dtype=complex)
        return Eigen2(mu, mu, w, w, EigKind.DEFECTIVE, V, C)

    vp = _gauge_normalize(vp)
    vm = _gauge_normalize(vm)
    ap, am = ap * scale, am * scale
    V = np.column_stack([vp, vm])
    C = np.diag([ap, am]).astype(complex)
    return Eigen2(ap, am, vp, vm, EigKind.DISTINCT, V, C)


def adjoint_projection(A: CMatrix2) -> np.ndarray:
    """Oblique rank-one projection defining the adjoint boundary conditions.

    Returns P-hat with range(P-hat) = range(A(I-P))^perp and
    range(I - P-hat) = range(AP)^perp, where P = diag(1, 0).  Only defined
    for nonsingular A; for singular A the operator is not closed and there
    is no adjoint data.
    """
    A.require_nonsingular()
    # range(A(I-P)) = span{(b, d)};  its orthocomplement is span{p}
    p = np.array([np.conj(A.d), -np.conj(A.b)], dtype=complex)
    # range(AP) = span{(a, c)}; kernel of P-hat must be its orthocomplement,
    # i.e. P-hat x = p * <x, eta> / <p, eta> with eta = (a, c)
    eta = np.array([A.a, A.c], dtype=complex)
    denom = p @ np.conj(eta)
    return np.outer(p, np.conj(eta)) / denom


def numerical_range(A: CMatrix2) -> Ellipse:
    """Numerical-range ellipse: foci at the eigenvalues, minor axis the Schur
    off-diagonal ``|w|`` (elliptical range theorem), taken from ``C = N*N - NN*``
    (N the traceless part, delta = a+ - a-) as ``||C||_F^2 / |w|^2 = |delta|^2
    + sqrt(|delta|^4 + 2 ||C||_F^2)``; the trace formula cancels near normal A."""
    e = eig2(A)
    N = A.as_array() - 0.5 * A.trace * np.eye(2)
    s = float(np.max(np.abs(N))) or 1.0  # unit scale: cc is quartic in N
    N = N / s
    cc = float(np.sum(np.abs(N.conj().T @ N - N @ N.conj().T) ** 2))
    dd = abs((N[0, 0] - N[1, 1]) ** 2 + 4.0 * N[0, 1] * N[1, 0])
    minor = s * float(np.sqrt(cc / (dd + np.sqrt(dd * dd + 2.0 * cc)))) if cc else 0.0
    dist_foci = abs(e.a_plus - e.a_minus)
    major = float(np.hypot(minor, dist_foci))
    # origin lies inside iff |0-f1| + |0-f2| <= major axis length
    inside = abs(e.a_plus) + abs(e.a_minus) <= major + 1e-14 * (1 + major)
    return Ellipse(e.a_plus, e.a_minus, major, minor, bool(inside))


def enclosing_sector(ell: Ellipse):
    """Minimal sector {alpha <= arg z <= beta} containing the ellipse, from
    the tangents through the origin: the affine map onto the unit circle keeps
    tangency, and there they touch at ``arg p +- arccos(1/|p|)`` for the image
    p of the origin.  Returns ``(alpha, beta)`` with ``beta - alpha < pi``, or
    None when the origin lies in the ellipse or within ``_SECTOR_TOL`` of it.
    """
    if ell.contains_origin:
        return None
    c, rot = ell.center, np.exp(1j * np.angle(ell.focus2 - ell.focus1))
    ha, hb = 0.5 * ell.major_axis_length, 0.5 * ell.minor_axis_length
    t = np.array([0.0, np.pi])  # a segment is bounded by its endpoints
    if hb > 0.0:
        u = -c / rot  # the origin in the ellipse's own axes
        p = complex(u.real / ha, u.imag / hb)
        if abs(p) <= 1.0:
            return None
        t = np.angle(p) + np.array([1.0, -1.0]) * np.arccos(1.0 / abs(p))
    pts = c + rot * (ha * np.cos(t) + 1j * hb * np.sin(t))
    if np.any(np.abs(pts) <= _SECTOR_TOL):
        return None
    rel = np.angle(pts / c)
    if np.max(rel) - np.min(rel) >= np.pi:
        return None
    return float(np.angle(c) + np.min(rel)), float(np.angle(c) + np.max(rel))
