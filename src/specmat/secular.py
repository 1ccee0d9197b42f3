"""The entire secular function whose zeros are the square roots of the
operator eigenvalues, plus the 4x4 fundamental matrix used as an
independent cross-check.

For a nonsingular coefficient matrix ``A = V C V^{-1}`` the eigenvalue
problem ``-A f'' = lambda^2 f`` with Dirichlet conditions on the first
component and Neumann on the second reduces to a 4x4 linear system for
the fundamental-solution coefficients; its determinant is an entire
function of lambda:

* diagonalizable ``C = diag(a+, a-)``::

      EV(x) = K1 * [1 - cos(x/sqrt(a+)) cos(x/sqrt(a-))]
              - K2 * sin(x/sqrt(a+)) sin(x/sqrt(a-))

  with ``K1 = 2 v1 v2 v3 v4`` and
  ``K2 = v1^2 v4^2 sqrt(a+/a-) + v2^2 v3^2 sqrt(a-/a+)``;

* defective ``C = [[a+, 0], [1, a+]]``::

      EV(x) = (v2^2 v4^2 / (4 a+^3)) x^2
              - (det V + v2 v4 / (2 a+))^2 sin^2(x/sqrt(a+))

where ``v1..v4`` are the entries of ``V`` row-major.  ``EV(0) = 0`` by
construction, ``EV`` is even, and rescaling eigenvectors only rescales
``EV`` by a nonzero constant (the gauge), so the zero set is intrinsic.

All square roots are principal.  ``EV`` is actually invariant under
flipping the branch of either ``sqrt(a+-)`` because every branch-affected
factor appears an even number of times; the test suite asserts this.

Both forms are evaluated as one versine sum,
``EV(x) = q x^2 - 2 c1 sin^2(f1 x/2) - 2 c2 sin^2(f2 x/2)`` (see
:class:`SecularFn`), which stays accurate as ``a+`` and ``a-`` coalesce.
Trigonometric factors of complex argument are evaluated in real arithmetic
with the dominant real exponent factored out, so that the log-derivative
(what contour integration consumes) never overflows even hundreds of
units away from the real axis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import IllConditioned, SingularJordan
from .mat2 import CMatrix2, Eigen2, EigKind, eig2

_LOG_MAX = 709.0  # np.exp overflows just above this
_ORDER_RTOL = 1e-10  # a Taylor coefficient of EV at 0 this small relative to its terms is zero
_SNAP_RTOL = 5e-14   # a sum this small relative to its terms has cancelled to zero


def _scaled_trig(w):
    """Return (cos_m, sin_m, e) with cos w = cos_m * exp(e), sin w = sin_m * exp(e).

    ``e = |Im w| >= 0`` and the mantissas are O(1), so products of several
    factors can be combined without intermediate overflow.  Real arithmetic
    throughout: with ``w = a + ib``, ``cos w = cos a cosh b - i sin a sinh b``
    and ``sin w = sin a cosh b + i cos a sinh b``, where ``cosh b e^{-|b|}``
    and ``sinh b e^{-|b|}`` come from one ``expm1(-2|b|)``.
    """
    w = np.asarray(w, dtype=complex)
    a, b = w.real, w.imag
    e = np.abs(b)
    sh = np.expm1(-2.0 * e)
    sh *= -0.5                        # sinh|b| e^{-|b|}, accurate at small |b|
    ch = 1.0 - sh                     # cosh b e^{-|b|}
    np.copysign(sh, b, out=sh)
    ca, sa = np.cos(a), np.sin(a)
    cos_m = np.empty(w.shape, dtype=complex)
    sin_m = np.empty(w.shape, dtype=complex)
    np.multiply(ca, ch, out=cos_m.real)
    np.multiply(sa, -sh, out=cos_m.imag)
    np.multiply(sa, ch, out=sin_m.real)
    np.multiply(ca, sh, out=sin_m.imag)
    return cos_m, sin_m, e


def _recombine(mantissa, logscale):
    """mantissa * exp(logscale), letting genuinely huge values overflow: to
    inf, or to nan in a component where the complex product meets inf * 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        first = np.exp(np.minimum(logscale, _LOG_MAX))
        rest = np.exp(np.maximum(logscale - _LOG_MAX, 0.0))
        return mantissa * first * rest


@dataclass(frozen=True)
class SecularFn:
    """Evaluatable secular function of one matrix, immutable and reentrant.

    ``kind`` mirrors the Jordan structure.  The function is kept in the
    gauge fixed by the normalised eigenvectors of :func:`specmat.mat2.eig2`
    (for the defective kind, ``eigen.V`` is eig2's times ``2^(k/2)``, ``2^k``
    the scale of :meth:`CMatrix2.normalized`, so that its coefficients stay
    in the float range at every scale).  Any other valid eigenvector
    convention scales the function by a constant: the fourth power of the
    eigenvector column's scale for the defective kind, else the square of
    the product of the two columns' scales.

    Internally the function is stored in the versine form::

        EV(x) = q x^2 - 2 c1 sin^2(f1 x / 2) - 2 c2 sin^2(f2 x / 2)

    (``q = 0`` for diagonalizable structure, ``c1 = 0`` for defective),
    which is the cosine sum ``q x^2 + c1 (cos(f1 x) - 1) + c2 (cos(f2 x) - 1)``
    with ``f1 = 1/sqrt(a+) + 1/sqrt(a-)``, ``f2 = 1/sqrt(a+) - 1/sqrt(a-)``
    and ``c1 = (t1 - t2)^2 / 2``, ``c2 = -(t1 + t2)^2 / 2`` for
    ``t1 = v1 v4 (a+/a-)^{1/4}``, ``t2 = v2 v3 (a-/a+)^{1/4}``.  This is
    algebraically identical to the product form but free of its
    catastrophic cancellation: coefficient degeneracies (the real-spectrum
    curve, the worked example, the defective singleton) are resolved once,
    at build time, instead of resurging exponentially at evaluation time,
    and a term whose ``f x`` is small (``f2 -> 0`` near the defective line)
    keeps its relative accuracy, where ``c (cos(f x) - 1)`` would cancel.
    """

    kind: EigKind
    matrix: CMatrix2
    eigen: Eigen2
    # cosine-sum data
    q: complex = 0.0
    c1: complex = 0.0
    c2: complex = 0.0
    f1: complex = 0.0
    f2: complex = 0.0

    # -- evaluation -----------------------------------------------------

    @cached_property
    def _cosine_terms(self):
        """Coefficients ``c`` of the cosine terms present, their frequencies
        ``f``, the half frequencies as a column, and a memo of the per-order
        weights (derived once per function).  Dropped (cancelled) terms must
        not enter the shared exponent, where they would deflate the rest."""
        keep = [(c, f) for c, f in ((self.c1, self.f1), (self.c2, self.f2)) if c != 0]
        c = np.array([c for c, _ in keep], dtype=complex)
        f = np.array([f for _, f in keep], dtype=complex)
        return c, f, 0.5 * f.reshape(-1, 1), {}

    def _derivs_scaled(self, x, orders):
        """Mantissas of the derivatives of the given orders and their one
        shared logscale: ``EV^(k)(x) = mantissa_k * exp(logscale)``.

        One stacked :func:`_scaled_trig` pass at the half angle serves every
        order.  Order 0 is ``q x^2 - 2 sum c sin^2(f x/2)``, which vanishes
        exactly at the origin and keeps its relative accuracy as ``f x -> 0``.
        Order k >= 1 weights the cosine terms by ``c f^k`` with the
        ``(cos, -sin, -cos, sin)[k % 4]`` mantissa, from ``sin = 2 sh ch`` and
        ``cos = ch^2 - sh^2``, and adds the k-th derivative of ``q x^2``.
        """
        x = np.asarray(x, dtype=complex)
        flat = x.reshape(-1)
        c, f, half, weights = self._cosine_terms
        if c.size:
            ch, sh, e = _scaled_trig(half * flat)   # one row per cosine term
            top = e.max(axis=0)
            w = np.exp(e - top)
            ch *= w
            sh *= w
            top *= 2.0
            sin2 = sh * sh
        else:
            top = np.zeros(flat.shape)
        mants = []
        for k in orders:
            if c.size:
                if k not in weights:
                    # order 0 is -2 c sin^2; sin's factor 2 rides with odd orders
                    weights[k] = (-2.0 * c if k == 0 else
                                  (1, -2, -1, 2)[k % 4] * c * f ** k)
                terms = sin2 if k == 0 else sh * ch if k % 2 else ch * ch - sin2
                # elementwise over the one or two rows: as a matrix product
                # it would pay for BLAS threading
                wk = weights[k]
                m = wk[0] * terms[0]
                if wk.size == 2:
                    m += wk[1] * terms[1]
            else:
                m = np.zeros(flat.shape, dtype=complex)
            if k <= 2 and self.q != 0:
                dx2 = flat * flat if k == 0 else 2.0 * flat if k == 1 else 2.0
                m = m + self.q * dx2 * np.exp(-top)
            mants.append(m)
        if x.ndim == 1:     # the contour hot path: no reshapes
            return mants, top
        return [m.reshape(x.shape) for m in mants], top.reshape(x.shape)

    def eval_scaled(self, x):
        """Return (mantissa, logscale) with EV(x) = mantissa * exp(logscale)."""
        (m,), e = self._derivs_scaled(x, (0,))
        return m, e

    def deriv_scaled(self, x):
        """Return (mantissa, logscale) for EV'(x)."""
        (m,), e = self._derivs_scaled(x, (1,))
        return m, e

    def value(self, x):
        """EV(x); overflows to inf only when the value itself exceeds the
        double range (use :meth:`eval_scaled` there)."""
        m, e = self.eval_scaled(x)
        return _recombine(m, e)

    def deriv(self, x):
        """EV'(x), analytic derivative of the closed form."""
        m, e = self.deriv_scaled(x)
        return _recombine(m, e)

    def logderiv(self, x):
        """EV'(x)/EV(x), one pass over the stacked trig factors."""
        (val, der), _ = self._derivs_scaled(x, (0, 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            return der / val

    def polish_multiple(self, z0: complex, mult: int):
        """Machine-precision location of an m-fold zero near z0: simple
        Newton on the (m-1)-th derivative, which has a simple zero there.

        Returns ``(z, ok)``.  ``ok`` is False when the derivative vanishes
        or is not finite, when the iteration leaves its small basin
        (``|z - z0| > 0.1 (1 + |z0|)``), and when 60 steps end with a
        step above ``1e-10 (1 + |z|)``.
        """
        k = mult - 1
        z = complex(z0)
        for _ in range(60):
            (num, den), _ = self._derivs_scaled(z, (k, k + 1))
            if den == 0 or not np.isfinite(den):
                return z, False
            step = complex(num / den)
            z -= step
            if abs(z - z0) > 0.1 * (1.0 + abs(z0)):
                return z, False
            if abs(step) <= 1e-15 * (1.0 + abs(z)):
                return z, True
        return z, abs(step) <= 1e-10 * (1.0 + abs(z))

    def logabs(self, x):
        """log|EV(x)|, overflow-free."""
        m, e = self.eval_scaled(x)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(m)) + e

    __call__ = value

    def indicator_perimeter(self) -> float:
        """Perimeter P of the convex hull of the exponents ``+-i f`` of the
        cosine terms present (0 when there are none).

        By Polya's theorem about ``P R / (2 pi)`` zeros lie in ``|x| < R``,
        half of them in the right half-plane.  With both terms the hull is
        the parallelogram on ``+-f1, +-f2``, ``P = 2 (|f1 - f2| + |f1 +
        f2|) = 4 (|1/sqrt(a+)| + |1/sqrt(a-)|)``; with one, ``P = 4 |f|``.
        """
        _, f, _, _ = self._cosine_terms
        if f.size == 2:
            return float(2.0 * (abs(f[0] - f[1]) + abs(f[0] + f[1])))
        return float(4.0 * np.abs(f).sum())

    def order_at_origin(self) -> int:
        """Analytic order of the structural zero at 0 (always even, >= 2),
        decided from the Taylor coefficients of the cosine-sum form.
        Robust where direct evaluation is pure cancellation noise.
        """
        # EV = q x^2 - 2 sum ci sin^2(fi x/2) has no constant term, so the
        # series starts at x^2
        taylor2 = self.q - (self.c1 * self.f1 ** 2 + self.c2 * self.f2 ** 2) / 2.0
        scale2 = (abs(self.q) + abs(self.c1 * self.f1 ** 2)
                  + abs(self.c2 * self.f2 ** 2)) / 2.0
        if abs(taylor2) > _ORDER_RTOL * max(scale2, 1e-300):
            return 2
        taylor4 = (self.c1 * self.f1 ** 4 + self.c2 * self.f2 ** 4) / 24.0
        scale4 = (abs(self.c1 * self.f1 ** 4) + abs(self.c2 * self.f2 ** 4)) / 24.0
        if abs(taylor4) > _ORDER_RTOL * max(scale4, 1e-300):
            return 4
        taylor6 = -(self.c1 * self.f1 ** 6 + self.c2 * self.f2 ** 6) / 720.0
        scale6 = (abs(self.c1 * self.f1 ** 6) + abs(self.c2 * self.f2 ** 6)) / 720.0
        if abs(taylor6) > _ORDER_RTOL * max(scale6, 1e-300):
            return 6
        raise IllConditioned("origin zero of order > 6; not supported")


def _snap_cancel(value: complex, magnitude: float) -> complex:
    """Zero out a sum that cancelled to rounding level: structural
    degeneracies (exact curve points, the worked examples) produce exact
    zeros that must not resurge under exponential growth."""
    return 0.0 if abs(value) <= _SNAP_RTOL * magnitude else value


def _build_diagonalizable(A: CMatrix2, e: Eigen2) -> SecularFn:
    v1, v2 = e.V[0, 0], e.V[0, 1]
    v3, v4 = e.V[1, 0], e.V[1, 1]
    sp = np.sqrt(complex(e.a_plus))
    sm = np.sqrt(complex(e.a_minus))
    rho = np.sqrt(sp / sm)
    t1 = v1 * v4 * rho
    t2 = v2 * v3 / rho
    mag = abs(t1) + abs(t2)
    diff = _snap_cancel(t1 - t2, mag)
    tot = _snap_cancel(t1 + t2, mag)
    return SecularFn(kind=EigKind.DISTINCT if e.kind is not EigKind.SCALAR else EigKind.SCALAR,
                     matrix=A, eigen=e,
                     q=0.0, c1=0.5 * diff ** 2, c2=-0.5 * tot ** 2,
                     f1=1.0 / sp + 1.0 / sm, f2=1.0 / sp - 1.0 / sm)


def _build_defective(A: CMatrix2, e: Eigen2) -> SecularFn:
    # in eig2's gauge q is of order |A|^-3, which overflows below |A| =
    # 1e-103: V times 2^(k/2), 2^k the scale of A.normalized(), gives the
    # coefficients of A / 2^k carried to A, q of order 2^-k and s of order
    # 1 (exact: 2^(k/2) is a power of two)
    beta = 2.0 ** (A.normalized()[1] // 2)
    ap = complex(e.a_plus)
    with np.errstate(all="ignore"):     # checked below
        e = replace(e, v_plus=beta * e.v_plus, v_minus=beta * e.v_minus, V=beta * e.V)
        v2, v4 = e.V[0, 1], e.V[1, 1]
        det_v = e.V[0, 0] * e.V[1, 1] - e.V[0, 1] * e.V[1, 0]
        r = v2 * v4 / (2.0 * ap)
        s = _snap_cancel(det_v + r, abs(det_v) + abs(r))
        # EV = q x^2 - s^2 sin^2(x/sqrt(a+)), the versine term of c2 = s^2/2
        q, c2 = r * r / ap, 0.5 * s ** 2
    if not np.isfinite([q, c2]).all():
        raise IllConditioned(f"defective secular coefficients of {A} overflow")
    return SecularFn(kind=EigKind.DEFECTIVE, matrix=A, eigen=e,
                     q=q, c1=0.0, c2=c2, f1=0.0, f2=2.0 / np.sqrt(ap))


def build(A: CMatrix2) -> SecularFn:
    """Construct the secular function of ``A`` (nonsingular required).

    The Jordan structure of :func:`specmat.mat2.eig2` picks the closed
    form.  Both are kept in the versine form of :class:`SecularFn`, whose
    value has no cancellation as the eigenvalues coalesce, so the
    diagonalizable form stays accurate up to the defective threshold.
    """
    A.require_nonsingular()
    e = eig2(A)
    if e.kind is EigKind.DEFECTIVE:
        return _build_defective(A, e)
    return _build_diagonalizable(A, e)


# -- fundamental matrix ------------------------------------------------


def _mat_cos_sin(W: np.ndarray):
    """cos(W) and sin(W) for a 2x2 W that is either diagonal or
    lower-triangular with equal diagonal entries."""
    if abs(W[1, 0]) == 0.0 and abs(W[0, 1]) == 0.0:
        return np.diag(np.cos(np.diag(W))), np.diag(np.sin(np.diag(W)))
    if abs(W[0, 1]) == 0.0 and abs(W[0, 0] - W[1, 1]) < 1e-13 * (1 + abs(W[0, 0])):
        m, eps = W[0, 0], W[1, 0]
        cos = np.array([[np.cos(m), 0], [-eps * np.sin(m), np.cos(m)]], dtype=complex)
        sin = np.array([[np.sin(m), 0], [eps * np.cos(m), np.sin(m)]], dtype=complex)
        return cos, sin
    raise ValueError("unsupported matrix shape for trig evaluation")


def _jordan_inv_sqrt(C: np.ndarray):
    """C^{1/2} and C^{-1/2} for diagonal or defective-Jordan C."""
    if abs(C[1, 0]) == 0.0:
        rp, rm = np.sqrt(complex(C[0, 0])), np.sqrt(complex(C[1, 1]))
        return np.diag([rp, rm]), np.diag([1 / rp, 1 / rm])
    ap = complex(C[0, 0])
    r = np.sqrt(ap)
    half = np.array([[r, 0], [1 / (2 * r), r]], dtype=complex)
    half_inv = np.array([[1 / r, 0], [-1 / (2 * ap * r), 1 / r]], dtype=complex)
    return half, half_inv


def fundamental_matrix(C: np.ndarray, lam: complex, x: float) -> np.ndarray:
    """Propagator ``exp(B_lambda x)`` of the reduced first-order system
    ``Phi' = B_lambda Phi``, ``B_lambda = [[0, I], [-lambda^2 C^{-1}, 0]]``,
    as a 4x4 array.

    Block formula: ``[[cos(lam C^{-1/2} x), lam^{-1} C^{1/2} sin(lam C^{-1/2} x)],
    [-lam C^{-1/2} sin(lam C^{-1/2} x), cos(lam C^{-1/2} x)]]`` with the
    nilpotent limit ``[[I, xI], [0, I]]`` at lam = 0.
    """
    C = np.asarray(C, dtype=complex)
    if abs(np.linalg.det(C)) <= 1e-14 * max(np.linalg.norm(C), 1e-300) ** 2:
        raise SingularJordan("Jordan factor is singular")
    out = np.zeros((4, 4), dtype=complex)
    if lam == 0:
        out[:2, :2] = np.eye(2)
        out[2:, 2:] = np.eye(2)
        out[:2, 2:] = x * np.eye(2)
        return out
    half, half_inv = _jordan_inv_sqrt(C)
    cos, sin = _mat_cos_sin(lam * x * half_inv)
    out[:2, :2] = cos
    out[:2, 2:] = (half @ sin) / lam
    out[2:, :2] = -lam * (half_inv @ sin)
    out[2:, 2:] = cos
    return out


def boundary_determinant(S: SecularFn, lam: complex) -> complex:
    """Determinant of the 4x4 boundary-condition system assembled from the
    fundamental matrix at x = 1; vanishes exactly at the zeros of the
    secular function (and agrees with it up to one constant gauge factor).
    """
    V = S.eigen.V
    # boundary rows: first component of Vg at x, second component of Vg' at x
    psi = np.array([[V[0, 0], V[0, 1], 0, 0],
                    [0, 0, V[1, 0], V[1, 1]]], dtype=complex)
    rows0 = psi @ np.eye(4)
    rows1 = psi @ fundamental_matrix(S.eigen.C, lam, 1.0)
    return complex(np.linalg.det(np.vstack([rows0, rows1])))
