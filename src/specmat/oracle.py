"""Independent verification by finite differences: a sparse discretization
of the operator with the mixed Dirichlet/Neumann boundary conditions,
certified low-end eigenvalue extraction by shift-invert Arnoldi with
two-resolution Richardson error bars, and smallest-singular-value
resolvent probes.

Unknown layout: the Dirichlet component at the n interior nodes (its
endpoint values are known zeros) and the Neumann component at all n+2
nodes (endpoint values are genuine unknowns), total 2n+2.  Interior rows
use the 3-point second difference; the Neumann condition enters through
mirror ghost values (second order), and the Dirichlet component's second
derivative at the boundary rows uses the one-sided second-order stencil.

The low end comes from ARPACK's shift-invert mode (Lehoucq, Sorensen and
Yang, ARPACK Users' Guide, 1998) on a sparse LU of ``M - sigma I``: it
returns the m eigenvalues nearest a small shift sigma.  0 is an exact
eigenvalue of every discretization, so sigma sits off it.  If R is the
largest returned ``|mu - sigma|``, every eigenvalue left out has modulus
at least ``R - |sigma|``; the k smallest moduli are certified once the
k-th returned modulus plus ``|sigma|`` stays below R, and m doubles until
it does.  m starts only 6 above k: the Arnoldi basis holds about 2m
vectors, and at k = size/4 a start of 2k cost four times a dense solve of
the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import (InvalidInput, NearSpectrum, NonConverged,
                     ResolutionTooLow)
from .mat2 import CMatrix2
from .rootfind import Spectrum

# relative tolerance under which two moduli tie, or an eigenvalue counts as
# real, in the canonical order; far above the eigensolver's rounding, far
# below the grid's eigenvalue spacing
_TIE_RTOL = 1e-8


@dataclass(frozen=True)
class Discretization:
    """Matrix approximation of the operator at grid resolution n, dense
    (``M``) and in compressed sparse columns (``S``)."""

    n: int
    h: float
    M: np.ndarray
    A: CMatrix2
    S: scipy.sparse.csc_matrix

    @property
    def size(self) -> int:
        return self.M.shape[0]

    def lattice_value(self, coeff: float, k: int) -> float:
        """The discretization's own image of ``coeff * pi^2 k^2``: the
        eigenvalue of the scalar 3-point operator on this grid."""
        return float(coeff * (2.0 / self.h ** 2) * (1.0 - np.cos(k * np.pi * self.h)))


def _three_point(rows: np.ndarray, centres: np.ndarray, ncols: int):
    """Triplets of the stencil (-1, 2, -1) centred on ``centres[r]`` in row
    ``rows[r]``; columns outside [0, ncols) are known zeros and dropped."""
    r = np.repeat(rows, 3)
    c = (centres[:, None] + np.array([-1, 0, 1])).ravel()
    w = np.tile([-1.0, 2.0, -1.0], rows.size)
    keep = (c >= 0) & (c < ncols)
    return r[keep], c[keep], w[keep]


def _stencil_triplets(n: int):
    """Rows, columns, weights (in units of 1/h^2) and which entry of A
    (0..3 for a, b, c, d) scales each nonzero of the (2n+2)-square matrix.

    Rows and columns 0..n-1 are the Dirichlet component at nodes 1..n,
    rows and columns n..2n+1 the Neumann component at nodes 0..n+1.
    """
    i = np.arange(n)
    j = np.arange(n + 2)
    # a, b: -phi'' and -gamma'' at the interior nodes
    ra, ca, wa = _three_point(i, i, n)
    rb, cb, wb = _three_point(i, i + 1, n + 2)
    # c: -phi'' at every node; interior rows 3-point, boundary rows the
    # one-sided -(2 u0 - 5 u1 + 4 u2 - u3)/h^2 with u0 = 0
    rc, cc, wc = _three_point(j[1:-1], i, n)
    rc = np.concatenate([rc, [0, 0, 0, n + 1, n + 1, n + 1]])
    cc = np.concatenate([cc, [0, 1, 2, n - 1, n - 2, n - 3]])
    wc = np.concatenate([wc, [5.0, -4.0, 1.0, 5.0, -4.0, 1.0]])
    # d: -gamma'' at every node, gamma' = 0 by mirror ghosts
    rd, cd, wd = _three_point(j, j, n + 2)
    wd[((rd == 0) & (cd == 1)) | ((rd == n + 1) & (cd == n))] = -2.0
    rows = np.concatenate([ra, rb, n + rc, n + rd])
    cols = np.concatenate([ca, n + cb, cc, n + cd])
    weights = np.concatenate([wa, wb, wc, wd])
    slot = np.repeat([0, 1, 2, 3], [ra.size, rb.size, rc.size, rd.size])
    return rows, cols, weights, slot


def discretize(A: CMatrix2, n: int) -> Discretization:
    """Assemble the (2n+2)-dimensional matrix approximating the operator.

    Singular A is allowed: the resulting matrix exhibits the degeneracy
    empirically (its low eigenvalues do not stabilise with n).
    """
    if n < 8:
        raise ResolutionTooLow(f"need n >= 8 grid intervals, got {n}")
    h = 1.0 / (n + 1)
    rows, cols, weights, slot = _stencil_triplets(n)
    coeff = np.array([A.a, A.b, A.c, A.d], dtype=complex)
    N = 2 * n + 2
    S = scipy.sparse.csc_matrix((coeff[slot] * (weights * (1.0 / h ** 2)),
                                 (rows, cols)), shape=(N, N))
    return Discretization(n=n, h=h, M=S.toarray(), A=A, S=S)


def _canonical_order(ev: np.ndarray) -> np.ndarray:
    """Indices sorting ``ev`` by modulus, and ties (moduli equal to within
    ``_TIE_RTOL``) by argument in (-pi, pi].

    Values within ``_TIE_RTOL`` of the real axis count as real, so that
    rounding noise cannot move an eigenvalue on the negative axis across
    the branch cut from pi to -pi and reorder it against its tie partner.
    """
    mod = np.abs(ev)
    by_mod = np.argsort(mod, kind="stable")
    sorted_mod = mod[by_mod]
    group = np.concatenate(([0], np.cumsum(
        np.diff(sorted_mod) > _TIE_RTOL * sorted_mod[1:])))
    real = np.abs(ev.imag) <= _TIE_RTOL * mod
    arg = np.where(real, np.where(ev.real < 0, np.pi, 0.0), np.angle(ev))
    return by_mod[np.lexsort((arg[by_mod], group))]


def _low_end(disc: Discretization, count: int) -> np.ndarray:
    """The eigenvalues nearest a small shift, in canonical order; the first
    ``count`` are certified to be the ``count`` of smallest modulus (see
    the module docstring)."""
    N = disc.size
    # off 0 (an exact eigenvalue) and off both axes, scaled with A
    sigma = 1e-1 * disc.A.norm() * np.exp(1j)
    v0 = np.random.default_rng(0).standard_normal(N).astype(complex)
    m = min(count + 6, N - 2)
    while True:
        try:
            mu = scipy.sparse.linalg.eigs(disc.S, k=m, sigma=sigma, v0=v0,
                                          return_eigenvectors=False)
        except (scipy.sparse.linalg.ArpackNoConvergence,
                scipy.sparse.linalg.ArpackError) as exc:
            raise NonConverged(
                f"shift-invert Arnoldi failed at size {N}: {exc}") from exc
        mu = mu[_canonical_order(mu)]
        reach = float(np.max(np.abs(mu - sigma)))
        if abs(mu[count - 1]) + abs(sigma) + 1e-6 * reach < reach:
            return mu
        if m == N - 2:
            raise NonConverged(
                f"the {count} smallest eigenvalues of a size-{N} grid are "
                f"not separated from the rest")
        m = min(2 * m, N - 2)


def _low_eigenvalues(disc: Discretization, count: int) -> np.ndarray:
    """The ``count`` low-end eigenvalues of the discretization, with the
    d = 0 degeneracy handled by symmetric extrapolation.

    When the (2,2) entry vanishes, no equation row carries the second
    component's ghost stencil and the Neumann condition silently drops out
    of the discrete system (the continuum condition turns into a
    third-derivative constraint outside the stencil set).  Averaging the
    spectra at d = +-delta restores it to O(delta^2), far below the grid
    error.  Each low value at +delta is paired with its nearest unused
    value at -delta; the pairing runs over the low ends only.

    A singular A makes one block row of M repeat the other at the n
    interior nodes, so 0 is an eigenvalue of multiplicity at least
    n >= size // 4 >= count and the low end is exactly zero.  Arnoldi
    cannot resolve a multiple eigenvalue that large, so the bound is used.
    """
    A, n = disc.A, disc.n
    if A.is_singular:
        return np.zeros(count, dtype=complex)
    scale = 1.0 + A.norm()
    if abs(A.d) > 1e-9 * scale:
        return _low_end(disc, count)[:count]
    delta = 1e-3 * scale
    ev_up = _low_end(discretize(CMatrix2(A.a, A.b, A.c, A.d + delta), n), count)[:count]
    ev_dn = _low_end(discretize(CMatrix2(A.a, A.b, A.c, A.d - delta), n), count)
    out = np.empty_like(ev_up)
    used = np.zeros(ev_dn.size, dtype=bool)
    for i, v in enumerate(ev_up):
        dist = np.abs(ev_dn - v)
        dist[used] = np.inf
        j = int(np.argmin(dist))
        used[j] = True
        out[i] = 0.5 * (v + ev_dn[j])
    return out


def oracle_spectrum(disc: Discretization, k: int,
                    companion: Optional[Discretization] = None) -> Spectrum:
    """The k eigenvalues of smallest modulus, with Richardson error bars.

    Only the resolved low end is trusted: k must lie in 1..size//4.  The
    companion (default: half resolution) provides a two-resolution error
    estimate ``|nu_n - nu_{n/2}| / 3`` per eigenvalue and a stabilisation
    check; wildly drifting eigenvalues mark the matrix as not-closed
    (singular coefficient matrix).  Both resolutions are put in canonical
    order (modulus, then argument, with ties and real values recognised up
    to rounding) and paired by position.
    """
    if k < 1:
        raise InvalidInput(f"need at least one eigenvalue, got k = {k}")
    if k > disc.size // 4:
        raise ResolutionTooLow(
            f"requested {k} eigenvalues from a size-{disc.size} grid; only "
            f"the lowest quarter is resolved")
    if companion is None:
        companion = discretize(disc.A, max(disc.n // 2, 8))
    # three values decide the not-closed verdict below
    count = max(k, 3)
    ev_fine = _low_eigenvalues(disc, count)
    ev_coarse = _low_eigenvalues(companion, count)
    # a singular coefficient matrix shows up as a fat near-zero cluster
    # (the operator is not closed; only one eigenvalue 0 is legitimate,
    # two when the zero branch is analytically degenerate)
    zero_cluster = int(np.sum(np.abs(ev_fine) <= 1e-8 * np.linalg.norm(disc.S.data)))
    # positional pairing after the canonical sort: greedy nearest matching
    # crosses branches at collided double eigenvalues, which would fake a
    # near-zero two-resolution error estimate
    ev_fine = ev_fine[_canonical_order(ev_fine)][:k]
    ev_coarse = ev_coarse[_canonical_order(ev_coarse)][:k]

    errors = []
    drift = []
    for v, u in zip(ev_fine, ev_coarse):
        errors.append(float(abs(v - u)) / 3.0)
        drift.append(float(abs(v - u)) / (1.0 + abs(v)))
    not_closed = zero_cluster >= 3 or bool(np.median(drift) > 0.2)

    eigs = tuple((complex(v), 1) for v in ev_fine)
    notes = ("richardson-errors:" + ",".join(f"{e:.3e}" for e in errors),)
    if not_closed:
        notes = notes + ("not-closed: low eigenvalues do not stabilise with n",)
    return Spectrum(eigenvalues=eigs, method="oracle", search_region=None,
                    matrix=disc.A, residuals=tuple(errors), notes=notes)


def resolvent_norm(disc: Discretization, z: complex, method: str = "auto") -> float:
    """Discretization proxy for the resolvent norm: 1 / sigma_min(M - z I).

    ``method``: "svd" (dense, exact), "invit" (sparse LU + inverse
    iteration on the normal equations, matches the SVD to ~9 digits and
    scales to large grids) or "auto".  The proxy bounds neither side of
    the operator norm for non-normal problems; use trends, not constants.
    """
    if method == "auto":
        method = "svd" if disc.size <= 420 else "invit"
    B = disc.M - z * np.eye(disc.size)
    if method == "svd":
        smin = float(scipy.linalg.svdvals(B)[-1])
    else:
        smin = _sigma_min_inverse_iteration(B)
    if smin <= 1e-12 * max(1.0, float(np.linalg.norm(disc.M, ord="fro"))):
        raise NearSpectrum(f"z = {z} is numerically on the discrete spectrum")
    return 1.0 / smin


def _sigma_min_inverse_iteration(B: np.ndarray, max_iter: int = 300) -> float:
    S = scipy.sparse.csc_matrix(B)
    try:
        lu = scipy.sparse.linalg.splu(S)
        luh = scipy.sparse.linalg.splu(S.conj().T.tocsc())
    except RuntimeError as exc:
        raise NearSpectrum(f"shifted matrix is numerically singular: {exc}") from exc
    rng = np.random.default_rng(7)
    v = rng.standard_normal(B.shape[0]) + 1j * rng.standard_normal(B.shape[0])
    v /= np.linalg.norm(v)
    s_prev = np.inf
    for _ in range(max_iter):
        w = luh.solve(lu.solve(v))
        nw = np.linalg.norm(w)
        if not np.isfinite(nw) or nw == 0.0:
            raise NearSpectrum("inverse iteration diverged: z is on the spectrum")
        v = w / nw
        s = 1.0 / np.sqrt(nw)
        if abs(s - s_prev) <= 1e-10 * s:
            return float(s)
        s_prev = s
    return float(s_prev)


@dataclass(frozen=True)
class GrowthRow:
    r: int
    z: complex
    norm_n: float
    norm_2n: float

    @property
    def agreement(self) -> float:
        return abs(self.norm_n - self.norm_2n) / max(self.norm_n, self.norm_2n)


@dataclass(frozen=True)
class GrowthProbe:
    rows: tuple
    n: int
    anchor: str

    def slope(self, resolution: str = "fine") -> float:
        """Least-squares slope of log(norm) against log(r)."""
        rs = np.array([row.r for row in self.rows], dtype=float)
        ns = np.array([row.norm_2n if resolution == "fine" else row.norm_n
                       for row in self.rows])
        return float(np.polyfit(np.log(rs), np.log(ns), 1)[0])


def growth_probe(A: CMatrix2, eps: float, r_list, n: int = 300,
                 anchor: str = "lattice") -> GrowthProbe:
    """Resolvent-norm proxy along ``z(r) = 4 a pi^2 r^2 + i eps`` at two
    resolutions (n and 2n).

    ``anchor`` selects how the lattice point ``4 a pi^2 r^2`` is evaluated:
    "continuum" uses the exact value, "lattice" (default) the
    discretization's own image of it at each resolution, which removes the
    O(h^2 r^4) displacement of the discrete spectrum from the probe and is
    what trend assertions should use at practical resolutions.
    """
    if anchor not in ("lattice", "continuum"):
        raise ValueError(f"unknown anchor {anchor!r}")
    a = A.a.real
    disc_n = discretize(A, n)
    disc_2n = discretize(A, 2 * n)
    rows = []
    for r in r_list:
        r = int(r)
        if anchor == "continuum":
            z_n = z_2n = 4.0 * a * np.pi ** 2 * r ** 2 + 1j * eps
        else:
            z_n = disc_n.lattice_value(a, 2 * r) + 1j * eps
            z_2n = disc_2n.lattice_value(a, 2 * r) + 1j * eps
        rows.append(GrowthRow(r=r, z=complex(z_2n),
                              norm_n=resolvent_norm(disc_n, z_n, method="invit"),
                              norm_2n=resolvent_norm(disc_2n, z_2n, method="invit")))
    return GrowthProbe(rows=tuple(rows), n=n, anchor=anchor)
