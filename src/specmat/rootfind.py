"""Zeros of entire functions in rectangles by argument-principle counting,
adaptive quadtree subdivision and Newton refinement; eigenvalue assembly
(zeros are square roots of eigenvalues); companion-matrix polynomial roots.

The winding machinery consumes a *log-derivative protocol*: any object
with a vectorised ``logderiv(z)`` method.  The secular functions
implement it natively (overflow-free); plain callables are adapted on
the fly.

Every contour integral (rectangle windings and quadtree splits) goes
through one primitive, :func:`_contour_moments`.  Its input is a bundle
of straight segments between numbered vertices and a signed incidence
matrix with one row per closed contour: a rectangle is one row of four
segments, and a split into a k x k grid k^2 rows over its 2k(k + 1)
segments, so each piece of an interior line is integrated once for the
cells on both sides.  A bundle may hold several such parts, each with its
own frame (centre and radius), and a part that fails (a non-finite
sample, a zero too close to its contour, a segment past its sample cap)
stops alone: the others finish as they would alone, and the call reports
per contour whether its part failed.  It returns, per contour, the winding
number ``s0 = (1/2 pi i) contour integral of f'/f`` and the power sums
``s_k = (1/2 pi i) contour integral of u^k f'/f``, k = 1..4 (the sums of
the k-th powers of the enclosed zeros), of ``u`` the point relative to
its part's centre and radius, all from the same samples.  Each segment
is integrated by adaptive 16-node Gauss-Legendre panels (QUADPACK's QAG,
Piessens et al. 1983): it starts as four panels, and a panel is cut into
four until its last Legendre coefficients of ``f'/f`` have decayed, a
measure of how far the integrand is analytic around it (Trefethen,
Approximation Theory and Approximation Practice, SIAM 2013, ch. 19), so
only the part of a segment near a zero refines, and no point is evaluated
twice within one call.

Every cell of the quadtree carries its count ``m`` and its power sums,
and two rules accept it.  As m simple zeros, for ``1 <= m <= 4`` (Delves
and Lyness, Math. Comp. 21, 1967): the roots of the polynomial with power
sums ``s_1..s_m`` (for m = 1 the centroid ``s1``) start Newton, and the
cell is accepted when all m converge inside it, pairwise farther apart
than the cluster size ``_CLUSTER_REL * (1 + |centre|)``; m distinct zeros
in a cell of count m are all of them, each simple.  As one m-fold zero,
for ``m >= 2`` when the first rule does not resolve the cell: the
centroid ``s1 / m`` is polished and must converge inside the cell, and a
count certifies it.  That is the cell's own count when the cell is no
wider than the cluster size, and otherwise, for ``m <= 4``, the count of
one square one cluster size wide around the polished point, clipped to
the cell (Kravanja and Van Barel, LNM 1727, 2000): the m zeros lie within
the certifying contour's diameter of the reported point.  An order-m zero
is resolved only to O(eps^(1/m)) by any contour, so m simple zeros closer
than the cluster size are reported as one m-fold zero.  Any other cell is
split, and a split that cannot be counted raises NonConvergent.

The quadtree is worked breadth first, with at most two contour-moment
calls per level when no grid fails.  A cell of n zeros that must split is
cut into one k x k grid, ``k = max(2, ceil(sqrt(n / 1.5)))`` up to 16, so
that each child holds about 1.5 of its zeros and most children are solved
by the first rule on the next level.  One call counts every child of
every cell of a level that splits, each grid its own part with its own
frame and count-sum check, and one call counts the certifying squares of
a level.  The cells whose grid fails or does not split them go on
together to the level's next attempt, whose grids have jittered lines.
On each level the Newton starts of every cell the first rule may
solve go through one vectorised Newton, so the per-call overhead of a
step is paid once per level, not once per cell.

``spectrum`` sizes its first search box by the secular function's zero
density (Polya: about ``P R / (2 pi)`` zeros in ``|x| < R``, P the
perimeter of the convex hull of its exponents), and counts the box with
its first grid in one call: the box's own polygon gives the count, which
the grid's children must add up to.  When only the grid fails the box's
count stands; when the box fails it is dilated and counted alone
(:func:`_count_box`).
A given rectangle's first grid is sized by the same density for the
zeros between its nearest and farthest point from the origin.  The
density counts zeros with multiplicity, and ``spectrum`` wants distinct
eigenvalues, so one bounded loop resizes the box: a box that counts too
few zeros, or whose isolation gives too few distinct eigenvalues, is
scaled by the ratio of the zeros wanted to those found (zeros grow in
proportion to the radius), and one whose eigenvalues lie beyond the disc
it covers jumps once to that radius; each new box is counted and
isolated whole.  A secular function without cosine terms is ``q x^2``,
whose only zero is the origin, and ``count = 1`` asks for the eigenvalue 0
alone: both return the first box before any contour.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (BoundaryZero, DegreeTooHigh, InvalidInput, NonConvergent,
                     NumericalFailure)
from .mat2 import CMatrix2
from .secular import build

_EDGE_CAP = 2 ** 18    # most samples any one segment may take
_WINDING_TOL = 1e-3
_CLUSTER_REL = 1e-4    # cluster size, over 1 + |centre|
_MAX_DEGREE = 64       # highest degree polyroots accepts
_ROOT_RTOL = 1e-10     # polyroots' residual bound, over ||p||


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in the lambda plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (-np.inf < self.re_min < self.re_max < np.inf
                and -np.inf < self.im_min < self.im_max < np.inf):
            raise ValueError(f"degenerate or unbounded rectangle {self}")

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max),
                       0.5 * (self.im_min + self.im_max))

    @property
    def diameter(self) -> float:
        return float(np.hypot(self.re_max - self.re_min, self.im_max - self.im_min))

    def corners(self) -> np.ndarray:
        return np.array([complex(self.re_min, self.im_min),
                         complex(self.re_max, self.im_min),
                         complex(self.re_max, self.im_max),
                         complex(self.re_min, self.im_max)])

    def dilated(self, factor: float) -> "Rect":
        c = self.center
        hw = 0.5 * (self.re_max - self.re_min) * factor
        hh = 0.5 * (self.im_max - self.im_min) * factor
        return Rect(c.real - hw, c.real + hw, c.imag - hh, c.imag + hh)

    def scaled(self, factor: float) -> "Rect":
        """The rectangle times ``factor > 0``, about the origin."""
        return Rect(self.re_min * factor, self.re_max * factor,
                    self.im_min * factor, self.im_max * factor)

    def contains(self, z: complex, slack: float = 0.0) -> bool:
        return (self.re_min - slack <= z.real <= self.re_max + slack
                and self.im_min - slack <= z.imag <= self.im_max + slack)

    def grid_lines(self, fx, fy):
        """The abscissae and ordinates of a grid over the rectangle: its
        edges and the interior lines at the increasing fractions ``fx`` of
        its width and ``fy`` of its height."""
        w, h = self.re_max - self.re_min, self.im_max - self.im_min
        return ([self.re_min, *(self.re_min + f * w for f in fx), self.re_max],
                [self.im_min, *(self.im_min + f * h for f in fy), self.im_max])


class _CallableAdapter:
    """Wrap (f, fprime) callables into the log-derivative protocol."""

    def __init__(self, f: Callable, fprime: Callable):
        self.f = f
        self.fprime = fprime

    def logderiv(self, z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.fprime(z) / self.f(z)


def _as_protocol(f, fprime=None):
    if hasattr(f, "logderiv"):
        return f
    if fprime is None:
        raise TypeError("plain callables need an explicit derivative")
    return _CallableAdapter(f, fprime)


class _OriginDeflated:
    """View of f(z) / z^m: removes a known structural zero at the origin
    exactly in log-derivative space, so the search never has to resolve it
    numerically (high-order origin zeros sit below the cancellation noise
    floor of the closed forms)."""

    def __init__(self, fun, order: int):
        self.base = fun
        self.order = order

    def logderiv(self, z):
        z = np.asarray(z, dtype=complex)
        return self.base.logderiv(z) - self.order / z


class _Segments(NamedTuple):
    """Closed contours assembled from shared straight segments.

    Segment k runs from vertex ``ends[k, 0]`` to vertex ``ends[k, 1]``.
    Row c of ``incidence`` describes contour c: +1 for a segment it
    traverses forwards, -1 backwards, 0 for one it does not use.  Segment
    k belongs to part ``part[k]`` (see :func:`_bundle`) and carries its
    frame ``centre[k]``, ``radius[k]``; all segments of one contour belong
    to one part, in whose frame its power sums are taken.
    """

    vertices: np.ndarray
    ends: np.ndarray
    incidence: np.ndarray
    centre: np.ndarray
    radius: np.ndarray
    part: np.ndarray


def _part(vertices, ends, incidence) -> _Segments:
    """Contours of one part, all in its frame: the midpoint and half the
    diagonal of its vertices' bounding box."""
    vertices = np.asarray(vertices, dtype=complex)
    x, y = vertices.real, vertices.imag
    x0, x1, y0, y1 = x.min(), x.max(), y.min(), y.max()
    n = len(ends)
    return _Segments(vertices, np.asarray(ends), incidence,
                     np.full(n, complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))),
                     np.full(n, 0.5 * float(np.hypot(x1 - x0, y1 - y0))),
                     np.zeros(n, dtype=int))


def _bundle(parts) -> _Segments:
    """The contours of several parts as one bundle, for one
    :func:`_contour_moments` call: the parts' contours in order, each
    over its own part's segments and in its own part's frame, the
    segments of ``parts[i]`` in part i."""
    if len(parts) == 1:
        return parts[0]
    offsets = np.cumsum([0] + [len(p.vertices) for p in parts[:-1]])
    incidence = np.zeros((sum(p.incidence.shape[0] for p in parts),
                          sum(p.incidence.shape[1] for p in parts)))
    r = c = 0
    for p in parts:
        rows, cols = p.incidence.shape
        incidence[r:r + rows, c:c + cols] = p.incidence
        r, c = r + rows, c + cols
    return _Segments(np.concatenate([p.vertices for p in parts]),
                     np.concatenate([p.ends + o for p, o in zip(parts, offsets)]),
                     incidence,
                     np.concatenate([p.centre for p in parts]),
                     np.concatenate([p.radius for p in parts]),
                     np.concatenate([np.full(len(p.ends), i) for i, p in enumerate(parts)]))


def _polygon(vertices) -> _Segments:
    """One closed polyline: segment k runs from vertex k to vertex k+1."""
    n = len(vertices)
    return _part(vertices, [(k, (k + 1) % n) for k in range(n)], np.ones((1, n)))


def _grid(xs, ys) -> _Segments:
    """The k x l cells between consecutive abscissae ``xs`` (k + 1 of
    them) and ordinates ``ys`` (l + 1) as counter-clockwise contours, row
    by row from the lower left (cell ``i + k j`` at column i, row j), over
    the grid's segments between its vertices (vertex ``i + (k + 1) j``):
    every interior line is cut at the lines crossing it, and each piece is
    one segment shared by the two cells it borders."""
    k, l = len(xs) - 1, len(ys) - 1
    vertices = [complex(x, y) for y in ys for x in xs]
    # the first k (l + 1) segments run rightwards (column i to i + 1 in row
    # j, segment i + k j), the rest upwards (row j to j + 1 in column i,
    # segment nh + j + l i)
    nh = k * (l + 1)
    horiz = [(i + (k + 1) * j, i + 1 + (k + 1) * j) for j in range(l + 1) for i in range(k)]
    vert = [(i + (k + 1) * j, i + (k + 1) * (j + 1)) for i in range(k + 1) for j in range(l)]
    incidence = np.zeros((k * l, len(horiz) + len(vert)))
    for j in range(l):
        for i in range(k):
            c = i + k * j
            incidence[c, i + k * j] = 1.0                # bottom, rightwards
            incidence[c, nh + j + l * (i + 1)] = 1.0     # right, upwards
            incidence[c, i + k * (j + 1)] = -1.0         # top, leftwards
            incidence[c, nh + j + l * i] = -1.0          # left, downwards
    return _part(vertices, horiz + vert, incidence)


_ORDERS = 4     # power sums s_1.._ORDERS come with every contour integral


def _powers(w, u):
    """``w * u**k`` for k = 0.._ORDERS, stacked on a new first axis, by
    repeated products (``np.power`` on complex arrays is far slower)."""
    out = np.empty((_ORDERS + 1,) + np.shape(w), dtype=complex)
    out[0] = w
    for k in range(1, _ORDERS + 1):
        np.multiply(out[k - 1], u, out=out[k])
    return out


# the 16-point Gauss-Legendre rule on [-1, 1], symmetric about 0: its
# positive nodes and their weights
_GL_X = np.array([0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
                  0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                  0.9445750230732326, 0.9894009349916499])
_GL_W = np.array([0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                  0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                  0.062253523938647456, 0.027152459411754176])
_GL_X = np.concatenate((-_GL_X[::-1], _GL_X))
_GL_W = np.concatenate((_GL_W[::-1], _GL_W))
_GL_N = _GL_X.size
_GL_T = 0.5 * (1.0 + _GL_X)     # the nodes on a panel's [0, 1]
_GL_HW = 0.5 * _GL_W            # and their weights


def _legendre_tail(x, w):
    """The ``_GL_N x 3`` matrix taking a function's samples at the nodes
    ``x`` (weights ``w``) to its last three Legendre coefficients,
    ``a_j = (j + 1/2) sum_i w_i P_j(x_i) f(x_i)``, j = 13..15, by the
    three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    cols = []
    for j in range(1, _GL_N - 1):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        if j + 1 >= _GL_N - 3:
            cols.append((j + 1.5) * w * p1)
    return np.stack(cols, axis=1)


_GL_TAIL = _legendre_tail(_GL_X, _GL_W).astype(complex)
_PANEL_TAIL = 1e-4      # most hL (|a13| + |a14| + |a15|) of an accepted panel
_PANEL_REACH = 8.0      # most hL max|g|: panel length over distance to a zero


_CUTS = 4       # panels a segment starts as, and that a rejected panel is cut into


def _cut(seg, zs, zd):
    """Each panel (segment, start point, complex width) as its ``_CUTS``
    equal pieces, in order along it."""
    zd = zd / _CUTS
    zs = (zs[:, None] + zd[:, None] * np.arange(_CUTS)).ravel()
    return np.repeat(seg, _CUTS), zs, np.repeat(zd, _CUTS)


def _contour_moments(fun, segs: _Segments, cap=_EDGE_CAP):
    """Winding numbers ``s0 = (1/2 pi i) contour integral of g``, ``g =
    f'/f``, and power sums ``s_k = (1/2 pi i) contour integral of u^k g``,
    k = 1..4, of ``u = (z - centre) / radius`` in each contour's frame
    (:class:`_Segments`), over each closed contour of ``segs``.  Returns
    ``(s0, sums, ok)``: ``s0`` with one entry per row of the incidence
    matrix, the power sums as one row of four per contour, and ``ok``,
    False for a contour whose part failed (its entries then mean nothing).
    ``cap`` is one sample cap for every segment or one per segment.

    Contours that share a segment share its samples: every segment is
    evaluated once per call, whichever contours use it.  Adaptive
    Gauss-Legendre panels of ``_GL_N`` nodes (QUADPACK's QAG, Piessens et
    al. 1983): each segment starts as four panels, and a panel of length
    ``hL`` is cut into four until ``hL (|a13| + |a14| + |a15|) <=
    _PANEL_TAIL`` and ``hL max|g| <= _PANEL_REACH`` on it, ``a_j`` the
    Legendre coefficients of g on the panel from its own samples.  Their
    decay measures how far g is analytic around the panel, which is what
    the rule's accuracy rests on (Trefethen, ATAP, SIAM 2013, ch. 19), so
    only the part of a segment near a zero refines.  All panels still to
    be evaluated, of every segment of every part, share one ``logderiv``
    call per level, and the power sums come from the same nodes.  Each
    contour's winding ``Re s0`` must also lie within ``_WINDING_TOL`` of
    an integer, else every panel of that contour's segments is cut again.

    A part fails when one of its segments takes a non-finite sample, when
    a zero lies within ``4 diam / cap`` of one of its contours, too close
    to resolve below its segments' cap (``diam`` that contour's longest
    segment; the caller may dilate or split anew), or when a segment would
    take more than its cap of samples.  Its panels stop refining there, and
    every other part finishes as it would alone.
    """
    inc = segs.incidence
    za = segs.vertices[segs.ends[:, 0]]
    dz = segs.vertices[segs.ends[:, 1]] - za
    member = inc != 0
    n = dz.size
    cap = np.broadcast_to(cap, (n,))
    inv_radius = 1.0 / segs.radius
    part = segs.part
    failed = np.zeros(part.max() + 1, dtype=bool)
    # per segment, the longest segment of any contour it belongs to
    diam = np.where(member, np.abs(dz), 0.0).max(axis=1)
    diam = np.where(member, diam[:, None], 0.0).max(axis=0)
    used = np.zeros(n, dtype=int)       # samples taken on each segment
    # the panels to evaluate: segment, start point and complex width
    seg, zs, zd = _cut(np.arange(n), za, dz)
    done = []                           # accepted panels, one tuple per level
    while True:
        used += _GL_N * np.bincount(seg, minlength=n)
        over = used > cap
        if over.any():
            failed[part[over]] = True
            live = ~failed[part[seg]]
            seg, zs, zd = seg[live], zs[live], zd[live]
        z = zs[:, None] + zd[:, None] * _GL_T
        g = fun.logderiv(z) if seg.size else np.empty(z.shape, dtype=complex)
        if not np.isfinite(g).all():
            # a failed part's panels are dropped before any arithmetic on them
            failed[part[seg[~np.isfinite(g).all(axis=1)]]] = True
            live = ~failed[part[seg]]
            seg, zs, zd, z, g = seg[live], zs[live], zd[live], z[live], g[live]
        pmax = np.abs(g).max(axis=1)
        size = np.abs(zd)
        # elementwise contraction: a matrix product would start BLAS threads
        tail = np.abs(np.einsum("pi,ij->pj", g, _GL_TAIL)).sum(axis=1)
        accept = (size * tail <= _PANEL_TAIL) & (size * pmax <= _PANEL_REACH)
        gdz = g[accept] * (zd[accept, None] * _GL_HW)
        sok = seg[accept]
        u = (z[accept] - segs.centre[sok, None]) * inv_radius[sok, None]
        done.append((sok, zs[accept], zd[accept], _powers(gdz, u).sum(axis=2)))
        split = ~accept
        # diam / dist, dist = 1 / max|g| on a panel: a zero so close to the
        # contour that the panels would need more than the sample cap
        far = pmax * diam[seg] > cap[seg] / 4.0
        if far.any():
            failed[part[seg[far]]] = True
            split &= ~failed[part[seg]]
        if not split.any():
            dseg, dzs, dzd, dm = (np.concatenate(a, axis=-1) for a in zip(*done))
            per_seg = np.zeros((n, _ORDERS + 1), dtype=complex)
            np.add.at(per_seg, dseg, dm.T)
            # s0 and the sums in one matrix product: a matrix-vector product
            # would round a contour's s0 differently with the other parts'
            # zero columns beside it
            moments = inc @ per_seg / (2j * np.pi)
            w = moments[:, 0].real
            ok = ~failed[part[member.argmax(axis=1)]]
            off = ok & (np.abs(w - np.round(w)) > _WINDING_TOL)
            if not off.any():
                return moments[:, 0], moments[:, 1:], ok
            # refine every panel of the segments of the contours that failed
            split = member[off].any(axis=0)[dseg]
            seg, zs, zd = dseg, dzs, dzd
            keep = ~split
            done = [(dseg[keep], dzs[keep], dzd[keep], dm[:, keep])]
        seg, zs, zd = _cut(seg[split], zs[split], zd[split])


class _Cell(NamedTuple):
    """A rectangle, its winding count ``n`` and the power sums ``sums[k-1]
    = sum_j u_j^k``, k = 1..4, of the zeros ``z_j = centre + radius u_j``
    inside, in the frame of the contour bundle that counted it."""

    rect: Rect
    n: int
    sums: np.ndarray
    centre: complex
    radius: float

    @property
    def s1(self) -> complex:
        """The sum of the zeros inside."""
        return self.n * self.centre + self.radius * complex(self.sums[0])


def winding_count(f, rect: Rect, fprime=None, rng=None) -> int:
    """Number of zeros of ``f`` inside ``rect``, counted with multiplicity.

    If a zero sits (numerically) on the boundary the rectangle is dilated
    by a random factor in [1.0001, 1.001) and the count retried, up to
    five times (see :func:`_count_box`).
    """
    fun = _as_protocol(f, fprime)
    rng = np.random.default_rng(0) if rng is None else rng
    return _count_box(fun, rect, rng)[0].n


def _count_box(fun, rect: Rect, rng, k: Optional[int] = None):
    """The winding count of ``rect`` and, with ``k``, its first split into
    a k x k grid.  Returns ``(counted, children)``: the counted
    :class:`_Cell` and the children that hold zeros, or None when there is
    no grid, it fails, or it does not split the box (its counts do not add
    up); the counted cell is then the first level of
    :func:`_isolate_counted`.

    With ``k`` the first :func:`_contour_moments` call bundles the box's
    own four-segment polygon, whose winding is the count, with the grid of
    :func:`_split_grid`'s first attempt, so the split's count-sum check
    compares two independent integrals.  When only the grid fails, the
    box's count stands without it.  When the box fails, a zero sits
    (numerically) on its edge: the grid is dropped, and the box is dilated
    by a random factor in [1.0001, 1.001) and counted again, up to five
    times; then BoundaryZero is raised.
    """
    grid = None if k is None else _split_grid(rect, k, 0, rng)
    r, dilations = rect, 0
    while True:
        box = _polygon(r.corners())
        if grid is None:
            segs, caps = box, _EDGE_CAP
        else:
            # the grid's outer segments (one cell uses each) lie on the
            # box's edge and take its cap: no later attempt, which moves
            # only the interior lines, could resolve a zero near that edge
            # under a smaller one
            outer = np.count_nonzero(grid[2].incidence, axis=0) == 1
            segs = _bundle([box, grid[2]])
            caps = np.concatenate((np.full(len(box.ends), _EDGE_CAP),
                                   np.where(outer, _EDGE_CAP, _SPLIT_CAPS[0])))
        s0, sums, ok = _contour_moments(fun, segs, cap=caps)
        # a negative winding, like a failure, signals structure too close
        # to the contour
        n = int(round(s0[0].real))
        if ok[0] and n >= 0:
            counted = _Cell(r, n, sums[0], box.centre[0], box.radius[0])
            split = grid is not None and ok[1:].all()
            return counted, _children(*grid, s0[1:], sums[1:], n) if split else None
        if dilations == 5:
            raise BoundaryZero(f"no count of {rect} or its five dilations")
        grid = None
        r = r.dilated(1.0 + 1e-3 * float(rng.uniform(0.1, 1.0)))
        dilations += 1


def _newton(fun, z0s, mult, tol: float, steps: int = 60):
    """Multiplicity-aware Newton, ``z <- z - mult / logderiv(z)``, from
    every start of ``z0s`` at once: one ``logderiv`` call per step for the
    starts still iterating.  ``mult`` is one multiplicity for all starts
    or one per start.

    Returns the arrays ``(z, ok)``.  ``ok`` is True for a start once a
    step falls to ``1e-3 tol (1 + |z|)``, but not below two ulps of
    ``1 + |z|`` where rounding would keep it from ever getting there (or
    once its log-derivative is infinite, on the zero), and False when
    ``steps`` steps do not get there or the log-derivative vanishes.
    """
    z = np.array(z0s, dtype=complex, ndmin=1)
    mult = np.full(z.shape, mult, dtype=float)
    ok = np.zeros(z.shape, dtype=bool)
    todo = np.arange(z.size)
    for _ in range(steps):
        if todo.size == 0:
            break
        ld = fun.logderiv(z[todo])
        fin = np.isfinite(ld)
        live = fin & (ld != 0)
        step = mult[todo] / np.where(live, ld, 1.0)
        w = z[todo] - step
        conv = np.abs(step) <= max(1e-3 * tol, 4e-16) * (1.0 + np.abs(w))
        z[todo[live]] = w[live]
        # a log-derivative that blew up: sitting on the zero
        ok[todo] = ~fin | (live & conv)
        todo = todo[live & ~conv]
    return z, ok


def _require_tol(tol) -> None:
    if not (tol > 0 and np.isfinite(tol)):
        raise InvalidInput(f"tol must be finite and positive, got {tol}")


def isolate_zeros(f, rect: Rect, tol: float = 1e-10, fprime=None, rng=None):
    """All zeros of ``f`` in ``rect`` as (location, multiplicity) pairs.

    Breadth-first subdivision into grids (with jittered lines when a zero
    falls on one) until every cell is accepted by one of the two rules of the
    module docstring: a cell of 1 to 4 zeros as that many simple zeros
    from its power sums, or a cell of 2 or more as one zero whose
    polished centroid a count certifies (the cell's own count when it is
    no wider than the cluster size, else that of one square one cluster
    size wide around the point).
    The multiplicity sum equals the top-level winding count, else
    NumericalFailure is raised, and InvalidInput unless ``tol`` is finite
    and positive.  The rectangle is counted by :func:`_count_box`.
    """
    _require_tol(tol)
    fun = _as_protocol(f, fprime)
    rng = np.random.default_rng(0) if rng is None else rng
    return _isolate_counted(fun, _count_box(fun, rect, rng)[0], tol, rng)


def _isolate_counted(fun, counted: _Cell, tol: float, rng, children=None):
    """Quadtree isolation in the rectangle of a winding count already
    taken, one level at a time: the power sums of every cell of a level
    start one batched Newton (:func:`_power_sum_zeros`), the cells they
    leave unresolved go to :func:`_multiple_zeros`, and those left then
    to :func:`_split_level`, whose children form the next level.
    ``children``, when given, is the counted cell's first split (see
    :func:`_count_box`), and the first level."""
    if counted.n == 0:
        return []
    results = []
    level = [counted] if children is None else children
    while level:
        simple = iter(_power_sum_zeros(fun, [c for c in level if c.n <= _ORDERS], tol))
        rest = []
        for cell in level:
            zs = next(simple) if cell.n <= _ORDERS else None
            if zs is None:
                rest.append(cell)
            else:
                results.extend((z, 1) for z in zs)
        multiple = iter(_multiple_zeros(fun, [c for c in rest if c.n > 1], tol))
        split = []
        for cell in rest:
            z = next(multiple) if cell.n > 1 else None
            if z is not None:
                results.append((z, cell.n))
                continue
            rect = cell.rect
            if rect.diameter <= 1e-11 * (1.0 + abs(rect.center)):
                raise NonConvergent(f"cannot resolve {cell.n} zeros near {rect.center}: "
                                    "cell exhausted")
            split.append(cell)
        level = _split_level(fun, split, rng) if split else []
    found = sum(m for _, m in results)
    if found != counted.n:
        raise NumericalFailure(
            f"isolated {found} zeros counting multiplicity, winding count {counted.n}")
    return _canonical_sorted(results)


def _power_sum_zeros(fun, cells, tol: float):
    """Each cell's ``n`` (1 to 4) zeros as n simple zeros, or None; one
    entry per cell.

    The starts are the roots of the monic polynomial whose power sums are
    the cell's ``s_1..s_n`` (Newton's identities; Delves and Lyness, Math.
    Comp. 21, 1967); for n = 1 the one start is the centroid ``s1``.
    Starts closer than 1/50 of the cell diameter mark a multiple zero or a
    cluster, which is left to :func:`_multiple_zeros`.  The starts of all
    the cells take at most 10 simple Newton steps in one :func:`_newton`
    call.  A cell is accepted when every start converges inside it (with
    a slack of ``1e-7 (1 + |z|)``; a result outside is another zero
    reached by a basin jump) and the zeros are pairwise farther apart than
    the cluster size: its count is n with multiplicity, so n distinct
    zeros inside are all of them, each simple.
    """
    def gap(w):
        return min((abs(a - b) for a, b in combinations(w, 2)), default=np.inf)

    starts = [z if gap(z) > cell.rect.diameter / 50.0 else None
              for cell, z in zip(cells, _power_sum_roots(cells))]
    tried = [z for z in starts if z is not None]
    if not tried:
        return [None] * len(cells)
    z, ok = _newton(fun, np.concatenate(tried), 1, tol, steps=10)
    out, at = [], 0
    for cell, z0 in zip(cells, starts):
        if z0 is None:
            out.append(None)
            continue
        w, conv = z[at:at + z0.size], ok[at:at + z0.size]
        at += z0.size
        rect = cell.rect
        accept = (conv.all()
                  and all(rect.contains(v, slack=1e-7 * (1.0 + abs(v))) for v in w)
                  and gap(w) > _CLUSTER_REL * (1.0 + abs(rect.center)))
        out.append([complex(v) for v in w] if accept else None)
    return out


def _power_sum_roots(cells):
    """For each cell, the roots of the monic polynomial whose power sums
    are its ``s_1..s_n``: the eigenvalues of its companion matrix, whose
    first row holds the elementary symmetric functions ``e_k`` with signs
    ``(-1)^(k+1)`` (Newton's identities).  The companion matrices of one
    degree share one ``eigvals`` call."""
    rows = []
    for cell in cells:
        p = cell.sums
        e = [1.0 + 0j]                  # elementary symmetric functions
        for k in range(1, cell.n + 1):
            e.append(sum((-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k + 1)) / k)
        rows.append([(-1) ** (k + 1) * e[k] for k in range(1, cell.n + 1)])
    roots = [None] * len(cells)
    for n in {cell.n for cell in cells}:
        idx = [i for i, cell in enumerate(cells) if cell.n == n]
        companion = np.zeros((len(idx), n, n), dtype=complex)
        companion[:, 0] = [rows[i] for i in idx]
        companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        for i, u in zip(idx, np.linalg.eigvals(companion)):
            roots[i] = cells[i].centre + cells[i].radius * u
    return roots


def _multiple_zeros(fun, cells, tol: float):
    """Each cell's ``n >= 2`` zeros as one n-fold zero, or None; one entry
    per cell.

    The centroid ``s1 / n`` is polished by the function's
    ``polish_multiple`` when it has one (a true n-fold zero is a simple
    zero of the (n-1)-th derivative, which recovers machine accuracy
    instead of the eps^(1/n) noise radius), else by multiplicity Newton,
    and must converge inside the cell.  A count certifies the result: the
    cell's own when the cell is no wider than the cluster size
    ``_CLUSTER_REL * (1 + |centre|)``; otherwise, for n <= 4, that of one
    square one cluster size wide around the point, clipped to the cell.
    That square lies inside a cell of n zeros, so a count of n puts all of
    them within its diameter of the point (Kravanja and Van Barel, LNM
    1727, 2000).  The squares of all the cells are counted in one
    :func:`_contour_moments` call, each square its own part.  Any other
    count, or a square that cannot be counted, leaves the cell to the
    split.
    """
    out = [None] * len(cells)
    squares = []                # (cell index, polished point, square)
    for i, cell in enumerate(cells):
        rect, n = cell.rect, cell.n
        small = rect.diameter <= _CLUSTER_REL * (1.0 + abs(rect.center))
        if not small and n > _ORDERS:
            continue
        base = getattr(fun, "base", fun)
        if hasattr(base, "polish_multiple"):
            z, ok = base.polish_multiple(cell.s1 / n, n)
        else:
            (z,), (ok,) = _newton(fun, cell.s1 / n, n, tol)
            z = complex(z)
        if not (ok and rect.contains(z, slack=1e-7 * (1.0 + abs(z)))):
            continue
        if small:
            out[i] = z
            continue
        h = 0.5 * _CLUSTER_REL * (1.0 + abs(z))
        x0, x1 = max(z.real - h, rect.re_min), min(z.real + h, rect.re_max)
        y0, y1 = max(z.imag - h, rect.im_min), min(z.imag + h, rect.im_max)
        if x0 < x1 and y0 < y1:
            squares.append((i, z, Rect(x0, x1, y0, y1)))
    if squares:
        s0, _, ok = _contour_moments(
            fun, _bundle([_polygon(sq.corners()) for _, _, sq in squares]))
        for (i, z, _), w, good in zip(squares, s0, ok):
            if good and round(w.real) == cells[i].n:
                out[i] = z
    return out


_SPLIT_CAPS = (2 ** 12, 2 ** 15, 2 ** 18)   # sample caps of split attempts 0-2, 3-5, 6-8
_GRID_MAX = 16      # the largest grid side: a grid's incidence matrix is k^2 x 2k(k+1)


def _grid_size(n: float) -> int:
    """Side k of the grid a cell of about ``n`` zeros is cut into, so that
    each child holds about 1.5 of them, and at most ``_GRID_MAX``: a cell
    of more zeros leaves its children to split again."""
    return min(_GRID_MAX, max(2, int(np.ceil(np.sqrt(n / 1.5)))))


def _split_grid(rect: Rect, k: int, attempt: int, rng):
    """Split attempt ``attempt`` of ``rect`` into a k x k grid: its
    abscissae, ordinates and :func:`_grid`.

    The first attempt's lines sit deliberately off the regular grid at
    ``i / k``: the secular functions are even, so symmetric lines pass
    straight through axis zeros, where the principal-value winding is
    silently integer for even-order zeros.  Later attempts move every line
    by up to 0.24 / k of the cell from ``i / k``.
    """
    lines = np.arange(1, k)
    if attempt == 0:
        fx, fy = (lines + 0.026274) / k, (lines - 0.0259774) / k
    else:
        fx = (lines + rng.uniform(-0.24, 0.24, size=k - 1)) / k
        fy = (lines + rng.uniform(-0.24, 0.24, size=k - 1)) / k
    xs, ys = rect.grid_lines(fx, fy)
    return xs, ys, _grid(xs, ys)


def _children(xs, ys, grid: _Segments, s0, sums, cnt: int):
    """The children that hold zeros of a cell of ``cnt`` zeros split by
    ``grid`` over ``xs`` and ``ys``, from its contours' windings ``s0``
    and power sums, or None unless every count is non-negative and they
    add up to ``cnt``."""
    counts = [int(round(w)) for w in s0.real]
    if min(counts) < 0 or sum(counts) != cnt:
        return None
    k = len(xs) - 1
    children = [Rect(xs[i], xs[i + 1], ys[j], ys[j + 1]) for j in range(k) for i in range(k)]
    return [_Cell(ch, n, p, grid.centre[0], grid.radius[0])
            for ch, n, p in zip(children, counts, sums) if n > 0]


def _split_level(fun, cells, rng):
    """The children that hold zeros of every cell of one quadtree level
    that must split, each cell cut into one k x k grid, ``k =
    _grid_size(n)`` for its n zeros, so that each child holds about 1.5
    of them, in the order of the cells.

    Attempts 0 to 8 of :func:`_split_grid`: each counts the grids of every
    cell not yet split in one :func:`_contour_moments` call (see
    :func:`_grid`: each piece of an interior line is integrated once for
    both cells it borders), each grid its own part in its own frame, so
    that its children's power sums are those of its own split.  A cell's
    split is accepted when every count is non-negative and they sum to
    its own count; any other cell, or one whose grid fails, goes on to the
    next attempt.  The sample cap escalates from ``2^12`` to ``2^15`` and
    ``2^18`` every three attempts: zeros near an inherited parent edge
    need more samples than a fresh jittered line would.  Raises
    NonConvergent when no attempt splits a cell.
    """
    out = [None] * len(cells)
    todo = list(range(len(cells)))
    for attempt in range(9):
        grids = [_split_grid(cells[i].rect, _grid_size(cells[i].n), attempt, rng) for i in todo]
        s0, sums, ok = _contour_moments(fun, _bundle([g[2] for g in grids]),
                                        _SPLIT_CAPS[attempt // 3])
        row = 0
        for i, grid in zip(todo, grids):
            rows = slice(row, row + len(grid[2].incidence))
            row = rows.stop
            if ok[rows.start]:
                out[i] = _children(*grid, s0[rows], sums[rows], cells[i].n)
        todo = [i for i in todo if out[i] is None]
        if not todo:
            return [child for children in out for child in children]
    raise NonConvergent(f"could not split cell {cells[todo[0]].rect} conservatively")


# -- spectra -------------------------------------------------------------

# relative tolerance under which two moduli tie, or an eigenvalue counts as
# real, in the canonical order; far above the solvers' rounding, far below
# any eigenvalue spacing they resolve
_TIE_RTOL = 1e-8


def _canonical_order(ev: np.ndarray) -> np.ndarray:
    """Indices sorting ``ev`` by modulus, and ties (moduli equal to within
    ``_TIE_RTOL``) by argument in (-pi, pi].

    Values within ``_TIE_RTOL`` of the real axis count as real, so that
    rounding noise cannot move an eigenvalue on the negative axis across
    the branch cut from pi to -pi and reorder it against its tie partner.
    A conjugate pair lists its lower member first.
    """
    mod = np.abs(ev)
    by_mod = np.argsort(mod, kind="stable")
    sorted_mod = mod[by_mod]
    group = np.cumsum(np.diff(sorted_mod, prepend=sorted_mod[:1])
                      > _TIE_RTOL * sorted_mod)
    real = np.abs(ev.imag) <= _TIE_RTOL * mod
    arg = np.where(real, np.where(ev.real < 0, np.pi, 0.0), np.angle(ev))
    return by_mod[np.lexsort((arg[by_mod], group))]


def _canonical_sorted(pairs) -> list:
    """``(value, multiplicity)`` pairs in the canonical order of their values."""
    pairs = list(pairs)
    order = _canonical_order(np.array([v for v, _ in pairs], dtype=complex))
    return [pairs[i] for i in order]


@dataclass(frozen=True)
class Spectrum:
    """Finite list of eigenvalues with multiplicities and provenance.

    ``eigenvalues`` holds ``(value, multiplicity)`` in the canonical order
    of :func:`_canonical_order`: by modulus, ties by argument.
    Multiplicity is the analytic order of the corresponding secular zero
    (the algebraic count; geometric multiplicity is at most 2).  The
    always-present eigenvalue 0 is reported once, with the full order of
    the secular zero at the origin in ``analytic_order_at_zero``.
    """

    eigenvalues: tuple
    method: str
    search_region: Optional[Rect]
    matrix: Optional[CMatrix2]
    analytic_order_at_zero: Optional[int] = None
    residuals: tuple = ()
    notes: tuple = ()

    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.eigenvalues], dtype=complex)

    def with_multiplicity(self) -> np.ndarray:
        out = []
        for v, m in self.eigenvalues:
            out.extend([v] * m)
        return np.array(out, dtype=complex)


def _canonical_zeros(zeros):
    """Map +-symmetric zeros to right-half-plane representatives: drop
    mirrors with negative real part, snap imaginary-axis zeros and keep
    only their upper-half representative."""
    kept = []
    for z, m in zeros:
        ax = 1e-7 * (1.0 + abs(z))
        if z.real < -ax:
            continue
        if abs(z.real) <= ax:
            if z.imag < 0:
                continue
            kept.append((complex(0.0, z.imag), m))
        else:
            kept.append((z, m))
    return kept


def _search_box(fun, L: float, H: float, margin: float, want: int, tol: float, rng):
    """The distinct nonzero eigenvalues, in canonical order, of the first
    box that holds the ``want`` smallest, and that box; the first box is
    ``L`` wide and about ``2 H`` high (see :func:`spectrum`)."""
    # each round counts the box with its first grid (for about want + 2
    # zeros) in one call, and isolates it whole when it holds enough
    k = _grid_size(want + 2)
    for _ in range(16):
        box = Rect(-margin, L, -1.031731 * H, 0.968413 * H)
        try:
            counted, first = _count_box(fun, box, rng, k)
            zeros = (_isolate_counted(fun, counted, tol, rng, first)
                     if counted.n > want else None)
        except (BoundaryZero, NonConvergent):
            # a box edge landed too close to spectral structure: nudge
            L *= 1.0489
            H *= 1.0171
            continue
        if zeros is None:
            found = counted.n
        else:
            values = _canonical_sorted((z * z, m) for z, m in _canonical_zeros(zeros))
            found = len(values)
            if found >= want:
                # completeness: the smallest `want` eigenvalues must come
                # from the disc the box fully covers, else an off-axis
                # direction may still hide smaller ones
                done = counted.rect
                coverage = 0.95 * min(done.re_max, done.im_max, -done.im_min)
                need = float(np.sqrt(abs(values[want - 1][0])))
                if need <= coverage:
                    return values, done
                # jump straight to the required coverage radius
                L, H = max(L, need / 0.92), max(H, need / 0.90)
                continue
        # too few zeros counted, or too few distinct eigenvalues among
        # them (multiple ones): zeros grow in proportion to the radius
        grow = (want + 2) / max(found, 1)
        L *= grow
        H *= grow
    raise NonConvergent(f"could not isolate eigenvalues; last box {box}")


def spectrum(A: CMatrix2, lambda_rect: Optional[Rect] = None, tol: float = 1e-10,
             count: Optional[int] = None, rng=None) -> Spectrum:
    """Eigenvalues ``lambda^2`` from the secular zeros in a rectangle.

    When no rectangle is given the first one is sized by the zero density
    of the secular function to hold about ``count`` eigenvalues (default
    12).  Each of at most 16 rounds counts a box and, when it holds more
    than ``count`` zeros, isolates it whole.  Where that falls short
    (multiple eigenvalues, which the density counts with multiplicity) the
    box is scaled by the ratio of the zeros wanted to those found, and
    where the ``count`` smallest reach beyond the disc it covers, it jumps
    to that radius; NonConvergent names the last box when the rounds run
    out.  The defective singleton, whose secular function ``q x^2`` has no
    zero but the origin, and ``count = 1``, which is the eigenvalue 0
    alone, return with the first box as search region before any contour
    is integrated.  The rectangle always
    gets a small margin past the imaginary axis so that axis zeros (the
    origin, and the square roots of negative eigenvalues) are interior
    points; mirror images are removed afterwards.  InvalidInput is raised
    for ``count < 1`` and unless ``tol`` is finite and positive.

    The search runs on ``B = A / 2^e`` of :meth:`CMatrix2.normalized`,
    whose entries are of order 1 at every scale of A: ``lambda_rect`` is
    divided by ``2^(e/2)`` on the way in, and the eigenvalues and the
    search region are multiplied back by ``2^e`` and ``2^(e/2)`` (exactly:
    both are powers of two).
    """
    if count is not None and count < 1:
        raise InvalidInput(f"need at least one eigenvalue, got count = {count}")
    _require_tol(tol)
    A.require_nonsingular()
    rng = np.random.default_rng(0) if rng is None else rng
    B, e = A.normalized()
    root = 2.0 ** (e // 2)      # the scale of the square-root plane
    if lambda_rect is not None:
        lambda_rect = lambda_rect.scaled(1.0 / root)
    S = build(B)
    order0 = S.order_at_origin()
    # the origin zero is structural; search for the others with it divided out
    fun = _OriginDeflated(S, order0)
    scale = np.sqrt(B.norm())
    # deliberately asymmetric margins: symmetric boxes put contour edges and
    # split lines straight onto the axis zeros of the (even) secular function
    margin = 0.37193 * scale

    if lambda_rect is not None:
        re_lo = lambda_rect.re_min
        im_lo = lambda_rect.im_min
        if re_lo <= margin:
            re_lo = min(re_lo, 0.0) - margin
            im_lo = min(im_lo, -0.9173 * margin)
        box = Rect(re_lo, lambda_rect.re_max, im_lo, lambda_rect.im_max)
        # the first grid sized by the zero density: about P R / (4 pi)
        # zeros in the right half of |x| < R, so at most P (R1 - R0) / (4 pi)
        # in a box between the radii R0 and R1
        r0 = abs(complex(max(box.re_min, 0.0, -box.re_max),
                         max(box.im_min, 0.0, -box.im_max)))
        r1 = np.abs(box.corners()).max()
        k = _grid_size(S.indicator_perimeter() * (r1 - r0) / (4.0 * np.pi))
        counted, first = _count_box(fun, box, rng, k)
        values = []
        for z, m in _canonical_zeros(_isolate_counted(fun, counted, tol, rng, first)):
            ax = 1e-7 * (1.0 + abs(z))
            on_axis = (abs(z.real) <= ax
                       and lambda_rect.im_min - 1e-9 <= z.imag <= lambda_rect.im_max + 1e-9)
            if lambda_rect.contains(z, slack=1e-9) or on_axis:
                values.append((z * z, m))
    else:
        want = 12 if count is None else int(count)
        # first box from the zero density: a half-disc of radius R holds
        # about want + 2 zeros (never smaller than the fixed start)
        perimeter = S.indicator_perimeter()
        R = 4.0 * np.pi * (want + 2) / perimeter if perimeter > 0 else 0.0
        L, H = max(4.0 * scale, R / 0.92), max(3.0 * scale, R / 0.90)
        lambda_rect = Rect(-margin, L, -1.031731 * H, 0.968413 * H)
        # no cosine term: EV = q x^2, whose only zero is the origin; and
        # count 1 is the eigenvalue 0 alone.  Neither needs a contour.
        values = []
        if perimeter > 0 and want > 1:
            values, lambda_rect = _search_box(fun, L, H, margin, want, tol, rng)

    eigs = _canonical_sorted([(0j, 1)] + values)
    if count is not None:
        eigs = eigs[:count]

    # |EV| at each eigenvalue's root over its largest value on the box's
    # corners, all in one evaluation; EV(0) is exactly 0, its log -inf
    ref = np.max(S.logabs(lambda_rect.corners()))
    la = S.logabs(np.sqrt(np.array([v for v, _ in eigs], dtype=complex)))
    res = np.where(np.isfinite(la), np.exp(la - ref), 0.0)

    return Spectrum(eigenvalues=tuple((v * root * root, m) for v, m in eigs),
                    method="secular-roots", search_region=lambda_rect.scaled(root), matrix=A,
                    analytic_order_at_zero=order0,
                    residuals=tuple(float(r) for r in res))


# -- polynomial roots ----------------------------------------------------


def polyroots(coeffs) -> np.ndarray:
    """All roots of a complex polynomial (coefficients highest degree
    first, degree at most ``_MAX_DEGREE``), as the eigenvalues of its
    companion matrix (``np.roots``), sorted by modulus.  Residuals are
    verified against ``|p(w)| <= _ROOT_RTOL * ||p|| * max(1, |w|)^deg``.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size < 2:
        raise ValueError("need at least a degree-1 polynomial")
    if abs(c[0]) == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    deg = c.size - 1
    if deg > _MAX_DEGREE:
        raise DegreeTooHigh(
            f"degree {deg} > {_MAX_DEGREE}: polynomial rooting is unstable "
            "at high degree")
    c = c / c[0]
    roots = np.roots(c)
    if not _residuals_ok(c, roots):
        raise NonConvergent("polynomial roots failed the residual check")
    return roots[np.argsort(np.abs(roots))]


def _residuals_ok(c, roots) -> bool:
    """``|p(w)| <= _ROOT_RTOL ||p|| max(1, |w|)^deg``; outside the unit circle
    divided through by ``w^deg``, as the reversed polynomial at ``1/w``,
    so that no power of a large root overflows."""
    inside = np.abs(roots) <= 1.0
    res = np.empty(roots.size)
    res[inside] = np.abs(np.polyval(c, roots[inside]))
    res[~inside] = np.abs(np.polyval(c[::-1], 1.0 / roots[~inside]))
    return bool(np.all(res <= _ROOT_RTOL * np.linalg.norm(c)))


def cluster_roots(roots, rel_tol: float = 1e-5):
    """Group nearly equal roots into (center, multiplicity) pairs: each
    group is the first root left and every later one near it."""
    # Python complex scalars: numpy's per-element overhead dominates here
    remaining = np.asarray(roots, dtype=complex).tolist()
    clusters = []
    while remaining:
        w = remaining[0]
        tol = rel_tol * (1.0 + abs(w))
        group, keep = [w], []
        for u in remaining[1:]:
            if abs(u - w) <= tol:
                group.append(u)
            else:
                keep.append(u)
        remaining = keep
        clusters.append((sum(group) / len(group), len(group)))
    return clusters
