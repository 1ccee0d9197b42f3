"""Parameter sweeps along paths in the (a, d) plane of the
antisymmetric-off-diagonal family, eigenvalue-track matching across
steps, and CSV/JSON/SVG emission.

scipy is loaded on first use: by :func:`track_negative_eigenvalue`, and by
the oracle method through :mod:`specmat.oracle`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .canonical import Family, RegionTag, a4_eigs, classify_region, family_matrix
from .chebpath import cheb_spectrum, lambda_curve, level_curve_d, ratio_float
from .errors import InvalidInput, NoSignChange
from .oracle import discretize, oracle_spectrum
from .rootfind import spectrum
from .secular import build

_VERIFY_RTOL = 1e-6   # verify_against_secular's gap, over 1 + |value|
_ORACLE_N = 200       # grid resolution of the oracle method


@dataclass(frozen=True)
class SweepSpec:
    """A path in the (a, d) plane plus the per-step spectral method.

    ``kind`` is one of "segment" ((a0,d0) -> (a1,d1) with ``steps``),
    "curve" (a rational level curve swept over an a-interval) or
    "alphas" (fixed a, one step per rational ratio).  The chebyshev
    method needs a rational-ratio path (curve or alphas).
    """

    kind: str
    method: str = "secular"
    count: int = 16
    tol: float = 1e-10
    start: tuple = ()
    stop: tuple = ()
    steps: int = 0
    ratio: Optional[Fraction] = None
    sign: int = +1
    a_range: tuple = ()
    a_fixed: float = 0.0
    alphas: tuple = ()
    n_max: int = 8

    def __post_init__(self):
        if self.kind not in ("segment", "curve", "alphas"):
            raise InvalidInput(f"unknown sweep kind {self.kind!r}")
        if self.method not in ("secular", "chebyshev", "oracle"):
            raise InvalidInput(f"unknown method {self.method!r}")
        if self.kind in ("segment", "curve") and self.steps < 2:
            raise InvalidInput("need at least 2 steps")
        if self.kind == "alphas" and len(self.alphas) < 1:
            raise InvalidInput("need at least one ratio")
        if self.method == "chebyshev" and self.kind == "segment":
            raise InvalidInput("chebyshev method requires a rational-ratio path")
        if not np.isfinite([*self.start, *self.stop, *self.a_range, self.a_fixed]).all():
            raise InvalidInput("the sweep's a and d values must be finite")
        # a ratio beyond the float range is refused here, before any step
        for ratio in (self.ratio,) if self.kind == "curve" else self.alphas:
            ratio_float(Fraction(ratio))

    def points(self):
        """Yield (a, d, ratio_or_None) per step."""
        if self.kind == "segment":
            (a0, d0), (a1, d1) = self.start, self.stop
            for t in np.linspace(0.0, 1.0, self.steps):
                yield a0 + t * (a1 - a0), d0 + t * (d1 - d0), None
        elif self.kind == "curve":
            alpha = float(self.ratio)
            for a in np.linspace(self.a_range[0], self.a_range[1], self.steps):
                yield float(a), level_curve_d(alpha, self.sign, float(a)), self.ratio
        else:
            for ratio in self.alphas:
                frac = Fraction(ratio)
                d = level_curve_d(float(frac), self.sign, self.a_fixed)
                yield self.a_fixed, d, frac


@dataclass(frozen=True)
class SweepEigenvalue:
    value: complex
    multiplicity: int
    track: int
    residual: float


@dataclass(frozen=True)
class SweepRecord:
    """One step of a sweep: its point, its region and its eigenvalues.

    ``sentinel`` is "whole-plane" where the region is R6, that is where
    ``CMatrix2.is_singular`` holds and the operator is not closed; such a
    step has no eigenvalues and starts the tracks afresh.
    """

    step: int
    a: float
    d: float
    region: str
    eigenvalues: tuple      # of SweepEigenvalue; empty for sentinel steps
    sentinel: Optional[str] = None


def _step_spectrum(spec: SweepSpec, a: float, d: float, ratio, rng):
    A = family_matrix(Family.A4, a, d)
    if spec.method == "secular":
        sp = spectrum(A, count=spec.count, tol=spec.tol, rng=rng)
        return list(sp.eigenvalues)[:spec.count], list(sp.residuals)[:spec.count]
    if spec.method == "chebyshev":
        pt = lambda_curve(ratio.numerator, ratio.denominator, spec.sign, a)
        sp = cheb_spectrum(pt, spec.n_max)
        eigs = list(sp.eigenvalues)[:spec.count]
        return eigs, [0.0] * len(eigs)
    disc = discretize(A, _ORACLE_N)
    sp = oracle_spectrum(disc, spec.count)
    return list(sp.eigenvalues), list(sp.residuals)


def _match_tracks(prev, cur, next_track: int):
    """Greedy nearest-neighbour matching in the eigenvalue plane.

    Matches farther than 5x the median matched displacement are rejected
    (births and deaths are honest).  Returns (track ids for cur, next free
    track id).
    """
    # statistics.median, not np.median, which would load numpy.ma; imported
    # here so that importing specmat does not load it
    import statistics

    if not prev:
        return list(range(next_track, next_track + len(cur))), next_track + len(cur)
    cand = sorted((abs(cv - pv), i, j)
                  for i, cv in enumerate(cur) for j, (pv, _) in enumerate(prev))
    assigned = {}
    used_prev = set()
    for dist, i, j in cand:
        if i in assigned or j in used_prev:
            continue
        assigned[i] = (j, dist)
        used_prev.add(j)
    dists = [d for _, d in assigned.values()]
    cap = 5.0 * float(statistics.median(dists)) if dists else 0.0
    tracks = [-1] * len(cur)
    for i, (j, dist) in assigned.items():
        if dist <= max(cap, 1e-12):
            tracks[i] = prev[j][1]
    for i in range(len(cur)):
        if tracks[i] < 0:
            tracks[i] = next_track
            next_track += 1
    return tracks, next_track


def run_sweep(spec: SweepSpec, seed: int = 0):
    """Execute the sweep; deterministic for a fixed spec and seed."""
    rng = np.random.default_rng(seed)
    records = []
    prev_tracks = []
    next_track = 0
    for step, (a, d, ratio) in enumerate(spec.points()):
        region = classify_region(a, d)
        if region.tag is RegionTag.R6:
            records.append(SweepRecord(step=step, a=a, d=d,
                                       region=region.tag.value, eigenvalues=(),
                                       sentinel="whole-plane"))
            prev_tracks = []
            continue
        eigs, residuals = _step_spectrum(spec, a, d, ratio, rng)
        values = [v for v, _ in eigs]
        tracks, next_track = _match_tracks(prev_tracks, values, next_track)
        entries = tuple(SweepEigenvalue(value=v, multiplicity=m, track=t,
                                        residual=float(r))
                        for (v, m), t, r in zip(eigs, tracks, residuals))
        records.append(SweepRecord(step=step, a=float(a), d=float(d),
                                   region=region.tag.value, eigenvalues=entries))
        prev_tracks = [(e.value, e.track) for e in entries]
    return records


def verify_against_secular(records, spec: SweepSpec):
    """Recompute every chebyshev step with the secular method and check
    each eigenvalue has a counterpart within ``_VERIFY_RTOL * (1 + |value|)``."""
    mismatches = []
    for rec in records:
        if rec.sentinel:
            continue
        A = family_matrix(Family.A4, rec.a, rec.d)
        # a few extra reference eigenvalues: the chebyshev step keeps one
        # entry per value, so its count cut can reach past the reference's
        ref = spectrum(A, count=max(spec.count, len(rec.eigenvalues)) + 6,
                       tol=spec.tol)
        ref_vals = ref.values()
        for e in rec.eigenvalues:
            gap = float(np.min(np.abs(ref_vals - e.value)))
            if gap > _VERIFY_RTOL * (1.0 + abs(e.value)):
                mismatches.append((rec.step, e.value, gap))
    return mismatches


# -- negative-eigenvalue tracking ----------------------------------------


def track_negative_eigenvalue(a: float, d_lo: float, d_hi: float, steps: int):
    """Per d on the segment, the unique secular zero on the positive
    imaginary axis, reported as the negative eigenvalue lambda^2 = -t^2,
    with the residual |EV(i t)| relative to the exponential scale.

    ``EV(i t)`` is real there; its sign is read from the overflow-free
    mantissa of :meth:`SecularFn.eval_scaled`, so no cancellation grows
    with t.  Raises NoSignChange when no bracketing is found on the axis
    segment ``0 < t <= 180 / (1/sqrt(b+) + 1/sqrt(b-))``, and InvalidInput
    unless ``a`` and the d range are finite.
    """
    if not np.isfinite([a, d_lo, d_hi]).all():
        raise InvalidInput(f"a and the d range must be finite, got {a}, {d_lo}:{d_hi}")
    import scipy.optimize

    rows = []
    for d in np.linspace(d_lo, d_hi, steps):
        bp, bm = a4_eigs(a, float(d))
        if abs(bp.imag) > 1e-12 or bp.real <= 0 or bm.real <= 0:
            raise InvalidInput(f"(a, d) = ({a}, {d}) is outside the band region")
        S = build(family_matrix(Family.A4, a, float(d)))

        def f(t):
            return S.eval_scaled(1j * t)[0].real

        grid = np.geomspace(1e-4, 180.0 / abs(S.f1), 600)
        sign_flip = np.nonzero(np.diff(np.sign(f(grid))) != 0)[0]
        if sign_flip.size == 0:
            raise NoSignChange(
                f"no negative eigenvalue located on the axis for d = {d}")
        i = int(sign_flip[0])
        t_star = float(scipy.optimize.brentq(f, grid[i], grid[i + 1],
                                             xtol=1e-13, rtol=1e-14))
        rows.append((float(d), -t_star * t_star, abs(float(f(t_star)))))
    return rows


# -- emission ------------------------------------------------------------

_CSV_HEADER = "step,a,d,region,track,re_lambda2,im_lambda2,multiplicity,residual"


def records_to_csv(records) -> str:
    lines = [_CSV_HEADER]
    for rec in records:
        if rec.sentinel:
            lines.append(f"{rec.step},{rec.a:.17g},{rec.d:.17g},{rec.region},"
                         f"-1,nan,nan,0,nan")
            continue
        for e in rec.eigenvalues:
            lines.append(f"{rec.step},{rec.a:.17g},{rec.d:.17g},{rec.region},"
                         f"{e.track},{e.value.real:.17g},{e.value.imag:.17g},"
                         f"{e.multiplicity},{e.residual:.17g}")
    return "\n".join(lines) + "\n"


def records_to_json(records) -> str:
    out = []
    for rec in records:
        out.append({
            "step": rec.step, "a": rec.a, "d": rec.d, "region": rec.region,
            "sentinel": rec.sentinel,
            "eigenvalues": [{"re": e.value.real, "im": e.value.imag,
                             "multiplicity": e.multiplicity, "track": e.track,
                             "residual": e.residual}
                            for e in rec.eigenvalues],
        })
    return json.dumps(out, indent=2)


def records_from_json(text: str):
    records = []
    for obj in json.loads(text):
        entries = tuple(SweepEigenvalue(value=complex(e["re"], e["im"]),
                                        multiplicity=e["multiplicity"],
                                        track=e["track"], residual=e["residual"])
                        for e in obj["eigenvalues"])
        records.append(SweepRecord(step=obj["step"], a=obj["a"], d=obj["d"],
                                   region=obj["region"], eigenvalues=entries,
                                   sentinel=obj.get("sentinel")))
    return records


def _svg_panel(points, x0, y0, w, h, title):
    """One scatter panel; points are (x, y, hue) triples in data space."""
    parts = [f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="white" '
             'stroke="#444" stroke-width="1"/>']
    finite = [(x, y) for x, y, _ in points if math.isfinite(x) and math.isfinite(y)]
    if finite:
        xs = [p[0] for p in finite]
        ys = [p[1] for p in finite]
        lo_x, hi_x = min(xs), max(xs)
        lo_y, hi_y = min(ys), max(ys)
        pad_x = 0.05 * (hi_x - lo_x) or 1.0
        pad_y = 0.05 * (hi_y - lo_y) or 1.0
        lo_x, hi_x = lo_x - pad_x, hi_x + pad_x
        lo_y, hi_y = lo_y - pad_y, hi_y + pad_y

        def to_px(x, y):
            px = x0 + (x - lo_x) / (hi_x - lo_x) * w
            py = y0 + h - (y - lo_y) / (hi_y - lo_y) * h
            return px, py

        if lo_x < 0 < hi_x:
            ax, ay = to_px(0, lo_y)
            bx, by = to_px(0, hi_y)
            parts.append(f'<line x1="{ax:.1f}" y1="{ay:.1f}" x2="{bx:.1f}" '
                         f'y2="{by:.1f}" stroke="#bbb" stroke-width="0.7"/>')
        if lo_y < 0 < hi_y:
            ax, ay = to_px(lo_x, 0)
            bx, by = to_px(hi_x, 0)
            parts.append(f'<line x1="{ax:.1f}" y1="{ay:.1f}" x2="{bx:.1f}" '
                         f'y2="{by:.1f}" stroke="#bbb" stroke-width="0.7"/>')
        for x, y, hue in points:
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            px, py = to_px(x, y)
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" '
                         f'fill="hsl({hue:.0f},70%,45%)" fill-opacity="0.8"/>')
    parts.append(f'<text x="{x0 + 4}" y="{y0 + 14}" font-size="11" '
                 f'font-family="sans-serif">{title}</text>')
    return "".join(parts)


def records_to_svg(records, panels: bool = False) -> str:
    """Self-contained scatter of the eigenvalue plane: one panel per step,
    or all steps superimposed with a colour ramp."""
    live = [r for r in records if not r.sentinel]
    n = max(len(live), 1)
    if panels:
        cols = math.ceil(math.sqrt(n))
        rows = math.ceil(n / cols)
        pw, ph = 300, 240
        width, height = cols * pw + 20, rows * ph + 20
        body = []
        for idx, rec in enumerate(live):
            col, row = idx % cols, idx // cols
            pts = [(e.value.real, e.value.imag, 220.0) for e in rec.eigenvalues]
            body.append(_svg_panel(pts, 10 + col * pw, 10 + row * ph, pw - 10,
                                   ph - 10, f"step {rec.step}: a={rec.a:.4g}, d={rec.d:.4g}"))
    else:
        width, height = 640, 480
        pts = []
        for idx, rec in enumerate(live):
            hue = 250.0 * idx / max(n - 1, 1)
            pts.extend((e.value.real, e.value.imag, hue) for e in rec.eigenvalues)
        body = [_svg_panel(pts, 10, 10, width - 20, height - 20,
                           "eigenvalue plane (colour = step)")]
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">'
            + "".join(body) + "</svg>\n")


def emit(records, fmt: str, panels: bool = False):
    """Serialise records as csv / json / svg."""
    if not records:
        raise InvalidInput("no records to emit")
    if fmt == "csv":
        text = records_to_csv(records)
    elif fmt == "json":
        text = records_to_json(records)
    elif fmt == "svg":
        text = records_to_svg(records, panels=panels)
    else:
        raise InvalidInput(f"unknown format {fmt!r}")
    return text
