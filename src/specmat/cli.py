"""Command-line front end.

Subcommands: classify, ev, spectrum, cheb, oracle, resolvent, growth,
sweep, track-negative.  Exit codes: 0 success, 2 invalid input,
3 numerical failure, 4 singular-matrix refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import canonical, chebpath, oracle, rootfind, secular, sweep
from .errors import InvalidInput, NumericalFailure, SpecmatError
from .mat2 import CMatrix2


def _add_matrix_args(p: argparse.ArgumentParser):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--matrix", metavar="RE_A,IM_A,...,RE_D,IM_D",
                   help="8 real numbers: re/im of a, b, c, d")
    g.add_argument("--real", nargs=4, type=float, metavar=("A", "B", "C", "D"),
                   help="4 real entries a b c d")


def _parse_matrix(args) -> CMatrix2:
    if args.real is not None:
        a, b, c, d = args.real
        return CMatrix2.real(a, b, c, d)
    parts = [p for chunk in args.matrix.split(",") for p in chunk.split()]
    if len(parts) != 8:
        raise InvalidInput(f"--matrix needs 8 numbers, got {len(parts)}")
    v = [float(p) for p in parts]
    return CMatrix2(complex(v[0], v[1]), complex(v[2], v[3]),
                    complex(v[4], v[5]), complex(v[6], v[7]))


def _parse_range(text: str, what: str):
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise InvalidInput(f"bad {what} range {text!r}, expected lo:hi:steps") from exc
    if not np.isfinite([lo, hi]).all():
        raise InvalidInput(f"{what} range is not finite: {text!r}")
    return lo, hi, steps


def _parse_ratio(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"bad {what} {text!r}, expected a ratio P/Q") from exc


def _parse_point(text: str, what: str) -> complex:
    try:
        re, im = (float(t) for t in text.split(","))
    except ValueError as exc:
        raise InvalidInput(f"bad {what} {text!r}, expected RE,IM") from exc
    z = complex(re, im)
    if not np.isfinite(z):
        raise InvalidInput(f"{what} is not finite: {text!r}")
    return z


def _json(payload, **kw) -> str:
    """``payload`` as standard JSON: a NaN or infinity in it is a numerical
    failure (exit 3), never written as the non-standard NaN or Infinity."""
    try:
        return json.dumps(payload, allow_nan=False, **kw)
    except ValueError as exc:
        raise NumericalFailure(f"non-finite result: {exc}") from None


def _write_or_print(text: str, args, name: str):
    """``text``, ending in a newline, to ``DIR/name`` under ``--out DIR``
    (printing the path), else to stdout."""
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        print(str(path))
    else:
        sys.stdout.write(text)


def _locus_dict(locus: canonical.Locus) -> dict:
    out = {"kind": locus.kind.value}
    if locus.values:
        out["values"] = [[v.real, v.imag] for v in locus.values[:200]]
    if locus.sector is not None:
        out["sector"] = list(locus.sector)
    if locus.omega is not None:
        out["omega"] = locus.omega
    if locus.kind is canonical.LocusKind.PARABOLIC_BAND:
        out["orientation"] = locus.orientation
    if locus.description:
        out["description"] = locus.description
    return out


def _cmd_classify(args) -> int:
    A = _parse_matrix(args)
    pred = canonical.predict(A, lambda_max=args.lambda_max)
    result = {"prediction": {"locus": _locus_dict(pred.locus),
                             "theorems": list(pred.theorems),
                             "resolvent_bound": [list(b) for b in pred.resolvent_bound]}}
    if pred.sector is not None:
        result["prediction"]["sector"] = _locus_dict(pred.sector)
    if pred.canonical is not None:
        form = pred.canonical
        result["family"] = form.family.value
        result["alpha"] = form.alpha
        result["sign"] = form.sign
        result["canonical_a"] = form.a
        result["canonical_d"] = form.d
    if pred.region is not None:
        result["region"] = pred.region.tag.value
        result["region_detail"] = pred.region.detail
    if not A.is_singular:
        certs = canonical.similarity_certificates(A)
        result["certificates"] = [
            {"kind": c.kind,
             "B": None if c.B is None else [[x.real, x.imag] for x in np.ravel(c.B)],
             "omega": c.omega, "sector": None if c.sector is None else list(c.sector),
             "similarity_r": c.similarity_r, "residual": c.residual,
             "detail": c.detail}
            for c in certs]
    _write_or_print(_json(result, indent=2), args, "classify.json")
    return 0


def _cmd_ev(args) -> int:
    A = _parse_matrix(args)
    S = secular.build(A)
    if not args.grid and not args.at:
        raise InvalidInput("ev needs --at RE,IM or --grid")
    if args.grid:
        re_spec, im_spec = args.grid.split(",")
        r0, r1, nr = _parse_range(re_spec, "re")
        i0, i1, ni = _parse_range(im_spec, "im")
        lines = ["re,im,abs_ev,log10_abs_ev"]
        for im in np.linspace(i0, i1, ni):
            zs = np.linspace(r0, r1, nr) + 1j * im
            la = S.logabs(zs) / np.log(10.0)
            ab = S.value(zs)
            for z, l10, v in zip(zs, la, ab):
                lines.append(f"{z.real:.17g},{z.imag:.17g},{abs(v):.17g},{l10:.17g}")
        _write_or_print("\n".join(lines) + "\n", args, "ev_grid.csv")
        return 0
    x = _parse_point(args.at, "--at")
    val = complex(S.value(np.array([x]))[0])
    la = float(S.logabs(np.array([x]))[0] / np.log(10.0))
    # log10 |EV| of an exact zero (the origin) is -inf: null
    _write_or_print(_json({"x": [x.real, x.imag], "value": [val.real, val.imag],
                           "log10_abs": None if la == -np.inf else la}), args, "ev_at.json")
    return 0


def _spectrum_payload(sp) -> dict:
    return {"method": sp.method,
            "eigenvalues": [{"re": v.real, "im": v.imag, "multiplicity": m}
                            for v, m in sp.eigenvalues],
            "residuals": list(sp.residuals),
            "analytic_order_at_zero": sp.analytic_order_at_zero,
            "notes": list(sp.notes)}


def _spectrum_csv(sp) -> str:
    lines = ["re_lambda2,im_lambda2,multiplicity,residual"]
    residuals = list(sp.residuals) or [float("nan")] * len(sp.eigenvalues)
    for (v, m), r in zip(sp.eigenvalues, residuals):
        lines.append(f"{v.real:.17g},{v.imag:.17g},{m},{r:.17g}")
    return "\n".join(lines) + "\n"


def _cmd_spectrum(args) -> int:
    if args.format == "svg":
        raise InvalidInput("spectrum writes json or csv, not svg")
    A = _parse_matrix(args)
    if A.is_singular:
        _write_or_print(_json({"spectrum": "whole-plane",
                               "reason": "singular matrix: operator not closed"}),
                        args, "spectrum.json")
        return 4
    rng = np.random.default_rng(args.seed)
    rect = None
    if args.rect:
        vals = [float(t) for t in args.rect.split(",")]
        if len(vals) != 4:
            raise InvalidInput("--rect needs re_min,re_max,im_min,im_max")
        rect = rootfind.Rect(*vals)
    sp = rootfind.spectrum(A, lambda_rect=rect, count=args.count,
                           tol=args.tol, rng=rng)
    if args.format == "csv":
        _write_or_print(_spectrum_csv(sp), args, "spectrum.csv")
    else:
        _write_or_print(_json(_spectrum_payload(sp), indent=2), args, "spectrum.json")
    return 0


def _cmd_cheb(args) -> int:
    if args.format == "svg":
        raise InvalidInput("cheb writes json or csv, not svg")
    frac = _parse_ratio(args.alpha, "--alpha")
    sign = +1 if args.sign == "+" else -1
    if args.sweep:
        a0, a1, steps = _parse_range(args.sweep, "a")
        lines = ["a,d,re_lambda2,im_lambda2,root_index"]
        for a in np.linspace(a0, a1, steps):
            pt = chebpath.lambda_curve(frac.numerator, frac.denominator, sign, float(a))
            for idx, (_, lam2) in enumerate(
                    chebpath.root_lattices(pt, args.nmax)):
                lines.extend(f"{a:.17g},{pt.d:.17g},{v.real:.17g},{v.imag:.17g},{idx}"
                             for v in lam2)
        _write_or_print("\n".join(lines) + "\n", args, "cheb_sweep.csv")
        return 0
    if args.a is None:
        raise InvalidInput("cheb needs --a VALUE (or --sweep A0:A1:STEPS)")
    pt = chebpath.lambda_curve(frac.numerator, frac.denominator, sign, args.a)
    sp = chebpath.cheb_spectrum(pt, args.nmax)
    if args.format == "json":
        _write_or_print(_json(_spectrum_payload(sp), indent=2), args, "cheb_spectrum.json")
    else:
        _write_or_print(_spectrum_csv(sp), args, "cheb_spectrum.csv")
    return 0


def _cmd_oracle(args) -> int:
    A = _parse_matrix(args)
    disc = oracle.discretize(A, args.n)
    sp = oracle.oracle_spectrum(disc, args.k)
    payload = _spectrum_payload(sp)
    payload["n"] = args.n
    payload["richardson_errors"] = list(sp.residuals)
    _write_or_print(_json(payload, indent=2), args, "oracle.json")
    return 0


def _cmd_resolvent(args) -> int:
    A = _parse_matrix(args)
    z = _parse_point(args.z, "--z")
    disc = oracle.discretize(A, args.n)
    norm = oracle.resolvent_norm(disc, z)
    _write_or_print(_json({"z": [z.real, z.imag], "n": args.n, "norm": norm,
                           "caveat": "discretization proxy"}), args, "resolvent.json")
    return 0


def _cmd_growth(args) -> int:
    A = _parse_matrix(args)
    probe = oracle.growth_probe(A, args.eps, range(1, args.rmax + 1),
                                n=args.n, anchor=args.anchor)
    lines = ["r,re_z,im_z,norm_n,norm_2n"]
    for row in probe.rows:
        lines.append(f"{row.r},{row.z.real:.17g},{row.z.imag:.17g},"
                     f"{row.norm_n:.17g},{row.norm_2n:.17g}")
    _write_or_print("\n".join(lines) + "\n", args, "growth.csv")
    return 0


def _cmd_sweep(args) -> int:
    if args.segment:
        try:
            p0, p1 = args.segment.split(":")
            a0, d0 = (float(t) for t in p0.split(","))
            a1, d1 = (float(t) for t in p1.split(","))
        except ValueError as exc:
            raise InvalidInput("bad --segment, expected a0,d0:a1,d1") from exc
        spec = sweep.SweepSpec(kind="segment", method=args.method,
                               count=args.count, tol=args.tol,
                               start=(a0, d0), stop=(a1, d1), steps=args.steps)
    elif args.curve:
        if args.arange is None:
            raise InvalidInput("--curve needs --arange A0:A1:STEPS")
        a0, a1, steps = _parse_range(args.arange, "a")
        spec = sweep.SweepSpec(kind="curve", method=args.method,
                               count=args.count, tol=args.tol,
                               ratio=_parse_ratio(args.curve, "--curve"),
                               sign=+1 if args.sign == "+" else -1,
                               a_range=(a0, a1), steps=steps, n_max=args.nmax)
    elif args.alphas:
        ratios = tuple(_parse_ratio(t, "--alphas") for t in args.alphas.split(","))
        spec = sweep.SweepSpec(kind="alphas", method=args.method,
                               count=args.count, tol=args.tol,
                               a_fixed=args.fixed_a, alphas=ratios,
                               sign=+1 if args.sign == "+" else -1,
                               n_max=args.nmax)
    else:
        raise InvalidInput("need one of --segment, --curve, --alphas")
    records = sweep.run_sweep(spec, seed=args.seed)
    if args.verify and args.method == "chebyshev":
        bad = sweep.verify_against_secular(records, spec)
        if bad:
            raise SpecmatError(f"chebyshev/secular mismatch at {len(bad)} points: "
                               f"first {bad[0]}")
    text = sweep.emit(records, args.format, panels=args.panels)
    _write_or_print(text, args, f"sweep.{args.format}")
    return 0


def _cmd_track_negative(args) -> int:
    lo, hi = (float(t) for t in args.d_range.split(":"))
    rows = sweep.track_negative_eigenvalue(args.a, lo, hi, args.steps)
    lines = ["d,lambda2,residual"]
    for d, lam2, res in rows:
        lines.append(f"{d:.17g},{lam2:.17g},{res:.17g}")
    _write_or_print("\n".join(lines) + "\n", args, "track_negative.csv")
    return 0


def _global_flags(defaults: bool) -> argparse.ArgumentParser:
    """Global flags accepted both before and after the subcommand.

    The subcommand copy carries suppressed defaults so that a value given
    before the subcommand survives the subparser pass (parent parsers
    share action objects, so the two copies must be distinct parsers).
    """
    p = argparse.ArgumentParser(
        add_help=False,
        argument_default=None if defaults else argparse.SUPPRESS)
    p.add_argument("--tol", type=float, **({"default": 1e-10} if defaults else {}))
    p.add_argument("--seed", type=int, **({"default": 0} if defaults else {}))
    p.add_argument("--out", help="output directory (default: stdout)")
    p.add_argument("--format", choices=("csv", "json", "svg"),
                   **({"default": "json"} if defaults else {}))
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="specmat", parents=[_global_flags(defaults=True)],
        description="Spectra of -A d2/dx2 with mixed Dirichlet/Neumann "
                    "boundary conditions for 2x2 complex matrices A.")
    sub = ap.add_subparsers(dest="command", required=True)
    common = _global_flags(defaults=False)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("classify", help="canonical family, region, prediction")
    _add_matrix_args(p)
    p.add_argument("--lambda-max", type=float, default=canonical.LAMBDA_MAX_DEFAULT)
    p.set_defaults(fn=_cmd_classify)

    p = add_parser("ev", help="evaluate the secular function")
    _add_matrix_args(p)
    p.add_argument("--at", metavar="RE,IM", help="evaluation point")
    p.add_argument("--grid", metavar="R0:R1:NR,I0:I1:NI",
                   help="dump |EV| on a grid as CSV")
    p.set_defaults(fn=_cmd_ev)

    p = add_parser("spectrum", help="eigenvalues from secular zeros")
    _add_matrix_args(p)
    p.add_argument("--count", type=int, default=12)
    p.add_argument("--rect", metavar="RE0,RE1,IM0,IM1",
                   help="search rectangle in the lambda plane")
    p.set_defaults(fn=_cmd_spectrum)

    p = add_parser("cheb", help="closed-form spectra on rational level curves")
    p.add_argument("--alpha", required=True, help="rational ratio p/q > 1")
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--a", type=float, help="curve parameter")
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--sweep", metavar="A0:A1:STEPS", help="sweep the curve")
    p.set_defaults(fn=_cmd_cheb)

    p = add_parser("oracle", help="finite-difference eigenvalues")
    _add_matrix_args(p)
    p.add_argument("-n", type=int, default=200, help="grid resolution")
    p.add_argument("-k", type=int, default=8, help="eigenvalue count")
    p.set_defaults(fn=_cmd_oracle)

    p = add_parser("resolvent", help="resolvent-norm proxy at one point")
    _add_matrix_args(p)
    p.add_argument("--z", required=True, metavar="RE,IM")
    p.add_argument("-n", type=int, default=200)
    p.set_defaults(fn=_cmd_resolvent)

    p = add_parser("growth", help="resolvent growth along the parabola")
    _add_matrix_args(p)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--rmax", type=int, default=6)
    p.add_argument("-n", type=int, default=300)
    p.add_argument("--anchor", choices=("lattice", "continuum"), default="lattice")
    p.set_defaults(fn=_cmd_growth)

    p = add_parser("sweep", help="spectra along a path in the (a,d) plane")
    p.add_argument("--segment", metavar="A0,D0:A1,D1")
    p.add_argument("--curve", metavar="P/Q", help="rational level curve")
    p.add_argument("--arange", metavar="A0:A1:STEPS")
    p.add_argument("--alphas", metavar="P/Q,P/Q,...", help="fixed-a ratio list")
    p.add_argument("--fixed-a", type=float, default=0.0)
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--method", choices=("secular", "chebyshev", "oracle"),
                   default="secular")
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--verify", action="store_true",
                   help="cross-check chebyshev steps against the secular method")
    p.add_argument("--panels", action="store_true", help="one SVG panel per step")
    p.set_defaults(fn=_cmd_sweep)

    p = add_parser("track-negative", help="negative eigenvalue along a d-segment")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--d-range", required=True, metavar="LO:HI")
    p.add_argument("--steps", type=int, default=100)
    p.set_defaults(fn=_cmd_track_negative)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except SpecmatError as exc:
        print(f"specmat: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"specmat: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
