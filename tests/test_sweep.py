from fractions import Fraction

import pytest

from specmat import InvalidInput, NoSignChange, SweepSpec, emit, run_sweep, \
    track_negative_eigenvalue
from specmat.sweep import (records_from_json, records_to_csv, records_to_json,
                           records_to_svg, verify_against_secular)


def alpha_spec(**kw):
    base = dict(kind="alphas", method="chebyshev", a_fixed=-0.5,
                alphas=(Fraction(2), Fraction(8, 5), Fraction(4, 3)),
                n_max=6, count=14)
    base.update(kw)
    return SweepSpec(**base)


class TestRunSweep:
    def test_negative_eigenvalue_trend(self):
        records = run_sweep(alpha_spec())
        d_vals = [r.d for r in records]
        assert all(x > y for x, y in zip(d_vals, d_vals[1:]))  # d decreases
        neg_mags = []
        for r in records:
            negs = [e.value.real for e in r.eigenvalues
                    if e.value.real < -1e-9 and abs(e.value.imag) < 1e-9]
            assert len(negs) == 1
            neg_mags.append(-negs[0])
        assert all(x < y for x, y in zip(neg_mags, neg_mags[1:]))

    def test_determinism(self):
        a = records_to_csv(run_sweep(alpha_spec(), seed=7))
        b = records_to_csv(run_sweep(alpha_spec(), seed=7))
        assert a == b

    def test_region_annotation(self):
        from specmat import classify_region
        for r in run_sweep(alpha_spec()):
            assert r.region == classify_region(r.a, r.d).tag.value

    def test_sentinel_on_singular_line(self):
        spec = SweepSpec(kind="segment", method="secular", count=4, steps=3,
                         start=(-1.0, 1.0), stop=(-1.0, 3.0))
        records = run_sweep(spec)
        assert records[0].sentinel == "whole-plane"
        assert records[0].eigenvalues == ()
        assert records[1].sentinel is None

    def test_track_continuity(self):
        spec = SweepSpec(kind="curve", method="chebyshev", ratio=Fraction(2),
                         sign=+1, a_range=(0.2, 0.5), steps=4, n_max=4, count=10)
        records = run_sweep(spec)
        # the origin eigenvalue keeps one track id across all steps
        zero_tracks = {next(e.track for e in r.eigenvalues if abs(e.value) < 1e-9)
                       for r in records}
        assert len(zero_tracks) == 1

    def test_chebyshev_requires_rational_path(self):
        with pytest.raises(InvalidInput):
            SweepSpec(kind="segment", method="chebyshev", steps=3,
                      start=(0, 3), stop=(0, 4))

    def test_verify_against_secular(self):
        spec = SweepSpec(kind="alphas", method="chebyshev", a_fixed=0.4,
                         alphas=(Fraction(2), Fraction(5, 2)), n_max=3, count=8)
        records = run_sweep(spec)
        assert verify_against_secular(records, spec) == []

    def test_verify_the_a0_sweep(self):
        # A9's second sweep: on a = 0 the real eigenvalues are quadruple
        # secular zeros, which the contour route must resolve at count 20
        spec = SweepSpec(kind="alphas", method="chebyshev", a_fixed=0.0,
                         alphas=(Fraction(3), Fraction(5, 2), Fraction(9, 4),
                                 Fraction(2), Fraction(9, 5), Fraction(3, 2),
                                 Fraction(5, 4), Fraction(9, 8)),
                         n_max=8, count=20)
        records = run_sweep(spec)
        assert verify_against_secular(records, spec) == []

    def test_oracle_method(self):
        spec = SweepSpec(kind="segment", method="oracle", count=4, steps=2,
                         start=(0.5, 3.0), stop=(0.6, 3.2))
        records = run_sweep(spec)
        assert all(len(r.eigenvalues) == 4 for r in records)


class TestTrackNegative:
    def test_strictly_decreasing_toward_the_critical_point(self):
        rows = track_negative_eigenvalue(-0.5, 1.5012, 1.62, 40)
        lam = [l for _, l, _ in rows]
        # more negative as d decreases toward 3/2
        assert all(x < y for x, y in zip(lam, lam[1:]))
        assert lam[0] < -50

    def test_matches_full_contour_search(self):
        # the 1-d axis bisection must find the same negative eigenvalue as
        # the 2-d argument-principle search
        from specmat import CMatrix2, spectrum
        rows = track_negative_eigenvalue(-0.5, 1.56, 1.60, 2)
        for d_val, lam2, _ in rows:
            sp = spectrum(CMatrix2.real(-0.5, -1, 1, d_val), count=10)
            vals = sp.values()
            negs = vals[(vals.real < -1e-9) & (abs(vals.imag) < 1e-9)]
            assert negs.size == 1
            assert abs(negs[0].real - lam2) <= 1e-7 * (1 + abs(lam2))

    def test_matches_contour_search_near_the_critical_point(self):
        # t grows as d -> 3/2; the axis root must not lose digits with it
        from specmat import CMatrix2, spectrum
        (d_val, lam2, _), = track_negative_eigenvalue(-0.5, 1.5012, 1.5012, 1)
        vals = spectrum(CMatrix2.real(-0.5, -1, 1, d_val), count=10).values()
        negs = vals[(vals.real < -1e-9) & (abs(vals.imag) < 1e-9)]
        assert negs.size == 1
        assert abs(negs[0].real - lam2) <= 1e-10 * abs(lam2)

    def test_no_negative_eigenvalue_in_sector_regime(self):
        with pytest.raises(NoSignChange):
            track_negative_eigenvalue(1.0, 4.0, 4.1, 2)


class TestEmit:
    def test_csv_columns_and_rows(self):
        records = run_sweep(alpha_spec(alphas=(Fraction(2),), count=5))
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == ("step,a,d,region,track,re_lambda2,im_lambda2,"
                            "multiplicity,residual")
        assert len(lines) == 1 + 5

    def test_json_round_trip(self):
        records = run_sweep(alpha_spec(alphas=(Fraction(2), Fraction(8, 5)),
                                       count=6))
        back = records_from_json(records_to_json(records))
        assert records_to_json(back) == records_to_json(records)
        assert back[0].eigenvalues == records[0].eigenvalues

    def test_svg_well_formed(self):
        records = run_sweep(alpha_spec(count=6))
        svg = records_to_svg(records)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "circle" in svg
        panels = records_to_svg(records, panels=True)
        assert panels.count("<rect") == len(records)

    def test_empty_refused(self):
        with pytest.raises(InvalidInput):
            emit([], "csv")
