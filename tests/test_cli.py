import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specmat.cli import main

EXAMPLE_FLAG = ["--matrix", "0.4,0.3,0.6,-0.3,0.15,0.3,0.85,-0.3"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_streater_json(self, capsys):
        code, out, _ = run(capsys, ["classify", "--real", "1", "1", "0.5", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "A1"
        assert doc["prediction"]["locus"]["kind"] == "NonnegativeHalfLine"
        kinds = {c["kind"] for c in doc["certificates"]}
        assert "DiagonalSymmetrizable" in kinds

    def test_region_fields(self, capsys):
        code, out, _ = run(capsys, ["classify", "--real", "0", "-1", "1", "2"])
        doc = json.loads(out)
        assert doc["region"] == "R1"
        assert doc["family"] == "A4"

    def test_singular_prediction(self, capsys):
        code, out, _ = run(capsys, ["classify", "--real", "1", "1", "1", "1"])
        assert code == 0
        assert json.loads(out)["prediction"]["locus"]["kind"] == "WholePlane"


class TestEv:
    def test_point_value(self, capsys):
        code, out, _ = run(capsys, ["ev", *EXAMPLE_FLAG, "--at",
                                    f"{np.pi},0"])
        doc = json.loads(out)
        # normalised gauge is -0.1 times the reference-eigenvector form (8i)
        assert abs(complex(*doc["value"]) - (-0.8j)) < 1e-9

    def test_grid_csv(self, capsys):
        code, out, _ = run(capsys, ["ev", *EXAMPLE_FLAG,
                                    "--grid", "0:3:4,0:1:2"])
        lines = out.strip().split("\n")
        assert lines[0] == "re,im,abs_ev,log10_abs_ev"
        assert len(lines) == 1 + 8


class TestSpectrum:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--real", "1", "0", "1", "4",
                                    "--count", "5"])
        doc = json.loads(out)
        assert doc["method"] == "secular-roots"
        vals = [complex(e["re"], e["im"]) for e in doc["eigenvalues"]]
        assert abs(vals[0]) == 0
        assert abs(vals[1] - np.pi**2) < 1e-8

    def test_small_tol(self, capsys):
        # Newton's step stop is floored at a few ulps: a tol below it works
        code, out, _ = run(capsys, ["--tol", "1e-13", "spectrum", "--real", "1", "0", "1", "4",
                                    "--count", "5"])
        assert code == 0
        vals = [complex(e["re"], e["im"]) for e in json.loads(out)["eigenvalues"]]
        assert abs(vals[1] - np.pi**2) < 1e-12 * np.pi**2

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["--format", "csv", "spectrum",
                                    "--real", "1", "0", "0", "1", "--count", "3"])
        assert out.splitlines()[0] == "re_lambda2,im_lambda2,multiplicity,residual"

    def test_singular_exit_code(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--real", "1", "1", "1", "1"])
        assert code == 4
        assert json.loads(out)["spectrum"] == "whole-plane"

    def test_defective_singleton(self, capsys):
        # A4(0.5, -1.5): the secular function q x^2 has no zero but the origin
        code, out, _ = run(capsys, ["spectrum", "--real", "0.5", "-1", "1", "-1.5",
                                    "--count", "6"])
        assert code == 0
        assert [(e["re"], e["im"]) for e in json.loads(out)["eigenvalues"]] == [(0.0, 0.0)]

    def test_invalid_matrix_exit_code(self, capsys):
        code, _, err = run(capsys, ["spectrum", "--matrix", "1,2,3"])
        assert code == 2

    def test_explicit_rect(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--real", "1", "0", "0", "1",
                                    "--rect", "0.5,7,-1,1"])
        doc = json.loads(out)
        vals = sorted(complex(e["re"], e["im"]).real
                      for e in doc["eigenvalues"] if e["re"] > 1)
        assert abs(vals[0] - np.pi**2) < 1e-8
        assert abs(vals[1] - 4 * np.pi**2) < 1e-8


class TestOthers:
    def test_cheb_csv(self, capsys):
        code, out, _ = run(capsys, ["--format", "csv", "cheb", "--alpha", "2",
                                    "--a", "0.5", "--nmax", "2"])
        assert code == 0
        assert out.splitlines()[0] == "re_lambda2,im_lambda2,multiplicity,residual"

    def test_cheb_sweep_long_format(self, capsys):
        code, out, _ = run(capsys, ["cheb", "--alpha", "2", "--sweep",
                                    "0.0:0.4:3", "--nmax", "1"])
        lines = out.splitlines()
        assert lines[0] == "a,d,re_lambda2,im_lambda2,root_index"
        assert len(lines) > 3

    def test_cheb_sweep_rows_are_polished_spectra(self, capsys):
        # at a = 0 the real lattice comes from a double root of G at w = 1:
        # unpolished, 8 pi^2 splits into a complex pair
        from specmat import cheb_spectrum, lambda_curve
        code, out, _ = run(capsys, ["cheb", "--alpha", "2", "--sweep",
                                    "0.0:0.4:3", "--nmax", "2"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert {float(r[0]) for r in rows} == {0.0, 0.2, 0.4}
        for a in (0.0, 0.2, 0.4):
            ref = cheb_spectrum(lambda_curve(2, 1, +1, a), 2).values()
            for r in rows:
                if float(r[0]) == a:
                    v = complex(float(r[2]), float(r[3]))
                    assert np.min(np.abs(ref - v)) <= 1e-10 * abs(v), (a, v)
        assert any(abs(complex(float(r[2]), float(r[3])) - 8 * np.pi ** 2) <= 1e-10
                   for r in rows if float(r[0]) == 0.0)

    def test_oracle_json(self, capsys):
        code, out, _ = run(capsys, ["oracle", "--real", "1", "0", "0", "4",
                                    "-n", "60", "-k", "4"])
        doc = json.loads(out)
        assert doc["method"] == "oracle"
        assert len(doc["richardson_errors"]) == 4

    def test_oracle_k_out_of_range_exit_code(self, capsys):
        for k in ("-3", "0", "21"):
            code, out, err = run(capsys, ["oracle", "--real", "1", "0", "1",
                                          "4", "-n", "40", "-k", k])
            assert code == 2 and out == "" and "specmat:" in err

    def test_oracle_arpack_failure_exit_code(self, capsys, monkeypatch):
        import scipy.sparse.linalg

        def fail(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(-9999)
        monkeypatch.setattr(scipy.sparse.linalg, "eigs", fail)
        code, out, _ = run(capsys, ["oracle", "--real", "1", "0", "1", "4",
                                    "-n", "40", "-k", "4"])
        assert code == 3 and out == ""

    def test_resolvent(self, capsys):
        code, out, _ = run(capsys, ["resolvent", "--real", "1", "0", "0", "1",
                                    "--z=-1,0", "-n", "100"])
        doc = json.loads(out)
        assert abs(doc["norm"] - 1.0) < 0.05

    def test_growth_csv(self, capsys):
        code, out, _ = run(capsys, ["growth", "--real", "1", "0", "1", "1",
                                    "--eps", "1", "--rmax", "3", "-n", "60"])
        lines = out.splitlines()
        assert lines[0] == "r,re_z,im_z,norm_n,norm_2n"
        assert len(lines) == 4

    def test_sweep_csv_deterministic(self, capsys):
        argv = ["--format", "csv", "--seed", "5", "sweep", "--alphas", "2,8/5",
                "--fixed-a", "-0.5", "--method", "chebyshev", "--count", "6"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == 0 and out1 == out2
        assert out1.splitlines()[0].startswith("step,a,d,region")

    def test_sweep_svg_to_dir(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["--format", "svg", "--out", str(tmp_path),
                                    "sweep", "--alphas", "2", "--fixed-a",
                                    "-0.5", "--method", "chebyshev",
                                    "--count", "5"])
        assert code == 0
        path = tmp_path / "sweep.svg"
        assert path.exists() and path.read_text().startswith("<svg")

    def test_sweep_sentinel_where_a_is_singular(self, capsys):
        # |ad + 1| = 1e-7 and 2e-7: singular relative to the entries' size
        code, out, _ = run(capsys, ["--format", "csv", "sweep", "--steps", "2",
                                    "--segment", "1e4,-1.0000001e-4:1e4,-1.0000002e-4"])
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 2 and all(r.split(",")[3:5] == ["R6", "-1"] for r in rows)

    def test_track_negative_csv(self, capsys):
        code, out, _ = run(capsys, ["track-negative", "--a", "-0.5",
                                    "--d-range", "1.55:1.6", "--steps", "3"])
        lines = out.splitlines()
        assert lines[0] == "d,lambda2,residual"
        assert len(lines) == 4
        assert float(lines[1].split(",")[1]) < 0

    def test_numerical_failure_exit_code(self, capsys):
        code, _, err = run(capsys, ["track-negative", "--a", "1.0",
                                    "--d-range", "4.0:4.1", "--steps", "2"])
        assert code == 3

    def test_missing_required_value_exit_codes(self, capsys):
        code, _, _ = run(capsys, ["ev", "--real", "1", "0", "0", "1"])
        assert code == 2
        code, _, _ = run(capsys, ["cheb", "--alpha", "2"])
        assert code == 2

    def test_lower_branch_curve(self, capsys):
        code, out, _ = run(capsys, ["cheb", "--alpha", "2", "--sign", "-",
                                    "--a", "1.5", "--nmax", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "chebyshev"


@pytest.mark.parametrize("argv", [
    ["cheb", "--alpha", "1/0", "--a", "0.5"],
    # p+q = 35: degree 68 left after zeta = 1 is divided out, above polyroots' 64
    ["cheb", "--alpha", "18/17", "--a", "0.4"],
    ["sweep", "--curve", "1/0", "--arange", "0:0.5:2", "--method", "chebyshev"],
    ["sweep", "--alphas", "3/2,1/0", "--method", "chebyshev"],
    ["sweep", "--curve", "3/2"],
    # ratios whose float value, or fourth power, overflows
    ["cheb", "--alpha", "1e400", "--a", "0.5"],
    ["cheb", "--alpha", "1e200", "--a", "0.5"],
    ["sweep", "--curve", "1e400", "--arange", "0:1:2"],
    ["sweep", "--alphas", "1e400", "--method", "chebyshev"],
    ["spectrum", "--real", "1", "0", "0", "1", "--count", "-3"],
    ["spectrum", "--real", "1", "0", "0", "1", "--count", "0"],
    ["ev", "--real", "1", "0", "0", "1", "--at=1e400,0"],
    ["ev", "--real", "1", "0", "0", "1", "--at=0,nan"],
    ["resolvent", "--real", "1", "0", "0", "1", "--z=-inf,0", "-n", "20"],
    ["classify", "--real", "1", "0", "0", "2", "--lambda-max", "inf"],
    ["classify", "--real", "1", "0", "0", "2", "--lambda-max", "nan"],
    ["classify", "--real", "1", "0", "0", "2", "--lambda-max=-1"],
    ["spectrum", "--real", "1", "0", "1", "4", "--tol", "0"],
    ["spectrum", "--real", "1", "0", "1", "4", "--tol", "nan"],
    ["spectrum", "--real", "1", "0", "1", "4", "--tol=-1"],
    # found by the fuzzer below
    ["spectrum", "--real", "1", "0", "0", "1", "--rect=0,inf,-1,1"],
    ["track-negative", "--a=inf", "--d-range=0:1", "--steps=2"],
    ["track-negative", "--a=134", "--d-range=-1e300:-0.005", "--steps=1"],
    ["sweep", "--segment=0,0:inf,1", "--steps=2"],
    ["sweep", "--alphas=1e-300"],
    ["sweep", "--alphas=0", "--method=chebyshev"],
    ["cheb", "--alpha=2", "--sweep=0:inf:2"],
    # p + q near 1.4e16: refused before P's coefficients are allocated
    ["cheb", "--alpha=1.7308061916089246", "--a=0.5"],
    ["growth", "--real", "1", "0", "0", "1", "--eps=inf", "-n=20"],
    # json and csv only
    ["--format", "svg", "spectrum", "--real", "1", "0", "0", "1"],
    ["cheb", "--alpha", "2", "--a", "0.5", "--format", "svg"],
], ids=" ".join)
def test_bad_input_exits_2_without_traceback(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("specmat:") and "Traceback" not in err


@pytest.mark.parametrize("argv,name", [
    (["classify", "--real", "1", "0", "1", "4"], "classify.json"),
    (["ev", "--real", "1", "0", "1", "4", "--at", "1,0"], "ev_at.json"),
    (["spectrum", "--real", "1", "0", "1", "4", "--count", "3"], "spectrum.json"),
    (["spectrum", "--real", "1", "1", "1", "1"], "spectrum.json"),
    (["--format", "csv", "spectrum", "--real", "1", "0", "1", "4", "--count", "3"],
     "spectrum.csv"),
    (["cheb", "--alpha", "2", "--a", "0.5", "--nmax", "1"], "cheb_spectrum.json"),
    (["oracle", "--real", "1", "0", "0", "4", "-n", "20", "-k", "2"], "oracle.json"),
    (["resolvent", "--real", "1", "0", "0", "1", "--z=-1,0", "-n", "20"], "resolvent.json"),
    (["--format", "json", "sweep", "--alphas", "2", "--fixed-a", "-0.5",
      "--method", "chebyshev", "--count", "3"], "sweep.json"),
], ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_out_dir_holds_what_stdout_shows(capsys, tmp_path, argv, name):
    code, out, _ = run(capsys, argv)
    code_out, path, _ = run(capsys, argv + ["--out", str(tmp_path)])
    assert code_out == code and path == f"{tmp_path / name}\n"
    assert (tmp_path / name).read_text() == out


@pytest.mark.parametrize("entries", [["1e160", "0", "1", "2e160"],
                                     ["1e200", "0", "1", "1e200"]], ids=" ".join)
@pytest.mark.parametrize("command", [["classify"], ["ev", "--at", "1,0"], ["spectrum"],
                                     ["oracle", "-n", "20", "-k", "3"],
                                     ["resolvent", "--z", "1,0", "-n", "20"]],
                         ids=lambda c: c[0])
def test_huge_entries_exit_without_traceback(capsys, command, entries):
    # squaring entries this large overflows a float
    code, _, err = run(capsys, command + ["--real"] + entries)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err


def test_value_beyond_the_float_range_exits_3(capsys):
    # |EV| at x = 1e300 is about 10^(2.4e299) for this complex matrix
    code, out, err = run(capsys, ["ev", "--at=1e300,0", "--matrix=0,761.41,0,-0.0186,"
                                  "0,-0.0075,0.201,-1.621"])
    assert code == 3 and out == ""
    assert "non-finite" in err and "Traceback" not in err


def test_huge_lambda_max_exits_2_promptly():
    """A finite but huge bound is refused before any enumeration; run in a
    child under a timeout, so that a regression fails instead of hanging."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "specmat.cli", "classify", "--real", "1", "0", "0", "2",
         "--lambda-max", "1e24"],
        capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("specmat:") and "Traceback" not in proc.stderr


def test_dense_lattice_at_the_default_bound_exits_2(capsys):
    # a tiny diagonal entry makes the lattice unit a * pi^2 tiny: even the
    # default lambda_max would list 2e6 values, and the error says why
    code, out, err = run(capsys, ["classify", "--real", "1e-10", "0", "0", "1"])
    assert code == 2 and out == ""
    assert "unit is too small" in err and "Traceback" not in err
    code, out, _ = run(capsys, ["classify", "--real", "1e-10", "0", "0", "1",
                                "--lambda-max", "1e-3"])
    assert code == 0


# -- seeded fuzzer ------------------------------------------------------------

_SPECIAL = ("0", "1e-300", "-1e-300", "1e300", "-1e300", "nan", "inf", "-inf")


def _fuzz_argv(rng) -> list:
    """One command line of a subcommand drawn by ``rng``.  Its numbers are
    drawn from {0, +-1e-300, +-1e300, nan, +-inf} one time in five, else
    random over six decades; grids have at most 64 points a side (the
    oracle sweep's fixed n = 200 aside) and counts are at most 20.  Every
    value is passed as ``--option=value``, so that argparse never takes a
    negative number for an option."""
    def num():
        if rng.random() < 0.2:
            return str(rng.choice(_SPECIAL))
        return repr(float(rng.standard_normal() * 10.0 ** rng.uniform(-3, 3)))

    def nums(k):
        return ",".join(num() for _ in range(k))

    def small(lo, hi):
        return str(int(rng.integers(lo, hi + 1)))

    def ratio():
        if rng.random() < 0.3:
            return num()
        p, q = rng.integers(1, 9, size=2)
        return f"{p}/{q}"

    matrix = [f"--matrix={nums(8)}"]
    command = str(rng.choice(["classify", "ev", "spectrum", "cheb", "oracle", "resolvent",
                              "growth", "sweep", "track-negative"]))
    if command == "classify":
        argv = matrix + ([f"--lambda-max={num()}"] if rng.random() < 0.3 else [])
    elif command == "ev":
        argv = matrix + ([f"--at={nums(2)}"] if rng.random() < 0.5 else
                         [f"--grid={num()}:{num()}:{small(1, 4)},{num()}:{num()}:{small(1, 4)}"])
    elif command == "spectrum":
        argv = matrix + ([f"--count={small(-1, 20)}"] if rng.random() < 0.7 else
                         [f"--rect={nums(4)}"])
    elif command == "cheb":
        argv = [f"--alpha={ratio()}", f"--sign={rng.choice(['+', '-'])}",
                f"--nmax={small(0, 8)}"]
        argv += ([f"--a={num()}"] if rng.random() < 0.7 else
                 [f"--sweep={num()}:{num()}:{small(0, 3)}"])
    elif command == "oracle":
        argv = matrix + [f"-n={small(1, 64)}", f"-k={small(0, 8)}"]
    elif command == "resolvent":
        argv = matrix + [f"--z={nums(2)}", f"-n={small(1, 64)}"]
    elif command == "growth":
        argv = matrix + [f"--eps={num()}", f"--rmax={small(0, 3)}", f"-n={small(1, 64)}"]
    elif command == "sweep":
        kind = rng.integers(3)
        if kind == 0:
            argv = [f"--segment={nums(2)}:{nums(2)}"]
        elif kind == 1:
            argv = [f"--curve={ratio()}", f"--arange={num()}:{num()}:{small(0, 2)}"]
        else:
            argv = [f"--alphas={ratio()},{ratio()}", f"--fixed-a={num()}"]
        argv += [f"--steps={small(0, 2)}", f"--count={small(-1, 20)}", f"--nmax={small(0, 8)}",
                 f"--method={rng.choice(['secular', 'chebyshev', 'oracle'])}"]
    else:
        argv = [f"--a={num()}", f"--d-range={num()}:{num()}", f"--steps={small(0, 3)}"]
    if rng.random() < 0.2:
        argv += [f"--tol={num()}"]
    return [command] + argv


def test_fuzzed_commands_exit_cleanly(capsys):
    rng = np.random.default_rng(2026)
    codes = set()
    for _ in range(100):
        argv = _fuzz_argv(rng)
        code, _, err = run(capsys, argv)
        assert code in (0, 2, 3, 4), argv
        assert "Traceback" not in err, argv
        codes.add(code)
    # the draws reach past input checking
    assert {0, 2} <= codes
