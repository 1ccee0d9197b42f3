import json

import numpy as np

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

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["--format", "csv", "spectrum",
                                    "--real", "1", "0", "0", "1", "--count", "3"])
        assert out.splitlines()[0] == "re_lambda2,im_lambda2,multiplicity,residual"

    def test_singular_exit_code(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--real", "1", "1", "1", "1"])
        assert code == 4
        assert json.loads(out)["spectrum"] == "whole-plane"

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
