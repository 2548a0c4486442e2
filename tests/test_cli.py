"""End-to-end tests of the boxproj command line."""

import csv
import shutil
import subprocess
import sys

import pytest

from boxproj import SolverError
from boxproj.cli import ExperimentConfig, main


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigParsing:
    def test_fractions_lists_and_comments(self, tmp_path):
        cfg = ExperimentConfig.from_file(write_cfg(tmp_path, """
# comment line
preset = courant   # trailing comment
h = 1/8
ladder = [1/4, 1/8]
beta = [1, 1]
function = gaussian
"""))
        assert float(cfg.raw["h"]) == 0.125
        assert [float(x) for x in cfg.raw["ladder"]] == [0.25, 0.125]
        assert cfg.raw["beta"] == [1, 1]

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_cfg(tmp_path, "preset = haar\nbogus_key = 3\n")
        with pytest.raises(Exception, match="bogus_key"):
            ExperimentConfig.from_file(path)

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "bogus_key = 3\n")
        assert main(["analyze", "--config", path]) == 2
        assert "bogus_key" in capsys.readouterr().err


class TestAnalyze:
    def test_courant_summary(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "preset = courant\n")
        assert main(["analyze", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "margin = 1" in out
        assert "approximation_order = 2" in out
        assert "unimodular = true" in out
        assert "classes = 3" in out
        assert "alpha=(0, 1)" in out
        assert "alpha=(1, -1)" in out
        assert "alpha=(1, 0)" in out
        # critical-order derivative table rows
        assert '"(1,1)",1,1,1' in out
        assert '"(2,0)",0,0,2' in out

    def test_explicit_vectors(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "vectors = [[1, 0], [0, 1], [1, 1], [0, 1]]\n")
        assert main(["analyze", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "margin = 1" in out
        assert "unimodular = true" in out

    @pytest.mark.parametrize("line", ["vectors = [1, 2]", "vectors = [[1, 0], 2]",
                                      "vectors = [[1, 0], [0.5, 1]]", "vectors = 3"])
    def test_vectors_not_integer_rows_exit_2(self, tmp_path, capsys, line):
        # a flat list used to reach DirectionSet and end in a TypeError, exit 1
        path = write_cfg(tmp_path, line + "\n")
        assert main(["analyze", "--config", path]) == 2
        assert "error: vectors must be a list of integer rows" in capsys.readouterr().err

    def test_degenerate_preset_rejected(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "preset = zp\n")
        rc = main(["analyze", "--config", path])
        out = capsys.readouterr().out
        assert rc == 2
        assert "not unimodular" in out


class TestLbeta:
    def test_haar_sawtooth_closed_form(self, tmp_path):
        path = write_cfg(tmp_path, "preset = haar\nbeta = [1]\ngrid = 5\n"
                                   "series_radius = 500\n")
        out = str(tmp_path / "lb.csv")
        assert main(["lbeta", "--config", path, "--out", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 5
        for row in rows:
            x = float(row["x1"])
            want = 0.5 - (x % 1.0)
            assert abs(float(row["closed_form"]) - want) < 1e-12
            assert float(row["abs_diff"]) < 1e-2

    def test_subcritical_order_is_zero(self, tmp_path):
        path = write_cfg(tmp_path, "preset = bspline(2)\nbeta = [1]\ngrid = 4\n"
                                   "series_radius = 100\n")
        out = str(tmp_path / "lb0.csv")
        assert main(["lbeta", "--config", path, "--out", out]) == 0
        for row in read_csv(out):
            assert float(row["closed_form"]) == 0.0

    def test_subcritical_order_in_lines_mode(self, tmp_path):
        # below the critical order every weight on the class lines is a
        # structural zero, so the series is exactly 0
        path = write_cfg(tmp_path, "preset = courant\nbeta = (1, 0)\ngrid = 3\n")
        out = str(tmp_path / "lb1.csv")
        assert main(["lbeta", "--config", path, "--out", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 9
        for row in rows:
            assert float(row["series_N"]) == 0.0
            assert float(row["abs_diff"]) == 0.0

    def test_order_above_critical_rejected(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "preset = haar\nbeta = [3]\n")
        assert main(["lbeta", "--config", path]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["lines", "auto"])
    def test_negative_radius_rejected(self, tmp_path, capsys, mode):
        # the series has one summation route: a config naming either former
        # series_mode fails on the unknown key, and without it the negative
        # radius is rejected before any output is written
        cfg = "preset = courant\nbeta = [1, 1]\ngrid = 3\nseries_radius = -5\n"
        out = tmp_path / "lb.csv"
        path = write_cfg(tmp_path, cfg + f"series_mode = {mode}\n")
        assert main(["lbeta", "--config", path, "--out", str(out)]) == 2
        assert "unknown key 'series_mode'" in capsys.readouterr().err
        path = write_cfg(tmp_path, cfg)
        assert main(["lbeta", "--config", path, "--out", str(out)]) == 2
        assert "error: series_radius must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0", "-3", "2.5", "true"])
    def test_grid_must_be_positive_integer(self, tmp_path, capsys, grid):
        # grid = 0 and -3 used to die in the series on an empty point set
        # (ZeroDivisionError), and 2.5 ran a 2-per-axis grid
        path = write_cfg(tmp_path, f"preset = courant\nbeta = [1, 1]\ngrid = {grid}\n"
                                   f"series_radius = 50\n")
        out = tmp_path / "lb.csv"
        assert main(["lbeta", "--config", path, "--out", str(out)]) == 2
        assert "error: grid must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_beta_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "preset = haar\n")
        assert main(["lbeta", "--config", path]) == 2


class TestProject:
    def test_summary_and_byte_stable_csv(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "preset = bspline(2)\nfunction = gaussian\n"
                                   "h = 1/2\np = 2\n")
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        assert main(["project", "--config", path, "--out", out1]) == 0
        first = capsys.readouterr().out
        assert "h = 0.5" in first
        assert "error_norm = " in first
        assert main(["project", "--config", path, "--out", out2]) == 0
        with open(out1, "rb") as f1, open(out2, "rb") as f2:
            assert f1.read() == f2.read()
        rows = read_csv(out1)
        assert set(rows[0]) == {"alpha1", "coefficient"}

    @pytest.mark.parametrize("line, word", [("h = 0", "mesh size"), ("p = 0", "exponent"),
                                            ("p = -1", "exponent")])
    def test_invalid_mesh_size_or_exponent_exits_2(self, tmp_path, capsys, line, word):
        path = write_cfg(tmp_path, f"preset = bspline(2)\nfunction = gaussian\n{line}\n")
        assert main(["project", "--config", path]) == 2
        captured = capsys.readouterr()
        assert "error: " in captured.err and word in captured.err
        assert "error_norm" not in captured.out

    def test_box_of_other_dimension_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "preset = bspline(2)\nh = 1/2\n"
                                   "box = [[0, 0], [1, 1]]\n")
        assert main(["project", "--config", path]) == 2
        assert "error: box corners of shapes (2,), (2,) in dimension 1" in capsys.readouterr().err

    def test_reversed_domain_exits_2(self, tmp_path, capsys):
        # a reversed domain used to print error_norm = 0 and exit 0
        path = write_cfg(tmp_path, "preset = courant\nfunction = gaussian\nh = 1/2\n"
                                   "domain = [[1, 1], [-1, -1]]\n")
        assert main(["project", "--config", path]) == 2
        captured = capsys.readouterr()
        assert "error: domain is reversed" in captured.err
        assert "error_norm" not in captured.out

    @pytest.mark.parametrize("command", ["project", "converge"])
    @pytest.mark.parametrize("line, message", [
        ("padding = 2.5", "padding must be a nonnegative integer"),
        ("padding = -0.5", "padding must be a nonnegative integer"),
        ("padding = -1", "padding must be a nonnegative integer"),
        ("padding = true", "padding must be a nonnegative integer"),
        ("norm_order = 10.7", "norm_order must be a positive integer"),
        ("norm_order = 0", "norm_order must be a positive integer"),
        ("norm_order = 21/2", "norm_order must be a positive integer"),
        ("box = 3", "box must be two corners"),
        ("domain = 3", "domain must be two corners"),
        ("ladder = 5", "ladder must be a nonempty list"),
        ("ladder = [[1], 2]", "ladder must be a nonempty list"),
        ("function = monomial\nexponents = 2", "exponents must be a list")])
    def test_integer_keys_must_be_integers(self, tmp_path, capsys, command, line, message):
        # truncating would run padding 2.5 as 2 and -0.5 as 0, past the
        # negative-padding check, and norm_order 10.7 as 10; a scalar where
        # a list belongs used to end in a TypeError and exit 1, the code of
        # a failed convergence
        path = write_cfg(tmp_path, f"preset = bspline(2)\nfunction = gaussian\nh = 1/2\n"
                                   f"ladder = [1/2, 1/4]\n{line}\n")
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "error_norm" not in captured.out and "rel_err" not in captured.out

    def test_fractional_exponents_exit_2(self, tmp_path, capsys):
        # the exponents used to be truncated, projecting x*y for [1.5, 1]
        path = write_cfg(tmp_path, "preset = courant\nfunction = monomial\nexponents = [1.5, 1]\n"
                                   "box = [[0, 0], [1, 1]]\n")
        assert main(["project", "--config", path]) == 2
        captured = capsys.readouterr()
        assert "error: multi-index entries must be finite integers, got 1.5" in captured.err
        assert "error_norm" not in captured.out

    def test_integer_keys_accepted(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "preset = bspline(2)\nfunction = gaussian\nh = 1/2\n"
                                   "padding = 0\nnorm_order = 6\n")
        assert main(["project", "--config", path]) == 0
        assert "error_norm = " in capsys.readouterr().out

    def test_iterations_follow_the_residual(self, tmp_path, capsys):
        # courant2's criterion-5 window around x^(3, 0): a solve of many steps
        path = write_cfg(tmp_path, "preset = courant2\nfunction = monomial\nexponents = [3, 0]\n"
                                   "h = 1/8\nbox = [[-2, -2], [2, 2]]\n")
        assert main(["project", "--config", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("residual = "))
        key, value = lines[at + 1].split(" = ")
        assert key == "iterations" and int(value) > 1

    def test_solver_error_is_reported(self, tmp_path, capsys, monkeypatch):
        def fail(model, f):
            raise SolverError("relative residual 1.000e-03 above 1e-12")

        monkeypatch.setattr("boxproj.cli.project", fail)
        path = write_cfg(tmp_path, "preset = bspline(2)\nfunction = gaussian\nh = 1/2\n")
        assert main(["project", "--config", path]) == 2
        assert "error: relative residual" in capsys.readouterr().err


class TestConstant:
    def test_two_route_p2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "preset = bspline(2)\nfunction = gaussian\np = 2\n")
        assert main(["constant", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "constant_closed_p2 = 0.029078600831974" in out
        rel = float([ln for ln in out.splitlines()
                     if ln.startswith("two_route_rel_diff")][0].split("=")[1])
        assert rel < 1e-8

    def test_exponent_below_one_rejected(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "preset = bspline(2)\nfunction = gaussian\np = 0\n")
        assert main(["constant", "--config", path]) == 2
        assert "error: norm exponent p must be finite and at least 1" in capsys.readouterr().err


class TestConverge:
    def test_small_ladder_passes(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "preset = tensor(1,1)\nfunction = gaussian\n"
                                   "p = 2\nladder = [1/4, 1/8, 1/16]\n"
                                   "tolerance = 0.05\n")
        assert main(["converge", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "result = pass" in out
        assert "expected_rate = 1" in out

    def test_empty_ladder_rejected(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "preset = haar\nfunction = gaussian\n"
                                   "p = 2\nladder = []\n")
        assert main(["converge", "--config", path]) == 2
        assert "ladder" in capsys.readouterr().err


    def test_repeated_mesh_size_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "preset = haar\nfunction = gaussian\n"
                                   "p = 2\nladder = [1/4, 1/4]\n")
        assert main(["converge", "--config", path]) == 2
        assert "error: ladder needs at least two mesh sizes, all distinct" in capsys.readouterr().err


class TestCheck:
    def test_battery_green(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert '"pass": true' in out
        assert '"pass": false' not in out
        assert "19/19 passed" in out

    def test_perturbed_gram_detected(self, capsys):
        assert main(["check", "--perturb-gram", "1e-3"]) == 1
        out = capsys.readouterr().out
        assert '"pass": false' in out
        assert '"check": "residual_orthogonality"' in out


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        exe = shutil.which("boxproj")
        if exe is None:
            cmd = [sys.executable, "-m", "boxproj.cli"]
        else:
            cmd = [exe]
        path = write_cfg(tmp_path, "preset = haar\n")
        res = subprocess.run(cmd + ["analyze", "--config", path],
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0
        assert "margin = 0" in res.stdout
