import subprocess
import sys

import numpy as np
import pytest

from angleid import theory
from angleid.cli import main
from angleid.core import load_csv


def run(*args) -> int:
    return main([str(a) for a in args])


class TestGenerate:
    def test_ball_csv(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert run("generate", "--shape", "ball", "--d", 5, "--n", 1000, "--seed", 7, "-o", out) == 0
        m = load_csv(out)
        assert (m.n, m.dim) == (1000, 5)
        err = capsys.readouterr().err
        assert "seed=7" in err and "n=1000" in err

    def test_lattice_full_size(self, tmp_path):
        out = tmp_path / "l.csv"
        assert run("generate", "--shape", "lattice", "--dims", 8, "--seed", 1, "-o", out) == 0
        m = load_csv(out)
        assert (m.n, m.dim) == (65536, 8)

    def test_koch_csv(self, tmp_path):
        out = tmp_path / "k.csv"
        assert run("generate", "--shape", "koch", "--depth", 6, "--n", 20000, "--seed", 3, "-o", out) == 0
        m = load_csv(out)
        assert (m.n, m.dim) == (20000, 2)

    def test_nested_cubes_appends_label_column(self, tmp_path):
        out = tmp_path / "n.csv"
        assert run("generate", "--shape", "nested_cubes", "--max-dim", 3,
                   "--n-per-cube", 20, "--seed", 2, "-o", out) == 0
        m = load_csv(out)
        assert (m.n, m.dim) == (60, 4)
        assert set(np.unique(m.points[:, -1])) == {1.0, 2.0, 3.0}

    def test_offset_disc_appends_query_row(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run("generate", "--shape", "offset_disc", "--n", 50, "--offset", 20,
                   "--seed", 4, "-o", out) == 0
        m = load_csv(out)
        assert m.n == 51
        assert list(m.points[-1]) == [0.0, 0.0, 20.0]

    def test_missing_params_is_usage_error(self, tmp_path):
        assert run("generate", "--shape", "ball", "--n", 10, "-o", tmp_path / "x.csv") == 1
        assert run("generate", "--shape", "ball", "--d", 2, "-o", tmp_path / "x.csv") == 1

    def test_unknown_shape_is_usage_error(self, tmp_path):
        assert run("generate", "--shape", "donut", "--n", 10, "-o", tmp_path / "x.csv") == 1


@pytest.fixture()
def ball_csv(tmp_path):
    out = tmp_path / "ball.csv"
    assert run("generate", "--shape", "ball", "--d", 3, "--n", 300, "--seed", 11, "-o", out) == 0
    return out


class TestEstimate:
    def test_columns(self, tmp_path, ball_csv):
        out = tmp_path / "est.csv"
        assert run("estimate", "--input", ball_csv, "--k", 20,
                   "--estimators", "abid,mle", "-o", out) == 0
        header, first = out.read_text().splitlines()[:2]
        assert header == "index,abid,mle"
        assert first.startswith("0,")

    def test_rabid_needs_two_neighbors(self, tmp_path, ball_csv, capsys):
        out = tmp_path / "est.csv"
        assert run("estimate", "--input", ball_csv, "--k", 1,
                   "--estimators", "rabid", "-o", out) == 1
        assert capsys.readouterr().err == "usage error: estimator rabid needs k >= 2, got k = 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (("--k", 3, "--estimators", "abid,ged"), "estimator ged needs k >= 4, got k = 3"),
        (("--k", 1, "--estimators", "abid,mle"), "estimator mle needs k >= 2, got k = 1"),
    ])
    def test_k_below_an_estimator_minimum_is_a_usage_error(self, tmp_path, ball_csv, capsys,
                                                          args, message):
        assert run("estimate", "--input", ball_csv, *args, "-o", tmp_path / "x.csv") == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_unknown_estimator_is_usage_error(self, tmp_path, ball_csv):
        assert run("estimate", "--input", ball_csv, "--k", 5,
                   "--estimators", "abid,alid", "-o", tmp_path / "x.csv") == 1

    @pytest.mark.parametrize("args", [
        ("--estimators", "abid,abid"),
        ("--estimators", "ged", "--ged-pair", "5,3"),
        ("--estimators", "ged", "--ged-pair", "5,11"),
        ("--estimators", "ged", "--ged-pair", "0,5"),
        ("--estimators", "ged", "--ged-pair", "2,4,6"),
        ("--points", 0),
    ])
    def test_bad_arguments_are_usage_errors(self, tmp_path, ball_csv, capsys, args):
        assert run("estimate", "--input", ball_csv, "--k", 10, *args,
                   "-o", tmp_path / "x.csv") == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not (tmp_path / "x.csv").exists()

    def test_byte_identical_reruns(self, tmp_path, ball_csv):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("estimate", "--input", ball_csv, "--k", 15,
                       "--estimators", "abid,rabid,mle,mom,ged",
                       "--with-diagnostics", "-o", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threads_do_not_change_bytes(self, tmp_path, ball_csv):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("estimate", "--input", ball_csv, "--k", 15, "--threads", 1, "-o", a) == 0
        assert run("estimate", "--input", ball_csv, "--k", 15, "--threads", 4, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_label_column_dropped(self, tmp_path):
        data = tmp_path / "labeled.csv"
        assert run("generate", "--shape", "nested_cubes", "--max-dim", 2,
                   "--n-per-cube", 40, "--seed", 5, "-o", data) == 0
        out = tmp_path / "est.csv"
        assert run("estimate", "--input", data, "--k", 10, "--label-column", "-o", out) == 0
        assert len(out.read_text().splitlines()) == 81

    def test_subsample(self, tmp_path, ball_csv, capsys):
        out = tmp_path / "est.csv"
        assert run("estimate", "--input", ball_csv, "--k", 10, "--points", 25,
                   "--subsample-seed", 3, "-o", out) == 0
        assert len(out.read_text().splitlines()) == 26
        assert "subsample" in capsys.readouterr().err

    def test_missing_input_is_data_error(self, tmp_path):
        assert run("estimate", "--input", tmp_path / "nope.csv", "--k", 5,
                   "-o", tmp_path / "x.csv") == 2


class TestHistogramCommand:
    def test_counts_sum_to_n(self, tmp_path, ball_csv):
        est = tmp_path / "est.csv"
        assert run("estimate", "--input", ball_csv, "--k", 20, "-o", est) == 0
        out = tmp_path / "hist.csv"
        assert run("histogram", "--input", est, "--column", "abid",
                   "--bin-width", 0.25, "-o", out) == 0
        rows = out.read_text().splitlines()[1:]
        assert sum(int(r.split(",")[1]) for r in rows) == 300

    def test_unknown_column_is_usage_error(self, tmp_path, ball_csv):
        est = tmp_path / "est.csv"
        assert run("estimate", "--input", ball_csv, "--k", 20, "-o", est) == 0
        assert run("histogram", "--input", est, "--column", "tle",
                   "--bin-width", 0.5, "-o", tmp_path / "h.csv") == 1

    def test_region_of_interest_clipping(self, tmp_path, ball_csv):
        est = tmp_path / "est.csv"
        assert run("estimate", "--input", ball_csv, "--k", 20, "-o", est) == 0
        out = tmp_path / "hist.csv"
        assert run("histogram", "--input", est, "--column", "abid", "--bin-width", 0.25,
                   "--x-min", 2.5, "--x-max", 3.5, "-o", out) == 0
        rows = out.read_text().splitlines()[1:]
        lefts = [float(r.split(",")[0]) for r in rows]
        assert all(2.25 <= v <= 3.5 for v in lefts)


class TestTrailsCommand:
    def test_k_range_columns(self, tmp_path):
        data = tmp_path / "d.csv"
        assert run("generate", "--shape", "ball", "--d", 4, "--n", 400, "--seed", 6, "-o", data) == 0
        out = tmp_path / "t.csv"
        assert run("trails", "--input", data, "--estimator", "abid", "--k-min", 50,
                   "--k-max", 300, "--k-step", 50, "--points", 20, "-o", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,k50,k100,k150,k200,k250,k300"
        assert len(lines) == 21

    def test_explicit_k_values(self, tmp_path):
        data = tmp_path / "d.csv"
        assert run("generate", "--shape", "ball", "--d", 2, "--n", 100, "--seed", 6, "-o", data) == 0
        out = tmp_path / "t.csv"
        assert run("trails", "--input", data, "--k-values", "10,20", "-o", out) == 0
        assert out.read_text().splitlines()[0] == "index,k10,k20"

    def test_zero_points_is_usage_error(self, tmp_path, ball_csv, capsys):
        assert run("trails", "--input", ball_csv, "--k-values", "10,20", "--points", 0,
                   "-o", tmp_path / "t.csv") == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize("args", [
        ("--k-values", "0,10"),
        ("--k-values", "10,10"),
        ("--k-values", "10.5,20"),
        ("--k-values", "3,8", "--estimator", "ged"),
        ("--k-min", 1, "--k-max", 5, "--k-step", 1, "--estimator", "rabid"),
    ])
    def test_bad_k_values_are_usage_errors(self, tmp_path, ball_csv, capsys, args):
        assert run("trails", "--input", ball_csv, *args, "-o", tmp_path / "t.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "t.csv").exists()

    def test_too_small_k_names_the_estimator(self, tmp_path, ball_csv, capsys):
        assert run("trails", "--input", ball_csv, "--k-values", "3,8", "--estimator", "ged",
                   "-o", tmp_path / "t.csv") == 1
        assert capsys.readouterr().err == "usage error: estimator ged needs k >= 4, got k = 3\n"

    def test_incomplete_range_is_usage_error(self, tmp_path):
        data = tmp_path / "d.csv"
        assert run("generate", "--shape", "ball", "--d", 2, "--n", 50, "--seed", 6, "-o", data) == 0
        assert run("trails", "--input", data, "--k-min", 10, "-o", tmp_path / "t.csv") == 1


class TestValidate:
    def test_passes_and_reports(self, capsys):
        assert run("validate", "--d", 5, "--samples", 100000, "--seed", 1) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "check,statistic,threshold,status"
        assert len(lines) == 5
        assert all(line.endswith("PASS") for line in lines[1:])
        var_line = next(l for l in lines if l.startswith("moment_variance"))
        assert float(var_line.split(",")[1]) < 0.05

    def test_failure_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(theory, "KS_CRITICAL_1PCT", 0.0)
        assert run("validate", "--d", 3, "--samples", 1000, "--ks-samples", 1000) == 3
        out = capsys.readouterr()
        assert "FAIL" in out.out
        assert "ks_cosine_law" in out.err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "g.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "angleid", "generate", "--shape", "gaussian",
             "--d", "2", "--n", "5", "--seed", "0", "-o", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 5

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "angleid", "frobnicate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
