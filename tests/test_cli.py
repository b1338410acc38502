import subprocess
import sys

import numpy as np
import pytest

from angleid import core, theory
from angleid.cli import main
from angleid.core import DataMatrix, load_csv, write_csv


# The two refusals of the delimiter rule, after "must not contain".
_IN_A_CELL = "a line break, an ASCII letter or digit, '.', '+', '-' or '_'"
_IN_A_FLAGS_CELL = "':' or '|' with the flags column"


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

    @pytest.mark.parametrize("args", [
        ("--shape", "lattice", "--dims", 11),
        ("--shape", "nested_cubes", "--max-dim", 9),
        ("--shape", "ball", "--d", 2, "--n", 5, "--seed", -1),
        ("--shape", "line", "--n", 5, "--length", -1),
        ("--shape", "koch", "--n", 10, "--depth", 11),
        ("--shape", "lattice", "--dims", 2, "--jitter-max", "nan"),
        ("--shape", "lattice", "--dims", 2, "--jitter-max", "inf"),
        ("--shape", "line", "--n", 5, "--length", "nan"),
        ("--shape", "line", "--n", 5, "--length", "inf"),
        ("--shape", "line", "--n", 5, "--width-ratio", "nan"),
        ("--shape", "line", "--n", 5, "--width-ratio", "inf"),
        ("--shape", "offset_disc", "--n", 5, "--offset", "nan"),
        ("--shape", "offset_disc", "--n", 5, "--offset", "inf"),
    ])
    def test_generator_argument_errors_are_usage_errors(self, tmp_path, capsys, args):
        assert run("generate", *args, "-o", tmp_path / "x.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_negative_seed_names_the_seed(self, tmp_path, capsys):
        assert run("generate", "--shape", "ball", "--d", 2, "--n", 5, "--seed", -1,
                   "-o", tmp_path / "x.csv") == 1
        assert capsys.readouterr().err == "usage error: seed must be an integer >= 0, got -1\n"

    def test_shape_options_left_out_take_the_generator_defaults(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("generate", "--shape", "koch", "--n", 10, "-o", a) == 0
        assert run("generate", "--shape", "koch", "--n", 10, "--depth", 6, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("args, message", [
        (("--shape", "ball", "--n", 10), "shape 'ball' needs d"),
        (("--shape", "gaussian", "--d", 2), "shape 'gaussian' needs n"),
        (("--shape", "koch", "--depth", 3), "shape 'koch' needs n"),
    ])
    def test_a_missing_size_is_a_usage_error(self, tmp_path, capsys, args, message):
        assert run("generate", *args, "-o", tmp_path / "x.csv") == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_shape_is_usage_error(self, tmp_path):
        assert run("generate", "--shape", "donut", "--n", 10, "-o", tmp_path / "x.csv") == 1

    def test_lattice_levels(self, tmp_path):
        out = tmp_path / "l.csv"
        assert run("generate", "--shape", "lattice", "--dims", 2, "--levels", "0,0.5,1",
                   "-o", out) == 0
        m = load_csv(out)
        assert (m.n, m.dim) == (9, 2)

    @pytest.mark.parametrize("levels, message", [
        ("0,x", "--levels expects comma-separated numbers, got '0,x'"),
        ("0,1,2,3,4,5", "6 levels at dims=10 would emit 6**10 points; limit is 4**10"),
    ])
    def test_bad_lattice_levels_are_usage_errors(self, tmp_path, capsys, monkeypatch, levels,
                                                 message):
        def no_grid(*args, **kwargs):
            raise AssertionError("meshgrid ran")

        monkeypatch.setattr(np, "meshgrid", no_grid)
        out = tmp_path / "x.csv"
        assert run("generate", "--shape", "lattice", "--dims", 10, "--levels", levels,
                   "-o", out) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("args, err", [
        (("--k", 1, "--estimators", "abid"),
         "warning: k=1 may be too small: an angle-based estimate exceeded k-2 on 300 of 300 "
         "query points\nestimated 300 points at k=1: abid\n"),
        (("--k", 20), "estimated 300 points at k=20: abid,rabid\n"),
    ])
    def test_small_neighborhoods_are_one_counted_warning_line(self, tmp_path, ball_csv, capsys,
                                                              args, err):
        assert run("estimate", "--input", ball_csv, *args, "-o", tmp_path / "est.csv") == 0
        assert capsys.readouterr().err == err

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
        ("--points", 2, "--subsample-seed", -1),
        ("--estimators", "abid", "--ged-pair", "5,3"),
        ("--estimators", "abid,mle", "--ged-pair", "2,11"),
    ])
    def test_bad_arguments_are_usage_errors(self, tmp_path, ball_csv, capsys, args):
        assert run("estimate", "--input", ball_csv, "--k", 10, *args,
                   "-o", tmp_path / "x.csv") == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", [
        ("estimate", "--k", 10),
        ("trails", "--k-values", "10,20"),
    ])
    def test_threads_below_one_are_usage_errors_before_loading(self, tmp_path, capsys,
                                                                 command):
        # The input does not exist: a data error would mean it was read first.
        for threads in (0, -4):
            assert run(*command, "--input", tmp_path / "missing.csv", "--threads", threads,
                       "-o", tmp_path / "x.csv") == 1
            assert capsys.readouterr().err == f"usage error: --threads must be >= 1, got {threads}\n"

    @pytest.mark.parametrize("command", [
        ("estimate", "--k", 10, "--points", 2),
        ("trails", "--k-values", "10,20", "--points", 2),
    ])
    def test_negative_subsample_seeds_are_usage_errors_before_loading(self, tmp_path, capsys,
                                                                      command):
        assert run(*command, "--input", tmp_path / "missing.csv", "--subsample-seed", -1,
                   "-o", tmp_path / "x.csv") == 1
        assert capsys.readouterr().err == "usage error: --subsample-seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("command", [
        ("estimate", "--k", 10),
        ("trails", "--k-values", "10,20"),
        ("histogram", "--column", "abid", "--bin-width", 0.5),
    ])
    def test_empty_delimiter_is_a_usage_error_before_loading(self, tmp_path, capsys, command):
        assert run(*command, "--input", tmp_path / "missing.csv", "--delimiter", "",
                   "-o", tmp_path / "x.csv") == 1
        assert capsys.readouterr().err == "usage error: --delimiter must not be empty\n"

    @pytest.mark.parametrize("command, delimiter, message", [
        (("estimate", "--k", 10), ".", _IN_A_CELL),
        (("estimate", "--k", 10), "e", _IN_A_CELL),
        (("estimate", "--k", 10, "--with-diagnostics"), "|", _IN_A_FLAGS_CELL),
        (("estimate", "--k", 10, "--with-diagnostics"), ":", _IN_A_FLAGS_CELL),
        (("trails", "--k-values", "10,20"), "-", _IN_A_CELL),
        (("histogram", "--column", "abid", "--bin-width", 0.5), "\n", _IN_A_CELL),
    ], ids=["estimate-dot", "estimate-letter", "flags-bar", "flags-colon", "trails-minus",
            "histogram-newline"])
    def test_a_delimiter_a_written_cell_can_hold_is_a_usage_error_before_loading(
            self, tmp_path, capsys, command, delimiter, message):
        out = tmp_path / "x.csv"
        assert run(*command, "--input", tmp_path / "missing.csv", "--delimiter", delimiter,
                   "-o", out) == 1
        assert capsys.readouterr().err == (
            f"usage error: --delimiter {delimiter!r} must not contain {message}\n")
        assert not out.exists()

    def test_bar_stays_valid_without_the_flags_column(self, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text("".join(f"{i}|{j}\n" for i in range(10) for j in range(10)))
        est, hist = tmp_path / "est.csv", tmp_path / "hist.csv"
        assert run("estimate", "--input", grid, "--k", 2, "--estimators", "rabid,mle",
                   "--delimiter", "|", "-o", est) == 0
        assert run("histogram", "--input", est, "--column", "mle", "--bin-width", 0.5,
                   "--delimiter", "|", "-o", hist) == 0
        for path, fields in ((est, 3), (hist, 2)):
            lines = path.read_text().splitlines()
            assert {line.count("|") + 1 for line in lines} == {fields}

    @pytest.mark.parametrize("command", [
        ("estimate", "--k", 10),
        ("trails", "--k-values", "10,20"),
    ])
    def test_zero_points_is_a_usage_error_before_loading(self, tmp_path, capsys, command):
        assert run(*command, "--input", tmp_path / "missing.csv", "--points", 0,
                   "-o", tmp_path / "x.csv") == 1
        assert capsys.readouterr().err == "usage error: --points must be >= 1\n"

    @pytest.mark.parametrize("command", ["estimate", "trails"])
    def test_help_lists_the_shared_options(self, capsys, command):
        assert run(command, "--help") == 0
        text = capsys.readouterr().out
        for flag in ("--input", "--delimiter", "--header", "--label-column", "--points",
                     "--subsample-seed", "--threads", "-o OUTPUT, --output OUTPUT"):
            assert flag in text

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

    @pytest.mark.parametrize("text", ["nan", "inf", "1e400"])
    def test_non_finite_input_is_data_error(self, tmp_path, capsys, text):
        data = tmp_path / "d.csv"
        data.write_text(f"0,0\n{text},1\n1,0\n0,1\n1,1\n")
        assert run("estimate", "--input", data, "--k", 2, "-o", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == (
            f"error: {data}: line 2: non-finite field {text!r}\n")

    def test_missing_input_is_data_error(self, tmp_path):
        assert run("estimate", "--input", tmp_path / "nope.csv", "--k", 5,
                   "-o", tmp_path / "x.csv") == 2

    def test_non_numeric_ged_pair_is_usage_error(self, tmp_path, ball_csv, capsys):
        assert run("estimate", "--input", ball_csv, "--k", 10, "--estimators", "ged",
                   "--ged-pair", "a,b", "-o", tmp_path / "x.csv") == 1
        assert capsys.readouterr().err == (
            "usage error: --ged-pair expects comma-separated integers, got 'a,b'\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("pair, message", [
        ("2.0,8", "--ged-pair expects comma-separated integers, got '2.0,8'"),
        ("2,4,6", "ged_pair must be two integers, got (2, 4, 6)"),
    ])
    def test_ged_pair_parses_as_two_integers(self, tmp_path, ball_csv, capsys, pair, message):
        assert run("estimate", "--input", ball_csv, "--k", 10, "--estimators", "ged",
                   "--ged-pair", pair, "-o", tmp_path / "x.csv") == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_label_column_needs_two_columns(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("0.5\n1.5\n2.0\n4.0\n")
        assert run("estimate", "--input", data, "--k", 2, "--label-column",
                   "-o", tmp_path / "x.csv") == 1
        assert capsys.readouterr().err == "usage error: --label-column needs at least 2 input columns\n"
        assert not (tmp_path / "x.csv").exists()


def test_numpy_and_the_block_parser_give_the_same_outputs(tmp_path, capsys, monkeypatch):
    """A clean file goes through the number reader; the same values with a ``1_0`` go to the block parser."""
    points = np.random.default_rng(8).normal(size=(120, 3))
    points[7, 1] = 10.0
    clean, fallback = tmp_path / "clean.csv", tmp_path / "fallback.csv"
    write_csv(DataMatrix(points), clean)
    lines = clean.read_text().splitlines(keepends=True)
    assert lines[7].split(",")[1] == "10"
    lines[7] = lines[7].replace(",10,", ",1_0,")
    fallback.write_text("".join(lines))
    parsed, parse_blocks = [], core._parse_blocks

    def spy(fh, path, *args):
        parsed.append(path)
        return parse_blocks(fh, path, *args)

    monkeypatch.setattr(core, "_parse_blocks", spy)
    commands = [("estimate", "--k", 12, "--estimators", "abid,rabid,mle,mom,ged",
                 "--with-diagnostics"),
                ("trails", "--estimator", "mle", "--k-values", "5,12,40", "--points", 30)]
    for command in commands:
        results = []
        for data in (clean, fallback):
            out = tmp_path / f"{command[0]}-{data.stem}.csv"
            code = run(*command, "--input", data, "-o", out)
            results.append((code, out.read_bytes(), capsys.readouterr().err))
        assert results[0] == results[1] and results[0][0] == 0
    assert parsed == [str(fallback)] * 2


@pytest.mark.parametrize("text, args, line, byte", [
    (b"0,1\n2,\xff\n3,4\n", ("estimate", "--k", 1, "--estimators", "abid"), 2, "0xff"),
    (b"0,1\n2,\xff\n3,4\n", ("histogram", "--column", 1, "--bin-width", 1), 2, "0xff"),
    (b"a,\xff\n0,1\n3,4\n", ("estimate", "--header", "--k", 1, "--estimators", "abid"), 1,
     "0xff"),
    (b"a,\xfe\n0,1\n3,4\n", ("trails", "--header", "--k-values", 1), 1, "0xfe"),
    (b"abid,\xfe\n2,1\n3,4\n", ("histogram", "--column", "abid", "--bin-width", 1), 1, "0xfe"),
], ids=["estimate", "histogram", "estimate-header", "trails-header", "histogram-header"])
def test_a_byte_that_is_not_utf8_is_a_data_error_naming_its_line(tmp_path, capsys, text, args,
                                                                  line, byte):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(text)
    out = tmp_path / "out.csv"
    assert run(*args, "--input", bad, "-o", out) == 2
    assert capsys.readouterr().err == f"error: {bad}: line {line}: non-UTF-8 byte {byte}\n"
    assert not out.exists()


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


    @pytest.mark.parametrize("args", [
        ("--bin-width", "nan"),
        ("--bin-width", "inf"),
        ("--bin-width", 0),
        ("--bin-width", 0.5, "--origin", "inf"),
        ("--bin-width", 0.5, "--origin", "nan"),
        ("--bin-width", 0.5, "--x-min", "nan"),
        ("--bin-width", 0.5, "--x-max", "nan"),
        ("--bin-width", 0.5, "--x-min", 3, "--x-max", 2),
    ])
    def test_bad_bins_are_usage_errors_before_loading(self, tmp_path, capsys, args):
        # The input does not exist: a data error would mean it was read first.
        assert run("histogram", "--input", tmp_path / "missing.csv", "--column", "abid",
                   *args, "-o", tmp_path / "h.csv") == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_non_finite_cell_is_data_error(self, tmp_path, capsys):
        est = tmp_path / "est.csv"
        est.write_text("index,abid,flags\n0,2.5,\n1,nan,\n")
        assert run("histogram", "--input", est, "--column", "abid", "--bin-width", 0.5,
                   "-o", tmp_path / "h.csv") == 2
        assert capsys.readouterr().err == f"error: {est}: line 3: non-finite field 'nan'\n"
        assert not (tmp_path / "h.csv").exists()

    def test_bin_index_beyond_int64_is_data_error(self, tmp_path, capsys):
        est = tmp_path / "est.csv"
        est.write_text("index,abid,flags\n0,1e300,\n1,1.0,\n")
        assert run("histogram", "--input", est, "--column", "abid", "--bin-width", 1e-10,
                   "-o", tmp_path / "h.csv") == 2
        assert capsys.readouterr().err == (
            f"error: {est}: bin index of value 1e+300 does not fit in int64 "
            "(bin_width 1e-10, origin 0.0)\n")
        assert not (tmp_path / "h.csv").exists()

    def test_ragged_row_names_both_field_counts(self, tmp_path, capsys):
        est = tmp_path / "est.csv"
        est.write_text("index,abid,flags\n0,2.5,\n1,3.5\n")
        assert run("histogram", "--input", est, "--column", "abid", "--bin-width", 0.5,
                   "-o", tmp_path / "h.csv") == 2
        assert capsys.readouterr().err == (
            f"error: {est}: line 3: expected 3 fields, found 2\n")

    def test_nothing_left_after_clipping_is_data_error(self, tmp_path, capsys):
        est = tmp_path / "est.csv"
        est.write_text("index,abid,flags\n0,2.5,\n1,3.5,\n")
        assert run("histogram", "--input", est, "--column", "abid", "--bin-width", 0.5,
                   "--x-min", 4, "-o", tmp_path / "h.csv") == 2
        assert capsys.readouterr().err == f"error: {est}: no values left to histogram\n"
        assert not (tmp_path / "h.csv").exists()

    def test_only_the_named_column_is_parsed(self, tmp_path):
        est = tmp_path / "est.csv"
        est.write_text("index,abid,flags\n0,2.5,abid:clamped_to_k\n1,2.6,\n")
        out = tmp_path / "h.csv"
        assert run("histogram", "--input", est, "--column", "abid", "--bin-width", 0.5,
                   "-o", out) == 0
        assert out.read_text() == "bin_left,count\n2.5,2\n"


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
        ("--k-min", 5, "--k-max", 10, "--k-step", 0),
        ("--k-min", 5, "--k-max", 10, "--k-step", -1),
        ("--k-min", 10, "--k-max", 5, "--k-step", 1),
        ("--k-min", 0, "--k-max", 5, "--k-step", 1),
    ])
    def test_bad_k_values_are_usage_errors(self, tmp_path, ball_csv, capsys, args):
        assert run("trails", "--input", ball_csv, *args, "-o", tmp_path / "t.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "t.csv").exists()

    def test_k_values_parse_as_integers_like_k(self, tmp_path, ball_csv, capsys):
        assert run("trails", "--input", ball_csv, "--k-values", "10.0,20",
                   "-o", tmp_path / "t.csv") == 1
        assert capsys.readouterr().err == (
            "usage error: --k-values expects comma-separated integers, got '10.0,20'\n")
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

    def test_negative_seed_is_a_usage_error(self, capsys):
        assert run("validate", "--d", 3, "--samples", 1000, "--ks-samples", 1000,
                   "--seed", -1) == 1
        assert capsys.readouterr().err == "usage error: --seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("args, message", [
        (("--d", 1), "--d must be >= 2"),
        (("--samples", 99), "need at least 100 samples"),
        (("--ks-samples", 99), "need at least 100 samples"),
    ])
    def test_bad_sizes_are_usage_errors(self, capsys, args, message):
        assert run("validate", *args) == 1
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {message}\n" and captured.out == ""

    def test_failure_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(theory, "KS_CRITICAL_1PCT", 0.0)
        assert run("validate", "--d", 3, "--samples", 1000, "--ks-samples", 1000) == 3
        out = capsys.readouterr()
        assert "FAIL" in out.out
        assert "ks_cosine_law" in out.err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path, package_env):
        out = tmp_path / "g.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "angleid", "generate", "--shape", "gaussian",
             "--d", "2", "--n", "5", "--seed", "0", "-o", str(out)],
            capture_output=True, text=True, env=package_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 5

    def test_usage_error_exit_code(self, package_env):
        proc = subprocess.run(
            [sys.executable, "-m", "angleid", "frobnicate"],
            capture_output=True, text=True, env=package_env(),
        )
        assert proc.returncode == 1
        assert "invalid choice: 'frobnicate'" in proc.stderr

    # ``entry`` freezes the run's objects out of the final collections
    # (``gc.freeze``) before it exits: a fresh process must still write every
    # byte, message and exit code that ``main`` does in process.
    @staticmethod
    def _fresh(package_env, *args) -> tuple[int, str, str]:
        # Buffered standard streams, as on a host without PYTHONUNBUFFERED,
        # so output lost at exit would show.
        proc = subprocess.run([sys.executable, "-m", "angleid", *map(str, args)],
                              capture_output=True, text=True, env=package_env(PYTHONUNBUFFERED=""))
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def _in_process(capsys, *args) -> tuple[int, str, str]:
        code = run(*args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_a_fresh_process_writes_what_main_writes(self, tmp_path, capsys, package_env):
        runs = {}
        for way, call in (("main", lambda *a: self._in_process(capsys, *a)),
                          ("fresh", lambda *a: self._fresh(package_env, *a))):
            work = tmp_path / way
            work.mkdir()
            steps = [
                ("generate", "--shape", "ball", "--d", 3, "--n", 400, "--seed", 5,
                 "-o", work / "ball.csv"),
                ("estimate", "--input", work / "ball.csv", "--k", 20, "--estimators", "abid,mle",
                 "--with-diagnostics", "--threads", 2, "-o", work / "est.csv"),
                ("histogram", "--input", work / "est.csv", "--column", "abid",
                 "--bin-width", 0.25, "-o", work / "hist.csv"),
            ]
            results = [call(*step) for step in steps]
            files = [(work / name).read_bytes() for name in ("ball.csv", "est.csv", "hist.csv")]
            runs[way] = results, files
        assert [code for code, _, _ in runs["fresh"][0]] == [0, 0, 0]
        assert all(runs["fresh"][1])
        assert runs["fresh"] == runs["main"]

    def test_a_fresh_process_exits_with_mains_error_codes(self, tmp_path, capsys, package_env):
        cases = {
            1: ("generate", "--shape", "ball", "--n", 10, "-o", tmp_path / "x.csv"),
            2: ("estimate", "--input", tmp_path / "missing.csv", "--k", 5,
                "-o", tmp_path / "e.csv"),
            3: ("validate", "--d", 2, "--samples", 100, "--ks-samples", 100, "--seed", 1),
        }
        for code, args in cases.items():
            fresh = self._fresh(package_env, *args)
            assert fresh[0] == code, fresh
            assert fresh == self._in_process(capsys, *args)
        assert not (tmp_path / "x.csv").exists() and not (tmp_path / "e.csv").exists()
