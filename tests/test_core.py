import decimal
import re
import sys
import time
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from angleid import core
from angleid.core import (
    CLAMPED_TO_K,
    DEGENERATE_ZERO_DENOMINATOR,
    FLAG_BITS,
    CsvFormatError,
    DataMatrix,
    EstimateTable,
    IdEstimate,
    _parse_blocks,
    _read_csv,
    load_csv,
    write_csv,
)
from angleid.analysis import Histogram, TrailMatrix, write_histogram_csv, write_trails_csv
from angleid.neighbors import DirectionBundle, NeighborList


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def _table(diagnostics=True):
    """A two-row rabid and mle table whose second row has flags in both columns."""
    both = FLAG_BITS[CLAMPED_TO_K] | FLAG_BITS[DEGENERATE_ZERO_DENOMINATOR]
    return EstimateTable([0, 1], [0.5, -0.25] if diagnostics else None, k=3,
                         values={"rabid": [1.5, 3.0], "mle": [2.0, 3.0]},
                         flags={"rabid": [0, both], "mle": [0, FLAG_BITS[DEGENERATE_ZERO_DENOMINATOR]]})


class TestDataMatrix:
    def test_shape_and_dtype(self):
        m = DataMatrix([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert (m.n, m.dim) == (3, 2)
        assert m.points.dtype == np.float64

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            DataMatrix([[1.0, np.nan]])
        with pytest.raises(ValueError, match="finite"):
            DataMatrix([[np.inf, 0.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DataMatrix(np.empty((0, 3)))
        with pytest.raises(ValueError):
            DataMatrix(np.empty((3, 0)))
        with pytest.raises(ValueError):
            DataMatrix([1.0, 2.0])

    def test_immutable(self):
        m = DataMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.points[0, 0] = 5.0

    def test_construction_copies_input(self):
        src = np.array([[1.0, 2.0]])
        m = DataMatrix(src)
        src[0, 0] = 99.0
        assert m.points[0, 0] == 1.0


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        m = load_csv(_write(tmp_path, "0,0\n1,0\n0,1"))
        assert (m.n, m.dim) == (3, 2)
        assert np.array_equal(m.points, [[0, 0], [1, 0], [0, 1]])

    def test_row_order_preserved(self, tmp_path):
        m = load_csv(_write(tmp_path, "3,3\n1,1\n2,2\n"))
        assert np.array_equal(m.points[:, 0], [3, 1, 2])

    def test_non_numeric_field_names_line(self, tmp_path):
        with pytest.raises(CsvFormatError, match="line 1") as exc:
            load_csv(_write(tmp_path, "1,x"))
        assert exc.value.line == 1

    def test_non_numeric_later_line(self, tmp_path):
        with pytest.raises(CsvFormatError, match="line 3"):
            load_csv(_write(tmp_path, "1,2\n3,4\n5,oops\n"))

    def test_ragged_row_names_line(self, tmp_path):
        with pytest.raises(CsvFormatError, match="line 2"):
            load_csv(_write(tmp_path, "1,2\n3\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(_write(tmp_path, ""))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    def test_skip_header(self, tmp_path):
        m = load_csv(_write(tmp_path, "a,b\n1,2\n"), skip_header=True)
        assert (m.n, m.dim) == (1, 2)

    def test_an_empty_delimiter_is_rejected_before_the_file_is_opened(self, tmp_path):
        # The file does not exist: an OSError would mean it was opened first.
        with pytest.raises(ValueError, match="^delimiter must not be empty$"):
            load_csv(tmp_path / "missing.csv", delimiter="")

    def test_custom_delimiter(self, tmp_path):
        m = load_csv(_write(tmp_path, "1;2\n3;4\n"), delimiter=";")
        assert m.points[1, 1] == 4.0

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_field_names_line(self, tmp_path, text):
        with pytest.raises(CsvFormatError, match=f"line 2: non-finite field '{text}'") as exc:
            load_csv(_write(tmp_path, f"1,2\n3,{text}\n4,5\n"))
        assert exc.value.line == 2

    def test_first_bad_line_wins(self, tmp_path):
        with pytest.raises(CsvFormatError, match="line 2: non-numeric field 'x'"):
            load_csv(_write(tmp_path, "1,2\nx,nan\n3\n"))
        with pytest.raises(CsvFormatError, match="line 2: expected 2 fields, found 3"):
            load_csv(_write(tmp_path, "1,2\n3,4,5\n6,x\n"))

    @pytest.mark.parametrize("text, kwargs, line, byte", [
        (b"1,2\n3,\xff\n4,5\n", {}, 2, "0xff"),
        (b"1,2\n3,4\n5,6\xc3\n", {}, 3, "0xc3"),
        (b"a,\xfe\n1,2\n", {"skip_header": True}, 1, "0xfe"),
        (b"a,b\n1,2\n\xff,3\n", {"column": "b"}, 3, "0xff"),  # a column not parsed too
        (b"a,\xe9\n1,2\n", {"column": "a"}, 1, "0xe9"),
        (b"1,x\n2,\xff\n", {}, 1, None),  # the first bad line wins
    ])
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, text, kwargs, line, byte):
        p = tmp_path / "bad.csv"
        p.write_bytes(text)
        with pytest.raises(CsvFormatError) as exc:
            if "column" in kwargs:
                _read_csv(p, ",", **kwargs)
            else:
                load_csv(p, **kwargs)
        assert exc.value.line == line
        if byte is not None:
            assert str(exc.value) == f"{p}: line {line}: non-UTF-8 byte {byte}"

    def test_utf8_text_in_a_header_is_read(self, tmp_path):
        p = _write(tmp_path, "α,β\r\n1,2\r\n")
        assert load_csv(p, skip_header=True).points.tolist() == [[1.0, 2.0]]
        assert _read_csv(p, ",", column="β").tolist() == [2.0]

    @pytest.mark.parametrize("threads", [0, -1, 1.0, True, "2"])
    def test_threads_follow_the_integer_rule_before_the_file_is_opened(self, tmp_path, threads):
        with pytest.raises(ValueError, match="^threads must be a positive integer, got "):
            load_csv(tmp_path / "missing.csv", threads=threads)

    def test_lines_past_the_first_block(self, tmp_path):
        """Files longer than one parse block keep their rows and line numbers."""
        rows = [f"{i},{-i / 7}" for i in range(9000)]
        m = load_csv(_write(tmp_path, "a,b\n" + "\n".join(rows) + "\n"), skip_header=True)
        assert m.points.shape == (9000, 2)
        assert np.array_equal(m.points[:, 1], -np.arange(9000) / 7)
        for lineno, bad, message in [(5000, "1,x", "non-numeric"), (8193, "1", "expected 2"),
                                     (4097, "nan,1", "non-finite")]:
            lines = rows[:lineno - 1] + [bad] + rows[lineno:]
            with pytest.raises(CsvFormatError, match=message) as exc:
                load_csv(_write(tmp_path, "\n".join(lines)))
            assert exc.value.line == lineno


class TestWriteCsv:
    def test_matrix_trivial(self, tmp_path):
        p = tmp_path / "m.csv"
        write_csv(DataMatrix([[1.5, 2.5]]), p)
        assert p.read_text() == "1.5,2.5\n"

    def test_table_trivial(self, tmp_path):
        p = tmp_path / "t.csv"
        table = EstimateTable(((0, {"abid": IdEstimate("abid", 1.8, 3)}),))
        write_csv(table, p)
        assert p.read_text() == "index,abid\n0,1.8\n"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip_random_matrix(self, tmp_path, seed):
        """100x5 random matrices round-trip bit-identically through write/load."""
        rng = np.random.default_rng(seed)
        m = DataMatrix(rng.standard_normal((100, 5)) * 10.0 ** rng.integers(-8, 8))
        p = tmp_path / "rt.csv"
        write_csv(m, p)
        back = load_csv(p)
        assert np.array_equal(back.points, m.points)

    def test_round_trip_awkward_values(self, tmp_path):
        m = DataMatrix([[0.1, 1e-300, -1e300], [1 / 3, np.pi, 2 ** -1074]])
        p = tmp_path / "awk.csv"
        write_csv(m, p)
        assert np.array_equal(load_csv(p).points, m.points)

    def test_matrix_bytes_are_one_17_digit_field_per_value(self, tmp_path):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-300, 300, (50, 3))
        pts[0] = [0.0, -0.0, 2 ** -1074]
        for delimiter in (",", ";", "%"):
            p = tmp_path / "m.csv"
            write_csv(DataMatrix(pts), p, delimiter=delimiter)
            want = "".join(delimiter.join("%.17g" % v for v in row) + "\n" for row in pts)
            assert p.read_bytes() == want.encode()

    def test_unsupported_type(self, tmp_path):
        with pytest.raises(TypeError):
            write_csv([1, 2, 3], tmp_path / "x.csv")

    @pytest.mark.parametrize("write, obj", [
        (write_csv, DataMatrix([[1.0, 2.0]])),
        (write_histogram_csv, Histogram(0.5, 0.0, {0: 2, 3: 1}, 3)),
        (write_trails_csv, TrailMatrix((2, 3), [[1.5, 1.25]], "abid", (0,))),
    ])
    def test_an_empty_delimiter_is_rejected_before_the_file_is_opened(self, tmp_path, write, obj):
        p = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="^delimiter must not be empty$"):
            write(obj, p, delimiter="")
        assert not p.exists()

    @pytest.mark.parametrize("write, obj", [
        (write_csv, DataMatrix([[1.0, 2.0]])),
        (write_csv, _table(diagnostics=False)),
        (write_histogram_csv, Histogram(0.5, 0.0, {0: 2, 3: 1}, 3)),
        (write_trails_csv, TrailMatrix((2, 3), [[1.5, 1.25]], "abid", (0,))),
    ])
    @pytest.mark.parametrize("delimiter", ["\n", "\r", "a", "E", "7", ".", "+", "-", "_", ";e"])
    def test_a_delimiter_a_cell_can_hold_is_rejected_before_the_file_is_opened(
            self, tmp_path, write, obj, delimiter):
        p = tmp_path / "x.csv"
        with pytest.raises(ValueError, match=f"^delimiter {re.escape(repr(delimiter))} must not "
                           "contain a line break, an ASCII letter or digit"):
            write(obj, p, delimiter=delimiter)
        assert not p.exists()

    @pytest.mark.parametrize("delimiter", ["|", ":", ";|"])
    def test_the_flags_column_also_rejects_its_own_separators(self, tmp_path, delimiter):
        p = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="must not contain ':' or '[|]' with the flags column$"):
            write_csv(_table(), p, delimiter=delimiter)
        assert not p.exists()
        write_csv(_table(diagnostics=False), p, delimiter=delimiter)
        assert _read_csv(p, delimiter, column="mle").tolist() == [2.0, 3.0]

    @pytest.mark.parametrize("delimiter", [",", ";", "\t", "%", " ", ", "])
    def test_every_line_of_a_table_with_flags_has_the_header_field_count(self, tmp_path,
                                                                          delimiter):
        p = tmp_path / "x.csv"
        write_csv(_table(), p, delimiter=delimiter)
        lines = p.read_text().splitlines()
        assert [line.count(delimiter) for line in lines] == [4] * 3
        assert _read_csv(p, delimiter, column="mle").tolist() == [2.0, 3.0]

    def test_io_error_carries_path(self, tmp_path):
        with pytest.raises(OSError) as exc:
            write_csv(DataMatrix([[1.0]]), tmp_path / "missing_dir" / "x.csv")
        assert "missing_dir" in str(exc.value)


class TestIdEstimate:
    def test_clamp_invariant(self):
        IdEstimate("rabid", 5.0, 5, frozenset({"clamped_to_k"}))
        with pytest.raises(ValueError):
            IdEstimate("rabid", 4.0, 5, frozenset({"clamped_to_k"}))


class TestEstimateTable:
    def test_requires_consistent_estimator_sets(self):
        rows = (
            (0, {"abid": IdEstimate("abid", 2.0, 10)}),
            (1, {"mle": IdEstimate("mle", 2.0, 10)}),
        )
        with pytest.raises(ValueError, match="estimator set"):
            EstimateTable(rows)

    def test_requires_consistent_k(self):
        rows = (
            (0, {"abid": IdEstimate("abid", 2.0, 10)}),
            (1, {"abid": IdEstimate("abid", 2.0, 20)}),
        )
        with pytest.raises(ValueError, match="k="):
            EstimateTable(rows)

    def test_requires_rows(self):
        with pytest.raises(ValueError):
            EstimateTable(())

    def test_values_column(self):
        rows = tuple(
            (i, {"abid": IdEstimate("abid", float(i), 4)}) for i in range(3)
        )
        t = EstimateTable(rows)
        assert t.estimators == ("abid",)
        assert t.k == 4
        assert np.array_equal(t.values("abid"), [0.0, 1.0, 2.0])

    def test_diagnostics_columns(self, tmp_path):
        rows = (
            (0, {"rabid": IdEstimate("rabid", 3.0, 3, frozenset({"clamped_to_k", "degenerate_zero_denominator"}))}),
        )
        t = EstimateTable(rows, mean_cosines=(0.25,))
        p = tmp_path / "d.csv"
        write_csv(t, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "index,rabid,mean_cosine,flags"
        assert lines[1] == "0,3,0.25,rabid:clamped_to_k|rabid:degenerate_zero_denominator"

    def test_columns_and_rows_build_the_same_table(self, tmp_path):
        both = FLAG_BITS[CLAMPED_TO_K] | FLAG_BITS[DEGENERATE_ZERO_DENOMINATOR]
        columns = EstimateTable(
            np.array([4, 2, 9]), np.array([0.5, -0.25, 1 / 3]), k=3,
            values={"rabid": np.array([1.5, 3.0, 3.0]), "mle": np.array([2.0, 3.0, 0.1])},
            flags={"rabid": np.array([0, both, FLAG_BITS[CLAMPED_TO_K]]),
                   "mle": np.array([0, FLAG_BITS[DEGENERATE_ZERO_DENOMINATOR], 0])},
        )
        rows = EstimateTable(columns.rows, columns.mean_cosines)
        assert len(columns) == len(rows) == 3
        assert columns.indices == rows.indices == (4, 2, 9)
        assert columns.estimators == rows.estimators == ("rabid", "mle")
        assert columns.k == rows.k == 3
        assert columns.rows[1][1]["rabid"] == IdEstimate(
            "rabid", 3.0, 3, {CLAMPED_TO_K, DEGENERATE_ZERO_DENOMINATOR})
        for tag in ("rabid", "mle"):
            assert columns.values(tag).tobytes() == rows.values(tag).tobytes()
            assert columns.flags(tag).tolist() == rows.flags(tag).tolist()
        write_csv(columns, tmp_path / "c.csv")
        write_csv(rows, tmp_path / "r.csv")
        assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()
        assert (tmp_path / "c.csv").read_text().splitlines() == [
            "index,rabid,mle,mean_cosine,flags",
            "4,1.5,2,0.5,",
            "2,3,3,-0.25,rabid:clamped_to_k|rabid:degenerate_zero_denominator"
            "|mle:degenerate_zero_denominator",
            "9,3,0.10000000000000001,0.33333333333333331,rabid:clamped_to_k",
        ]

    def test_columns_are_read_only_copies(self):
        rows = ((0, {"abid": IdEstimate("abid", 2.0, 4)}),)
        t = EstimateTable(rows)
        t.values("abid")[0] = 9.0
        assert t.values("abid").tolist() == [2.0]

    def test_rejects_unknown_flags_and_ragged_columns(self):
        with pytest.raises(ValueError, match="unknown flag"):
            EstimateTable(((0, {"mle": IdEstimate("mle", 2.0, 4, {"odd"})}),))
        with pytest.raises(ValueError, match="one entry per row"):
            EstimateTable([0, 1], k=4, values={"mle": [1.0]}, flags={"mle": [0]})
        with pytest.raises(ValueError, match="same estimator tags"):
            EstimateTable([0], k=4, values={"mle": [1.0]}, flags={"mom": [0]})

    @pytest.mark.parametrize("mask", [4, 8, 255, 256, -1, 2**70, 0.5 - 1, np.nan])
    def test_rejects_flag_masks_outside_flag_bits(self, mask):
        with pytest.raises(ValueError, match=f"^flag mask {re.escape(repr(mask))} of mle is not "
                           "a sum of FLAG_BITS"):
            EstimateTable([0, 1], k=4, values={"mle": [1.0, 2.0]}, flags={"mle": [0, mask]})


def _blocks(path, delimiter, skip_header=False):
    """The block parser on ``path``, called directly: the number reader's oracle."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return _parse_blocks(fh, path, delimiter, skip_header)


def _outcome(read, *args):
    """``read(*args)`` as its array's shape and bytes, or its error's type, message and line."""
    try:
        values = read(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return values.shape, values.tobytes()


# Short CSV texts with "," as the delimiter, which the differential test replaces:
# fields from numbers and the characters a bad field may hold, lines of one
# width or ragged, any line break, and a last line with or without one.
_TOKENS = [*"0123456789", ".", "e", "+", "-", "_", " ", "x", "nan", "inf"]
_BREAKS = ["\n", "\r", "\r\n"]


@st.composite
def _midpoint_fields(draw):
    """A decimal of 17-25 significant digits at or beside the midpoint of two float64 neighbors.

    The midpoint is rounded to those digits either way and moved by up to
    one unit in their last place; the pair 0, 5e-324 gives the 2**-1075
    boundary, and the largest finite float64 the overflow threshold. With
    20 or more digits most such fields have a long double on the midpoint.
    """
    low = draw(st.one_of(st.sampled_from([0.0, 5e-324, 2.2250738585072009e-308, 1.0,
                                          1.7976931348623157e308]),
                         st.floats(0.0, 1.7976931348623157e308)))
    high = Fraction(2) ** 1024 if low == sys.float_info.max else Fraction(np.nextafter(low, 2.0))
    mid = (Fraction(low) + high) / 2
    digits = draw(st.integers(17, 25))
    exact = decimal.Decimal(mid.numerator) / mid.denominator
    with decimal.localcontext(decimal.Context(prec=digits, rounding=draw(
            st.sampled_from([decimal.ROUND_DOWN, decimal.ROUND_UP])))) as ctx:
        text = +exact
        text = {-1: ctx.next_minus, 0: ctx.plus, 1: ctx.next_plus}[draw(st.integers(-1, 1))](text)
    return ("-" if draw(st.booleans()) else "") + draw(st.sampled_from([str, "{:e}".format]))(text)


_field = st.one_of(st.integers(-999, 999).map(str), st.floats(-1e6, 1e6).map(repr),
                   st.lists(st.sampled_from(_TOKENS), max_size=4).map("".join),
                   _midpoint_fields())


@st.composite
def _csv_files(draw):
    width = draw(st.integers(1, 3))
    line = st.one_of(st.lists(_field, min_size=width, max_size=width),
                     st.lists(_field, max_size=4)).map(",".join)
    lines = draw(st.lists(line, max_size=6))
    breaks = draw(st.lists(st.sampled_from(_BREAKS), min_size=len(lines), max_size=len(lines)))
    if lines and draw(st.booleans()):
        breaks[-1] = ""
    return "".join(map(str.__add__, lines, breaks))


class TestFastPath:
    """The number reader reads clean matrices; what it declines goes to the block parser."""

    @pytest.mark.parametrize("text, line, message", [
        ("1,2\n\n3,4", 2, "expected 2 fields, found 1"),
        ("1,2\r\n\r\n3,4", 2, "expected 2 fields, found 1"),
        ("1,2\r\r3,4", 2, "expected 2 fields, found 1"),
        ("1,2\n \t\n3,4", 2, "expected 2 fields, found 1"),
        ("1\n  \n3", 2, "non-numeric field '  '"),
        ("\ufeff1,2\n3,4", 1, "non-numeric field '\\ufeff1'"),
        ("1,2\n1e400,4", 2, "non-finite field '1e400'"),
        ("1,2,\n3,4,\n", 1, "non-numeric field ''"),
        ("1,2\n3\x1c,4", 2, "non-numeric field '3\\x1c'"),
    ], ids=["blank-line", "blank-crlf-line", "blank-cr-line", "whitespace-line",
            "whitespace-column-line", "bom", "overflow", "trailing-delimiter", "separator"])
    def test_files_numpy_would_read_differently_keep_their_errors(self, tmp_path, text, line,
                                                                   message):
        # numpy's text parsers skip blank lines and whitespace and strip the
        # separator as whitespace; the number reader declines each file.
        with pytest.raises(CsvFormatError) as exc:
            _read_csv(_write(tmp_path, text), ",")
        assert exc.value.line == line and str(exc.value).endswith(f"line {line}: {message}")

    @pytest.mark.parametrize("text, delimiter, skip_header, want", [
        ("1_0,2\n3,4", ",", False, [[10.0, 2.0], [3.0, 4.0]]),
        ("1;;2\n3;;4\n", ";;", False, [[1.0, 2.0], [3.0, 4.0]]),
        ("1\n2\n3\n", ",", False, [[1.0], [2.0], [3.0]]),
        ("a,b\n1,2\n", ",", True, [[1.0, 2.0]]),
        ("5,6", ",", False, [[5.0, 6.0]]),
        ("1\r2\n3\n", "\r", False, [[1.0], [2.0], [3.0]]),
    ], ids=["underscore", "two-char-delimiter", "one-column", "header", "one-row",
            "line-break-delimiter"])
    def test_matrices(self, tmp_path, text, delimiter, skip_header, want):
        values = _read_csv(_write(tmp_path, text), delimiter, skip_header)
        assert values.shape == np.shape(want) and np.array_equal(values, want)

    @pytest.mark.parametrize("text, skip_header", [("", False), ("a,b\n", True)])
    def test_a_file_without_data_rows_raises_and_warns_nothing(self, tmp_path, text, skip_header):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvFormatError, match="no data rows"):
                _read_csv(_write(tmp_path, text), ",", skip_header)

    @pytest.mark.parametrize("text, kwargs, want, readers", [
        ("1,2\n3,4\n", {}, [[1, 2], [3, 4]], ["_read_matrix"]),
        ("1,2\r3,4", {}, [[1, 2], [3, 4]], ["_read_matrix"]),
        ("\n1,2\r\n3,4", {"skip_header": True}, [[1, 2], [3, 4]], ["_read_matrix"]),
        ("1_0,2\n3,4\n", {}, [[10, 2], [3, 4]], ["_read_matrix", "_parse_blocks"]),
        ("1,2\n\n", {}, "line 2: expected 2 fields, found 1", ["_read_matrix", "_parse_blocks"]),
        ("\n1,2", {}, "line 1: non-numeric field ''", ["_read_matrix", "_parse_blocks"]),
        ("1\x1c,2", {}, "line 1: non-numeric field '1\\x1c'", ["_read_matrix", "_parse_blocks"]),
        ("a,b\n1,2\n", {"column": "b"}, [2], ["_parse_blocks"]),
        ("1,2\r\n3,4\r\n", {}, [[1, 2], [3, 4]], ["_read_matrix"]),
        ("1\t2\n3\t4\n", {"delimiter": "\t"}, [[1, 2], [3, 4]], ["_read_matrix"]),
        ("0x10,2\n", {}, "line 1: non-numeric field '0x10'", ["_read_matrix", "_parse_blocks"]),
        ("1,2\n1e400,4", {}, "line 2: non-finite field '1e400'", ["_read_matrix", "_parse_blocks"]),
        # Above 1 + 2**-53 by 5e-25: its long double is that float64 midpoint, which
        # rounds to even, 1.0; ``float`` reads 1 + 2**-52.
        ("1.000000000000000111022303,2\n", {}, [[1 + 2**-52, 2]], ["_read_matrix"]),
        ("1,2\n3,\xff\n", {}, "line 2: non-UTF-8 byte 0xff", ["_read_matrix", "_parse_blocks"]),
    ], ids=["clean", "cr-no-final-break", "blank-header", "underscore", "blank-line",
            "blank-first-line", "separator", "column", "crlf", "tab", "hex", "overflow",
            "midpoint", "non-utf8"])
    def test_clean_files_go_through_the_number_reader_and_the_rest_through_the_block_parser(
            self, tmp_path, monkeypatch, text, kwargs, want, readers):
        calls = []
        for name in ["_read_matrix", "_parse_blocks"]:
            def spy(*args, _real=getattr(core, name), _name=name, **kw):
                calls.append(_name)
                return _real(*args, **kw)
            monkeypatch.setattr(core, name, spy)
        kwargs = {"delimiter": ",", **kwargs}
        p = tmp_path / "data.csv"
        p.write_bytes(text.encode("latin-1"))
        if isinstance(want, str):
            with pytest.raises(CsvFormatError) as exc:
                _read_csv(p, **kwargs)
            assert str(exc.value).endswith(want)
        else:
            assert _read_csv(p, **kwargs).tolist() == want
        assert calls == readers

    @pytest.mark.parametrize("threads", [1, 2])
    def test_the_number_reader_keeps_crlf_and_cr_files_at_any_block_size(self, tmp_path,
                                                                          threads):
        text = b"h,\xce\xb1\r\n1,-2.5\r\n3e2,4\r\n5,.5\r6,7\r\n"
        p = tmp_path / "d.csv"
        p.write_bytes(text)
        for size in range(1, len(text) + 1):
            with mock.patch.object(core, "_CSV_BYTES", size), open(p, "rb") as raw:
                values = core._read_matrix(raw, ",", True, threads)
            assert values is not None, size
            assert values.tolist() == [[1, -2.5], [300, 4], [5, 0.5], [6, 7]], size

    def test_load_csv_keeps_the_readers_array_read_only(self, tmp_path, monkeypatch):
        made = []

        def read(*args, threads):
            made.append(_read_csv(*args, threads=threads))
            return made[-1]

        monkeypatch.setattr(core, "_read_csv", read)
        m = load_csv(_write(tmp_path, "1,2\n3,4\n"))
        assert m.points is made[0] and not m.points.flags.writeable

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @settings(max_examples=200, deadline=None)
    @given(text=_csv_files(), delimiter=st.sampled_from([",", ";", "\t", " ", "-", ";;"]),
           skip_header=st.booleans(), block_bytes=st.integers(1, 40))
    @example(text="1,2\n\n3,4", delimiter=",", skip_header=False, block_bytes=40)
    @example(text="2.470328229206232720882844e-324,1\r\n2.470328229206232720882843e-324,2\r",
             delimiter=",", skip_header=False, block_bytes=3)  # 2**-1075 by either side
    def test_the_one_reader_equals_the_block_parser(self, tmp_path_factory, threads, text,
                                                    delimiter, skip_header, block_bytes):
        p = tmp_path_factory.mktemp("diff") / "d.csv"
        p.write_bytes(text.replace(",", delimiter).encode())
        with warnings.catch_warnings(record=True) as caught, \
                mock.patch.object(core, "_CSV_BYTES", block_bytes):
            warnings.simplefilter("always")
            got = _outcome(_read_csv, p, delimiter, skip_header, None, threads)
        assert not caught
        assert got == _outcome(_blocks, p, delimiter, skip_header)

    # Decimals on which a long double parse is easy to get wrong: beside
    # float64 and long double midpoints, at the 2**-1075 and overflow
    # boundaries, the subnormal range, and long or odd spellings.
    _HARD = ["1.000000000000000111022303", "1.000000000000000111022302",
             "2.470328229206232720882844e-324", "2.470328229206232720882843e-324",
             "2.4703282292062327208828439643e-324", "4.9406564584124654e-324",
             "2.2250738585072011e-308", "2.2250738585072012e-308", "2.225073858507201136e-308",
             "1.7976931348623158e308", "1.797693134862315807937289714e308",
             "9007199254740993", "9007199254740993.000000001", "18446744073709551617",
             "36893488147419103231", "36893488147419103233", "1e23", "8.5e-323", "0.1",
             "7.0420557077594588669468784357561207962098443483187940792729600000e59",
             "1.00000000000000000000000000000000000000000001", "-0", ".5e-3", "5.E+2",
             "000000000000000000000000000000012345678901234567890e-30"]

    @pytest.mark.parametrize("text", _HARD)
    def test_numpy_reads_a_long_double_as_the_decimal_rounds_it(self, tmp_path, text):
        # Pinned on the running numpy and libc: the number reader is exact
        # only if numpy's long double parse is correctly rounded.
        (x,) = np.fromstring(text.encode(), dtype=np.longdouble, sep=",")
        exact = Fraction(decimal.Decimal(text))
        got = Fraction(*x.as_integer_ratio())
        for side in (-np.inf, np.inf):
            other = Fraction(*np.nextafter(x, np.longdouble(side)).as_integer_ratio())
            assert abs(exact - got) <= abs(exact - other), (text, side)
        assert _read_csv(_write(tmp_path, text), ",").tobytes() == np.float64(float(text)).tobytes()

    def test_a_midpoint_field_is_read_again_by_float(self, tmp_path, monkeypatch):
        reads = []
        monkeypatch.setattr(core, "float", lambda b: reads.append(b) or float(b), raising=False)
        text = "1.000000000000000111022303,2.470328229206232720882844e-324,3\n" * 2
        values = _read_csv(_write(tmp_path, text), ",")
        assert values.tolist() == [[1 + 2**-52, 5e-324, 3.0]] * 2
        assert sorted(reads) == sorted([b"1.000000000000000111022303",
                                        b"2.470328229206232720882844e-324"] * 2)


class TestThreadMap:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_results_come_in_order_and_items_are_taken_at_most_threads_plus_one_ahead(
            self, threads):
        taken = []

        def items():
            for i in range(12):
                taken.append(i)
                yield i

        results = core._thread_map(lambda i: i * i, items(), threads)
        assert next(results) == 0
        assert len(taken) <= threads + 1
        assert [0, *results] == [i * i for i in range(12)]

    @pytest.mark.parametrize("threads", [1, 3])
    def test_the_first_failing_item_in_order_raises(self, threads):
        def check(i):
            if i in (4, 2):
                time.sleep(0.05 if i == 2 else 0)
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match="^item 2$"):
            list(core._thread_map(check, range(8), threads))


# Finite float64 values, with the edge cases that a 17-digit format must
# keep apart: signed zeros, subnormals and the largest magnitudes.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
          -1.7976931348623157e308]
_finite = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False))
_matrices = arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 6)), elements=_finite)
_delimiters = st.sampled_from([",", ";", "\t", "%", "|"])


def _join(rows, delimiter):
    return "".join(delimiter.join(row) + "\n" for row in rows).encode()


class TestCsvProperties:
    @settings(max_examples=150, deadline=None)
    @given(m=_matrices, delimiter=_delimiters)
    @example(m=np.array([_EDGES]), delimiter=",")
    def test_matrix_round_trip_is_bit_exact(self, tmp_path_factory, m, delimiter):
        p = tmp_path_factory.mktemp("rt") / "m.csv"
        write_csv(DataMatrix(m), p, delimiter=delimiter)
        assert load_csv(p, delimiter=delimiter).points.tobytes() == m.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(m=_matrices, delimiter=_delimiters, data=st.data())
    def test_trails_bytes(self, tmp_path_factory, m, delimiter, data):
        n, nk = m.shape
        ks = sorted(data.draw(st.sets(st.integers(1, 10**4), min_size=nk, max_size=nk)))
        idx = data.draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n, unique=True))
        p = tmp_path_factory.mktemp("tr") / "t.csv"
        write_trails_csv(TrailMatrix(ks, m, "abid", idx), p, delimiter=delimiter)
        want = [["index"] + [f"k{k}" for k in ks]]
        want += [[str(i)] + ["%.17g" % v for v in row] for i, row in zip(idx, m)]
        assert p.read_bytes() == _join(want, delimiter)

    @settings(max_examples=60, deadline=None)
    @given(origin=st.one_of(st.sampled_from(_EDGES[:5]), st.floats(-1e6, 1e6)), width=st.floats(1e-3, 1e3), delimiter=_delimiters,
           counts=st.dictionaries(st.integers(-10**6, 10**6), st.integers(1, 10**12),
                                  min_size=1, max_size=30))
    def test_histogram_bytes(self, tmp_path_factory, origin, width, delimiter, counts):
        p = tmp_path_factory.mktemp("h") / "h.csv"
        write_histogram_csv(Histogram(width, origin, counts, sum(counts.values())), p,
                            delimiter=delimiter)
        want = [["bin_left", "count"]]
        want += [["%.17g" % (origin + b * width), str(counts[b])] for b in sorted(counts)]
        assert p.read_bytes() == _join(want, delimiter)


# Each public container, built from a view of a larger array: (build, input, what it keeps).
_CONTAINERS = {
    "DataMatrix": (DataMatrix, [[1.0, 2.0], [3.0, 4.0]], lambda m: m.points),
    "NeighborList.indices": (lambda a: NeighborList(0, a, [1.0, 2.0]), [3, 1],
                             lambda nl: nl.indices),
    "NeighborList.distances": (lambda a: NeighborList(0, [3, 1], a), [1.0, 2.0],
                               lambda nl: nl.distances),
    "DirectionBundle": (lambda a: DirectionBundle(a, 2), [[0.6, 0.8], [1.0, 0.0]],
                        lambda b: b.directions),
    "TrailMatrix": (lambda a: TrailMatrix((2, 3), a, "abid", (0,)), [[1.5, 1.25]],
                    lambda tm: tm.estimates),
    "EstimateTable": (lambda a: EstimateTable([0, 1], k=3, values={"mle": a},
                                              flags={"mle": [0, 0]}),
                      [2.0, 3.0], lambda t: t.values("mle")),
}


@pytest.mark.parametrize("build, values, kept", _CONTAINERS.values(), ids=list(_CONTAINERS))
def test_containers_keep_a_read_only_copy_and_leave_the_callers_array_writable(build, values,
                                                                               kept):
    base = np.concatenate([np.array(values)] * 2)
    view = base[:len(values)]
    obj = build(view)
    want = kept(obj).tobytes()
    assert view.flags.writeable and not np.shares_memory(kept(obj), base)
    base[...] = 5
    assert kept(obj).tobytes() == want
