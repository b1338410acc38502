import numpy as np
import pytest

from angleid.core import (
    CLAMPED_TO_K,
    DEGENERATE_ZERO_DENOMINATOR,
    FLAG_BITS,
    CsvFormatError,
    DataMatrix,
    EstimateTable,
    IdEstimate,
    load_csv,
    write_csv,
)


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


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

    def test_custom_delimiter(self, tmp_path):
        m = load_csv(_write(tmp_path, "1;2\n3;4\n"), delimiter=";")
        assert m.points[1, 1] == 4.0


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
