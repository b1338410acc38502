import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angleid import analysis, angle_id, baseline_id, neighbors
from angleid.analysis import (
    Histogram,
    TrailMatrix,
    histogram,
    pearson,
    spearman,
    trails,
    write_histogram_csv,
    write_trails_csv,
)
from angleid.angle_id import estimate_table
from angleid.core import (ESTIMATOR_TAGS, MIN_K, DataMatrix, DegenerateInputError,
                          _check_ged_pair, _integers)
from angleid.neighbors import direction_bundle, knn
from angleid.synth import sample_ball


class TestHistogram:
    def test_enumerated_example(self):
        h = histogram([1.0, 1.05, 2.0], bin_width=0.5)
        assert h.counts == {2: 2, 4: 1}
        assert h.n_total == 3

    def test_counts_always_sum_to_input_length(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            values = rng.standard_normal(int(rng.integers(1, 400)))
            h = histogram(values, bin_width=0.3, origin=-1.0)
            assert sum(h.counts.values()) == values.size == h.n_total

    def test_negative_values_bin_below_origin(self):
        h = histogram([-0.1, 0.1], bin_width=0.5)
        assert h.counts == {-1: 1, 0: 1}

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            histogram([], bin_width=0.5)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            histogram([1.0], bin_width=0.0)

    @pytest.mark.parametrize("width", [-1.0, np.nan, np.inf])
    def test_non_finite_or_negative_width_rejected(self, width):
        with pytest.raises(ValueError, match="bin_width"):
            histogram([1.0], bin_width=width)

    @pytest.mark.parametrize("origin", [np.nan, np.inf, -np.inf])
    def test_non_finite_origin_rejected(self, origin):
        with pytest.raises(ValueError, match="origin"):
            histogram([1.0], bin_width=0.5, origin=origin)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            histogram([bad, 1.0], bin_width=0.5)

    @pytest.mark.parametrize("values, width, origin", [
        ([1e300, 1.0], 1e-10, 0.0),
        ([-1e300, 1.0], 1e-10, 0.0),
        ([1.0, 2.0], 1e-300, 0.0),
        ([1e308], 0.5, -1e308),
    ])
    def test_bin_index_beyond_int64_rejected(self, values, width, origin):
        with pytest.raises(ValueError, match="does not fit in int64"):
            histogram(values, bin_width=width, origin=origin)

    def test_bin_indices_at_the_int64_ends_are_kept(self):
        h = histogram([-2.0**63, 2.0**62], bin_width=1.0)
        assert h.counts == {-2**63: 1, 2**62: 1}

    def test_mode_tie_resolves_to_lowest_bin(self):
        h = histogram([0.1, 1.1], bin_width=1.0)
        assert h.mode_bin() == 0
        assert h.mode_center() == 0.5

    def test_ball_abid_mode_near_three(self):
        """abid histogram on a 3-ball sample peaks at the bin holding 3.0."""
        data = sample_ball(5000, 3, seed=42)
        table = estimate_table(data, 100, estimators=("abid",))
        h = histogram(table.values("abid"), bin_width=0.25)
        assert abs(h.mode_bin() - h.bin_of(3.0)) <= 1

    def test_csv_output(self, tmp_path):
        h = histogram([1.0, 1.05, 2.0], bin_width=0.5)
        p = tmp_path / "h.csv"
        write_histogram_csv(h, p)
        assert p.read_text() == "bin_left,count\n1,2\n2,1\n"


class TestTrails:
    def test_single_k_equals_estimate_column(self):
        data = sample_ball(120, 2, seed=1)
        tm = trails(data, [15], "abid")
        table = estimate_table(data, 15, estimators=("abid",))
        assert np.array_equal(tm.column(15), table.values("abid"))

    def test_line_data_stays_near_one(self):
        t = np.linspace(0.0, 1.0, 200)
        data = DataMatrix(np.column_stack([t, 0.5 * t]))
        tm = trails(data, [10, 20, 40], "abid")
        assert np.all(tm.estimates >= 0.9)
        assert np.all(tm.estimates <= 1.2)

    def test_ball_trails_are_stable(self):
        """Per-point abid varies little across k on a 4-ball sample."""
        data = sample_ball(2000, 4, seed=2)
        tm = trails(data, range(100, 301, 50), "abid", point_subset=range(40))
        means = tm.estimates.mean(axis=1)
        stds = tm.estimates.std(axis=1)
        assert np.all(stds < 0.2 * means)

    def test_distance_estimator_trails(self):
        data = sample_ball(300, 3, seed=3)
        tm = trails(data, [10, 30], "mle", point_subset=range(10))
        assert tm.estimates.shape == (10, 2)
        assert np.all(tm.estimates > 0)

    def test_threads_do_not_change_results(self):
        data = sample_ball(150, 3, seed=4)
        a = trails(data, [10, 20], "abid", threads=1)
        b = trails(data, [10, 20], "abid", threads=3)
        assert np.array_equal(a.estimates, b.estimates)

    def test_k_values_must_increase(self):
        with pytest.raises(ValueError):
            TrailMatrix((10, 10), np.zeros((1, 2)), "abid", (0,))

    @pytest.mark.parametrize("shape", [(2, 2), (1, 3), (2,)])
    def test_estimates_must_be_points_by_k_values(self, shape):
        with pytest.raises(ValueError, match=r"^estimates must be \(n_points, n_k\)$"):
            TrailMatrix((5, 9), np.zeros(shape), "abid", (3,))

    def test_column_of_a_missing_k_names_it_and_the_k_values(self):
        tm = TrailMatrix((10, 20), np.array([[1.5, 2.5]]), "abid", (3,))
        assert tm.column(20).tolist() == [2.5]
        with pytest.raises(ValueError, match=r"^k = 15 is not among the trail's k values \(10, 20\)$"):
            tm.column(15)

    def test_column_takes_k_by_the_integer_rule(self):
        # Bools and floats are refused with the rule's message (test_integer_rule.py).
        tm = TrailMatrix((1, 2, 3, 10, 20), np.arange(5.0)[None], "abid", (3,))
        for k in (True, 2.0, np.float64(10)):
            with pytest.raises(ValueError, match=r"^k must be a positive integer, got "):
                tm.column(k)
        for k in (10, np.int64(10), np.int32(10), np.uint8(10)):
            assert tm.column(k).tolist() == [3.0]
        with pytest.raises(ValueError, match=r"^k = np\.int64\(15\) is not among the trail's"):
            tm.column(np.int64(15))

    def test_csv_output(self, tmp_path):
        tm = TrailMatrix((5, 9), np.array([[1.5, 2.5]]), "abid", (3,))
        p = tmp_path / "t.csv"
        write_trails_csv(tm, p)
        assert p.read_text() == "index,k5,k9\n3,1.5,2.5\n"


class TestTrustedTrailMatrix:
    """``trails`` adopts its fresh arrays and checked tuples (``core._adopt``)."""

    @pytest.mark.parametrize("tag", ["abid", "mle"])
    @pytest.mark.parametrize("subset", [None, [7, 3, 3, 40]])
    def test_trails_keep_their_estimates_read_only_and_unshared(self, tag, subset):
        data = sample_ball(60, 4, seed=12)
        tm = trails(data, np.arange(5, 21), tag, point_subset=subset)
        est = tm.estimates
        assert not est.flags.writeable and est.dtype == np.float64
        with pytest.raises(ValueError):
            est[0, 0] = 1.0
        held = list(vars(neighbors._local).values())
        if data._neighbors is not None:
            held += list(data._neighbors[1:])
        assert not any(np.shares_memory(est, buf) for buf in held)
        for values in (tm.k_values, tm.point_indices):
            assert type(values) is tuple and all(type(v) is int for v in values)
        assert tm.k_values == tuple(range(5, 21))
        assert tm.point_indices == tuple(range(60) if subset is None else subset)

    def test_trails_csv_bytes_equal_a_user_built_matrix(self, tmp_path):
        data = sample_ball(60, 4, seed=13)
        tm = trails(data, [5, 8, 13, 21], "abid", point_subset=[2, 9, 31])
        user = TrailMatrix(list(tm.k_values), tm.estimates.tolist(), tm.estimator,
                           list(tm.point_indices))
        write_trails_csv(tm, tmp_path / "a.csv")
        write_trails_csv(user, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_a_user_built_matrix_keeps_every_check(self):
        est = np.zeros((1, 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            TrailMatrix((20, 10), est, "abid", (0,))
        with pytest.raises(ValueError, match=r"^estimates must be \(n_points, n_k\)$"):
            TrailMatrix((10, 20), est, "abid", (0, 1))
        tm = TrailMatrix((10, 20), est, "abid", (0,))
        assert not tm.estimates.flags.writeable and not np.shares_memory(tm.estimates, est)


def _grid_with_duplicates() -> DataMatrix:
    """A 5x5x5 integer grid, so distances tie, plus exact copies of every 7th point."""
    axes = np.meshgrid(*[np.arange(5.0)] * 3, indexing="ij")
    grid = np.stack(axes, axis=-1).reshape(-1, 3)
    return DataMatrix(np.vstack([grid, grid[::7]]))


# A ball in D = 8, so the k values below run both sides of the Gram
# identity (k < D and k >= D), and a grid with duplicates and ties.
TRAIL_DATA = {"ball": lambda: sample_ball(160, 8, seed=5), "grid": _grid_with_duplicates}
K_MAX = 40


def _public_estimate(data, point, nl, tag):
    """One estimate through the public, validated per-neighborhood functions."""
    if tag in ("abid", "rabid"):
        stats = angle_id.cosine_square_stats(direction_bundle(data, point, nl))
        return getattr(angle_id, tag)(stats)
    return {"mle": baseline_id.mle_hill, "mom": baseline_id.mom, "ged": baseline_id.ged}[tag](nl)


@pytest.mark.filterwarnings("ignore::angleid.angle_id.NeighborhoodSizeWarning")
class TestTrailContract:
    """Every-k trails are bitwise the per-k tables and the per-k public estimators."""

    @pytest.mark.parametrize("name", sorted(TRAIL_DATA))
    @pytest.mark.parametrize("tag", ESTIMATOR_TAGS)
    def test_every_k_equals_estimate_table(self, name, tag):
        data = TRAIL_DATA[name]()
        points = list(range(0, data.n, 9))
        ks = range(MIN_K[tag], K_MAX + 1)
        tm = trails(data, ks, tag, point_subset=points)
        for k in ks:
            table = estimate_table(data, k, (tag,), queries=points)
            assert tm.column(k).tobytes() == table.values(tag).tobytes(), k

    @pytest.mark.parametrize("name", sorted(TRAIL_DATA))
    @pytest.mark.parametrize("tag", ESTIMATOR_TAGS)
    def test_every_k_equals_public_estimators_on_knn_prefixes(self, name, tag):
        data = TRAIL_DATA[name]()
        points = list(range(3, data.n, 17))
        ks = range(MIN_K[tag], K_MAX + 1)
        tm = trails(data, ks, tag, point_subset=points)
        for row, point in zip(tm.estimates, points):
            nl = knn(data, point, K_MAX)
            want = np.array([_public_estimate(data, point, nl.prefix(k), tag).value for k in ks])
            assert row.tobytes() == want.tobytes(), point

    def test_ged_pair_trails_equal_public_ged(self):
        data = _grid_with_duplicates()
        tm = trails(data, [20, 25, 30], "ged", point_subset=[0, 64], ged_pair=(5, 20))
        for row, point in zip(tm.estimates, (0, 64)):
            nl = knn(data, point, 30)
            want = [baseline_id.ged(nl.prefix(k), pair=(5, 20)).value for k in (20, 25, 30)]
            assert row.tolist() == want

    @pytest.mark.parametrize("name", sorted(TRAIL_DATA))
    def test_csv_bytes_do_not_depend_on_threads(self, tmp_path, monkeypatch, name):
        data = TRAIL_DATA[name]()
        # Kernel blocks of 4 queries within each thread's block of queries.
        monkeypatch.setattr(neighbors, "_block", lambda n, stride, rank, dim, queries: (4, n))
        points = list(range(0, data.n, 5))
        for tag in ESTIMATOR_TAGS:
            files = set()
            for threads in (1, 2, 3):
                tm = trails(data, range(MIN_K[tag], K_MAX + 1), tag, point_subset=points,
                            threads=threads)
                write_trails_csv(tm, tmp_path / "t.csv")
                files.add((tmp_path / "t.csv").read_bytes())
            assert len(files) == 1, tag


class TestTrailKValues:
    @pytest.mark.parametrize("k_values, match", [
        ([0, 10], "k values must be >= 1"),
        ([-3], "k values must be >= 1"),
        ([10, 10], "k values must be distinct"),
        ([10.5, 20], "k values must be integers"),
        ([10.0, 20], "k values must be integers"),
        (["10"], "k values must be integers"),
        ([], "non-empty"),
        ([True, 2], "k values must be integers"),
        ([np.True_, 2], "k values must be integers"),
    ])
    def test_bad_k_lists_fail_before_any_search(self, no_search, k_values, match):
        with pytest.raises(ValueError, match=match):
            trails(sample_ball(300, 3, seed=1), k_values, "abid")

    @pytest.mark.parametrize("tag", ["rabid", "mle", "mom", "ged"])
    def test_k_below_the_estimator_minimum_names_the_estimator(self, no_search, tag):
        need = MIN_K[tag]
        with pytest.raises(ValueError, match=f"^estimator {tag} needs k >= {need}, got k = {need - 1}$"):
            trails(sample_ball(300, 3, seed=1), [need - 1, 8], tag)

    def test_ged_pair_sets_the_minimum_k(self, no_search):
        data = sample_ball(300, 3, seed=1)
        with pytest.raises(ValueError, match=r"ged_pair \(5, 20\) needs k >= 20, got k = 10"):
            trails(data, [10, 30], "ged", ged_pair=(5, 20))
        with pytest.raises(ValueError, match="ged_pair needs 1 <= k1 < k2"):
            trails(data, [10, 30], "ged", ged_pair=(20, 5))

    @pytest.mark.parametrize("tag", ["abid", "mle"])
    def test_a_bad_ged_pair_fails_before_any_search_whatever_the_estimator(self, no_search,
                                                                          tag):
        data = sample_ball(300, 3, seed=1)
        with pytest.raises(ValueError, match=r"^ged_pair needs 1 <= k1 < k2, got \(5, 3\)$"):
            trails(data, [10, 30], tag, ged_pair=(5, 3))
        with pytest.raises(ValueError, match=r"^ged_pair \(5, 20\) needs k >= 20, got k = 10$"):
            trails(data, [10, 30], tag, ged_pair=(5, 20))

    def test_empty_point_subset_or_bad_threads_fail_before_any_search(self, no_search):
        data = sample_ball(300, 3, seed=1)
        with pytest.raises(ValueError, match="point_subset is empty"):
            trails(data, [5, 10], "abid", point_subset=[])
        for threads in (0, -4):
            with pytest.raises(ValueError, match="threads must be a positive integer"):
                trails(data, [5, 10], "abid", threads=threads)

    def test_unsorted_k_values_are_sorted(self):
        data = sample_ball(100, 2, seed=2)
        tm = trails(data, [20, 10], "abid", point_subset=[0])
        assert tm.k_values == (10, 20)


def _sorted_checked_k_values(k_values, estimators, ged_pair=None) -> list[int]:
    """The oracle of ``analysis._check_k_values``: its rules as first written, one pass each."""
    values = list(k_values)
    try:
        ks = sorted(_integers(values))
    except TypeError:
        raise ValueError(f"k values must be integers, got {values!r}") from None
    if not ks:
        raise ValueError("k_values must be non-empty")
    if ks[0] < 1:
        raise ValueError(f"k values must be >= 1, got {ks[0]}")
    if not all(map(operator.lt, ks, ks[1:])):  # sorted: a step that does not rise repeats
        raise ValueError(f"k values must be distinct, got {ks}")
    _check_ged_pair(ged_pair, ks[0])
    for tag in estimators:
        if ks[0] < MIN_K[tag]:
            raise ValueError(f"estimator {tag} needs k >= {MIN_K[tag]}, got k = {ks[0]}")
    return ks


_K_ITEMS = st.one_of(
    st.integers(-3, 12),
    st.integers(-3, 12).map(np.int64),
    st.integers(0, 12).map(np.int32),
    st.booleans(),
    st.sampled_from([np.True_, np.False_, 2.0, np.float64(3.0), 4.5, "5", None]),
)


def _k_collections():
    """Lists and tuples of mixed items, ranges, and numpy int, bool and float arrays."""
    ints = st.lists(st.integers(-3, 12), max_size=8)
    return st.one_of(
        st.lists(_K_ITEMS, max_size=8),
        st.lists(_K_ITEMS, max_size=8).map(tuple),
        st.builds(range, st.integers(-2, 12), st.integers(-2, 30), st.sampled_from([1, 2, 3, -1])),
        ints.map(lambda v: np.array(v, dtype=np.int64)),
        ints.map(lambda v: np.array(v, dtype=np.int32)),
        st.lists(st.booleans(), max_size=4).map(np.array),
        ints.map(lambda v: np.array(v, dtype=np.float64)),
    )


@settings(max_examples=400, deadline=None)
@given(k_values=_k_collections(),
       estimators=st.lists(st.sampled_from(ESTIMATOR_TAGS), unique=True, max_size=3),
       ged_pair=st.one_of(st.none(), st.tuples(st.integers(-1, 12), st.integers(-1, 12)),
                          st.just((2.5, 4)), st.just((True, 3))))
def test_check_k_values_keeps_the_rules_and_messages_of_its_oracle(k_values, estimators,
                                                                    ged_pair):
    # The same sorted list, or the same error type and message.
    try:
        want = _sorted_checked_k_values(k_values, estimators, ged_pair)
    except Exception as error:  # noqa: BLE001 - the error itself is compared
        with pytest.raises(type(error)) as got:
            analysis._check_k_values(k_values, estimators, ged_pair)
        assert str(got.value) == str(error)
    else:
        got = analysis._check_k_values(k_values, estimators, ged_pair)
        assert got == want and all(type(k) is int for k in got)


class TestCorrelations:
    def test_identical_series(self):
        a = np.array([0.3, 1.2, 5.0, 2.2])
        assert pearson(a, a) == 1.0
        assert spearman(a, a) == 1.0

    def test_negated_series(self):
        a = np.array([0.3, 1.2, 5.0, 2.2])
        assert pearson(a, -a) == -1.0
        assert spearman(a, -a) == -1.0

    def test_monotone_nonlinear(self):
        a = [1.0, 2.0, 3.0]
        b = [1.0, 4.0, 9.0]
        assert spearman(a, b) == 1.0
        # Frozen from the closed form 8 / (sqrt(2) * sqrt(294/9)); agrees
        # with np.corrcoef as an independent cross-check.
        assert pearson(a, b) == pytest.approx(0.9897433186107870, abs=1e-12)
        assert pearson(a, b) == pytest.approx(np.corrcoef(a, b)[0, 1], abs=1e-12)

    def test_spearman_averages_ties(self):
        # Ranks of a are (1, 2.5, 2.5, 4); frozen from hand computation.
        r = spearman([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        assert r == pytest.approx(0.9486832980505138, abs=1e-12)

    def test_constant_input_undefined(self):
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInputError):
            spearman([1.0, 2.0], [5.0, 5.0])

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
    def test_extreme_finite_scales(self, scale):
        a = np.array([1.0, 2.0, 3.0])
        want = pearson(a, [1.0, 2.0, 4.0])
        assert pearson(a * scale, [1.0, 2.0, 4.0]) == pytest.approx(want, abs=1e-12)
        assert pearson([1.0, 2.0, 4.0], a * scale) == pytest.approx(want, abs=1e-12)
        assert pearson(a * scale, a * scale) == 1.0
        assert pearson(a * scale, -a * scale) == -1.0
        with pytest.raises(DegenerateInputError):
            pearson([scale] * 3, a)

    def test_all_zero_input_undefined(self):
        with pytest.raises(DegenerateInputError):
            pearson([0.0, 0.0, -0.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn", [pearson, spearman])
    def test_non_finite_values_are_rejected(self, fn, bad):
        good = [1.0, 2.0, 4.0]
        for a, b in (([1.0, bad, 3.0], good), (good, [1.0, bad, 3.0])):
            with pytest.raises(ValueError, match="^cannot correlate non-finite values$"):
                fn(a, b)

    def test_length_checks(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            pearson([1.0], [1.0])
