import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angleid import analysis, angle_id, neighbors, synth
from angleid.core import ESTIMATOR_TAGS, DataMatrix, InsufficientNeighborsError, write_csv
from angleid.neighbors import (
    DirectionBundle,
    NeighborList,
    _sorted_candidates,
    direction_bundle,
    knn,
    knn_many,
    radius_neighbors,
)


def _brute_force(points, q, exclude_index=None):
    """Independent oracle: full pairwise-distance sort in plain Python."""
    scored = []
    for i, p in enumerate(points):
        if i == exclude_index:
            continue
        d = math.dist(p, q)
        if d == 0.0:
            continue
        scored.append((d, i))
    scored.sort()
    return scored


class TestKnn:
    def test_line_example(self):
        data = DataMatrix([[0.0], [1.0], [2.0], [10.0]])
        nl = knn(data, 0, 2)
        assert list(nl.indices) == [1, 2]
        assert list(nl.distances) == [1.0, 2.0]

    def test_duplicates_of_query_are_skipped(self):
        data = DataMatrix([[0.0], [0.0], [1.0]])
        nl = knn(data, 0, 1)
        assert list(nl.indices) == [2]
        assert list(nl.distances) == [1.0]

    def test_insufficient_neighbors_carries_count(self):
        data = DataMatrix([[0.0], [0.0], [1.0]])
        with pytest.raises(InsufficientNeighborsError) as exc:
            knn(data, 0, 2)
        assert exc.value.available == 1
        assert exc.value.required == 2

    @pytest.mark.parametrize("k", [1, 5, 50])
    def test_matches_brute_force_oracle(self, k):
        rng = np.random.default_rng(7)
        data = DataMatrix(rng.standard_normal((200, 3)))
        for q in range(data.n):
            nl = knn(data, q, k)
            expect = _brute_force(data.points, data.points[q], exclude_index=q)[:k]
            assert list(nl.indices) == [i for _, i in expect]
            # math.dist rounds differently in the last ulp than the
            # vectorized sqrt-of-squares; selection order is what matters.
            assert list(nl.distances) == pytest.approx([d for d, _ in expect], rel=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_prefix_property(self, seed):
        rng = np.random.default_rng(seed)
        data = DataMatrix(rng.standard_normal((80, 2)))
        for k in (1, 3, 10, 40):
            a = knn(data, 5, k)
            b = knn(data, 5, k + 1)
            assert list(b.indices[:k]) == list(a.indices)

    def test_ties_broken_by_ascending_index(self):
        # Four points equidistant from the center; order must be by index.
        data = DataMatrix([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        nl = knn(data, 0, 4)
        assert list(nl.indices) == [1, 2, 3, 4]

    def test_external_query_vector(self):
        data = DataMatrix([[0.0, 0.0], [2.0, 0.0]])
        nl = knn(data, np.array([0.5, 0.0]), 2)
        assert nl.query_index is None
        assert list(nl.indices) == [0, 1]
        assert list(nl.distances) == [0.5, 1.5]

    def test_external_query_coinciding_with_point_excludes_it(self):
        data = DataMatrix([[0.0], [1.0]])
        nl = knn(data, np.array([0.0]), 1)
        assert list(nl.indices) == [1]

    def test_invalid_k(self):
        data = DataMatrix([[0.0], [1.0]])
        with pytest.raises(ValueError):
            knn(data, 0, 0)

    def test_query_index_out_of_range(self):
        data = DataMatrix([[0.0], [1.0]])
        with pytest.raises(IndexError):
            knn(data, 2, 1)


class TestRadiusNeighbors:
    def test_inclusive_radius(self):
        data = DataMatrix([[0.0], [1.0], [2.0], [3.0]])
        nl = radius_neighbors(data, 0, 2.0)
        assert list(nl.indices) == [1, 2]

    def test_empty_result_allowed(self):
        data = DataMatrix([[0.0], [5.0]])
        nl = radius_neighbors(data, 0, 1.0)
        assert nl.k == 0

    def test_agrees_with_knn_ordering(self):
        rng = np.random.default_rng(3)
        data = DataMatrix(rng.standard_normal((50, 2)))
        full = knn(data, 0, 49)
        r = float(full.distances[9])
        nl = radius_neighbors(data, 0, r)
        assert list(nl.indices) == list(full.indices[: nl.k])


class TestDirectionBundle:
    def test_three_four_five(self):
        data = DataMatrix([[0.0, 0.0], [3.0, 4.0]])
        b = direction_bundle(data, 0, knn(data, 0, 1))
        assert b.directions[0] == pytest.approx([0.6, 0.8], abs=0.0)

    def test_axis_directions(self):
        data = DataMatrix([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]])
        b = direction_bundle(data, 0, knn(data, 0, 2))
        assert np.array_equal(b.directions, [[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("seed", range(3))
    def test_unit_norm_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        data = DataMatrix(rng.standard_normal((60, 4)) * 100.0)
        worst = 0.0
        for q in range(data.n):
            b = direction_bundle(data, q, knn(data, q, 20))
            norms = np.linalg.norm(b.directions, axis=1)
            worst = max(worst, float(np.max(np.abs(norms - 1.0))))
        assert worst < 1e-12

    def test_rejects_mismatched_query(self):
        data = DataMatrix([[0.0], [1.0], [2.0]])
        nl = knn(data, 0, 1)
        with pytest.raises(ValueError):
            direction_bundle(data, 1, nl)

    def test_bundle_validation(self):
        with pytest.raises(ValueError, match="unit"):
            DirectionBundle(np.array([[2.0, 0.0]]), 1)


class TestNeighborListValidation:
    def test_rejects_zero_distance(self):
        with pytest.raises(ValueError):
            NeighborList(0, np.array([1]), np.array([0.0]))

    def test_rejects_decreasing_distances(self):
        with pytest.raises(ValueError):
            NeighborList(0, np.array([1, 2]), np.array([2.0, 1.0]))

    def test_rejects_query_in_indices(self):
        with pytest.raises(ValueError):
            NeighborList(1, np.array([1]), np.array([1.0]))

    def test_prefix(self):
        nl = NeighborList(None, np.array([4, 2, 9]), np.array([1.0, 2.0, 3.0]))
        assert list(nl.prefix(2).indices) == [4, 2]
        with pytest.raises(InsufficientNeighborsError):
            nl.prefix(5)


def _full_sort(data, queries, k):
    """The full-sort oracle: the first k entries of _sorted_candidates per query row."""
    idx, dist = [], []
    for q in queries:
        sel, d = _sorted_candidates(data, q)
        assert sel.size >= k
        idx.append(sel[:k])
        dist.append(d[:k])
    return np.array(idx, dtype=np.int64), np.array(dist)


def _assert_bitwise(got, want):
    assert got[0].dtype == np.int64 and np.array_equal(got[0], want[0])
    assert got[1].dtype == np.float64 and got[1].tobytes() == want[1].tobytes()


SHAPE_SPECS = {
    "ball": synth.GeneratorSpec("ball", n=2000, seed=1, params={"d": 4}),
    "sphere": synth.GeneratorSpec("sphere", n=2000, seed=1, params={"d": 3}),
    "gaussian": synth.GeneratorSpec("gaussian", n=2000, seed=1, params={"d": 6}),
    "koch": synth.GeneratorSpec("koch", n=3000, seed=1, params={"depth": 4}),
    "lattice": synth.GeneratorSpec("lattice", seed=1, params={"dims": 6}),
    "nested_cubes": synth.GeneratorSpec("nested_cubes", seed=1,
                                        params={"max_dim": 4, "n_per_cube": 600}),
    "offset_disc": synth.GeneratorSpec("offset_disc", n=2000, seed=1, params={"h": 3.0}),
    "line": synth.GeneratorSpec("line", n=2000, seed=1),
}


class TestKnnMany:
    def test_specs_cover_every_shape(self):
        assert set(SHAPE_SPECS) == set(synth.SHAPES)

    @pytest.mark.parametrize("shape", synth.SHAPES)
    def test_matches_full_sort_on_every_generator(self, shape):
        gen = synth.generate(SHAPE_SPECS[shape])
        data = gen.matrix
        rng = np.random.default_rng(2)
        queries = data.points[rng.choice(data.n, 41, replace=False)]
        if gen.query is not None:
            queries = np.vstack([queries, gen.query])
        for k in (1, 10, 100):
            _assert_bitwise(knn_many(data, queries, k), _full_sort(data, queries, k))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_full_sort_on_grids_with_duplicates_and_ties(self, draw):
        dim = draw.draw(st.integers(1, 4), label="dim")
        n = draw.draw(st.integers(2, 60), label="n")
        cells = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
        grid = np.array(draw.draw(st.lists(cells, min_size=n, max_size=n), label="grid"), float)
        copies = draw.draw(st.lists(st.integers(0, n - 1), max_size=12), label="duplicates")
        offset = draw.draw(st.one_of(st.integers(-10**6, 10**6),
                                     st.floats(-1e6, 1e6, allow_nan=False)), label="offset")
        data = DataMatrix(np.vstack([grid, grid[copies]]) + offset)
        rows = st.lists(st.integers(0, data.n - 1), min_size=1, max_size=9)
        queries = data.points[draw.draw(rows, label="queries")]
        distinct = min(_sorted_candidates(data, q)[0].size for q in queries)
        if distinct == 0:
            with pytest.raises(InsufficientNeighborsError):
                knn_many(data, queries, 1)
            return
        k = draw.draw(st.integers(1, distinct), label="k")
        _assert_bitwise(knn_many(data, queries, k), _full_sort(data, queries, k))
        with pytest.raises(InsufficientNeighborsError) as exc:
            knn_many(data, queries, distinct + 1)
        first = next(i for i, q in enumerate(queries)
                     if _sorted_candidates(data, q)[0].size == distinct)
        assert (exc.value.point, exc.value.available) == (first, distinct)

    def test_far_from_origin_and_tiny_or_huge_scales(self):
        rng = np.random.default_rng(9)
        base = rng.standard_normal((300, 3))
        # At 1e-162 some squared distances underflow to 0 and count as duplicates.
        for pts in (base + 1e6, base * 1e-162, base * 1e150):
            data = DataMatrix(pts)
            queries = data.points
            k_max = min(_sorted_candidates(data, q)[0].size for q in queries)
            for k in sorted({1, 7, 50, k_max}):
                _assert_bitwise(knn_many(data, queries, k), _full_sort(data, queries, k))

    def test_block_size_does_not_change_results(self, monkeypatch):
        data = synth.sample_ball(500, 3, seed=5)
        queries = data.points[::13]  # 39 rows: 7 blocks of 5 and a remainder of 4
        want = _full_sort(data, queries, 25)
        for rows in (1, 5, len(queries)):
            monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 8 * data.n * rows)
            assert neighbors._block_rows(data.n) == rows
            _assert_bitwise(knn_many(data, queries, 25), want)

    def test_knn_is_one_row_of_knn_many(self):
        data = synth.sample_ball(400, 2, seed=8)
        idx, dist = knn_many(data, data.points[[17]], 30)
        nl = knn(data, 17, 30)
        assert np.array_equal(nl.indices, idx[0]) and nl.distances.tobytes() == dist[0].tobytes()


class TestBlockedTables:
    def test_threads_give_identical_csv_bytes(self, tmp_path, monkeypatch):
        data = synth.sample_ball(1500, 4, seed=12)
        monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 8 * data.n * 5)
        queries = list(range(0, 1500, 40))  # 38 queries: 7 blocks of 5 and one of 3
        queries.pop()
        assert len(queries) == 37
        tables, trail_files = set(), set()
        for threads in (1, 2, 3):
            table = angle_id.estimate_table(data, 20, ESTIMATOR_TAGS, queries=queries,
                                            with_diagnostics=True, threads=threads)
            write_csv(table, tmp_path / "t.csv")
            tables.add((tmp_path / "t.csv").read_bytes())
            for tag in ("abid", "mle"):
                tm = analysis.trails(data, [5, 12, 20], tag, point_subset=queries, threads=threads)
                analysis.write_trails_csv(tm, tmp_path / "r.csv")
                trail_files.add((tag, (tmp_path / "r.csv").read_bytes()))
        assert len(tables) == 1 and len(trail_files) == 2

    def test_every_thread_gets_a_share_of_the_queries(self, monkeypatch):
        units = []

        class Pool(ThreadPoolExecutor):
            def map(self, fn, blocks):
                units.append([len(b) for b in blocks])
                return super().map(fn, blocks)

        monkeypatch.setattr(neighbors, "ThreadPoolExecutor", Pool)
        data = synth.sample_ball(1500, 4, seed=12)
        queries = list(range(0, 1480, 40))
        # Kernel blocks of 5 queries, then one kernel block for all 37.
        for block_bytes in (8 * data.n * 5, neighbors._BLOCK_BYTES):
            monkeypatch.setattr(neighbors, "_BLOCK_BYTES", block_bytes)
            for threads in (2, 3, 4):
                units.clear()
                angle_id.estimate_table(data, 20, ESTIMATOR_TAGS, queries=queries,
                                        threads=threads)
                analysis.trails(data, [5, 12, 20], "mle", point_subset=queries, threads=threads)
                for sizes in units:
                    assert len(sizes) == threads and sum(sizes) == 37, (threads, sizes)
                assert len(units) == 2

    def test_errors_keep_query_order(self):
        # Points 0-3 coincide, so each has a single distinct neighbor, point 4.
        data = DataMatrix([[0.0], [0.0], [0.0], [0.0], [1.0]])
        with pytest.raises(InsufficientNeighborsError) as exc:
            angle_id.estimate_table(data, 2, ("mle",), queries=[4, 1, 0])
        assert (exc.value.point, exc.value.required, exc.value.available) == (1, 2, 1)
        # Query 4's estimator error comes before query 1's neighbor shortage.
        with pytest.raises(InsufficientNeighborsError) as exc:
            angle_id.estimate_table(data, 2, ("ged",), queries=[4, 1])
        assert (exc.value.point, exc.value.required, exc.value.available) == (4, 4, 2)

    def test_query_indices_out_of_range_are_rejected(self):
        data = synth.sample_ball(50, 2, seed=1)
        with pytest.raises(IndexError):
            angle_id.estimate_table(data, 5, ("abid",), queries=[3, -1])
        with pytest.raises(IndexError):
            analysis.trails(data, [5], "abid", point_subset=[50])
