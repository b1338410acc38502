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

    @pytest.mark.parametrize("query", [True, False, np.True_])
    def test_bool_query_is_not_a_point_index(self, query):
        data = DataMatrix([[0.0], [1.0], [3.0]])
        nl = knn(data, 0, 1)
        match = f"^query must be integer point indices, got {query!r}$"
        with pytest.raises(ValueError, match=match):
            knn(data, query, 1)
        with pytest.raises(ValueError, match=match):
            angle_id.estimate_point(data, query, 1)
        with pytest.raises(ValueError, match=match):
            direction_bundle(data, query, nl)


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


def _kernel_case(name):
    """Points, query rows and k for the kernel's sampled path and its fallbacks.

    The kernel samples a row only when 2(k+1) >= 64 and n >= 16 (k+1) D
    (``neighbors._knn_kernel``); every case but "rule_below" meets that.
    """
    rng = np.random.default_rng(21)
    if name == "ball":
        points = synth.sample_ball(20000, 2, seed=21).points
        return points, points[rng.choice(len(points), 60, replace=False)], 50
    if name == "duplicates_at_a_query":
        # Point 0 has 200 copies and 30 points within 1e-9, whose screened
        # values are rounding noise. Most of its row's sample is copies, so
        # at most 30 < k nonzero distances screen below the sampled cut and
        # the row takes the exact cut, in a block with sampled rows.
        ball = synth.sample_ball(20000, 2, seed=21).points
        near = ball[0] + 1e-9 * rng.standard_normal((30, 2))
        points = np.vstack([ball, np.repeat(ball[:1], 200, axis=0), near])
        return points, points[[5, 0, 7, 20000, 20150, 3, 11, 20210, 20229]], 50
    if name == "every_row_in_a_cluster":
        # Points 0 and 1 have 200 copies each, far more than 2(k+1) = 102.
        # The copies of a point are consecutive, so every row's sample (one
        # value in step = 3) holds over 32 zero distances: its sampled cut
        # is rounding noise, no nonzero distance screens at or below it,
        # and every row of every block takes the exact cut.
        ball = synth.sample_ball(20000, 2, seed=21).points
        points = np.vstack([ball, np.repeat(ball[:2], 200, axis=0)])
        return points, points[[0, 20000, 20399, 1, 20001, 20200]], 50
    if name in ("rule_below", "rule_at"):
        k, dim = 40, 2
        n = 16 * (k + 1) * dim - (name == "rule_below")
        points = synth.sample_ball(n, dim, seed=22).points
        return points, points[::37], k
    if name == "lattice_ties":
        axis = np.arange(150.0)
        points = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        queries = points[[0, 75 * 150 + 75, 149, 150 * 150 - 1, 40 * 150 + 3]]
        k = 50
        dists = [_sorted_candidates(DataMatrix(points), q)[1] for q in queries]
        assert all(d[k] == d[k - 1] for d in dists)  # ties at the k-th distance
        return points, queries, k
    base = rng.standard_normal((2000, 3))
    if name == "scale_1e150":  # delta stays finite
        return base * 1e150, base[::50] * 1e150, 31
    if name == "scale_1e160":  # squared norms overflow: delta = inf, NaN screens
        return base * 1e160, base[::50] * 1e160, 31
    if name == "scale_1e306":  # the points' mean overflows as well
        points = np.abs(base) * 1e306
        return points, points[::50], 31
    # One query row whose squared norm overflows, among finite ones.
    return base, np.vstack([base[:3], [1e200, -1e200, 3.0], base[3:7]]), 31


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
        for pts in (base + 1e6, base + 1e8, base + 1e12, base * 1e-162, base * 1e150):
            data = DataMatrix(pts)
            queries = data.points
            k_max = min(_sorted_candidates(data, q)[0].size for q in queries)
            for k in sorted({1, 7, 50, k_max}):
                _assert_bitwise(knn_many(data, queries, k), _full_sort(data, queries, k))

    @pytest.mark.parametrize("case", [
        "ball", "duplicates_at_a_query", "rule_below", "rule_at", "lattice_ties",
        "scale_1e150", "scale_1e160", "scale_1e306", "far_query", "every_row_in_a_cluster",
    ])
    def test_sampled_path_and_its_fallback_match_full_sort(self, monkeypatch, case):
        points, queries, k = _kernel_case(case)
        data = DataMatrix(points)
        want = _full_sort(data, queries, k)
        for block in (None, 1, 3):
            if block is not None:
                monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 8 * data.n * block)
            _assert_bitwise(knn_many(data, queries, k), want)
        for i in range(len(queries)):
            _assert_bitwise(knn_many(data, queries[i:i + 1], k), (want[0][i:i + 1], want[1][i:i + 1]))

    def test_a_screen_error_at_its_bound_keeps_the_sampled_path_exact(self, monkeypatch):
        # The kernel bounds the screen error |a - s| by e = (2.5D + 6) eps M
        # + 2D tiny; real products stay far below it, so here the product is
        # patched to be off by -e for every point but one "victim", off by
        # +e. Integer coordinates with zero mean make the unpatched product
        # exact (a == s): at D = 2 with far points at distance 2**26, M =
        # 2**52, e = 11 and delta = 24. k = 31 and n >= 16(k+1)D take the
        # sampled path. The query at the origin has 80 copies, so its cut is
        # c = -e and no nonzero distance screens at or below it: the row must
        # take the exact cut. Its 31 nearest are 30 copies of (1, 0) and the
        # victim (5, 2), s = 29, screened at 40, above c + 2 delta = 37. The
        # decoy (6, 1), s = 37, screens at 26, so a check loosened to
        # a <= c + 2 delta would accept the row with the decoy in its place.
        k, far = 31, 2.0**26
        near = [[0.0, 0.0]] * 80 + [[1.0, 0.0]] * 30 + [[5.0, 2.0], [6.0, 1.0], [-41.0, -3.0]]
        axes = [[far, 0.0], [-far, 0.0], [0.0, far], [0.0, -far]] * 230
        points = np.array(near + axes)
        victim, dim, n = 110, 2, len(points)
        assert not points.sum(axis=0).any() and n >= 16 * (k + 1) * dim
        eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_subnormal
        e = (2.5 * dim + 6) * eps * far**2 + 2 * dim * tiny
        err = np.full(n, -e)
        err[victim] = e

        class ScreenOff:
            """numpy as the kernel sees it, but the screen product is off by ``err``."""

            def __getattr__(self, name):
                return getattr(np, name)

            def matmul(self, a, b, out):
                np.matmul(a, b, out=out)
                out += err
                return out

        data, query = DataMatrix(points), np.zeros((1, dim))
        want = _full_sort(data, query, k)
        assert sorted(want[0][0]) == list(range(80, 111))
        monkeypatch.setattr(neighbors, "np", ScreenOff())
        _assert_bitwise(knn_many(data, query, k), want)

    def test_block_size_does_not_change_results(self, monkeypatch):
        data = synth.sample_ball(500, 3, seed=5)
        queries = data.points[::13]  # 39 rows: 7 blocks of 5 and a remainder of 4
        want = _full_sort(data, queries, 25)
        for rows in (1, 5, len(queries)):
            monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 8 * data.n * rows)
            assert neighbors._block_rows(data.n) == rows
            _assert_bitwise(knn_many(data, queries, 25), want)

    @pytest.mark.parametrize("case", ["copies_and_kth_ties", "inf_at_scale_1e160"])
    def test_rows_of_very_different_widths_rank_alone(self, monkeypatch, case):
        # The re-rank sorts each row of a padded array on its own; a row of
        # the block must come out as it does on its own and as the full sort
        # has it, however wide its block-mates are. Both cases take the
        # exact cut (n < 16 (k+1) D).
        rng = np.random.default_rng(31)
        if case == "copies_and_kth_ties":
            # Point 0 has 200 copies (201 zero distances in its row). Point
            # 500 sits 1e-3 from it, so its k nearest all lie among those 201
            # coinciding points: a tie at the k-th distance that a cut takes
            # whole. In one-row blocks the rows of points 0 and 500 hold
            # over 200 candidates each, the plain rows about k.
            k = 20
            ball = synth.sample_ball(300, 2, seed=31).points * 10.0
            points = np.vstack([ball, np.repeat(ball[:1], 200, axis=0), ball[:1] + [1e-3, 0.0]])
            rows = [5, 0, 17, 500, 250, 300, 42]
        else:
            # A cluster at 1e150 scale among points at 1e160 scale: cluster
            # rows have finite distances to the cluster and overflowing ones
            # (inf) to the rest, which tie and break by index; points 0 and
            # 1 are copies, whose zero distances must still sort last.
            k = 40
            far = rng.standard_normal((150, 3)) * 1e160
            cluster = far[0] + rng.standard_normal((30, 3)) * 1e150
            points = np.vstack([far[:1], far, cluster])
            rows = [0, 151, 7, 160, 1, 180, 99]
        data = DataMatrix(points)
        queries = data.points[rows]
        want = _full_sort(data, queries, k)
        if case == "copies_and_kth_ties":
            d = _sorted_candidates(data, queries[rows.index(500)])[1]
            assert d[k] == d[k - 1] == d[0]
        else:
            assert np.isinf(want[1]).any() and np.isfinite(want[1]).any()
        assert data.n < 16 * (k + 1) * data.dim
        for block in (1, 3, None):
            if block is not None:
                monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 8 * data.n * block)
            _assert_bitwise(knn_many(data, queries, k), want)
            for i in range(len(rows)):
                one = knn_many(data, queries[i:i + 1], k)
                _assert_bitwise(one, (want[0][i:i + 1], want[1][i:i + 1]))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_permuting_the_queries_permutes_the_rows(self, draw):
        dim = draw.draw(st.integers(1, 3), label="dim")
        n = draw.draw(st.integers(2, 50), label="n")
        cells = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
        grid = np.array(draw.draw(st.lists(cells, min_size=n, max_size=n), label="grid"), float)
        copies = draw.draw(st.lists(st.integers(0, n - 1), max_size=12), label="duplicates")
        data = DataMatrix(np.vstack([grid, grid[copies]]))
        rows = draw.draw(st.lists(st.integers(0, data.n - 1), min_size=2, max_size=12),
                         label="queries")
        distinct = min(_sorted_candidates(data, data.points[r])[0].size for r in rows)
        if distinct == 0:
            return
        k = draw.draw(st.integers(1, distinct), label="k")
        perm = np.array(draw.draw(st.permutations(range(len(rows))), label="permutation"))
        idx, dist = knn_many(data, data.points[rows], k)
        pidx, pdist = knn_many(data, data.points[rows][perm], k)
        assert np.array_equal(pidx, idx[perm]) and pdist.tobytes() == dist[perm].tobytes()

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

        monkeypatch.setattr(angle_id, "ThreadPoolExecutor", Pool)
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

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_a_shortage_in_a_later_block_names_the_first_short_query(self, monkeypatch,
                                                                      threads):
        # Points 0-9 coincide, so each has only the 30 others at a nonzero
        # distance; points 10-39 have 39.
        data = DataMatrix(np.concatenate([np.full(10, 50.0), np.arange(30.0)])[:, None])
        k = 35
        distinct = list(range(39, 9, -1))
        queries = distinct[:28] + [5] + distinct[28:] + [9, 8, 7, 6, 4, 3, 2, 1, 0]
        # One-row kernel blocks in three-row blocks: query 5 is the second
        # row of the tenth block, and every later block is short as well.
        monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 8 * data.n)
        monkeypatch.setattr(angle_id, "_CHUNK", 3 * k)
        for tags in (("abid", "mle"), ("mle",)):
            with pytest.raises(InsufficientNeighborsError) as exc:
                angle_id.estimate_table(data, k, tags, queries=queries, threads=threads)
            assert (exc.value.point, exc.value.required, exc.value.available) == (5, k, 30)
        with pytest.raises(InsufficientNeighborsError) as exc:
            analysis.trails(data, [10, k], "abid", point_subset=queries, threads=threads)
        assert (exc.value.point, exc.value.required, exc.value.available) == (5, k, 30)

    def test_an_estimator_minimum_names_the_first_query_before_any_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("a neighbor search ran")

        monkeypatch.setattr(angle_id, "_knn_kernel", no_search)
        data = DataMatrix([[0.0], [0.0], [0.0], [0.0], [1.0]])
        # Query 1 is also short of neighbors; the estimator minimum comes first.
        for queries in ([4, 1], [1, 4]):
            with pytest.raises(InsufficientNeighborsError) as exc:
                angle_id.estimate_table(data, 2, ("ged",), queries=queries)
            assert (exc.value.point, exc.value.required, exc.value.available) == (queries[0], 4, 2)

    def test_query_indices_out_of_range_are_rejected(self):
        data = synth.sample_ball(50, 2, seed=1)
        with pytest.raises(IndexError):
            angle_id.estimate_table(data, 5, ("abid",), queries=[3, -1])
        with pytest.raises(IndexError):
            analysis.trails(data, [5], "abid", point_subset=[50])
        with pytest.raises(IndexError, match="query index -1 out of range for n=50"):
            angle_id.estimate_table(data, 5, ("abid",), queries=np.array([3, -1, 60]))
        # The first bad value in order names the error, whatever its kind.
        with pytest.raises(IndexError, match="query index 60 out of range for n=50"):
            angle_id.estimate_table(data, 5, ("abid",), queries=[3, 60, 1.5])
        with pytest.raises(ValueError, match="got 1.5$"):
            analysis.trails(data, [5], "abid", point_subset=[3, 1.5, 60])

    @pytest.mark.parametrize("values, bad", [
        ([0.9, 2.5], "0.9"),
        ([1, np.float64(2.0)], "np.float64(2.0)"),
        (np.array([0.0, 2.0]), "np.float64(0.0)"),
        (np.array([True, False]), "np.True_"),
        ([True, False], "True"),
        ([2, False], "False"),
    ])
    def test_non_integer_query_indices_fail_before_any_search(self, monkeypatch, values, bad):
        def no_search(*args, **kwargs):
            raise AssertionError("a neighbor search ran")

        monkeypatch.setattr(angle_id, "_knn_kernel", no_search)
        data = synth.sample_ball(50, 2, seed=1)
        with pytest.raises(ValueError) as exc:
            angle_id.estimate_table(data, 5, ("abid",), queries=values)
        assert str(exc.value) == f"queries must be integer point indices, got {bad}"
        with pytest.raises(ValueError) as exc:
            analysis.trails(data, [5], "abid", point_subset=values)
        assert str(exc.value) == f"point_subset must be integer point indices, got {bad}"

    def test_integer_arrays_and_ranges_are_query_indices(self):
        data = synth.sample_ball(50, 2, seed=1)
        want = angle_id.estimate_table(data, 5, ("abid",), queries=[3, 1, 2])
        for queries in (np.array([3, 1, 2]), np.array([3, 1, 2], dtype=np.int32),
                        [np.int64(3), 1, np.uint8(2)]):
            table = angle_id.estimate_table(data, 5, ("abid",), queries=queries)
            assert table.indices == (3, 1, 2) and all(type(i) is int for i in table.indices)
            assert table.values("abid").tobytes() == want.values("abid").tobytes()
        assert angle_id.estimate_table(data, 5, ("abid",), queries=range(1, 4)).indices == (1, 2, 3)
        tm = analysis.trails(data, [5, 8], "abid", point_subset=np.arange(1, 4))
        want = analysis.trails(data, [5, 8], "abid", point_subset=range(1, 4))
        assert tm.point_indices == (1, 2, 3)
        assert tm.estimates.tobytes() == want.estimates.tobytes()
