import dataclasses
import math
import platform
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angleid import analysis, angle_id, cli, neighbors, synth
from angleid.core import ESTIMATOR_TAGS, DataMatrix, InsufficientNeighborsError, write_csv
from angleid.neighbors import DirectionBundle, NeighborList, direction_bundle, knn


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

    @pytest.mark.parametrize("query, match", [
        ([0.0, 1.0], r"^query vector must have shape \(1,\), got \(2,\)$"),
        ([[0.0]], r"^query vector must have shape \(1,\), got \(1, 1\)$"),
        ([np.nan], "^query vector must be finite$"),
        ([-np.inf], "^query vector must be finite$"),
    ])
    def test_bad_query_vector_fails_before_the_search(self, no_search, query, match):
        data = DataMatrix([[0.0], [1.0], [3.0]])
        for search in (knn, angle_id.estimate_point):
            with pytest.raises(ValueError, match=match):
                search(data, query, 1)

    # Without this, a "before any search" test whose guard stopped guarding would still pass.
    @pytest.mark.parametrize("route", [
        lambda data: knn(data, 0, 5),
        lambda data: knn_many(data, data.points[:3], 5),
        lambda data: angle_id.estimate_point(data, [0.1, 0.2], 5),
        lambda data: angle_id.estimate_table(data, 5),
        lambda data: analysis.trails(data, [5, 10], "abid", threads=2),
    ], ids=["knn", "knn_many", "estimate_point", "estimate_table", "trails"])
    def test_the_no_search_guard_trips_on_every_route(self, no_search, route):
        with pytest.raises(AssertionError, match="^a neighbor search ran$"):
            route(synth.sample_ball(50, 2, seed=1))


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

    def test_a_bundle_keeps_its_directions_through_later_searches(self):
        # _directions writes the thread's workspace; a bundle must hold its own copy.
        data = synth.sample_ball(200, 3, seed=2)
        first = direction_bundle(data, 0, knn(data, 0, 10))
        want = first.directions.copy()
        direction_bundle(data, 1, knn(data, 1, 10))
        angle_id.estimate_table(data, 10)
        assert np.array_equal(first.directions, want)

    @pytest.mark.parametrize("index", [3, -1])
    def test_rejects_neighbor_indices_outside_the_data(self, index):
        data = DataMatrix([[0.0], [1.0], [2.0]])
        with pytest.raises(IndexError, match=r"^neighbor indices must lie in \[0, 3\)$"):
            direction_bundle(data, 0, NeighborList(0, np.array([1, index]), np.array([1.0, 2.0])))

    def test_bundle_validation(self):
        with pytest.raises(ValueError, match="unit"):
            DirectionBundle(np.array([[2.0, 0.0]]), 1)

    @pytest.mark.parametrize("directions, source_k", [
        (np.eye(2), 3),
        (np.eye(2), 1),
        (np.array([1.0, 0.0]), 2),
    ])
    def test_shape_must_match_source_k(self, directions, source_k):
        with pytest.raises(ValueError, match=r"^directions must be a \(k, D\) array matching source_k$"):
            DirectionBundle(directions, source_k)

    def test_prefix(self):
        bundle = DirectionBundle(np.eye(3), 3)
        head = bundle.prefix(2)
        assert head.source_k == 2 and np.array_equal(head.directions, np.eye(3)[:2])
        with pytest.raises(InsufficientNeighborsError) as exc:
            bundle.prefix(4)
        assert (exc.value.required, exc.value.available, exc.value.point) == (4, 3, None)

    @pytest.mark.parametrize("k", [0, -1, True, np.True_, 2.0, np.float64(2.0), "2", None])
    def test_prefix_takes_a_positive_integer(self, k):
        with pytest.raises(ValueError, match=f"^k must be a positive integer, got {re.escape(repr(k))}$"):
            DirectionBundle(np.eye(3), 3).prefix(k)

    def test_prefix_of_a_numpy_integer_keeps_an_int_source_k(self):
        head = DirectionBundle(np.eye(3), 3).prefix(np.int64(2))
        assert type(head.source_k) is int and head.source_k == 2

    def test_a_numpy_source_k_is_kept_as_an_int(self):
        # The integer rule (tests/test_integer_rule.py) refuses a bool or a float.
        bundle = DirectionBundle(np.eye(2), np.int64(2))
        assert type(bundle.source_k) is int and bundle.source_k == 2
        with pytest.raises(ValueError, match="^source_k must be an integer >= 0, got True$"):
            DirectionBundle(np.eye(1), True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_direction_whose_norm_is_not_finite(self, bad):
        with pytest.raises(ValueError, match=r"^directions must have unit Euclidean norm \(within 1e-12\)$"):
            DirectionBundle(np.array([[bad, 0.0], [1.0, 0.0]]), 2)


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

    @pytest.mark.parametrize("indices, distances", [
        ([1, 2], [1.0]),
        ([[1, 2]], [[1.0, 2.0]]),
    ])
    def test_rejects_mismatched_shapes(self, indices, distances):
        with pytest.raises(ValueError, match="^indices and distances must be matching 1-d arrays$"):
            NeighborList(None, np.array(indices), np.array(distances))

    def test_rejects_repeated_index(self):
        with pytest.raises(ValueError, match="^neighbor indices must be distinct$"):
            NeighborList(None, np.array([3, 5, 3]), np.array([1.0, 2.0, 2.0]))

    def test_a_numpy_query_index_is_kept_as_an_int(self):
        # The integer rule (tests/test_integer_rule.py) refuses a bool, a float or a string.
        nl = NeighborList(np.int64(2), np.array([3, 4]), np.array([1.0, 2.0]))
        assert type(nl.query_index) is int and type(nl.prefix(1).query_index) is int
        for query in (True, 2.5, "a"):
            with pytest.raises(ValueError, match="^query_index must be an integer >= 0"):
                NeighborList(query, np.array([3, 4]), np.array([1.0, 2.0]))

    def test_prefix(self):
        nl = NeighborList(None, np.array([4, 2, 9]), np.array([1.0, 2.0, 3.0]))
        assert list(nl.prefix(2).indices) == [4, 2]
        assert list(nl.prefix(np.int64(1)).indices) == [4]
        with pytest.raises(InsufficientNeighborsError):
            nl.prefix(5)

    @pytest.mark.parametrize("k", [0, -1, True, np.True_, 2.0, np.float64(2.0), "2", None])
    def test_prefix_takes_a_positive_integer(self, k):
        nl = NeighborList(None, np.arange(5), np.arange(1.0, 6.0))
        with pytest.raises(ValueError, match=f"^k must be a positive integer, got {re.escape(repr(k))}$"):
            nl.prefix(k)


class TestAdoptedObjects:
    """``knn`` and both ``prefix`` methods adopt what the kernel or a valid object made
    (``core._adopt``): read-only, with no copy and no check, and equal to the checked object."""

    def test_knn_and_prefixes_are_read_only(self):
        data = synth.sample_ball(200, 3, seed=4)
        nl = knn(data, 5, 12)
        bundle = direction_bundle(data, 5, nl)
        arrays = [nl.indices, nl.distances, nl.prefix(7).indices, nl.prefix(7).distances,
                  nl.prefix(7).prefix(3).distances, bundle.prefix(4).directions]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1

    def test_knn_shares_no_kept_or_workspace_buffer(self):
        data = synth.sample_ball(300, 4, seed=5)
        angle_id.estimate_table(data, 10, estimators=["abid", "mle"], queries=[3, 1, 4])
        nl = knn(data, 3, 10)
        assert data._neighbors is not None  # the table's lists are kept
        held = list(vars(neighbors._local).values()) + list(data._neighbors[1:])
        for a in (nl.indices, nl.distances):
            assert not any(np.shares_memory(a, buf) for buf in held)
        want = nl.indices.copy(), nl.distances.copy()
        knn(data, 7, 10)
        angle_id.estimate_table(data, 10, queries=[3, 1, 4])
        assert np.array_equal(nl.indices, want[0]) and np.array_equal(nl.distances, want[1])

    @pytest.mark.parametrize("query", [0, 17, np.array([0.1, -0.2, 0.3])])
    def test_prefixes_equal_the_objects_a_user_builds(self, query):
        data = synth.sample_ball(120, 3, seed=6)
        nl = knn(data, query, 20)
        bundle = direction_bundle(data, query, nl)
        for j in (1, 8, 20):
            for got, i in [(nl.prefix(j), j), *((nl.prefix(j).prefix(i), i) for i in (1, j))]:
                user = NeighborList(nl.query_index, nl.indices[:i], nl.distances[:i])
                assert got.query_index == user.query_index and got.k == user.k == i
                assert type(got.query_index) is type(user.query_index)
                _assert_bitwise((got.indices, got.distances), (user.indices, user.distances))
            got, user = bundle.prefix(j), DirectionBundle(bundle.directions[:j], j)
            assert type(got.source_k) is int and got.source_k == user.source_k == j
            assert got.directions.tobytes() == user.directions.tobytes()

    def test_label_column_bytes_equal_the_unlabeled_files(self, tmp_path):
        # The CLI keeps a view of the checked matrix without its last column; the
        # output must equal that of a file that never had the label column.
        labeled, plain = tmp_path / "labeled.csv", tmp_path / "plain.csv"
        data = synth.jittered_lattice(3, seed=2)
        labels = np.arange(data.n) % 3
        write_csv(DataMatrix(np.column_stack([data.points, labels])), labeled)
        write_csv(data, plain)
        for extra in ([], ["--with-diagnostics"], ["--threads", "2", "--points", "40"]):
            outs = []
            for src, flags in ((labeled, ["--label-column"]), (plain, [])):
                out = tmp_path / f"{src.stem}.out.csv"
                args = ["estimate", "--input", src, "--k", 12, *flags, *extra, "-o", out]
                assert cli.main([str(a) for a in args]) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]


def _sorted_candidates(data: DataMatrix, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    diff = data.points - q
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    # dist == 0.0 exactly for the query row and bitwise duplicates.
    valid = np.flatnonzero(dist > 0.0)
    # Stable sort on an index-ascending candidate list breaks distance ties
    # by ascending point index, deterministically.
    order = np.argsort(dist[valid], kind="stable")
    sel = valid[order]
    return sel, dist[sel]


def knn_many(data: DataMatrix, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's exact k nearest neighbors of every row of ``queries``, a (Q, D) array.

    One search of ``neighbors._knn_kernel``, looked up per call so that
    the ``no_search`` guard reaches it; a short row is named by its
    position in ``queries``.
    """
    return neighbors._knn_kernel(data, k, queries, range(len(queries)))


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


def _force_block(mp, rows: int, tile: int | None = None) -> None:
    """Make the kernel screen ``rows`` queries per block, in pass-2 tiles of ``tile`` columns.

    Without ``tile``, the tiles are as wide as ``neighbors._block`` makes
    them for blocks of ``rows`` queries. The fallback's blocks take
    ``rows`` as well.
    """
    block = neighbors._block
    mp.setattr(neighbors, "_block", lambda n, stride, rank, dim, queries:
               (rows, tile or block(n, stride, rank, dim, rows)[1]))


def _kernel_case(name):
    """Points, query rows and k for the kernel's planned cuts and their fallback.

    ``neighbors._plan`` samples only when 2(k+1) >= 64 and n >= 16 (k+1) D;
    every case but "rule_below" and "rule_below_with_copies" meets that,
    and those two take the whole-row plan, cut at rank k + 1. Rows fail
    that cut's check only where they hold duplicates of their query, so
    the blocks of "rule_below_with_copies" mix rows that keep it with
    rows that take the exact fallback.
    """
    rng = np.random.default_rng(21)
    if name == "rule_below_with_copies":
        k, dim = 40, 2
        ball = synth.sample_ball(1300, dim, seed=22).points
        points = np.vstack([ball, np.repeat(ball[[0, 74, 148]], [5, 1, 3], axis=0)])
        assert len(points) < 16 * (k + 1) * dim
        return points, points[::37], k
    if name == "ball":
        points = synth.sample_ball(20000, 2, seed=21).points
        return points, points[rng.choice(len(points), 60, replace=False)], 50
    if name == "duplicates_at_a_query":
        # Point 0 has 200 copies and 30 points within 1e-9, whose screened
        # values are rounding noise. Most of its row's sample is copies, so
        # at most 30 < k nonzero distances screen below the sampled cut and
        # the row takes the exact fallback, in a block with sampled rows.
        ball = synth.sample_ball(20000, 2, seed=21).points
        near = ball[0] + 1e-9 * rng.standard_normal((30, 2))
        points = np.vstack([ball, np.repeat(ball[:1], 200, axis=0), near])
        return points, points[[5, 0, 7, 20000, 20150, 3, 11, 20210, 20229]], 50
    if name == "every_row_in_a_cluster":
        # Points 0 and 1 have 200 copies each, far more than 2(k+1) = 102.
        # The copies of a point are consecutive, so every row's sample (one
        # value in step = 3) holds over 32 zero distances: its sampled cut
        # is rounding noise, no nonzero distance screens at or below it,
        # and every row of every block takes the exact fallback.
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
    if name == "clusters_1e-8_apart":
        # 400 unit-scale clusters of 25 points 1e-8 apart: the float32
        # screen's bound (about 3e-6 M) cannot tell a cluster's points apart.
        centers = rng.standard_normal((400, 3))
        points = np.repeat(centers, 25, axis=0) + 1e-8 * rng.standard_normal((10000, 3))
        return points, points[[0, 12, 24, 5000, 9999, 4321]], 50
    base = rng.standard_normal((2000, 3))
    # Unscaled, M would be about 2**-96 at 1e-15, in float32's subnormals
    # at 1e-20 and beyond float32's range at an offset of 1e20.
    if name == "scale_1e-15":
        return base * 1e-15, base[::50] * 1e-15, 31
    if name == "scale_1e-20":
        return base * 1e-20, base[::50] * 1e-20, 31
    if name == "offset_1e20":
        points = (base + [5.0, -3.0, 1.0]) * 1e20
        return points, points[::50], 31
    if name == "far_query_f32":
        # One query row whose scaled squared norm overflows float32 but not float64.
        return base, np.vstack([base[:3], [1e20, -1e20, 3.0], base[3:7]]), 31
    if name == "scale_1e150":  # delta stays finite
        return base * 1e150, base[::50] * 1e150, 31
    if name == "scale_1e160":  # squared distances overflow float64: delta = inf
        return base * 1e160, base[::50] * 1e160, 31
    if name == "scale_1e306":  # the points' mean overflows as well: no scale, NaN screens
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

    @settings(max_examples=250, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(1, 10), st.integers(1, 12),
           st.one_of(st.sampled_from([1, 3, 7]), st.integers(2, 80)),
           st.sampled_from(["grids", "copies", "huge_rows"]))
    def test_every_plan_block_and_tile_matches_full_sort(self, draw, stride, rank, rows, tile,
                                                        source):
        # The kernel is exact for any first cut (neighbors._plan), any
        # number of query rows per block and any pass-2 tile width
        # (neighbors._block), so the grid property above must hold with all
        # three forced: the small grids otherwise take the whole-row plan in
        # one block. A width that does not divide n leaves a narrower last
        # tile. "copies" is a 3-D grid with copies of some points, whose
        # rows take the fallback, and "huge_rows" adds query rows at 1e306,
        # whose delta is inf, so every point is their candidate.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighbors, "_plan", lambda n, k, dim: (stride, rank))
            _force_block(mp, rows, tile)
            if source == "grids":
                grids = self.test_matches_full_sort_on_grids_with_duplicates_and_ties
                grids.hypothesis.inner_test(self, draw)
                return
            axes = np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij")
            grid = np.stack(axes, axis=-1).reshape(-1, 3)
            data = DataMatrix(np.vstack([grid, grid[::5], grid[::9]]))
            queries = data.points
            if source == "huge_rows":
                queries = np.vstack([queries, [[1e306, -1e306, 2.0], [3e306, 0.0, 0.0]]])
            picks = st.lists(st.integers(0, len(queries) - 1), min_size=1, max_size=9)
            queries = queries[draw.draw(picks, label="queries")]
            distinct = min(_sorted_candidates(data, q)[0].size for q in queries)
            k = draw.draw(st.integers(1, distinct), label="k")
            _assert_bitwise(knn_many(data, queries, k), _full_sort(data, queries, k))

    @pytest.mark.parametrize("cut", ["zero", "inf", "below", "above", "random"])
    @pytest.mark.parametrize("case", [
        "ball", "duplicates_at_a_query", "every_row_in_a_cluster", "lattice_ties",
        "clusters_1e-8_apart", "scale_1e-20", "offset_1e20", "far_query_f32", "scale_1e160",
        *(f"{name}/whole_row" for name in (
            "ball", "duplicates_at_a_query", "lattice_ties", "rule_below_with_copies"))])
    def test_any_first_cut_keeps_the_kernel_exact(self, monkeypatch, case, cut):
        # The two passes are products of different shapes, so a column's
        # pass-1 and pass-2 values may round differently; the proof's check
        # reads only the values it collected, so the first cut c decides
        # speed alone. Here each row's c is 0, inf, its true value times
        # 1 -/+ 2**-20, or a random value of the row's pass-1 product. The
        # fallback's cut (stride 1, rank k + z > k) stays exact: the
        # "name/whole_row" cases force a whole-row first cut at rank k // 2.
        case, _, whole_row = case.partition("/")
        points, queries, k = _kernel_case(case)
        data = DataMatrix(points)
        want = _full_sort(data, queries, k)
        plan = (1, k // 2) if whole_row else neighbors._plan(data.n, k, data.dim)
        monkeypatch.setattr(neighbors, "_plan", lambda n, k, dim: plan)
        true_cut, rng, changed = neighbors._cut, np.random.default_rng(17), []

        def patched(a, stride, rank):
            c = true_cut(a, stride, rank)
            if (stride, rank) != plan:  # the fallback's
                return c
            changed.append(len(c))
            if cut in ("zero", "inf"):
                return np.full_like(c, 0.0 if cut == "zero" else np.inf)
            if cut in ("below", "above"):
                return c * np.float32(1.0 - 2.0**-20 if cut == "below" else 1.0 + 2.0**-20)
            return a[np.arange(len(a)), rng.integers(0, a.shape[1], len(a))]

        monkeypatch.setattr(neighbors, "_cut", patched)
        for block in (None, 1, 4):
            if block is not None:
                _force_block(monkeypatch, block)
            _assert_bitwise(knn_many(data, queries, k), want)
        assert changed

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

    @pytest.mark.parametrize("j", [-500, -60, 60, 500])
    def test_a_power_of_two_rescaling_changes_no_output(self, tmp_path, j):
        # The screen's scale absorbs 2**j exactly, and the estimators read
        # distances only through ratios: the same neighbor lists, distances
        # exactly 2**j times, and the same table bytes. k = 31 on the ball
        # takes the sampled plan; the grid has ties and copies of queries.
        # Their squared distances stay normal in float64 at 2**-1000.
        axes = np.meshgrid(*[np.arange(6.0)] * 3, indexing="ij")
        grid = np.stack(axes, axis=-1).reshape(-1, 3)
        for points, k in ((synth.sample_ball(2000, 3, seed=3).points, 31),
                          (np.vstack([grid, grid[::7]]), 20)):
            data, scaled = DataMatrix(points), DataMatrix(np.ldexp(points, j))
            rows = list(range(0, len(points), 37))
            idx, dist = knn_many(data, data.points[rows], k)
            got = knn_many(scaled, scaled.points[rows], k)
            assert np.array_equal(got[0], idx) and got[1].tobytes() == np.ldexp(dist, j).tobytes()
            tables = []
            for matrix in (data, scaled):
                table = angle_id.estimate_table(matrix, k, ESTIMATOR_TAGS, queries=rows,
                                                with_diagnostics=True)
                write_csv(table, tmp_path / "t.csv")
                tables.append((tmp_path / "t.csv").read_bytes())
            assert tables[0] == tables[1]

    @pytest.mark.parametrize("case", [
        "ball", "duplicates_at_a_query", "rule_below", "rule_at", "lattice_ties",
        "scale_1e150", "scale_1e160", "scale_1e306", "far_query", "every_row_in_a_cluster",
        "rule_below_with_copies", "clusters_1e-8_apart", "scale_1e-15", "scale_1e-20",
        "offset_1e20", "far_query_f32",
        *(f"{name}/whole_row" for name in (
            "ball", "duplicates_at_a_query", "rule_at", "lattice_ties", "scale_1e150",
            "scale_1e160", "scale_1e306", "far_query", "every_row_in_a_cluster")),
    ])
    def test_sampled_path_and_its_fallback_match_full_sort(self, monkeypatch, case):
        # "name/whole_row" reruns a sampled case under the forced whole-row plan.
        case, _, whole_row = case.partition("/")
        if whole_row:
            monkeypatch.setattr(neighbors, "_plan", lambda n, k, dim: (1, k + 1))
        points, queries, k = _kernel_case(case)
        data = DataMatrix(points)
        want = _full_sort(data, queries, k)
        for block in (None, 1, 3):
            if block is not None:
                _force_block(monkeypatch, block)
            _assert_bitwise(knn_many(data, queries, k), want)
        for i in range(len(queries)):
            _assert_bitwise(knn_many(data, queries[i:i + 1], k), (want[0][i:i + 1], want[1][i:i + 1]))

    def test_a_float32_screen_error_at_its_bound_keeps_the_sampled_path_exact(self, monkeypatch):
        # The kernel bounds the screen's error |a - s| by e32 = (D + 4) eps32
        # M + (D + 1) tiny32 + D 2**(2 shift) tiny64, in units scaled by
        # 2**shift; real products stay far below it, so here the product is
        # patched to be off by -e32 for every point but one "victim", off by
        # +e32, in every product: the sampled columns, the tiles and the
        # fallback's whole rows find the victim by its coordinates in the
        # screen's columns they multiply. Integer coordinates with zero mean
        # and far points at distance 2**12 give shift = -13 and M = 1/4, so
        # e32 = 12 and delta = 48 in units of 2**-26, and every screened value
        # below stays an integer under 2**24 in those units, exact in float32:
        # the unpatched product is exact. The query at the origin has 80
        # copies, so its sampled cut is c = -e32 and it must take the
        # fallback. Its 31 nearest are 30 copies of (1, 0) and the victim
        # (9, 2), s = 85, screened at 97, above c + 2 delta = 84. The decoy
        # (7, 6) ties with it but comes later, and screens at 73, so a check
        # loosened to a <= c + 2 delta would accept the row with the decoy in
        # its place. The fallback's cut is the decoy's 73, so it collects the
        # victim only while delta >= e32.
        k, far, shift = 31, 2.0**12, -13
        near = [[0.0, 0.0]] * 80 + [[1.0, 0.0]] * 30 + [[9.0, 2.0], [7.0, 6.0], [-46.0, -8.0]]
        axes = [[far, 0.0], [-far, 0.0], [0.0, far], [0.0, -far]] * 230
        points = np.array(near + axes)
        victim, dim, n = 110, 2, len(points)
        assert not points.sum(axis=0).any() and n >= 16 * (k + 1) * dim
        f32, f64 = np.finfo(np.float32), np.finfo(np.float64)
        m = math.ldexp(far, shift) ** 2
        e = ((dim + 4) * float(f32.eps) * m + (dim + 1) * float(f32.smallest_subnormal)
             + dim * math.ldexp(float(f64.smallest_subnormal), 2 * shift))
        assert m == 0.25 and e == math.ldexp(12.0, 2 * shift)
        x, y = (math.ldexp(v, shift) for v in points[victim])

        class ScreenOff:
            """numpy as the kernel sees it, but the screen product is off by -e, +e at the victim."""

            def __getattr__(self, name):
                return getattr(np, name)

            def matmul(self, a, b, out):
                np.matmul(a, b, out=out)
                out += np.where((b[0] == x) & (b[1] == y), e, -e)
                return out

        data, query = DataMatrix(points), np.zeros((1, dim))
        want = _full_sort(data, query, k)
        assert sorted(want[0][0]) == list(range(80, 111))
        monkeypatch.setattr(neighbors, "np", ScreenOff())
        _assert_bitwise(knn_many(data, query, k), want)
        assert data._screen[2] == shift

    @pytest.mark.parametrize("case", [
        "ball", "clusters_1e-8_apart", "scale_1e-15", "far_query_f32", "far_query",
        "scale_1e-20", "offset_1e20", "scale_1e150", "scale_1e160", "scale_1e306"])
    def test_each_case_builds_float32_with_its_largest_scaled_coordinate_in_half_to_one(self,
                                                                                        case):
        points, queries, k = _kernel_case(case)
        data = DataMatrix(points)
        knn_many(data, queries[:1], k)
        screen, center, shift = data._screen[:3]
        assert screen.dtype == np.float32
        with np.errstate(over="ignore"):
            reach = np.abs(points - center).max()
        if case == "scale_1e306":  # the mean overflows: no scale
            assert reach == np.inf and shift == 0
        else:
            assert 0.5 <= np.ldexp(reach, shift) < 1.0

    def test_the_scale_rule_at_its_edges(self):
        # One column each: reach 0, a subnormal reach, a reach near
        # float64's maximum, and means that overflow to inf and to NaN.
        max32, tiny32 = float(np.finfo(np.float32).max), 2.0**-149
        max64, tiny64 = float(np.finfo(np.float64).max), 2.0**-1074
        halves = [max64, max64, -max64, -max64, 0.0, 0.0, 0.0, 0.0]  # (inf + -inf) + 0
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(np.mean(halves))  # numpy's pairwise sum of eight
        for column, shift, max_sq, tiny, big in [
                ([3.0] * 5, 0, 0.0, tiny32 + tiny64, max32),
                ([0.0, 5 * tiny64, -5 * tiny64], 1071, 0.625**2, np.inf, max32),
                ([0.0, max64], -1023, 1.0 - 2.0**-52, tiny32, 2.0**-1022),
                ([max64, max64], 0, np.inf, tiny32 + tiny64, max32),
                (halves, 0, np.nan, tiny32 + tiny64, max32)]:
            got = neighbors._build_screen(np.array(column)[:, None])
            assert got[0].dtype == np.float32 and got[2] == shift, column
            assert np.array_equal(got[3], max_sq, equal_nan=True), column
            assert (got[4], got[5]) == (tiny, big), column

    @pytest.mark.parametrize("case", [
        "ball", "duplicates_at_a_query", "every_row_in_a_cluster", "rule_below_with_copies",
        "lattice_ties", "clusters_1e-8_apart", "scale_1e-15", "far_query_f32"])
    def test_each_case_matches_full_sort_rescaled_by_two_to_the_400(self, case):
        # At 2**-400 and 2**400 every squared distance of these cases stays
        # a normal float64, so the screen's shift alone moves: lists with
        # copies, ties at the k-th place and rows that fall back stay exact.
        points, queries, k = _kernel_case(case)
        shift = neighbors._build_screen(points)[2]
        for j in (-400, 400):
            data = DataMatrix(np.ldexp(points, j))
            _assert_bitwise(knn_many(data, np.ldexp(queries, j), k),
                            _full_sort(data, np.ldexp(queries, j), k))
            assert data._screen[0].dtype == np.float32 and data._screen[2] == shift - j

    def test_a_query_whose_norm_overflows_float32_screens_every_point(self, monkeypatch):
        points, queries, k = _kernel_case("far_query_f32")
        data = DataMatrix(points)
        rows = []
        distances = neighbors._distances
        monkeypatch.setattr(neighbors, "_distances",
                            lambda pts, q, r, col: rows.append(r.copy()) or distances(pts, q, r, col))
        _assert_bitwise(knn_many(data, queries, k), _full_sort(data, queries, k))
        counts = np.bincount(np.concatenate(rows), minlength=len(queries))
        assert counts[3] == data.n and (np.delete(counts, 3) < data.n // 10).all()

    def test_the_fallback_collects_only_the_rows_that_failed(self, monkeypatch):
        # One block of 36 rows: the 3 whose queries have copies fail the
        # whole-row cut; the other 33 keep their first collection.
        points, queries, k = _kernel_case("rule_below_with_copies")
        data = DataMatrix(points)
        want = _full_sort(data, queries, k)
        rows = []
        distances = neighbors._distances
        monkeypatch.setattr(neighbors, "_distances",
                            lambda pts, q, r, col: rows.append(len(q)) or distances(pts, q, r, col))
        _assert_bitwise(knn_many(data, queries, k), want)
        assert rows == [36, 3]

    def test_block_size_does_not_change_results(self, monkeypatch):
        data = synth.sample_ball(500, 3, seed=5)
        queries = data.points[::13]  # 39 rows
        want = _full_sort(data, queries, 25)
        assert neighbors._plan(data.n, 25, 3) == (1, 26)
        per_row = 4 * data.n + 26 * 16 * (3 + 6)  # whole rows, 26 candidates each
        # Budgets for 1, 5, 12 and 39 rows: 39 blocks of 1; 8 blocks, 7 of
        # 5 and one of 4; 4 even blocks of 10, 10, 10 and 9; one block.
        for fit, rows in ((1, 1), (5, 5), (12, 10), (39, 39)):
            monkeypatch.setattr(neighbors, "_BLOCK_BYTES", per_row * fit)
            assert neighbors._block(data.n, 1, 26, 3, len(queries))[0] == rows
            _assert_bitwise(knn_many(data, queries, 25), want)

    def test_a_tile_is_never_narrower_than_min_n_and_the_tile_floor(self):
        # Where half the budget would hold tiles under _TILE columns, blocks
        # take fewer rows: 1 000 queries of 15 000 2-D points at k = 63 take
        # 31-row blocks and tiles of 5 000, not 33 rows and tiles of 3 750.
        assert neighbors._plan(15000, 63, 2) == (4, 32)
        assert neighbors._block(15000, 4, 32, 2, 1000) == (31, 5000)
        # The benchmark's blocks keep their shapes: the cube tables' 20 rows
        # in 4 tiles, the 8-D lattice's 4 rows in one tile, and the trails'
        # whole-row plan at k = 400.
        assert neighbors._block(25000, *neighbors._plan(25000, 100, 5), 5, 100) == (20, 6250)
        assert neighbors._block(65536, *neighbors._plan(65536, 500, 8), 8, 16) == (4, 65536)
        assert neighbors._block(4096, *neighbors._plan(4096, 400, 6), 6, 10) == (10, 4096)
        budget = neighbors._BLOCK_BYTES
        for n in (50, 3000, 4097, 5000, 8193, 15000, 25000, 65536, 300000):
            for k in (1, 10, 63, 100, 500):
                for dim in (1, 2, 5, 8, 40):
                    stride, rank = neighbors._plan(n, k, dim)
                    per_row = 4 * -(-n // stride) + stride * rank * 16 * (dim + 6)
                    for queries in (0, 1, 7, 100, 1000):
                        rows, tile = neighbors._block(n, stride, rank, dim, queries)
                        shape = (n, k, dim, queries, rows, tile)
                        assert rows == 1 or rows * per_row <= budget, shape
                        assert min(n, neighbors._TILE) <= tile <= n, shape
                        assert 4 * rows * tile <= budget, shape
                        tiles = -(-n // tile)  # even: each tile ceil(n / tiles) wide
                        assert tiles * (tile - 1) < n <= tiles * tile, shape

    @pytest.mark.parametrize("case", ["scale_1e150", "scale_1e306", "far_query"])
    def test_a_search_warns_of_nothing_and_leaves_the_error_state(self, case):
        # The kernel ignores the screen's overflows inside one errstate:
        # outside it, the caller's state holds, even where the search raises.
        points, queries, k = _kernel_case(case)
        data = DataMatrix(points)
        want = _full_sort(data, queries, k)
        for state in ({}, {"over": "raise", "invalid": "raise"}):
            with np.errstate(**state):
                before = np.geterr()
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = knn_many(data, queries, k)
                    with pytest.raises(InsufficientNeighborsError):
                        knn_many(data, queries, data.n)
                assert np.geterr() == before
            _assert_bitwise(got, want)

    @pytest.mark.parametrize("case", ["copies_and_kth_ties", "inf_at_scale_1e160"])
    def test_rows_of_very_different_widths_rank_alone(self, monkeypatch, case):
        # The re-rank sorts each row of a padded array on its own; a row of
        # the block must come out as it does on its own and as the full sort
        # has it, however wide its block-mates are. Both cases take the
        # whole-row plan (n < 16 (k+1) D).
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
                _force_block(monkeypatch, block)
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


class TestReRank:
    """The re-rank sorts int64 views of the padded distances and repairs ties stably."""

    def test_int64_views_of_the_padded_values_sort_as_the_floats(self):
        # The padded rows hold positive doubles (subnormal to the largest),
        # inf where distances overflow, and the NaN that numpy's nan and the
        # kernel's fill write; as int64 their order is the float order, NaN last.
        info = np.finfo(np.float64)
        values = np.array([info.smallest_subnormal, 3 * info.smallest_subnormal,
                           info.smallest_normal / 2, info.smallest_normal, 1e-300, 0.5, 1.0,
                           1.0 + info.eps, 2.0, 1e160, 1e300, info.max / 2, info.max, np.inf])
        pad = np.empty((7, 3 * values.size + 5))
        pad.fill(np.nan)
        assert pad.view(np.int64)[0, 0] == np.array(np.nan).view(np.int64) == 0x7FF8 << 48
        rng = np.random.default_rng(12)
        for row in pad:
            row[:3 * values.size] = rng.permutation(np.tile(values, 3))
            rng.shuffle(row)
        order = np.argsort(pad.view(np.int64), axis=1)
        got = np.take_along_axis(pad, order, axis=1)
        want = np.sort(pad, axis=1)
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got[:, -5:]).all() and not np.isnan(got[:, :-5]).any()

    @pytest.mark.parametrize("k", [10, 40])
    def test_ties_across_the_kth_place_rank_as_the_full_sort(self, monkeypatch, k):
        # An integer grid: every interior point has 6 neighbors at 1, 12 at
        # sqrt 2, 8 at sqrt 3, 6 at 2 and 24 at sqrt 5, so k = 10 and k = 40
        # fall inside a shell and its tied distances straddle the k-th place.
        # k = 10 takes the whole-row plan and k = 40 the sampled one.
        axes = np.meshgrid(*[np.arange(14.0)] * 3, indexing="ij")
        data = DataMatrix(np.stack(axes, axis=-1).reshape(-1, 3))
        assert (neighbors._plan(data.n, k, 3)[0] > 1) == (k == 40)
        rows = [3 * 196 + 4 * 14 + 5, 7 * 196 + 7 * 14 + 7, 0, 2743, 10 * 196 + 3 * 14 + 9]
        queries = data.points[rows]
        d = _sorted_candidates(data, queries[1])[1]
        assert d[k - 1] == d[k]
        stable = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            stable.append(a.dtype == np.float64 and kwargs.get("kind") == "stable")
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        want = _full_sort(data, queries, k)
        stable.clear()
        for block in (1, 2, None):
            if block is not None:
                _force_block(monkeypatch, block)
            _assert_bitwise(knn_many(data, queries, k), want)
        assert any(stable)  # the repair of tied rows ran


class TestBlockedTables:
    def test_threads_give_identical_csv_bytes(self, tmp_path, monkeypatch):
        data = synth.sample_ball(1500, 4, seed=12)
        _force_block(monkeypatch, 5)
        queries = list(range(0, 1500, 40))  # 37 queries: kernel blocks of 5 and one of 2
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
        for threads in (2, 3, 4):
            units.clear()
            angle_id.estimate_table(data, 20, ESTIMATOR_TAGS, queries=queries, threads=threads)
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
        _force_block(monkeypatch, 1)
        monkeypatch.setattr(angle_id, "_CHUNK", 3 * k)
        for tags in (("abid", "mle"), ("mle",)):
            with pytest.raises(InsufficientNeighborsError) as exc:
                angle_id.estimate_table(data, k, tags, queries=queries, threads=threads)
            assert (exc.value.point, exc.value.required, exc.value.available) == (5, k, 30)
        with pytest.raises(InsufficientNeighborsError) as exc:
            analysis.trails(data, [10, k], "abid", point_subset=queries, threads=threads)
        assert (exc.value.point, exc.value.required, exc.value.available) == (5, k, 30)

    def test_an_estimator_minimum_names_the_first_query_before_any_search(self, no_search):
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
    def test_non_integer_query_indices_fail_before_any_search(self, no_search, values, bad):
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


class TestWorkspace:
    """Each thread's kNN workspace (``neighbors._workspace``), kept between searches."""

    def test_alternating_rules_and_sizes_in_one_thread_match_full_sort(self):
        ball = synth.sample_ball(6000, 2, seed=3)  # k = 40 takes the sampled rule
        # n < 16 (k+1) D: the whole-row plan, and point 0 has 60 copies.
        copies = DataMatrix(np.vstack([ball.points[:300], np.repeat(ball.points[:1], 60, axis=0)]))
        larger = synth.sample_ball(20000, 2, seed=4)
        smaller = synth.sample_ball(500, 3, seed=5)
        cases = [(ball, ball.points[::97], 40), (copies, copies.points[[0, 5, 300, 359, 17]], 40),
                 (larger, larger.points[::501], 40), (smaller, smaller.points[::23], 12)]
        wants = [_full_sort(*case) for case in cases]
        for _ in range(2):
            for case, want in zip(cases, wants):
                _assert_bitwise(knn_many(*case), want)

    def test_a_buffer_name_holds_one_dtype(self):
        def run():
            assert neighbors._workspace("x", (4,)).dtype == np.float64
            for dtype in (np.float32, bool):
                with pytest.raises(TypeError, match="^workspace buffer 'x' holds float64, not "):
                    neighbors._workspace("x", (4,), dtype)
            assert neighbors._workspace("x", (8,)).dtype == np.float64

        with ThreadPoolExecutor(max_workers=1) as pool:  # a fresh thread, a fresh workspace
            pool.submit(run).result()

    def test_screens_of_very_different_scales_alternate_in_one_thread(self):
        ball = synth.sample_ball(3000, 2, seed=6)
        # 4 M of the unscaled far points would overflow float32, and the
        # tiny ones would sit in its subnormals: each screen takes its own shift.
        far, tiny = DataMatrix(ball.points * 1e20), DataMatrix(ball.points * 1e-20)
        cases = [(data, data.points[::59], 31) for data in (ball, far, tiny)]
        wants = [_full_sort(*case) for case in cases]
        for _ in range(2):
            for case, want in zip(cases, wants):
                _assert_bitwise(knn_many(*case), want)
        shifts = [data._screen[2] for data in (ball, far, tiny)]
        assert shifts[1] < shifts[0] < shifts[2]
        assert all(data._screen[0].dtype == np.float32 for data in (ball, far, tiny))

    def test_two_threads_searching_different_data_at_once_match_full_sort(self):
        sampled = synth.sample_ball(3000, 2, seed=6)
        exact = synth.sample_ball(800, 4, seed=7)
        cases = [(sampled, sampled.points[::59], 31), (exact, exact.points[::41], 31)]
        wants = [_full_sort(*case) for case in cases]
        start = threading.Barrier(2, timeout=30)

        def search(i):
            start.wait()
            for _ in range(50):
                _assert_bitwise(knn_many(*cases[i]), wants[i])
            return i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside searches too
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                assert list(pool.map(search, range(2), timeout=120)) == [0, 1]
        finally:
            sys.setswitchinterval(interval)

    def test_a_search_of_the_same_shape_reuses_the_threads_block(self):
        data = synth.sample_ball(2000, 3, seed=8)  # k = 10 takes the whole-row plan

        def buffers(rows):
            knn_many(data, data.points[:rows], 10)
            return neighbors._local.block, neighbors._local.mask, neighbors._local.part

        def run():
            first = buffers(12)
            assert [b.size for b in first] == [12 * data.n] * 3
            assert all(b is a for a, b in zip(first, buffers(12)))
            assert all(b is a for a, b in zip(first, buffers(3)))  # a smaller block: a prefix
            assert [b.size for b in buffers(40)] == [40 * data.n] * 3

        def sampled():
            ball = synth.sample_ball(3000, 2, seed=6)  # k = 31 takes the sampled rule, step 2
            knn_many(ball, ball.points[:5], 31)
            sizes = {name: getattr(neighbors._local, name).size for name in ("block", "tile", "mask")}
            return sizes, hasattr(neighbors._local, "part")

        # A fresh thread starts without a workspace.
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(run).result()
        with ThreadPoolExecutor(max_workers=1) as pool:
            # Pass 1 holds ceil(n / step) values per row, never n; the one
            # tile and its mask hold whole rows. No row fell back, so no
            # cut copied its block.
            sizes = {"block": 5 * 1500, "tile": 5 * 3000, "mask": 5 * 3000}
            assert pool.submit(sampled).result() == (sizes, False)



class TestScreenCache:
    """The kNN screen each DataMatrix builds on its first search (``neighbors._screen``)."""

    def test_every_later_search_reuses_the_read_only_screen(self, monkeypatch):
        data = synth.sample_ball(3000, 3, seed=9)
        builds = []
        build = neighbors._build_screen
        monkeypatch.setattr(neighbors, "_build_screen", lambda pts: builds.append(1) or build(pts))
        assert data._screen is None
        knn_many(data, data.points[:4], 10)
        screen = data._screen
        assert builds == [1] and len(screen) == 6
        assert not screen[0].flags.writeable and not screen[1].flags.writeable
        knn(data, 7, 12)
        angle_id.estimate_point(data, 3, 20)
        angle_id.estimate_table(data, 15, ESTIMATOR_TAGS, queries=range(0, 3000, 97))
        analysis.trails(data, range(5, 40), "abid", point_subset=[1, 2, 3], threads=2)
        assert builds == [1]
        assert all(a is b for a, b in zip(data._screen, screen))
        want = build(data.points)
        assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(screen, want))

    def test_a_matrix_keeps_the_sampled_columns_of_its_last_stride(self):
        data = synth.sample_ball(20000, 2, seed=12)
        assert [neighbors._plan(data.n, k, 2)[0] for k in (10, 50, 100)] == [1, 3, 6]
        knn(data, 0, 10)  # the whole-row plan samples nothing
        assert data._sample is None
        knn(data, 0, 50)
        kept = data._sample
        for q in range(1, 5):  # later searches per point copy nothing
            _assert_bitwise(knn_many(data, data.points[q:q + 1], 50),
                            _full_sort(data, data.points[q:q + 1], 50))
        assert data._sample is kept
        stride, columns = kept
        assert stride == 3 and columns.shape == (4, 6667) and not columns.flags.writeable
        assert columns.tobytes() == data._screen[0][:, ::3].tobytes()
        knn(data, 3, 100)  # another stride replaces them
        assert data._sample[0] == 6 and data._sample[1].shape == (4, 3334)
        assert dataclasses.replace(data)._sample is None

    def test_matrices_of_equal_shape_never_share_a_screen(self):
        a = synth.sample_ball(2000, 2, seed=10)
        b = DataMatrix(a.points[::-1] * 2.0 + 1.0)
        for _ in range(2):
            for data in (a, b, a):
                _assert_bitwise(knn_many(data, data.points[::101], 40),
                                _full_sort(data, data.points[::101], 40))
        assert not any(np.shares_memory(x, y) for x, y in zip(a._screen[:2], b._screen[:2]))

    def test_replace_gives_a_fresh_matrix_without_a_screen(self):
        data = synth.sample_ball(1500, 3, seed=11)
        knn(data, 0, 5)
        same = dataclasses.replace(data)
        moved = dataclasses.replace(data, points=data.points + 5.0)
        assert data._screen is not None and same._screen is None and moved._screen is None
        for fresh in (same, moved):
            queries = fresh.points[::61]
            _assert_bitwise(knn_many(fresh, queries, 12), _full_sort(fresh, queries, 12))
        assert moved._screen[1].tobytes() != data._screen[1].tobytes()  # its own center

    # (n, D, scale): scales far above and below 1, one point (reach 0, so
    # no scale) and two, D = 1.
    BUILDS = {"ball": (3001, 3, 1.0), "huge": (2000, 3, 1e30), "tiny": (2000, 3, 1e-30),
              "one": (1, 4, 1.0), "two": (2, 4, 1.0), "line": (1001, 1, 1.0),
              "wide": (777, 40, 1e3)}

    @pytest.mark.parametrize("case", sorted(BUILDS))
    @pytest.mark.parametrize("columns", [None, 1, 5])
    @pytest.mark.parametrize("j", [-600, 0, 600])
    def test_the_chunked_build_is_bitwise_the_whole_float64_one(self, monkeypatch, case, columns,
                                                                j):
        # j rescales the points by 2**j first: the shift absorbs it exactly,
        # so the screen and its norms are bitwise those of the unscaled points.
        n, dim, scale = self.BUILDS[case]
        rng = np.random.default_rng(n + dim)
        base = scale * (rng.standard_normal((n, dim)) + rng.uniform(-50.0, 50.0, dim))
        pts = np.ldexp(base, j)
        if columns:  # a budget of 1 column (the minimum, 4, holds) or 5
            monkeypatch.setattr(neighbors, "_BUILD_BYTES", 8 * dim * columns)
        got, want = neighbors._build_screen(pts), _whole_build(pts)
        assert got[0].dtype == want[0].dtype == np.float32
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2] == want[2] and (got[2] == 0) == (case == "one")
        assert np.float64(got[3]).tobytes() == np.float64(want[3]).tobytes()
        assert not got[0].flags.writeable and not got[1].flags.writeable
        unscaled = _whole_build(base)
        assert got[0].tobytes() == unscaled[0].tobytes()
        assert got[1].tobytes() == np.ldexp(unscaled[1], j).tobytes()
        assert got[2] == (unscaled[2] - j if case != "one" else 0)
        assert np.float64(got[3]).tobytes() == np.float64(unscaled[3]).tobytes()

    @pytest.mark.parametrize("scale", [1.0, 1e150])
    def test_a_first_build_holds_little_beyond_the_kept_screen(self, scale):
        # The size of the 8-D lattice. A whole float64 matrix rounded to
        # float32 afterwards peaked at three times the kept screen. At
        # 1e150 the chunks are scaled in place, with no further copy.
        pts = scale * np.random.default_rng(13).standard_normal((65536, 8))
        tracemalloc.start()
        try:
            screen = neighbors._build_screen(pts)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert screen.dtype == np.float32
        assert screen.nbytes <= peak  # numpy reports its arrays to tracemalloc
        # Besides the screen: the float64 norms and one float64 column chunk.
        assert peak <= screen.nbytes + 8 * len(pts) + neighbors._BUILD_BYTES + (1 << 16)

    def test_two_threads_making_a_fresh_matrixs_first_search_at_once_match_full_sort(
            self, monkeypatch):
        base = synth.sample_ball(3000, 2, seed=12)
        queries = base.points[::59]
        want = _full_sort(base, queries, 31)
        start = threading.Barrier(2, timeout=30)
        builds = []
        build = neighbors._build_screen
        monkeypatch.setattr(neighbors, "_build_screen", lambda pts: builds.append(1) or build(pts))

        def search(data):
            start.wait()
            got = knn_many(data, queries, 31)
            return got, data._screen

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside the build too
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                for _ in range(20):
                    data = DataMatrix(base.points)
                    results = list(pool.map(search, [data, data], timeout=120))
                    for got, _ in results:
                        _assert_bitwise(got, want)
                    assert all(x is y for x, y in zip(results[0][1], results[1][1]))
        finally:
            sys.setswitchinterval(interval)
        assert len(builds) == 20  # one per matrix

    def test_threads_searching_one_matrix_at_different_strides_match_full_sort(self):
        # The matrix keeps the sampled columns of one stride (``_sampled``),
        # so threads at different k replace each other's while they search.
        data = synth.sample_ball(20000, 2, seed=13)
        queries = data.points[::997]
        ks = [50, 100, 200, 10]  # strides 3, 6 and 12, and the whole-row plan
        assert [neighbors._plan(data.n, k, 2)[0] for k in ks] == [3, 6, 12, 1]
        wants = [_full_sort(data, queries, k) for k in ks]
        start = threading.Barrier(len(ks), timeout=30)

        def search(i):
            start.wait()
            for _ in range(15):
                _assert_bitwise(knn_many(data, queries, ks[i]), wants[i])
            return i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, between the read and the store too
        try:
            with ThreadPoolExecutor(max_workers=len(ks)) as pool:
                assert list(pool.map(search, range(len(ks)), timeout=120)) == [0, 1, 2, 3]
        finally:
            sys.setswitchinterval(interval)


def _whole_build(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, np.float64]:
    """The screen of ``pts`` from one whole (D+2, n) float64 matrix, scaled and rounded to
    float32 at the end, with its center, shift and largest scaled squared norm:
    ``neighbors._build_screen`` before its column chunks, kept as its oracle."""
    dim = pts.shape[1]
    screen = np.empty((dim + 2, len(pts)))
    screen[:dim] = pts.T
    with np.errstate(over="ignore", invalid="ignore"):
        center = screen[:dim].mean(axis=1)
        screen[:dim] -= center[:, None]
        reach = np.abs(screen[:dim]).max()
        shift = -int(np.frexp(reach)[1]) if 0.0 < reach < np.inf else 0
        screen[:dim] = np.ldexp(screen[:dim], shift)
        np.einsum("ij,ij->j", screen[:dim], screen[:dim], out=screen[dim])
    screen[dim + 1] = 1.0
    return screen.astype(np.float32), center, shift, screen[dim].max()


def _spy_workspace(monkeypatch) -> list:
    """Record (thread, name, address, shape, buffer) of every view ``_workspace`` hands out.

    The record holds each whole buffer, so no buffer's memory is freed and
    handed to another thread while the test runs.
    """
    seen = []
    workspace = neighbors._workspace

    def spy(name, shape, dtype=np.float64):
        buf = workspace(name, shape, dtype)
        seen.append((threading.get_ident(), name, buf.__array_interface__["data"][0], buf.shape,
                     buf.base))
        return buf

    monkeypatch.setattr(neighbors, "_workspace", spy)
    monkeypatch.setattr(angle_id, "_workspace", spy)
    return seen


class TestWorkspaceBuffers:
    """The per-block arrays of searches and estimation in the thread's workspace."""

    # The whole-row plan (k = 10) and the sampled one (k = 31 on 3 000 2-D points).
    CASES = [(lambda: synth.sample_ball(2000, 3, seed=8), 10),
             (lambda: synth.sample_ball(3000, 2, seed=6), 31)]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_a_block_of_the_same_shape_reuses_the_buffers_and_a_smaller_one_a_prefix(
            self, monkeypatch, case):
        make, k = self.CASES[case]
        data = make()
        seen = _spy_workspace(monkeypatch)
        # No map keeps its neighbor lists, so every table searches and the
        # kernel writes its lists to "idx" and "dist".
        monkeypatch.setattr(angle_id, "_KEEP_BYTES", 0)

        def run(rows):
            seen.clear()
            angle_id.estimate_table(data, k, ESTIMATOR_TAGS, queries=range(rows),
                                    with_diagnostics=True)
            return {name: (addr, shape) for _, name, addr, shape, _ in seen}

        def buffers(rows):
            first = run(rows)
            # The whole-row plan cuts a copy of its block, "part"; the
            # sampled plan collects from pass-2 tiles, "tile".
            plan, other = ("part", "tile") if case == 0 else ("tile", "part")
            names = {"block", plan, "mask", "diff", "query_rows", "cand_dists", "pad", "take",
                     "idx", "dist", "directions", "transposed", "products", "rise", "terms"}
            assert names <= set(first) and other not in first
            held = {name: getattr(neighbors._local, name) for name in first}
            assert run(rows) == first  # the same addresses and shapes
            smaller = run(rows // 4)
            for name, (addr, shape) in smaller.items():
                assert addr == first[name][0] and math.prod(shape) <= math.prod(first[name][1])
                assert getattr(neighbors._local, name) is held[name]
            return first

        with ThreadPoolExecutor(max_workers=1) as pool:  # a fresh thread, a fresh workspace
            first = pool.submit(buffers, 24).result()
        assert first["directions"][1] == (24, k, data.dim)
        assert first["idx"][1] == first["dist"][1] == (24, k)

    def test_a_table_cubes_batch_holds_no_more_kernel_buffers_than_before(self):
        # 100 queries of the 25 000 x 5 nested cubes at k = 100, the
        # benchmark's batch: the sampled plan in 20-row blocks and 4 tiles.
        # The kernel's buffers of the one-pass kernel that screened 10-row
        # (10, n) blocks totalled 1 652 920 bytes here.
        data = synth.generate(synth.GeneratorSpec(
            "nested_cubes", seed=1, params={"max_dim": 5, "n_per_cube": 5000})).matrix
        assert data.points.shape == (25000, 5)
        assert neighbors._block(25000, *neighbors._plan(25000, 100, 5), 5, 100) == (20, 6250)
        rows = list(range(0, 25000, 250))

        def run():  # a fresh thread: only the kernel's buffers
            knn_many(data, data.points[rows], 100)
            return {name: buf.nbytes for name, buf in vars(neighbors._local).items()}

        with ThreadPoolExecutor(max_workers=1) as pool:
            held = pool.submit(run).result()
        assert set(held) == {"block", "tile", "mask", "diff", "query_rows", "cand_dists", "pad",
                             "take"}
        assert sum(held.values()) <= 1_652_920, held

    def test_each_pool_thread_gets_its_own_buffers(self, monkeypatch):
        data = synth.sample_ball(2000, 3, seed=8)
        queries = list(range(0, 2000, 7))
        want = angle_id.estimate_table(data, 10, ESTIMATOR_TAGS, queries=queries)
        monkeypatch.setattr(angle_id, "_CHUNK", 10 * 3 * 8)  # 8-row blocks: many per thread
        seen = _spy_workspace(monkeypatch)
        start = threading.Barrier(2, timeout=30)

        def table(_):
            start.wait()  # both threads at once
            got = angle_id.estimate_table(data, 10, ESTIMATOR_TAGS, queries=queries, threads=2)
            return {t: got.values(t).tobytes() for t in ESTIMATOR_TAGS}

        with ThreadPoolExecutor(max_workers=2) as pool:
            for got in pool.map(table, range(2), timeout=120):
                assert got == {t: want.values(t).tobytes() for t in ESTIMATOR_TAGS}
        owners = {}
        for thread, _, addr, _, _ in seen:
            owners.setdefault(addr, set()).add(thread)
        assert len({thread for thread, *_ in seen}) >= 2
        assert all(len(threads) == 1 for threads in owners.values())

# One warm round of repeated trails on the 6-D lattice: 4 batches of 10
# points, ABID and MLE at every k from 10 to 400.
_FAULT_ROUND = """
import resource
import numpy as np
from angleid import analysis, synth
data = synth.generate(synth.GeneratorSpec("lattice", seed=1, params={"dims": 6})).matrix
points = np.random.default_rng(1).choice(data.n, 40, replace=False)
batches = [sorted(int(p) for p in points[i:i + 10]) for i in range(0, 40, 10)]

def round_():
    for batch in batches:
        for tag in ("abid", "mle"):
            analysis.trails(data, range(10, 401), tag, point_subset=batch)

round_()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
round_()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _fault_round(env: dict) -> subprocess.CompletedProcess:
    """``_FAULT_ROUND`` in a fresh interpreter with the environment ``env``."""
    return subprocess.run([sys.executable, "-c", _FAULT_ROUND], capture_output=True, text=True,
                          env=env, check=True)


_ON_GLIBC = pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                               reason="counts the page faults of glibc's heap on Linux")


@_ON_GLIBC
def test_repeated_trails_do_not_page_their_arrays_in_again(package_env):
    # Arrays made afresh per search or per Gram chunk were handed back to
    # the OS when freed and paged in again by the next call: about 3 300
    # minor faults per round. A fresh interpreter runs the round, because
    # large blocks freed by earlier tests raise glibc's trim threshold and
    # would hide that churn in this process.
    proc = _fault_round(package_env())
    assert int(proc.stdout) < 100


@_ON_GLIBC
def test_repeated_trails_page_nothing_in_at_glibcs_smallest_thresholds(package_env):
    # glibc raises its mmap and trim thresholds when it frees a large
    # mapped block, so a process that has done so keeps more of its heap.
    # Pinned at their 128 KiB defaults, every array of that size is mapped
    # afresh and the heap top is trimmed as soon as 128 KiB of it are
    # free: only arrays kept between calls stay paged in (about 2 200
    # faults per round when the screen and the per-block arrays were
    # made per call).
    proc = _fault_round(package_env(MALLOC_MMAP_THRESHOLD_="131072",
                                    MALLOC_TRIM_THRESHOLD_="131072"))
    assert int(proc.stdout) < 100
