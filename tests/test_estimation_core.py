"""The batched estimation core, ``angle_id._estimates``, on blocks of queries.

Tables, trails and the public per-neighborhood estimator functions all run
through it, on blocks whose size is set by a byte budget
(``angle_id._CHUNK``). These tests pin that a row's results do not depend
on the block it came in: every value, flag and mean cosine is bitwise the
public functions' on ``knn(...).prefix(k)``, for blocks of 1, 7 and all
rows. They also pin the numpy behavior that this rests on, and check the
estimators' invariances and bounds as ``hypothesis`` properties.
"""

import dataclasses
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from angleid import analysis, angle_id, baseline_id, neighbors, synth
from angleid.core import (
    CLAMPED_TO_K,
    DEGENERATE_ZERO_DENOMINATOR,
    ESTIMATOR_TAGS,
    FLAG_BITS,
    MIN_K,
    DataMatrix,
    InsufficientNeighborsError,
    _FLAG_SETS,
)
from angleid.neighbors import DirectionBundle, NeighborList, direction_bundle, knn
from test_neighbors import knn_many

pytestmark = pytest.mark.filterwarnings("ignore::angleid.angle_id.NeighborhoodSizeWarning")


def _grid_with_duplicates() -> DataMatrix:
    """A 4x4x4 integer grid, so distances tie, plus exact copies of every 5th point."""
    axes = np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij")
    grid = np.stack(axes, axis=-1).reshape(-1, 3)
    return DataMatrix(np.vstack([grid, grid[::5]]))


# (data, k): a 4-D ball; a grid with ties, duplicates and degenerate
# distance profiles; a 1-D line; 12-D Gaussian data at k < D (the Gram
# side of _sq_sums, where RABID clamps).
DATASETS = {
    "ball": (lambda: synth.sample_ball(300, 4, seed=21), 30),
    "grid": (_grid_with_duplicates, 6),
    "line": (lambda: DataMatrix(np.random.default_rng(4).uniform(0, 1, (200, 1))), 12),
    "gauss12": (lambda: synth.sample_gaussian(300, 12, seed=22), 8),
}
QUERIES = list(range(0, 69, 3))  # 23 queries: blocks of 7 leave a remainder of 2


def _use_block_rows(monkeypatch, rows: int, k: int, dim: int) -> None:
    """Make the estimation core take ``rows`` queries per block at this k and D."""
    monkeypatch.setattr(angle_id, "_CHUNK", rows * k * dim)
    assert angle_id._estimate_rows(k, dim, True) == rows


def _reference(u: np.ndarray, d: np.ndarray, tag: str, pair=None) -> tuple[float, frozenset]:
    """One estimate by the per-neighborhood scalar arithmetic that the batched core replaced.

    ``u`` and ``d`` are one query's k directions and sorted distances.
    """
    k = d.size
    if tag in ("abid", "rabid"):
        dim = u.shape[1]
        if k >= dim:
            a, b = np.triu_indices(dim)
            c = np.cumsum(u[:, a] * u[:, b], axis=0)[k - 1]
            sq = np.cumsum(c * c * np.where(a == b, 1.0, 2.0))[-1]
        else:
            g = np.einsum("id,jd->ij", u, u)
            g *= g
            sq = np.cumsum(np.diagonal(g) + 2.0 * np.cumsum(np.tril(g, -1), axis=-1)[:, -1])[-1]
        off = min(max(float(sq) - k, 0.0), float(k * k - k))
        if tag == "abid":
            return k * k / (off + k), frozenset()
        if off == 0.0:
            return float(k), frozenset({CLAMPED_TO_K, DEGENERATE_ZERO_DENOMINATOR})
        value = (k * k - k) / off
        return (float(k), frozenset({CLAMPED_TO_K})) if value > k else (value, frozenset())
    degenerate = frozenset({DEGENERATE_ZERO_DENOMINATOR})
    if tag == "mle":
        log_sum = float(np.log(d[:-1] / d[-1]).sum())
        return (float(k), degenerate) if log_sum == 0.0 else (-(k - 1) / log_sum, frozenset())
    if tag == "mom":
        w, m = float(d[-1]), float(d.mean())
        return (float(k), degenerate) if d[0] == w else (m / (w - m), frozenset())
    k1, k2 = ((k + 1) // 2, k) if pair is None else pair
    d1, d2 = float(d[k1 - 1]), float(d[k2 - 1])
    if d1 == d2:
        return float(k), degenerate
    return float(np.log(k2 / k1) / np.log(d2 / d1)), frozenset()


# The core sums MLE's logs and MoM's gaps in another order than the
# per-k formulas of ``_reference``; bench/reference.py allows the same.
REFERENCE_RTOL = 1e-12


def _agrees(got: tuple[float, frozenset], want: tuple[float, frozenset], tag: str) -> bool:
    """``got == want``, but for MLE and MoM values only to REFERENCE_RTOL (flags exact)."""
    if tag in ("mle", "mom"):
        return got[1] == want[1] and abs(got[0] - want[0]) <= REFERENCE_RTOL * abs(want[0])
    return got == want


def _reference_mean_cosine(u: np.ndarray) -> float:
    k = len(u)
    if k == 1:
        return 0.0
    s = u.sum(axis=0)
    return min(max((float(s @ s) - k) / (k * k - k), -1.0), 1.0)


def _public(data, q, nl, tag):
    if tag in ("abid", "rabid"):
        return getattr(angle_id, tag)(angle_id.cosine_square_stats(direction_bundle(data, q, nl)))
    return {"mle": baseline_id.mle_hill, "mom": baseline_id.mom, "ged": baseline_id.ged}[tag](nl)


@pytest.mark.parametrize("name", sorted(DATASETS))
@pytest.mark.parametrize("rows", [1, 7, len(QUERIES)])
def test_tables_and_trails_equal_the_public_functions_for_any_block(monkeypatch, name, rows):
    make, k = DATASETS[name]
    data = make()
    _use_block_rows(monkeypatch, rows, k, data.dim)
    table = angle_id.estimate_table(data, k, ESTIMATOR_TAGS, queries=QUERIES, with_diagnostics=True)
    paired = angle_id.estimate_table(data, k, ("ged",), queries=QUERIES, ged_pair=(2, 5))
    ks = range(MIN_K["ged"], k + 1)
    trails = {tag: analysis.trails(data, ks, tag, point_subset=QUERIES) for tag in ESTIMATOR_TAGS}
    for pos, q in enumerate(QUERIES):
        nl = knn(data, q, k + 5).prefix(k)
        u = direction_bundle(data, q, nl).directions
        stats = angle_id.cosine_square_stats(direction_bundle(data, q, nl))
        assert table.mean_cosines[pos] == stats.mean_cosine == _reference_mean_cosine(u)
        # A vector equal to point q excludes that point, as the index query does.
        points = [angle_id.estimate_point(data, query, k, ESTIMATOR_TAGS)
                  for query in (q, data.points[q])]
        for tag in ESTIMATOR_TAGS:
            want = _public(data, q, nl, tag)
            for point in points:
                assert point[tag] == want, (q, tag)
                assert np.float64(point[tag].value).tobytes() == np.float64(want.value).tobytes()
            assert _agrees((want.value, want.flags), _reference(u, nl.distances, tag), tag), (q, tag)
            assert table.values(tag)[pos].tobytes() == np.float64(want.value).tobytes(), (q, tag)
            assert _FLAG_SETS[table.flags(tag)[pos]] == want.flags, (q, tag)
            assert table.rows[pos][1][tag] == want
            assert trails[tag].column(k)[pos].tobytes() == np.float64(want.value).tobytes()
        want = _reference(u, nl.distances, "ged", pair=(2, 5))
        assert (paired.values("ged")[pos], _FLAG_SETS[paired.flags("ged")[pos]]) == want


def test_the_grid_exercises_the_flags():
    # The dataset above must reach the degenerate branches it is there for.
    data, k = DATASETS["grid"][0](), DATASETS["grid"][1]
    table = angle_id.estimate_table(data, k, ESTIMATOR_TAGS, queries=QUERIES)
    for tag in ("mle", "mom", "ged"):
        assert np.any(table.flags(tag) == FLAG_BITS[DEGENERATE_ZERO_DENOMINATOR]), tag
    table = angle_id.estimate_table(DATASETS["gauss12"][0](), 8, ("rabid",), queries=QUERIES)
    assert np.any(table.flags("rabid") == FLAG_BITS[CLAMPED_TO_K])


def test_one_size_warning_per_offending_row():
    data, k = DATASETS["gauss12"][0](), 8
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", angle_id.NeighborhoodSizeWarning)
        table = angle_id.estimate_table(data, k, ("abid", "rabid"), queries=QUERIES)
    offending = np.count_nonzero((table.values("abid") > k - 2) | (table.values("rabid") > k - 2))
    assert 0 < offending < len(QUERIES)
    assert [w.category for w in caught] == [angle_id.NeighborhoodSizeWarning] * offending
    assert {w.filename for w in caught} == {__file__}


def test_a_block_of_degenerate_and_regular_rows():
    rng = np.random.default_rng(6)
    k, dim = 5, 6
    u = np.zeros((4, k, dim))
    u[:, :, :2] = rng.standard_normal((4, k, 2))  # in a plane: RABID near 2, not clamped
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    u[1] = np.eye(dim)[:k]  # pairwise orthogonal: RABID's zero denominator
    u[3] = -np.eye(dim)[1:k + 1]
    d = np.sort(rng.uniform(0.5, 2.0, (4, k)), axis=1)
    d[2] = 1.25  # all distances equal: MLE, MoM and GED degenerate
    out = angle_id._estimates(u, d, ESTIMATOR_TAGS, [k], None)
    for r in range(4):
        stats = angle_id.cosine_square_stats(DirectionBundle(u[r], k))
        nl = NeighborList(None, np.arange(k), d[r])
        for tag in ESTIMATOR_TAGS:
            want = (getattr(angle_id, tag)(stats) if tag in ("abid", "rabid")
                    else _public(None, None, nl, tag))
            values, flags = out[tag]
            got = (values[r, 0], _FLAG_SETS[flags[r, 0]])
            assert got == (want.value, want.flags), (r, tag)
            assert _agrees(got, _reference(u[r], d[r], tag), tag), (r, tag)
    both = FLAG_BITS[CLAMPED_TO_K] | FLAG_BITS[DEGENERATE_ZERO_DENOMINATOR]
    assert out["rabid"][1][:, 0].tolist() == [0, both, 0, both]
    assert out["rabid"][0][[1, 3], 0].tolist() == [k, k]
    assert out["abid"][0][[1, 3], 0].tolist() == [k, k]
    for tag in ("mle", "mom", "ged"):
        assert out[tag][1][:, 0].tolist() == [0, 0, FLAG_BITS[DEGENERATE_ZERO_DENOMINATOR], 0]
        assert out[tag][0][2, 0] == k


def test_a_table_on_an_orthogonal_cross_sets_every_flag():
    # The query sits at the origin with its four neighbors on the axes.
    data = DataMatrix(np.vstack([np.zeros(4), np.eye(4)]))
    table = angle_id.estimate_table(data, 4, ESTIMATOR_TAGS, queries=[0], with_diagnostics=True)
    assert table.values("abid").tolist() == [4.0]
    assert table.flags("abid").tolist() == [0]
    assert table.flags("rabid").tolist() == [FLAG_BITS[CLAMPED_TO_K] | FLAG_BITS[DEGENERATE_ZERO_DENOMINATOR]]
    for tag in ("mle", "mom", "ged"):
        assert table.flags(tag).tolist() == [FLAG_BITS[DEGENERATE_ZERO_DENOMINATOR]]
    assert table.mean_cosines == (0.0,)


def test_the_outer_sums_do_not_depend_on_their_k_chunks(monkeypatch):
    rng = np.random.default_rng(8)
    u = rng.standard_normal((3, 90, 4))
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    ks = list(range(4, 91))
    want = angle_id._sq_sums(u, ks)
    # 10 products per direction: _outer_sums takes the whole block where its
    # 2 700 products fit twice _CHUNK, else an even number of whole rows
    # where two rows' 1 800 fit _CHUNK, else runs of _CHUNK // 20
    # directions of two rows.
    for chunk in (10, 10 * 7, 10 * 33, 900, 900 * 3):  # runs of 1, 3, 16, 45; the whole block
        monkeypatch.setattr(angle_id, "_CHUNK", chunk)
        assert angle_id._sq_sums(u, ks).tobytes() == want.tobytes()
    for r in range(3):
        assert angle_id._sq_sums(u[r:r + 1], ks).tobytes() == want[r:r + 1].tobytes()


def test_the_outer_sums_of_a_trails_block_equal_one_unchunked_pass(monkeypatch):
    # The shape of an ABID trails block on the 6-D lattice: 7 rows of 400
    # directions, 21 products per k, every k from 10 to 400.
    rng = np.random.default_rng(9)
    u = rng.standard_normal((7, 400, 6))
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    ks = np.arange(10, 401)
    chunks = []
    gather = angle_id._gather
    # The products are gathered from each chunk's (D, kc, L) transposed
    # directions, L the chunk's rows and a zero pad row where they are odd.
    monkeypatch.setattr(angle_id, "_gather", lambda a, indices, axis, name: (
        name == "products" and chunks.append(a.shape[1:])) or gather(a, indices, axis, name))
    monkeypatch.setattr(angle_id, "_CHUNK", 7 * 400 * 21)  # the whole block in one chunk
    whole = angle_id._sq_sums(u, ks)
    assert chunks == [(400, 8)]
    # Where the block does not fit twice _CHUNK, _outer_sums takes an even
    # number of whole rows where two rows' products fit _CHUNK, else runs of
    # two rows' directions: rows of 2 (the last alone, padded), and runs of 18
    # directions, 22 per pair of rows and a last one of 4.
    for chunk, want in ((2 * 400 * 21, [(400, 2)] * 4),
                        (37 * 21, ([(18, 2)] * 22 + [(4, 2)]) * 4)):
        monkeypatch.setattr(angle_id, "_CHUNK", chunk)
        chunks.clear()
        assert angle_id._sq_sums(u, ks).tobytes() == whole.tobytes()
        assert chunks == want


def test_a_trails_block_is_one_chunk_and_a_table_block_keeps_its_rows(monkeypatch):
    # At the default _CHUNK, an every-k trails block on the 6-D lattice (10
    # rows of 400 directions, 84 000 products) fits twice the budget and is
    # one chunk; a 100-query table at k = 100, D = 5 (150 000 products) does
    # not and keeps its chunks of 42 rows, whose two rows' products fit it.
    rng = np.random.default_rng(11)
    chunks = []
    gather = angle_id._gather
    monkeypatch.setattr(angle_id, "_gather", lambda a, indices, axis, name: (
        name == "products" and chunks.append(a.shape[1:])) or gather(a, indices, axis, name))
    for shape, ks, want in (((10, 400, 6), np.arange(10, 401), [(400, 10)]),
                            ((100, 100, 5), np.array([100]), [(100, 42), (100, 42), (100, 16)])):
        u = rng.standard_normal(shape)
        u /= np.linalg.norm(u, axis=2, keepdims=True)
        chunks.clear()
        whole = angle_id._sq_sums(u, ks)
        assert chunks == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(angle_id, "_CHUNK", 2 * 400 * 21)  # rows of 2
            assert angle_id._sq_sums(u, ks).tobytes() == whole.tobytes()


def test_the_outer_sums_gather_from_contiguous_chunks_only(monkeypatch):
    # numpy's take copies a strided input before it gathers, so a gather
    # from a strided chunk would make a temporary per chunk. _outer_sums
    # gathers the products' first factors from a contiguous transposed copy
    # of each chunk, whole (kc, L) blocks along its first axis, and the k
    # values that are not a run from the contiguous products, along their
    # k axis; a run is a slice.
    rng = np.random.default_rng(10)
    u = rng.standard_normal((7, 90, 4))
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    # Every k, and every third k, whose columns are gathered from the products.
    cases = [(np.arange(4, 91), []), (np.arange(4, 91, 3), [(True, 1, "transposed")])]
    wants = [angle_id._sq_sums(u, ks) for ks, _ in cases]
    gathers = []
    gather = angle_id._gather
    monkeypatch.setattr(angle_id, "_gather", lambda a, indices, axis, name: gathers.append(
        (a.flags.c_contiguous, axis, name)) or gather(a, indices, axis, name))
    for (ks, selected), want in zip(cases, wants):
        # 10 products per direction: runs of 7 directions of two rows (runs of
        # 3 would hold one requested k each, a slice), rows of 2, the whole
        # block (its 7 rows and a pad row).
        for chunk in (2 * 10 * 7, 10 * 90 * 3, 10 * 90 * 7):
            monkeypatch.setattr(angle_id, "_CHUNK", chunk)
            gathers.clear()
            assert angle_id._sq_sums(u, ks).tobytes() == want.tobytes()
            assert gathers[0] == (True, 0, "products")
            assert set(gathers) == {gathers[0], *selected}


@pytest.mark.parametrize("dim", [1, 2, 3, 6, 8, 20])
def test_both_pair_sums_give_the_same_outer_sums(monkeypatch, dim):
    # _outer_sums sums a chunk's pairs with one sum over the pair axis
    # where it has at least _LANES (row, k) lanes, else with one cumsum per
    # lane. Each path is forced here through that threshold; both must give
    # bitwise the same S(k), and a table's single k the same as every-k trails.
    rng = np.random.default_rng(dim)
    u = rng.standard_normal((9, 60, dim))
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    every, some = np.arange(dim, 61), np.arange(dim, 61, 4)
    results = []
    for lanes in (0, 1 << 62):  # every chunk on the add path, then on the cumsum path
        monkeypatch.setattr(angle_id, "_LANES", lanes)
        for chunk in (1 << 16, 7 * dim * (dim + 1) // 2):  # whole blocks, runs of 3 directions
            monkeypatch.setattr(angle_id, "_CHUNK", chunk)
            got = angle_id._outer_sums(u, every)
            assert angle_id._outer_sums(u, some).tobytes() == got[:, ::4].tobytes()
            for j in (0, 17 % every.size, every.size - 1):
                single = angle_id._outer_sums(u, every[j:j + 1])
                assert single.tobytes() == got[:, j:j + 1].tobytes(), (lanes, chunk, j)
            results.append(got.tobytes())
    assert len(set(results)) == 1


def _float_lane_outer_sums(u: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """The oracle of ``_outer_sums``: S(k) at k >= D in float64 lanes, one row per pass.

    This is the arithmetic of ``_outer_sums`` before it paired rows into
    complex128 lanes: per row, the running sums along k of the upper
    triangle's products u_a u_b, their squares, the weights (1 on the
    diagonal, 2 off it) and the pairs added in index order.
    """
    a, b = np.triu_indices(u.shape[2])
    weight = np.where(a == b, 1.0, 2.0)
    out = np.empty((len(u), ks.size))
    for r, v in enumerate(u[:, :ks[-1]]):
        c = np.cumsum(v[:, a] * v[:, b], axis=0)[ks - 1]  # (len(ks), pairs)
        c = np.square(c) * weight
        out[r] = np.cumsum(c, axis=1)[:, -1]
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sq_sums_equal_the_float_lane_oracle(data):
    rows = data.draw(st.integers(1, 9), label="B")
    k_max = data.draw(st.integers(1, 400), label="k_max")
    dim = data.draw(st.integers(1, 20), label="D")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    u = rng.standard_normal((rows, k_max, dim))
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    if data.draw(st.booleans(), label="run"):
        lo = data.draw(st.integers(1, k_max), label="first k")
        ks = np.arange(lo, data.draw(st.integers(lo, k_max), label="last k") + 1)
    else:  # gathered columns
        ks = np.array(sorted(data.draw(st.sets(st.integers(1, k_max), min_size=1, max_size=50))))
    pairs = dim * (dim + 1) // 2
    chunk = data.draw(st.one_of(
        st.just(angle_id._CHUNK),
        st.integers(1, 10).map(lambda r: r * k_max * pairs),  # whole rows
        st.integers(1, 2 * k_max).map(lambda s: s * pairs),  # runs of directions
    ), label="_CHUNK")
    lanes = data.draw(st.sampled_from([0, angle_id._LANES, 1 << 62]), label="_LANES")
    gram = ks < dim
    want = np.empty((rows, ks.size))
    if gram.any():
        want[:, gram] = angle_id._gram_sums(u, ks[gram])
    if not gram.all():
        want[:, ~gram] = _float_lane_outer_sums(u, ks[~gram])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(angle_id, "_CHUNK", chunk)
        mp.setattr(angle_id, "_LANES", lanes)
        assert angle_id._sq_sums(u, ks).tobytes() == want.tobytes()


class TestRowReductions:
    """Undocumented numpy behavior that the core relies on, pinned here."""

    @pytest.mark.parametrize("rows", [1, 3, 8])
    def test_cumsum_along_rows_is_the_1d_cumsum(self, rows):
        # MLE/MoM read every k off one row-wise cumsum; a table's row is
        # a trail's prefix, alone or in a block of any size or layout.
        rng = np.random.default_rng(rows)
        x = rng.uniform(0.1, 10.0, (rows, 513))
        full = np.cumsum(x, axis=1)
        for k in range(1, 514):
            for block in (x[:, :k], np.ascontiguousarray(x[:, :k])):
                sums = np.cumsum(block, axis=1)
                for r in range(rows):
                    row = np.cumsum(np.array(x[r, :k]))
                    assert sums[r].tobytes() == row.tobytes() == full[r, :k].tobytes(), (k, r)

    def test_log1p_of_a_block_is_the_1d_log1p(self):
        # Increments over distances: ties (0), near-ties and far jumps.
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, (5, 400)) ** 8 * 10.0 ** rng.integers(-16, 4, (5, 400))
        x[:, ::7] = 0.0
        for k in range(1, 401):
            for block in (x[:, :k], np.ascontiguousarray(x[:, :k])):
                got = np.log1p(block)
                for r in range(5):
                    assert got[r].tobytes() == np.log1p(np.array(x[r, :k])).tobytes(), (k, r)

    @pytest.mark.parametrize("lanes", [1, 2, 3, 8, 11])
    def test_cumsum_of_complex_lanes_is_each_lanes_float64_cumsum(self, lanes):
        # _outer_sums runs its running sums along k over a complex128 view
        # whose lanes hold two rows each; every row's sums must be bitwise
        # its own float64 cumsum, whatever the values and the layout.
        rng = np.random.default_rng(lanes)
        x = rng.standard_normal((3, 301, 2 * lanes))
        x *= 10.0 ** rng.integers(-5, 5, (3, 1, 2 * lanes))
        x[0, :, 0] = rng.uniform(0.5, 1.0, 301) * 1e300  # overflows to inf part-way
        x[1, :, -1] = rng.integers(-3, 4, 301) * 5e-324  # subnormals, with exact zeros
        x[2, :, 0] = -0.0
        spots = rng.integers(0, x.size, 60)
        x.flat[spots] = rng.choice([np.inf, -np.inf, np.nan, -0.0, 2.0**-1060, -1.7e300], 60)
        z = x.view(np.complex128)
        k_outer = np.ascontiguousarray(z.transpose(1, 0, 2)).transpose(1, 0, 2)
        blocks = [z, z[:, 1::2], z[:, ::-1], k_outer]
        if lanes > 1:
            blocks.append(z[:, :, ::2])
        with np.errstate(all="ignore"):
            for block in blocks:
                for axis in (0, 1):
                    got = np.cumsum(block, axis=axis)
                    for part in ("real", "imag"):
                        n = block.shape[axis]
                        rows = np.moveaxis(getattr(block, part), axis, -1).reshape(-1, n)
                        sums = np.moveaxis(getattr(got, part), axis, -1).reshape(-1, n)
                        for row, row_sums in zip(rows, sums):
                            assert row_sums.tobytes() == np.cumsum(row).tobytes(), axis

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 13, 784])
    def test_a_k_major_copy_sums_over_k_as_the_block_does(self, dim):
        # _mean_cosines sums over k from a k-major copy of a block of two or
        # more rows: numpy adds its (B, D) planes one after another, as it
        # does along axis 1 of the block itself, whatever the row count.
        rng = np.random.default_rng(dim)
        for rows in (2, 3, 17):
            for k in (2, 9, 64, 301):
                if rows * k * dim > 300_000:
                    continue
                u = rng.standard_normal((rows, k, dim))
                copy = np.ascontiguousarray(u.transpose(1, 0, 2))
                assert copy.sum(axis=0).tobytes() == u.sum(axis=1).tobytes(), (rows, k)

    @pytest.mark.parametrize("shape", [(1, 5, 2), (2, 3, 4), (21, 400, 10), (15, 100, 42),
                                       (36, 500, 2), (210, 60, 10), (3, 7, 1)])
    def test_a_sum_over_the_pair_axis_adds_its_planes_in_order(self, shape):
        # _outer_sums sums the weighted squares of a chunk's (P, kc, L)
        # products with one reduce over the pair axis: each entry must be
        # the pairs' sequential sum, ((c_0 + c_1) + c_2) + ..., in pair order.
        rng = np.random.default_rng(shape[0])
        c = rng.standard_normal(shape) ** 2 * 10.0 ** rng.integers(-8, 8, shape)
        want = c[0].copy()
        for p in range(1, shape[0]):
            want += c[p]
        out = np.empty(shape[1:])
        assert np.add.reduce(c, axis=0, out=out).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 13])
    def test_direction_sums_are_the_per_neighborhood_ones(self, dim):
        rng = np.random.default_rng(dim)
        for k in (1, 2, 7, 64, 301):
            u = rng.standard_normal((6, k, dim))
            got = u.sum(axis=1)
            for r in range(6):
                assert got[r].tobytes() == np.array(u[r]).sum(axis=0).tobytes(), (k, r)


# --- Properties of all five estimators --------------------------------------

RTOL = 1e-8  # data moved by a similarity transform; rounding only


def _subspace_data(seed: int, n: int, dim: int, intrinsic: int) -> np.ndarray:
    """Gaussian points in a random ``intrinsic``-dimensional subspace of R^dim."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return rng.standard_normal((n, intrinsic)) @ basis[:, :intrinsic].T


def _table(points, k):
    return angle_id.estimate_table(DataMatrix(points), k, ESTIMATOR_TAGS, queries=range(6))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5), intrinsic=st.integers(1, 5),
       k=st.integers(5, 25), log_scale=st.floats(-3.0, 3.0),
       shift=st.floats(-1000.0, 1000.0))
def test_estimates_are_invariant_to_rotation_translation_and_scale(seed, dim, intrinsic, k,
                                                                   log_scale, shift):
    points = _subspace_data(seed, 60, dim, min(intrinsic, dim))
    rng = np.random.default_rng(seed + 1)
    rotation, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    scale = 10.0 ** log_scale
    moved = scale * points @ rotation.T + shift * scale * rng.uniform(-1, 1, dim)
    a, b = _table(points, k), _table(moved, k)
    for tag in ESTIMATOR_TAGS:
        np.testing.assert_allclose(b.values(tag), a.values(tag), rtol=RTOL, atol=0, err_msg=tag)
    # Clamping turns on at a threshold, so only RABID may flip a flag, and
    # then only between values within RTOL of k.
    flipped = a.flags("rabid") != b.flags("rabid")
    assert np.all(np.abs(a.values("rabid")[flipped] - k) <= RTOL * k)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6), intrinsic=st.integers(1, 6),
       k=st.integers(2, 30))
def test_abid_is_at_most_the_rank_and_rabid_at_most_k(seed, dim, intrinsic, k):
    data = DataMatrix(_subspace_data(seed, 50, dim, min(intrinsic, dim)))
    table = angle_id.estimate_table(data, k, ("abid", "rabid"), queries=range(8))
    clamped, degenerate = FLAG_BITS[CLAMPED_TO_K], FLAG_BITS[DEGENERATE_ZERO_DENOMINATOR]
    for pos, q in enumerate(range(8)):
        u = direction_bundle(data, q, knn(data, q, k)).directions
        rank = np.linalg.matrix_rank(u)
        assert table.values("abid")[pos] <= min(k, rank) * (1 + 1e-12)
        value, flags = table.values("rabid")[pos], int(table.flags("rabid")[pos])
        assert value <= k
        if flags & clamped:
            assert value == k
        if flags & degenerate:
            assert flags & clamped


# --- MLE and MoM at every k against an extended-precision oracle -------------

_STEPS = st.one_of(
    st.just(("tie", 0)),
    st.tuples(st.just("ulp"), st.integers(1, 3)),  # one to three doubles up: a near-tie
    st.tuples(st.just("jump"), st.floats(1e-9, 1e3)),  # d times (1 + x)
)


@st.composite
def _distance_rows(draw) -> np.ndarray:
    """One to four sorted positive rows of one length, between 2**-200 and about 2**790."""
    k = draw(st.integers(2, 60))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        d = [draw(st.floats(1.0, 2.0)) * 2.0 ** draw(st.integers(-200, 200))]
        for kind, x in draw(st.lists(_STEPS, min_size=k - 1, max_size=k - 1)):
            if kind == "tie":
                d.append(d[-1])
            elif kind == "ulp":
                d.append(d[-1])
                for _ in range(x):
                    d[-1] = np.nextafter(d[-1], np.inf)
            else:
                d.append(d[-1] * (1.0 + x))
        rows.append(d)
    return np.array(rows)


def _oracle(row: np.ndarray) -> tuple[float, float]:
    """MLE and MoM of one row's per-k formulas, in np.longdouble.

    MLE is (k - 1) / sum log(d_{k-1} / d_i), each log taken as log1p of
    the gap d_{k-1} - d_i over d_i; MoM is m / (w - m) = sum d_i / sum of
    the gaps. A gap of two doubles is exact or nearly so in np.longdouble,
    so near-ties keep their digits.
    """
    p = row.astype(np.longdouble)
    gaps = p[-1] - p
    return (p.size - 1) / np.log1p(gaps / p).sum(), p.sum() / gaps.sum()


@settings(max_examples=100, deadline=None)
@given(d=_distance_rows())
@example(d=np.array([[0.1] * 3, [0.3] * 3]))
@example(d=np.array([[0.7] * 9 + [0.8], [1.1] + [1.3] * 9]))
def test_mle_and_mom_at_every_k_match_an_extended_precision_oracle(d):
    ks = np.arange(2, d.shape[1] + 1)
    out = angle_id._estimates(None, d, ("mle", "mom"), ks, None)
    eps, degenerate = np.finfo(np.float64).eps, FLAG_BITS[DEGENERATE_ZERO_DENOMINATOR]
    for r, row in enumerate(d):
        for j, k in enumerate(ks.tolist()):
            equal = row[0] == row[k - 1]
            want = (k, k) if equal else _oracle(row[:k])
            for tag, w in zip(("mle", "mom"), want):
                value, flags = out[tag][0][r, j], out[tag][1][r, j]
                assert flags == (degenerate if equal else 0), (r, k, tag)
                assert abs(value - w) <= 8 * k * eps * abs(w), (r, k, tag, value, w)


# --- The neighbor lists a DataMatrix keeps (``DataMatrix._neighbors``) -------

SUBSET = [41, 3, 250, 17, 99, 7, 160]  # not sorted: a map keeps its query order


def _count_searches(monkeypatch) -> list:
    """Record the query count of every kernel call, which still runs."""
    calls = []
    search = neighbors._knn_kernel

    def counted(data, k, queries, names, out=None):
        calls.append(len(queries))
        return search(data, k, queries, names, out)

    monkeypatch.setattr(neighbors, "_knn_kernel", counted)
    return calls


def _digest(out) -> list:
    """The bytes of a trail matrix or of a table's columns, for bitwise comparison."""
    if isinstance(out, analysis.TrailMatrix):
        return [out.estimates.tobytes(), out.point_indices, out.k_values]
    cosines = None if out.mean_cosines is None else np.array(out.mean_cosines).tobytes()
    return [out.indices, cosines] + [(out.values(t).tobytes(), out.flags(t).tobytes())
                                     for t in out.estimators]


def test_maps_of_a_kept_point_set_run_no_search(request):
    data = synth.sample_ball(600, 4, seed=31)
    single = dataclasses.replace(data)
    ks = range(4, 31)

    def calls(matrix):
        return [analysis.trails(matrix, ks, "mle", point_subset=SUBSET),
                angle_id.estimate_table(matrix, 30, ESTIMATOR_TAGS, queries=SUBSET,
                                        with_diagnostics=True),
                angle_id.estimate_table(matrix, 12, ("abid", "ged"), queries=SUBSET)]

    want = [_digest(out) for out in calls(dataclasses.replace(data))]
    want_point = angle_id.estimate_point(dataclasses.replace(data), 5, 12, ESTIMATOR_TAGS)
    analysis.trails(data, ks, "abid", point_subset=SUBSET)
    angle_id.estimate_point(single, 5, 30)  # keeps a one-row map
    request.getfixturevalue("no_search")
    assert [_digest(out) for out in calls(data)] == want
    got = angle_id.estimate_point(single, 5, 12, ESTIMATOR_TAGS)
    assert {t: np.float64(e.value).tobytes() for t, e in got.items()} == \
        {t: np.float64(e.value).tobytes() for t, e in want_point.items()}
    assert got == want_point


@pytest.mark.parametrize("name", sorted(DATASETS))
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_every_kept_map_equals_a_search_on_a_fresh_matrix(monkeypatch, name, threads):
    make, k = DATASETS[name]
    data = make()
    ks = range(MIN_K["ged"], k + 1)
    subset = [q % data.n for q in SUBSET]

    def calls(fresh):
        for tag in ESTIMATOR_TAGS:
            yield analysis.trails(fresh(), ks, tag, point_subset=subset, threads=threads)
        yield analysis.trails(fresh(), ks[1:], "ged", point_subset=subset, ged_pair=(2, 4),
                              threads=threads)
        for kk in (k, k - 1, MIN_K["ged"]):  # k descending
            yield angle_id.estimate_table(fresh(), kk, ESTIMATOR_TAGS, queries=subset,
                                          with_diagnostics=True, threads=threads)

    want = [_digest(out) for out in calls(lambda: dataclasses.replace(data))]
    searches = _count_searches(monkeypatch)
    got = [_digest(out) for out in calls(lambda: data)]
    assert got == want
    assert sum(searches) == len(subset)  # the first trails only
    assert data._neighbors[0] == tuple(subset) and data._neighbors[1].shape == (len(subset), k)


def test_every_other_map_searches_once(monkeypatch):
    data = synth.sample_ball(600, 4, seed=32)
    searches = _count_searches(monkeypatch)

    def searched(call) -> bool:
        searches.clear()
        call()
        assert len(searches) <= 1
        return len(searches) == 1

    assert searched(lambda: analysis.trails(data, range(4, 21), "abid", point_subset=SUBSET))
    assert not searched(lambda: analysis.trails(data, range(4, 21), "mle", point_subset=SUBSET))
    # A larger k, another subset, the same subset in another order.
    assert searched(lambda: analysis.trails(data, range(4, 22), "mle", point_subset=SUBSET))
    assert searched(lambda: angle_id.estimate_table(data, 21, queries=SUBSET[::-1]))
    assert searched(lambda: angle_id.estimate_table(data, 21, queries=SUBSET[:-1]))
    assert not searched(lambda: angle_id.estimate_table(data, 20, queries=SUBSET[:-1]))
    # A vector query is never kept, not even one equal to a kept point.
    assert searched(lambda: angle_id.estimate_point(data, SUBSET[0], 10))
    kept = data._neighbors
    assert kept[0] == (SUBSET[0],)
    for _ in range(2):
        assert searched(lambda: angle_id.estimate_point(data, data.points[SUBSET[0]], 10))
    assert data._neighbors is kept
    # A map over the budget is not kept either, and leaves the kept lists.
    monkeypatch.setattr(angle_id, "_KEEP_BYTES", 16 * len(SUBSET) * 10 - 1)
    for _ in range(2):
        assert searched(lambda: angle_id.estimate_table(data, 10, queries=SUBSET))
    assert data._neighbors is kept
    monkeypatch.setattr(angle_id, "_KEEP_BYTES", 16 * len(SUBSET) * 10)
    assert searched(lambda: angle_id.estimate_table(data, 10, queries=SUBSET))
    assert not searched(lambda: angle_id.estimate_table(data, 10, queries=SUBSET))


def test_a_failed_map_leaves_the_kept_lists(request):
    # Point 0 has five exact copies, so it has 19 neighbors of nonzero distance.
    points = np.random.default_rng(33).uniform(0.0, 1.0, (20, 3))
    data = DataMatrix(np.vstack([points, np.repeat(points[:1], 5, axis=0)]))
    want = _digest(analysis.trails(dataclasses.replace(data), range(2, 11), "mle",
                                   point_subset=[1, 2, 3]))
    analysis.trails(data, range(2, 11), "abid", point_subset=[1, 2, 3])
    kept = data._neighbors
    # Two blocks of two rows: the first copies its rows out, the second fails.
    with pytest.raises(InsufficientNeighborsError, match="for point 0"):
        angle_id.estimate_table(data, 20, queries=[1, 2, 3, 0], threads=2)
    assert data._neighbors is kept
    request.getfixturevalue("no_search")
    assert _digest(analysis.trails(data, range(2, 11), "mle", point_subset=[1, 2, 3])) == want


def test_the_kept_lists_are_read_only_copies_of_the_search():
    data = synth.sample_ball(600, 4, seed=34)
    analysis.trails(data, range(4, 26), "abid", point_subset=SUBSET)
    names, idx, dist = data._neighbors
    want = knn_many(data, data.points[SUBSET], 25)
    assert names == tuple(SUBSET)
    assert idx.tobytes() == want[0].tobytes() and dist.tobytes() == want[1].tobytes()
    for a in (idx, dist):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0
        for name in ("idx", "dist"):  # a thread that only kept lists has no such buffer
            buf = getattr(neighbors._local, name, None)
            assert buf is None or not np.shares_memory(a, buf)
    angle_id.estimate_table(data, 25, queries=SUBSET[:3])  # keeps others
    assert idx.tobytes() == want[0].tobytes() and dist.tobytes() == want[1].tobytes()


def test_two_threads_mapping_different_subsets_of_one_matrix_get_sequential_bytes(monkeypatch):
    data = synth.sample_ball(2000, 3, seed=35)
    subsets = [list(range(0, 2000, 97)), list(range(5, 2000, 89))]
    ks = range(4, 41)
    _use_block_rows(monkeypatch, 2, 40, 3)  # many blocks per map, each reading the kept lists

    def round_(matrix, subset):
        return [_digest(analysis.trails(matrix, ks, tag, point_subset=subset))
                for tag in ("abid", "mle")] + \
            [_digest(angle_id.estimate_table(matrix, 30, ESTIMATOR_TAGS, queries=subset))]

    want = [round_(dataclasses.replace(data), subset) for subset in subsets]
    start = threading.Barrier(2, timeout=30)

    def run(i):
        start.wait()
        return [round_(data, subsets[i]) for _ in range(10)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, between the read and the store too
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(run, range(2), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for i, rounds in enumerate(results):
        assert all(got == want[i] for got in rounds)
