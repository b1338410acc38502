"""The batched estimation core, ``angle_id._estimates``, on blocks of queries.

Tables, trails and the public per-neighborhood estimator functions all run
through it, on blocks whose size is set by a byte budget
(``angle_id._CHUNK``). These tests pin that a row's results do not depend
on the block it came in: every value, flag and mean cosine is bitwise the
public functions' on ``knn(...).prefix(k)``, for blocks of 1, 7 and all
rows. They also pin the numpy behavior that this rests on, and check the
estimators' invariances and bounds as ``hypothesis`` properties.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angleid import analysis, angle_id, baseline_id, synth
from angleid.core import (
    CLAMPED_TO_K,
    DEGENERATE_ZERO_DENOMINATOR,
    ESTIMATOR_TAGS,
    FLAG_BITS,
    MIN_K,
    DataMatrix,
    _FLAG_SETS,
)
from angleid.neighbors import DirectionBundle, NeighborList, direction_bundle, knn

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
    monkeypatch.setattr(angle_id, "_CHUNK", rows * k * (dim * (dim + 1) // 2))
    assert angle_id._estimate_rows(k, dim, ESTIMATOR_TAGS, True) == rows


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
        return (float(k), degenerate) if w == m else (m / (w - m), frozenset())
    k1, k2 = ((k + 1) // 2, k) if pair is None else pair
    d1, d2 = float(d[k1 - 1]), float(d[k2 - 1])
    if d1 == d2:
        return float(k), degenerate
    return float(np.log(k2 / k1) / np.log(d2 / d1)), frozenset()


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
        for tag in ESTIMATOR_TAGS:
            want = _public(data, q, nl, tag)
            assert (want.value, want.flags) == _reference(u, nl.distances, tag), (q, tag)
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
            assert got == (want.value, want.flags) == _reference(u[r], d[r], tag), (r, tag)
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
    for chunk in (10 * 3, 7 * 3 * 10, 33 * 3 * 10):  # k chunks of 1, 7 and 33 rows
        monkeypatch.setattr(angle_id, "_CHUNK", chunk)
        assert angle_id._sq_sums(u, ks).tobytes() == want.tobytes()
    for r in range(3):
        assert angle_id._sq_sums(u[r:r + 1], ks).tobytes() == want[r:r + 1].tobytes()


class TestRowReductions:
    """Undocumented numpy behavior that the core relies on, pinned here."""

    @pytest.mark.parametrize("rows", [1, 3, 8])
    def test_sum_and_mean_along_rows_are_the_1d_reductions(self, rows):
        rng = np.random.default_rng(rows)
        x = rng.uniform(0.1, 10.0, (rows, 513))
        for k in range(2, 514):
            for block in (x[:, :k], np.ascontiguousarray(x[:, :k])):
                sums, means = block.sum(axis=1), block.mean(axis=1)
                for r in range(rows):
                    row = np.array(x[r, :k])
                    assert sums[r].tobytes() == row.sum().tobytes(), (k, r)
                    assert means[r].tobytes() == row.mean().tobytes(), (k, r)

    def test_the_mle_log_sums_are_the_1d_ones(self):
        d = np.sort(np.random.default_rng(3).uniform(0.1, 1.0, (5, 400)), axis=1)
        for k in range(2, 401):
            got = np.log(d[:, :k - 1] / d[:, k - 1:k]).sum(axis=1)
            for r in range(5):
                row = d[r, :k]
                assert got[r] == np.log(row[:-1] / row[-1]).sum(), (k, r)

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
