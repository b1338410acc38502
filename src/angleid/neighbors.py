"""Exact k-nearest-neighbor retrieval and neighbor direction bundles.

Distances are Euclidean; the query point and its exact duplicates
(distance exactly 0, not a tolerance) are always excluded, and ties break
by ascending point index, so knn(k) is a prefix of knn(k+1).

Every k-nearest-neighbor search goes through one blocked kernel,
``_knn_kernel``: ``knn`` and the query map behind ``estimate_point``,
tables and trails (``angle_id._estimate_many``) call it, each naming its
query rows for the kernel's errors. It screens a block of queries
against the points with float32 matrix products (the expansion
|x|^2 - 2 x.y + |y|^2, on coordinates centered at the points' mean and
scaled by a power of two), keeps every point that a rounding bound
cannot rule out, and re-ranks those candidates with the same
difference-based distances and (distance, index) order as a full sort of
all n distances. The (D+2, n) screen matrix and the values the bound
reads with it are built by the first search of a DataMatrix and kept in
it (``_screen``), so ``knn`` per point, ``estimate_point``, tables and
trails never build them again. The scale 2**shift puts the points'
largest centered coordinate in [1/2, 1), so every input fits float32's
range; it is exact, and the screen only has to order distances. The
rounding bound is derived for float32, in scaled units, in the kernel's
proof comment.
Every row gets one planned cut (``_plan``). Where rows are long, the
kernel works in two passes: pass 1 multiplies the block by every
stride-th column of the screen (kept in the matrix, ``_sampled``) and
cuts each row near its 2(k+1)-th smallest value; pass 2 multiplies the
block by column tiles of the whole screen and collects each tile's
candidates while it is in cache. Elsewhere one full-row product is cut
at rank k + 1 and collected. ``_block`` sizes the blocks and tiles from
one budget. A row keeps its cut only if k of its candidates are provably
no farther than it; the rows that fail, such as those with duplicates of
their query, rerun as the whole-row plan past those duplicates. The
re-rank recomputes every candidate's distance in float64 from the
points, puts each row's candidate distances, in ascending index order,
into one row of a padded (B, widest row) array and sorts every row on
its own (``_rank``): one ``argsort`` along the rows of the array's int64
view, which orders these positive doubles, inf and NaN as floats and
sorts faster, then a stable sort again of each row where two equal
distances fall within its first k + 1 places, the only rows whose first
k an unstable sort could misorder. So no row's order depends on the
other rows of its block. The screen only narrows the candidates, so the
neighbor lists are bitwise those of the full sort for any block size,
tile width, thread count, plan or scale. The kernel's re-rank is the
only code here that orders neighbors; the tests keep the full sort
(``tests/test_neighbors.py::_sorted_candidates``) as its oracle.

A DataMatrix also keeps the neighbor lists of its last query map of point
indices, where they fit a small budget (``_neighbors``, kept by
``angle_id._estimate_many``). A later map of the same indices, in the same
order, at a k no larger takes their prefixes and does not call the kernel:
by the prefix property they are bitwise the lists it would return. So
trails of ABID and then MLE on one point set, or a table after them,
search once.

Each thread keeps one workspace (``_workspace``) for the per-block arrays
of all its searches and estimation blocks: the pass-1 product, the
whole-row cut's copy, the pass-2 tile and its mask, the re-rank's gathers,
distances and padded rows, and the estimation core's neighbor lists,
directions, Gram chunks and distance increments. With glibc's malloc,
arrays of 128 KiB or more made afresh per block can go back to the OS
when freed, and the next block pages them in again, as can the top of the
heap once smaller temporaries leave 128 KiB of it free; how often depends
on thresholds that glibc adjusts as the process runs. For repeated trails
on the 6-D lattice that churn, with a screen matrix built per call, cost
about a third of the time.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .core import DataMatrix, InsufficientNeighborsError, _check_indices, _check_integer, _frozen

__all__ = ["NeighborList", "DirectionBundle", "knn", "direction_bundle"]


@dataclass(frozen=True, eq=False)
class NeighborList:
    """Ordered neighbor indices and distances for one query.

    ``query_index`` is None for out-of-set query vectors. Distances are
    non-decreasing and strictly positive; indices never repeat and never
    equal the query index. Both arrays are read-only copies of the inputs.
    """

    query_index: int | None
    indices: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        idx = _frozen(self.indices, np.int64)
        dist = _frozen(self.distances, np.float64)
        if idx.shape != dist.shape or idx.ndim != 1:
            raise ValueError("indices and distances must be matching 1-d arrays")
        if dist.size and not np.all(dist > 0.0):
            raise ValueError("neighbor distances must be strictly positive")
        if dist.size and np.any(np.diff(dist) < 0.0):
            raise ValueError("neighbor distances must be non-decreasing")
        if np.unique(idx).size != idx.size:
            raise ValueError("neighbor indices must be distinct")
        if self.query_index is not None and np.any(idx == self.query_index):
            raise ValueError("neighbor indices must not include the query index")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "distances", dist)

    @property
    def k(self) -> int:
        return self.indices.size

    def prefix(self, k: int) -> "NeighborList":
        """The k nearest of these neighbors (valid because they are sorted)."""
        k = _check_integer("k", k)
        if k > self.k:
            raise InsufficientNeighborsError(k, self.k, point=self.query_index)
        return NeighborList(self.query_index, self.indices[:k], self.distances[:k])


@dataclass(frozen=True, eq=False)
class DirectionBundle:
    """Unit direction vectors from a query point to each of its neighbors.

    ``directions`` is a read-only copy of the input.
    """

    directions: np.ndarray
    source_k: int

    def __post_init__(self):
        dirs = _frozen(self.directions, np.float64)
        if dirs.ndim != 2 or dirs.shape[0] != self.source_k:
            raise ValueError("directions must be a (k, D) array matching source_k")
        norms = np.sqrt(np.einsum("ij,ij->i", dirs, dirs))
        if norms.size and np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("directions must have unit Euclidean norm (within 1e-12)")
        object.__setattr__(self, "directions", dirs)

    def prefix(self, k: int) -> "DirectionBundle":
        k = _check_integer("k", k)
        if k > self.source_k:
            raise InsufficientNeighborsError(k, self.source_k)
        return DirectionBundle(self.directions[:k], k)


def _resolve_query(data: DataMatrix, query) -> tuple[np.ndarray, int | None]:
    """A query is either a point index or an explicit D-vector; a bool is neither."""
    if isinstance(query, (int, np.integer, np.bool_)):
        (idx,) = _check_indices("query", [query], data.n)
        return data.points[idx], idx
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (data.dim,):
        raise ValueError(f"query vector must have shape ({data.dim},), got {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("query vector must be finite")
    return q, None


# The kernel's one budget (``_block``): a block's query rows, their
# pass-1 float32 values and their candidates' buffers take at most this
# many bytes, and a pass-2 tile's float32 values at most half of it
# unless the block's whole product fits in it. On nested cubes at k = 100
# (n = 25 000, D = 5) that is 20 rows of 4 167 values and tiles of 6 250
# columns, 1.38 MB of buffers in all: 55 us per query on a 2-core Xeon.
# Tiles of a quarter of the budget were slower there: under 4 097
# columns, numpy 2.4's compare against each row's bound ran about 3
# times slower per value.
_BLOCK_BYTES = 1 << 20


def _block(n: int, stride: int, rank: int, dim: int, queries: int) -> tuple[int, int]:
    """Query rows per kernel block and columns per pass-2 tile, for ``queries`` rows and the
    cut (stride, rank).

    A row costs its ceil(n / stride) float32 pass-1 values and its about
    stride * rank candidates, 16 (D + 6) bytes each: the re-rank's two
    gathered rows, distance and padded slot, and the collection's row,
    column, value and merge order. The queries split evenly into the
    fewest blocks whose rows fit ``_BLOCK_BYTES``. A block whose whole
    (rows, n) float32 product fits it is one tile, which spares the
    merge of the tiles' candidates: on the 8-D lattice at k = 500 (4 rows
    of 65 536) that ran the kernel 3 % faster than two tiles. Elsewhere
    the n columns split into the fewest even tiles whose float32 values
    fit half of it. A whole-row plan (stride 1) has no tiles; its cut's
    copy and its mask come on top, 5 bytes per value.
    """
    per_row = 4 * -(-n // stride) + stride * rank * 16 * (dim + 6)
    rows = max(1, _BLOCK_BYTES // per_row)
    if queries:
        rows = -(-queries // -(-queries // rows))
    if 4 * rows * n <= _BLOCK_BYTES:
        return rows, n
    tile = max(1, _BLOCK_BYTES // (8 * rows))
    return rows, -(-n // -(-n // tile))


# The screen build's float64 column chunks (``_build_screen``): about
# 256 KiB, and never one column.
_BUILD_BYTES = 1 << 18
_BUILD_MIN_COLUMNS = 4


def _plan(n: int, k: int, dim: int) -> tuple[int, int]:
    """The kernel's first cut: each row's rank-th smallest of every stride-th value.

    Sampled, the 32nd smallest of every s-th value, s = floor(2(k+1) / 32),
    keeps about 2(k+1) candidates per row from a partition of n / s values;
    that pays where rows are long against the re-rank's k D work, s >= 2
    and n >= 16 (k+1) D. Elsewhere the whole row is cut at rank k + 1.
    """
    step = 2 * (k + 1) // 32
    return (step, 32) if step >= 2 and n >= 16 * (k + 1) * dim else (1, k + 1)


_local = threading.local()
_screen_lock = threading.Lock()


def _workspace(name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """This thread's buffer ``name``, viewed as an uninitialized ``shape`` array.

    Every later call of the thread reuses it, a smaller shape as a prefix;
    it is replaced only when a larger one is needed, and freed when the
    thread ends. A name holds one dtype: asking it for another raises
    TypeError. The callers write every entry of a view before reading it,
    so no result depends on what a buffer held before. The buffers:

    - the kernel's pass-1 product "block" (B rows of ceil(n / stride)
      float32 values), the whole-row plan's cut copy "part" (B rows of n),
      the sampled plan's pass-2 tile "tile" and the mask of the values
      collected, of the tile or of the whole rows (``_block`` sizes B and
      the tile: B rows' pass-1 values and candidates fit ``_BLOCK_BYTES``,
      a tile's float32 values half of it, or all of it where one tile
      holds the whole product; a whole-row block holds 9 bytes per value,
      2.25 MiB for n <= 262 144);
    - the re-rank's gathers "diff" and "query_rows" and distances
      "cand_dists" (8 (2D+1) bytes per candidate), its padded rows "pad"
      (8 bytes per slot) and the positions "take" of each row's k nearest
      (8 bytes each);
    - the estimation core's neighbor lists "idx" and "dist" (of maps
      that keep none, ``angle_id._estimate_many``), directions
      "directions", distance increments "rise" and "terms", and the Gram
      chunks "products" (at most 512 KiB, ``angle_id._CHUNK``, and a
      zero pad row over it where a chunk's rows are odd) and
      "transposed", a chunk's directions copied transposed with the rows
      innermost (2 / (D + 1) of that), which the requested k's gathered
      or copied columns reuse once they are spent
      (``angle_id._outer_sums``; at most as large as "products"); these
      budgets hold wherever one query row fits them, and the Gram chunks'
      wherever two rows' products of one direction do.
    """
    size = math.prod(shape)
    buf = getattr(_local, name, None)
    if buf is not None and buf.dtype != dtype:
        raise TypeError(f"workspace buffer {name!r} holds {buf.dtype}, not {np.dtype(dtype)}")
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype)
        setattr(_local, name, buf)
    return buf[:size].reshape(shape)


def _gather(a: np.ndarray, indices: np.ndarray, axis: int, name: str) -> np.ndarray:
    """``a.take(indices, axis)`` into this thread's buffer ``name`` (``_workspace``).

    The indices must be in range: ``mode="raise"`` would gather into a
    temporary array first and copy that into the buffer.
    """
    shape = a.shape[:axis] + indices.shape + a.shape[axis + 1:]
    return a.take(indices, axis, out=_workspace(name, shape, a.dtype), mode="clip")


def _screen(data: DataMatrix) -> tuple:
    """``data``'s kNN screen (``_build_screen``), built by its first search and kept.

    It lives in ``data._screen`` for the matrix's lifetime, so every later
    search of ``data`` reuses it. The lock makes threads that search a
    fresh matrix at once build it only once.
    """
    if data._screen is None:
        with _screen_lock:
            if data._screen is None:
                object.__setattr__(data, "_screen", _build_screen(data.points))
    return data._screen


def _sampled(data: DataMatrix, stride: int) -> np.ndarray:
    """Every stride-th column of ``data``'s screen, contiguous and read-only: pass 1's matrix.

    The matrix keeps the columns of the last stride asked (``data._sample``),
    so a search per point copies them once, not once per call. Another
    stride replaces them.
    """
    kept = data._sample  # read once: a concurrent search may store another stride
    if kept is None or kept[0] != stride:
        columns = np.ascontiguousarray(_screen(data)[0][:, ::stride])
        columns.setflags(write=False)
        kept = stride, columns
        object.__setattr__(data, "_sample", kept)
    return kept[1]


def _build_screen(pts: np.ndarray) -> tuple:
    """The (D+2, n) float32 screen of ``pts`` and the values its bound reads with it.

    Returns (screen, center, shift, max_sq, tiny, big). Rows 0..D-1 of the
    screen hold the points centered at their mean, ``center``, and scaled
    by 2**shift, row D their squared norms and row D+1 ones, so one
    product with the scaled centered query rows (-2 q, 1, |q|^2) screens
    |q|^2 - 2 q.p + |p|^2 in units scaled by 2**(2 shift). The shift puts
    the largest centered coordinate, the reach, in [1/2, 1); it is 0 where
    the reach is 0 or not finite (the mean overflowed). The entries are
    computed in float64 and rounded to float32. ``max_sq`` is the largest
    scaled squared norm, ``tiny`` float32's smallest subnormal plus
    float64's and ``big`` the smaller of float32's and float64's largest
    values, float64's in scaled units: so the kernel's bound covers the
    float64 re-rank's underflow and overflow as well (see its proof). Both
    arrays are read-only.

    No whole float64 copy of the matrix is made: each coordinate's mean,
    minimum and maximum are taken over a contiguous copy of its column,
    and the scaled centered rows are computed in one pass of float64
    column chunks of about ``_BUILD_BYTES``, for the norms and the screen.
    Every entry is bitwise that of the whole (D+2, n) float64 matrix: the
    row means and the per-column ``einsum`` of a chunk of two or more
    columns round as on the whole rows (a test pins this on the running
    numpy). A contiguous (D, 1) chunk may sum in another order, so the
    chunks split the n columns evenly at a width of at least
    ``_BUILD_MIN_COLUMNS``: each holds two or more, or all n.
    """
    n, dim = pts.shape
    sq = np.empty(n)
    center, top, bottom = np.empty(dim), np.empty(dim), np.empty(dim)
    chunks = -(-n // max(_BUILD_MIN_COLUMNS, _BUILD_BYTES // (8 * dim)))
    bounds = [(i * n // chunks, (i + 1) * n // chunks) for i in range(chunks)]
    buf = np.empty((dim, -(-n // chunks)))
    screen = np.empty((dim + 2, n), np.float32)
    f32, f64 = np.finfo(np.float32), np.finfo(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(dim):  # sq holds each column in turn, then the norms
            np.copyto(sq, pts[:, j])
            center[j], top[j], bottom[j] = sq.mean(), sq.max(), sq.min()
        # Rounding is monotone, so this is the largest |fl(p_j - center_j)|:
        # inf or NaN, never dropped, where a mean overflowed.
        reach = np.maximum(top - center, center - bottom).max()
        shift = -int(np.frexp(reach)[1]) if 0.0 < reach < np.inf else 0
        for lo, hi in bounds:
            c = np.subtract(pts[lo:hi].T, center[:, None], out=buf[:, :hi - lo])
            np.ldexp(c, shift, out=c)
            np.einsum("ij,ij->j", c, c, out=sq[lo:hi])
            screen[:dim, lo:hi] = c
        max_sq = sq.max()
        # np.ldexp gives inf where math.ldexp would raise OverflowError.
        tiny = float(f32.smallest_subnormal) + float(np.ldexp(f64.smallest_subnormal, 2 * shift))
        big = min(float(f32.max), float(np.ldexp(f64.max, 2 * shift)))
    screen[dim] = sq
    screen[dim + 1] = 1.0
    screen.setflags(write=False)
    center.setflags(write=False)
    return screen, center, shift, max_sq, tiny, big


def _knn_kernel(data: DataMatrix, k: int, queries: np.ndarray, names,
                out=None) -> tuple[np.ndarray, np.ndarray]:
    """The exact k nearest neighbors in ``data`` of each row of ``queries``: the one search.

    Maps a (Q, D) array of query vectors to (Q, k) int64 indices and (Q, k)
    float64 distances: each row's k points of nonzero distance (the query
    and its exact duplicates excluded), distances ``_distances``, in
    (distance, index) order, bitwise the first k of the tests' full sort
    ``_sorted_candidates``. It writes them to ``out``, a pair of such
    arrays, if given, else to new ones. It screens blocks of queries
    (``_block``) against the matrix's cached screen (``_screen``) into the
    calling thread's workspace (``_workspace``), and no result depends on
    the block size or the tile width. It raises InsufficientNeighborsError
    for the first row with fewer than k nonzero distances, with that row's
    entry of ``names`` (Q labels) as ``point``. It reads only shared arrays
    and writes only its thread's buffers and ``out``, so threads may call
    it at once.
    """
    k = _check_integer("k", k)
    pts = data.points
    n, dim = pts.shape
    screen, center, shift, max_sq, tiny, big = _screen(data)
    stride, rank = _plan(n, k, dim)
    rows, tile = _block(n, stride, rank, dim, len(queries))
    if out is None:
        out = np.empty((len(queries), k), dtype=np.int64), np.empty((len(queries), k))
    idx, dist = out
    eps32 = float(np.finfo(np.float32).eps)

    def below(a, top, lo):
        """Row, column (offset by ``lo``) and value of each entry of ``a`` at most its row's top."""
        pos = np.flatnonzero(np.less_equal(a, top[:, None], out=_workspace("mask", a.shape, bool)))
        r = pos // a.shape[1]
        values = a.ravel().take(pos)
        pos -= r * a.shape[1]  # flat positions to columns, in place
        pos += lo
        return r, pos, values

    @np.errstate(over="ignore", invalid="ignore")
    def collect(q, stride, rank):
        """Each row's cut c, and the row, column and screened value of each of its
        candidates, in (row, column) order: every point with a value at most c + 2 delta."""
        ext = np.empty((len(q), dim + 2))
        np.subtract(q, center, out=ext[:, :dim])
        np.ldexp(ext[:, :dim], shift, out=ext[:, :dim])
        sq_q = np.einsum("ij,ij->i", ext[:, :dim], ext[:, :dim])
        ext[:, :dim] *= -2.0
        ext[:, dim] = 1.0
        ext[:, dim + 1] = sq_q
        ext = ext.astype(np.float32)
        norms = sq_q + max_sq
        delta = np.where(4.0 * norms <= big, 4.0 * (dim + 4) * (eps32 * norms + tiny), np.inf)
        flat = np.isinf(delta)  # rows screened as zeros
        flat = flat if flat.any() else None
        sample = screen if stride == 1 else _sampled(data, stride)
        a = np.matmul(ext, sample, out=_workspace("block", (len(q), sample.shape[1]), np.float32))
        if flat is not None:
            a[flat] = 0.0
        c = _cut(a, stride, rank)
        bound = c + 2.0 * delta
        top = bound.astype(np.float32)
        np.nextafter(top, np.inf, out=top, where=top < bound)  # rounded up
        if stride == 1:
            return (c, *below(a, top, 0))
        pieces = []
        for lo in range(0, n, tile):
            t = _workspace("tile", (len(q), min(tile, n - lo)), np.float32)
            np.matmul(ext, screen[:, lo:lo + t.shape[1]], out=t)
            if flat is not None:
                t[flat] = 0.0
            pieces.append(below(t, top, lo))
        if len(pieces) == 1:
            return (c, *pieces[0])
        r, col, values = map(np.concatenate, zip(*pieces))
        del pieces  # free the tiles' arrays before the sorted copies are made
        order = np.argsort(r, kind="stable")  # tile by tile, each in (row, column) order
        r = np.repeat(np.arange(len(q)), np.bincount(r, minlength=len(q)))  # r.take(order)
        return c, r, col.take(order), values.take(order)

    for lo in range(0, len(queries), rows):
        q = queries[lo:lo + rows]
        # Screen, in units scaled by 2**shift (``_build_screen``): distances
        # and norms below are the true ones times 2**shift, their squares
        # times 2**(2 shift), which is exact as real numbers; the re-rank's
        # float64 values enter the same way. Let u = 2**-53, eps and tiny64
        # be float64's unit roundoff, epsilon (2u) and smallest subnormal,
        # u32 = 2**-24, eps32 and tiny32 = 2**-149 float32's, p' and q' the
        # centered points, rounded and scaled, and M = |q'|^2 + max |p'|^2.
        # Scaling rounds only into float64's subnormals, by tiny64/2 in
        # scaled units, far below the float32 rounding of a coordinate.
        # Centering moves each coordinate of q - p by at most u(|q'_j| +
        # |p'_j|), so |q' - p'|^2 is within 4u M of |q - p|^2. The norms
        # carry D-term rounding (D u M together). The re-rank's s = fl(sum
        # fl(p-q)^2) is within (D+2)u |q-p|^2 <= 2(D+2)u M of |q-p|^2, and
        # its squares that underflow add at most D 2**(2 shift) tiny64.
        #
        # The screen holds p'_j and the float64 |p'|^2 rounded to float32,
        # and the query row (-2q', 1, |q'|^2) is rounded to float32 as
        # well. That moves the D products by at most (2 u32 + u32^2) sum
        # 2|q'_j p'_j| <= (1 + u32/2) eps32 M and the two norms by u32 M.
        # The (D+2)-term float32 product, in any order and fused or not, is
        # within (D+2) u32 times its terms' magnitudes, at most 2M(1 +
        # 2 u32): a is within (D + 3.5) eps32 M of |q' - p'|^2, to first
        # order. The float64 steps above add (3D+8)u M <= 0.25 eps32 M
        # (D < 2**26). Float32 underflow adds at most tiny32 per product
        # (D in all) and tiny32/2 per norm rounded into the subnormals; a
        # coordinate rounded into them is off by tiny32/2, which moves the
        # products by at most 1.5 tiny32 sqrt(D M) <= 2**-124 sqrt(D) eps32
        # M, since the scale puts max |p'_j| in [1/2, 1), so M >= 1/4, or
        # else every p' = 0 and the products are exact. So |a - s| <= e =
        # (D+4) eps32 M + (D+1) tiny32 + D 2**(2 shift) tiny64, and delta
        # = 4(D+4)(eps32 M + tiny), tiny = tiny32 + 2**(2 shift) tiny64,
        # exceeds e by at least 3(D+4) eps32 M, room for second-order terms
        # and for the 3 eps M below.
        #
        # Rows whose 4M exceeds big, the smaller of float32's largest value
        # and float64's in scaled units, get delta = inf and screen as
        # zeros: every point is a candidate. Elsewhere every term and
        # partial sum of the product stays below 2M(1 + 2 u32), and every
        # squared distance of the re-rank below 2M(1 + 4u), so none
        # overflows.
        #
        # Two products, in two passes (``collect``). Pass 1 multiplies the
        # query rows by the screen's every stride-th column (``_plan``) and
        # cuts: c is each row's rank-th smallest value, or inf where rank
        # reaches their count. Pass 2 multiplies them by column tiles of
        # the whole screen (``_block``) and keeps, while each tile is in
        # cache, every point with a <= c + 2 delta, that bound summed in
        # float64 and rounded up to float32, with its value a. The two
        # products have different shapes and may round a column
        # differently, but each value is within e of its s, whatever c is.
        # Candidates come tile by tile, so a stable sort by row restores
        # the (row, column) order of the re-rank. A whole-row plan (stride
        # 1) cuts a copy of its pass-1 product and collects from the
        # product itself. Check: a row keeps its collection only if at
        # least k candidates have s > 0 and a <= c, both compared exactly
        # on the values the collection read. Their s are at most c + e, so
        # the k-th nonzero s is too. A true neighbor has s at most that, or
        # up to 2 eps s <= 4 eps M more when sqrt rounds it into a tie with
        # the k-th distance, so its a <= s + e <= c + 2 delta, with eps M
        # to spare for summing the bound. This holds for any c, so the
        # stride, the rank and the cut's own rounding only decide speed.
        #
        # Fallback, for the rows that fail. Every s == 0 (the query, its
        # duplicates) has a <= e <= delta, and c >= -delta (any value a
        # product gives is at least -e), so c + 2 delta >= delta: the
        # first collection holds every zero, and z, the most zeros of
        # these rows, is read off it. These rows rerun as the whole-row plan at rank m = k + z,
        # in blocks of their own, cut and collected on one full-row
        # product: among the m smallest a of such a row, at least k have
        # s > 0 and s <= c + e, c now the m-th smallest a, so the check
        # holds unmade. The rows that kept their cut keep their first
        # collection, and the two merge in (row, column) order. With m >=
        # n, c = inf and every point is a candidate.
        c, r, col, values = collect(q, stride, rank)
        d = _distances(pts, q, r, col)
        sure = (d > 0.0) & (values <= c.take(r))
        redo = np.flatnonzero(np.bincount(r[sure], minlength=len(q)) < k)
        if redo.size:
            z = int(np.bincount(r[d == 0.0], minlength=len(q))[redo].max())
            keep = np.ones(len(q), bool)
            keep[redo] = False
            keep = keep[r]
            parts = [(r[keep], col[keep], d[keep])]  # copies: collect reuses the buffers
            step = _block(n, 1, k + z, dim, redo.size)[0]
            for s in range(0, redo.size, step):
                sub = redo[s:s + step]
                _, r2, col2, _ = collect(q[sub], 1, k + z)
                parts.append((sub[r2], col2, _distances(pts, q[sub], r2, col2).copy()))
            r, col, d = map(np.concatenate, zip(*parts))
            order = np.argsort(r, kind="stable")  # runs, each in (row, column) order
            r, col, d = r[order], col[order], d[order]
        # Re-rank: zero distances excluded, the rest in (distance, index)
        # order, as the tests' full sort _sorted_candidates. The
        # candidates come by ascending row, then column, and each row's
        # fill the first places of one row of a padded array in that
        # order (a boolean mask assigns in row-major order), with NaN for
        # d == 0 (the query and its duplicates) and for the padding. NaN
        # sorts after every number, inf included (distances overflow at
        # 1e160 scales), so sorting each row by (value, place), which
        # _rank does, puts its nonzero distances first, ties in ascending
        # column order: the (distance, index) order of the full sort.
        counts = np.bincount(r, minlength=len(q))
        zero = d == 0.0
        found = counts - np.bincount(r[zero], minlength=len(q))
        short = np.flatnonzero(found < k)
        if short.size:
            row = int(short[0])
            raise InsufficientNeighborsError(k, int(found[row]), point=names[lo + row])
        d[zero] = np.nan
        width = int(counts.max())
        pad = _workspace("pad", (len(q), width))
        pad.fill(np.nan)
        pad[np.arange(width) < counts[:, None]] = d
        take = _rank(pad, k)
        take += (np.cumsum(counts) - counts)[:, None]  # each row's first candidate
        # In range, so "clip" clips nothing; "raise" would copy via a temporary.
        col.take(take, out=idx[lo:lo + rows], mode="clip")
        d.take(take, out=dist[lo:lo + rows], mode="clip")
    return idx, dist


def _cut(a: np.ndarray, stride: int, rank: int) -> np.ndarray:
    """Each row's rank-th smallest value of ``a``, a block's pass-1 product, or inf where rank
    reaches the row's length.

    A sampled block is partitioned in place. Whole rows (stride 1), which
    the collection reads next, are partitioned as a copy, this thread's
    workspace buffer "part". The kernel is exact for any first cut of at
    least -delta (see its proof); the fallback's must be this one.
    """
    if rank >= a.shape[1]:
        return np.full(len(a), np.inf, np.float32)
    part = a
    if stride == 1:
        part = _workspace("part", a.shape, np.float32)
        np.copyto(part, a)
    part.partition(rank - 1, axis=1)
    return part[:, rank - 1].copy()


def _rank(pad: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest of each row of ``pad``, in (value, position) order.

    ``pad`` holds positive doubles, inf and the canonical NaN. Their int64
    views order as the values do, NaN last, and numpy sorts int64 keys
    faster than doubles. That default sort is not stable, so a row with
    two equal keys among its first min(k + 1, width) sorted places is
    sorted again, stably. Elsewhere the first k keys are distinct and
    below every later key, so any sort puts the same k positions first,
    in the same order. The result is this thread's workspace buffer "take".
    """
    keys = pad.view(np.int64)
    order = np.argsort(keys, axis=1)
    head = np.take_along_axis(keys, order[:, :k + 1], axis=1)
    tied = np.flatnonzero((head[:, 1:] == head[:, :-1]).any(axis=1))
    if tied.size:
        order[tied] = np.argsort(pad[tied], axis=1, kind="stable")
    # Copied out: an add into a strided view of the argsort made a
    # temporary three times its size.
    take = _workspace("take", (len(pad), k), np.int64)
    np.copyto(take, order[:, :k])
    return take


def _distances(pts: np.ndarray, q: np.ndarray, r: np.ndarray, col: np.ndarray) -> np.ndarray:
    """sqrt(fl(sum fl(p - q)^2)) from rows ``q[r]`` to ``pts[col]``, as the tests' full sort.

    The result is this thread's workspace buffer "cand_dists", valid until
    the thread's next call.
    """
    diff = _gather(pts, col, 0, "diff")
    diff -= _gather(q, r, 0, "query_rows")
    d = np.einsum("ij,ij->i", diff, diff, out=_workspace("cand_dists", (len(r),)))
    return np.sqrt(d, out=d)


def knn(data: DataMatrix, query, k: int) -> NeighborList:
    """The exact k nearest neighbors of a query by Euclidean distance.

    The query itself and any zero-distance duplicates are excluded before
    counting. Ties are broken by ascending point index, which makes
    knn(data, q, k) a prefix of knn(data, q, k+1).
    """
    q, qidx = _resolve_query(data, query)
    idx, dist = _knn_kernel(data, k, q[None, :], [qidx])
    return NeighborList(qidx, idx[0], dist[0])


def direction_bundle(data: DataMatrix, query, nl: NeighborList) -> DirectionBundle:
    """Unit directions from the query to each neighbor in ``nl``.

    Direction j is (x_{nl.indices[j]} - x_query) / nl.distances[j]; the
    NeighborList invariant (no zero distances) makes this well-defined.
    """
    q, qidx = _resolve_query(data, query)
    if qidx != nl.query_index:
        raise ValueError("neighbor list was built for a different query")
    if nl.k and not 0 <= nl.indices.min() <= nl.indices.max() < data.n:  # _gather clips
        raise IndexError(f"neighbor indices must lie in [0, {data.n})")
    return DirectionBundle(_directions(data.points, q, nl.indices, nl.distances), nl.k)


def _directions(points: np.ndarray, q: np.ndarray, indices: np.ndarray,
                distances: np.ndarray) -> np.ndarray:
    """Rows (points[indices[j]] - q) / distances[j], unchecked: the unit directions.

    Also for a block: q (B, D) with (B, k) indices and distances gives (B, k, D).
    The result is this thread's workspace buffer "directions" (``_gather``),
    valid until the thread's next such call.
    """
    u = _gather(points, indices, 0, "directions")
    u -= q[..., None, :]
    u /= distances[..., None]
    return u
