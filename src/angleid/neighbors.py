"""Exact k-nearest-neighbor retrieval and neighbor direction bundles.

Distances are Euclidean; the query point and its exact duplicates
(distance exactly 0, not a tolerance) are always excluded, and ties break
by ascending point index, so knn(k) is a prefix of knn(k+1).

Every k-nearest-neighbor search goes through one blocked kernel,
``_knn_kernel``: ``knn``, ``knn_many`` and the query map behind
``estimate_point``, tables and trails (``angle_id._estimate_many``) call
it, each naming its query rows for the kernel's errors. It screens a
block of queries against all points with one matrix product (the
expansion |x|^2 - 2 x.y + |y|^2, on coordinates centered at the points'
mean), keeps every point that a rounding bound cannot rule out, and
re-ranks those candidates with the same difference-based distances and
(distance, index) order as a full sort of all n distances. The (D+2, n)
screen matrix, its center and largest squared norm are built by the first
search of a DataMatrix and kept in it (``_screen``), so ``knn`` per point,
``estimate_point``, tables and trails never build them again. Every row
gets one planned cut (``_plan``): about 2(k+1) candidates from a strided
sample where rows are long, else the whole row cut at rank k + 1. A row
keeps its cut only if k of its candidates are provably no farther than
it; the rows that fail, such as those with duplicates of their query,
take the one exact fallback, and their block is collected again. The
re-rank puts each row's candidate distances, in ascending index order,
into one row of a padded (B, widest row) array and sorts every row on its
own with one stable ``argsort`` along the rows, so no row's order depends
on the other rows of its block. The screen only narrows the candidates,
so the neighbor lists are bitwise those of the full sort for any block
size, thread count or plan. The kernel's re-rank is the only code here
that orders neighbors; the tests keep the full sort
(``tests/test_neighbors.py::_sorted_candidates``) as its oracle.

Each thread keeps one workspace (``_workspace``) for the per-block arrays
of all its searches and estimation blocks: the screen block and its
copies, the re-rank's gathers and padded rows, and the estimation core's
neighbor lists, directions, Gram chunks and distance increments. With
glibc's malloc, arrays of 128 KiB or more made afresh per block can go
back to the OS when freed, and the next block pages them in again; how
often depends on thresholds that glibc adjusts as the process runs. For
repeated trails on the 6-D lattice that churn, with a screen matrix built
per call, cost about a third of the time.
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


# Bytes of the (B, n) block of screened squared distances; it sets the
# number B of query rows that the kernel screens with one matrix product.
_BLOCK_BYTES = 1 << 20
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


def _block_rows(n: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * n))


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
    thread ends. The callers write every entry of a view before reading
    it, so no result depends on what a buffer held before. The buffers:

    - the kernel's "block" and "mask" of the (B, n) screened values and
      the cut's copy "part" (B rows of ceil(n / stride) values for the
      planned cut, of n for the fallback): at most 17 bytes per entry of
      the largest block, 2.1 MiB for n <= 131 072 under the 1 MiB block
      budget;
    - the re-rank's gathers "diff" and "query_rows" (16 D bytes per
      candidate) and its padded rows "pad" (8 bytes per slot);
    - the estimation core's neighbor lists "idx" and "dist", directions
      "directions" and distance increments "rise" and "terms" (at most
      512 KiB each, ``angle_id._CHUNK``), and its Gram chunks "products",
      "products_b" and "selected" (at most 128 KiB each); these budgets
      hold wherever one query row fits them.
    """
    size = math.prod(shape)
    buf = getattr(_local, name, None)
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


def _screen(data: DataMatrix) -> tuple[np.ndarray, np.ndarray, np.float64]:
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


def _build_screen(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.float64]:
    """The (D+2, n) screen matrix of ``pts``, its center and its largest squared norm.

    Rows 0..D-1 hold the points centered at their mean, row D their
    squared norms and row D+1 ones, so one product with the centered query
    rows (-2 q, 1, |q|^2) screens |q|^2 - 2 q.p + |p|^2. Both arrays are
    read-only.
    """
    dim = pts.shape[1]
    screen = np.empty((dim + 2, len(pts)))
    screen[:dim] = pts.T
    with np.errstate(over="ignore", invalid="ignore"):
        center = screen[:dim].mean(axis=1)  # along rows: far faster than pts.mean(0)
        screen[:dim] -= center[:, None]
        np.einsum("ij,ij->j", screen[:dim], screen[:dim], out=screen[dim])
    screen[dim + 1] = 1.0
    screen.setflags(write=False)
    center.setflags(write=False)
    return screen, center, screen[dim].max()


def _knn_kernel(data: DataMatrix, k: int, queries: np.ndarray, names,
                out=None) -> tuple[np.ndarray, np.ndarray]:
    """The exact k nearest neighbors in ``data`` of each row of ``queries``: the one search.

    Maps a (Q, D) array of query vectors to (Q, k) int64 indices and (Q, k)
    float64 distances: each row's k points of nonzero distance (the query
    and its exact duplicates excluded), distances ``_distances``, in
    (distance, index) order, bitwise the first k of the tests' full sort
    ``_sorted_candidates``. It writes them to ``out``, a pair of such
    arrays, if given, else to new ones. It screens ``_block_rows`` queries
    at a time against the matrix's cached screen (``_screen``) into the
    calling thread's workspace (``_workspace``), and no result depends on
    that block size. It raises InsufficientNeighborsError for the first row
    with fewer than k nonzero distances, with that row's entry of ``names``
    (Q labels) as ``point``. It reads only shared arrays and writes only
    its thread's buffers and ``out``, so threads may call it at once.
    """
    k = _check_integer("k", k)
    pts = data.points
    n, dim = pts.shape
    screen, center, max_sq = _screen(data)
    rows, (stride, rank) = _block_rows(n), _plan(n, k, dim)
    if out is None:
        out = np.empty((len(queries), k), dtype=np.int64), np.empty((len(queries), k))
    idx, dist = out
    shape = (min(rows, len(queries)), n)
    buf, mask = _workspace("block", shape), _workspace("mask", shape, bool)

    def collect(q, a, c, delta):
        """Row, column and distance of each value of ``a`` at most its cut."""
        col = np.flatnonzero(np.less_equal(a, (c + 2.0 * delta)[:, None], out=mask[:len(a)]))
        r = col // n
        col -= r * n  # flat positions to columns, in place
        return r, col, _distances(pts, q, r, col)

    def cut(a, stride, rank):
        """Each row's rank-th smallest of every stride-th value of ``a``, as a copy (the
        fallback reuses "part"), or inf, keeping every point, where rank reaches their count."""
        width = -(-n // stride)
        if rank >= width:
            return np.full(len(a), np.inf)
        part = _workspace("part", (len(a), width))
        np.copyto(part, a[:, ::stride])
        part.partition(rank - 1, axis=1)
        return part[:, rank - 1].copy()

    for lo in range(0, len(queries), rows):
        q = queries[lo:lo + rows]
        a = buf[:len(q)]
        ext = np.empty((len(q), dim + 2))
        # Screen. Let u = eps/2, p' and q' the centered points, rounded,
        # and M = |q'|^2 + max |p'|^2. Centering moves each coordinate
        # of q - p by at most u(|q'_j| + |p'_j|), so |q' - p'|^2 is
        # within 4u M of |q - p|^2. The norms carry D-term rounding
        # (D u M together), and the (D+2)-term product, in any order and
        # fused or not, is within (D+2)u times its terms' magnitudes,
        # at most 2M: a is within (3D+4)u M of |q' - p'|^2. The
        # re-rank's s = fl(sum fl(p-q)^2) is within (D+2)u |q-p|^2 <=
        # 2(D+2)u M of |q-p|^2. Products that underflow add at most
        # half the smallest subnormal each, 4D in all. So |a - s| <=
        # e = (2.5D+6) eps M + 2D tiny, and delta exceeds e by at least
        # (1.5D+10) eps M, room for second-order terms and for the
        # 3 eps M below. Norms so large that 4M overflows get
        # delta = inf, and their rows screen as zeros: every point is a
        # candidate.
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(q, center, out=ext[:, :dim])
            sq_q = np.einsum("ij,ij->i", ext[:, :dim], ext[:, :dim])
            ext[:, :dim] *= -2.0
            ext[:, dim] = 1.0
            ext[:, dim + 1] = sq_q
            np.matmul(ext, screen, out=a)
            scale = sq_q + max_sq
            delta = np.where(np.isfinite(4.0 * scale),
                             4.0 * (dim + 4) * (_EPS * scale + _TINY), np.inf)
        a[np.isinf(delta)] = 0.0
        # Cut. Each row keeps every point with a <= c + 2 delta, c the
        # rank-th smallest of every stride-th value of the row (``_plan``),
        # or inf where rank reaches their count. Check: a row keeps c only
        # if at least k candidates have s > 0 and a <= c. Their s are at
        # most c + e, so the k-th nonzero s is too. A true neighbor has s
        # at most that, or up to 2 eps s <= 4 eps M more when sqrt rounds
        # it into a tie with the k-th distance, so a <= s + e <= c + 2
        # delta, with eps M to spare for rounding the cut. This holds for
        # any stride and rank; they only decide speed.
        #
        # Fallback, for the rows that fail. Every s == 0 (the query, its
        # duplicates) has a <= e <= delta, and every a >= -e, so c + 2
        # delta >= delta: the first collection holds every zero, and z,
        # the most zeros of these rows, is read off it. Among the m = k + z
        # smallest a of such a row, at least k have s > 0 and s <= c + e,
        # c now the m-th smallest a, so the check holds unmade. A larger m
        # keeps it true, so these rows are cut together, in place, and the
        # block is collected again. With m >= n, c = inf and every point
        # is a candidate.
        c = cut(a, stride, rank)
        r, col, d = collect(q, a, c, delta)
        sure = (d > 0.0) & (a.ravel().take(r * n + col) <= c.take(r))
        redo = np.flatnonzero(np.bincount(r[sure], minlength=len(q)) < k)
        if redo.size:
            z = int(np.bincount(r[d == 0.0], minlength=len(q))[redo].max())
            c[redo] = cut(a[redo], 1, k + z)
            r, col, d = collect(q, a, c, delta)
        # Re-rank: zero distances excluded, the rest in (distance, index)
        # order, as the tests' full sort _sorted_candidates. The
        # candidates come by ascending row, then column, and each row's
        # fill the first places of one row of a padded array in that
        # order (a boolean mask assigns in row-major order), with NaN for
        # d == 0 (the query and its duplicates) and for the padding. NaN
        # sorts after every number, inf included (distances overflow at
        # 1e160 scales), so a stable sort of each row puts its nonzero
        # distances first, ties in ascending column order: the
        # (distance, index) order of the full sort.
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
        take = np.argsort(pad, axis=1, kind="stable")[:, :k]
        take += (np.cumsum(counts) - counts)[:, None]  # each row's first candidate
        # In range, so "clip" clips nothing; "raise" would copy via a temporary.
        col.take(take, out=idx[lo:lo + rows], mode="clip")
        d.take(take, out=dist[lo:lo + rows], mode="clip")
    return idx, dist


def _distances(pts: np.ndarray, q: np.ndarray, r: np.ndarray, col: np.ndarray) -> np.ndarray:
    """sqrt(fl(sum fl(p - q)^2)) from rows ``q[r]`` to ``pts[col]``, as the tests' full sort."""
    diff = _gather(pts, col, 0, "diff")
    diff -= _gather(q, r, 0, "query_rows")
    d = np.einsum("ij,ij->i", diff, diff)
    return np.sqrt(d, out=d)


def knn_many(data: DataMatrix, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact k nearest neighbors of every row of ``queries``, a (Q, D) array.

    One search of ``_knn_kernel``, whose docstring gives the outputs and
    errors; a short row is named by its position in ``queries``.
    """
    return _knn_kernel(data, k, queries, range(len(queries)))


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
