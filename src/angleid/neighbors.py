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
``estimate_point``, tables and trails never build them again. Each row
gets one cut, and a block's candidates are collected once, from that
per-row cut. The re-rank puts each row's candidate distances, in
ascending index order, into one row of a padded (B, widest row) array and
sorts every row on its own with one stable ``argsort`` along the rows, so
no row's order depends on the other rows of its block. Each row's cut
comes from one of two rules:

- sampled, where 2(k+1) >= 64 and n >= 16 (k+1) D: the 32nd smallest of
  every s-th screened value, s = floor(2(k+1) / 32), so about 2(k+1)
  candidates per row. A row keeps this cut only if k of its candidates
  are provably no farther than it; any other row takes the exact cut,
  and its block is collected again.
- exact, for every other (n, k, D): a partition of the whole row, past
  the query's duplicates.

The rule reads only n, k and D. The screen only narrows the candidates,
so the neighbor lists are bitwise those of the full sort for any block
size, thread count or rule. The full sort itself remains for
``radius_neighbors``.

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

from .core import DataMatrix, InsufficientNeighborsError, _check_indices, _check_positive

__all__ = ["NeighborList", "DirectionBundle", "knn", "radius_neighbors", "direction_bundle"]


@dataclass(frozen=True, eq=False)
class NeighborList:
    """Ordered neighbor indices and distances for one query.

    ``query_index`` is None for out-of-set query vectors. Distances are
    non-decreasing and strictly positive; indices never repeat and never
    equal the query index.
    """

    query_index: int | None
    indices: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        dist = np.asarray(self.distances, dtype=np.float64)
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
        idx.setflags(write=False)
        dist.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "distances", dist)

    @property
    def k(self) -> int:
        return self.indices.size

    def prefix(self, k: int) -> "NeighborList":
        """The k nearest of these neighbors (valid because they are sorted)."""
        if k > self.k:
            raise InsufficientNeighborsError(k, self.k, point=self.query_index)
        return NeighborList(self.query_index, self.indices[:k], self.distances[:k])


@dataclass(frozen=True, eq=False)
class DirectionBundle:
    """Unit direction vectors from a query point to each of its neighbors."""

    directions: np.ndarray
    source_k: int

    def __post_init__(self):
        dirs = np.asarray(self.directions, dtype=np.float64)
        if dirs.ndim != 2 or dirs.shape[0] != self.source_k:
            raise ValueError("directions must be a (k, D) array matching source_k")
        norms = np.sqrt(np.einsum("ij,ij->i", dirs, dirs))
        if norms.size and np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("directions must have unit Euclidean norm (within 1e-12)")
        dirs.setflags(write=False)
        object.__setattr__(self, "directions", dirs)

    def prefix(self, k: int) -> "DirectionBundle":
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


# Bytes of the (B, n) block of screened squared distances; it sets the
# number B of query rows that the kernel screens with one matrix product.
_BLOCK_BYTES = 1 << 20
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal
# The sampled path cuts each row at this order statistic of its sample.
_SAMPLE_RANK = 32


def _block_rows(n: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * n))


_local = threading.local()
_screen_lock = threading.Lock()


def _workspace(name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """This thread's buffer ``name``, viewed as an uninitialized ``shape`` array.

    Every later call of the thread reuses it, a smaller shape as a prefix;
    it is replaced only when a larger one is needed, and freed when the
    thread ends. The callers write every entry of a view before reading
    it, so no result depends on what a buffer held before. The buffers:

    - the kernel's "block" and "mask" of the (B, n) screened values and
      the cuts' copy "part" (B rows of n values for the exact cut, of
      ceil(n / step) for the sampled one): at most 17 bytes per entry of
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


def _knn_kernel(data: DataMatrix, k: int):
    """The exact-kNN kernel for ``data`` and ``k``, on the matrix's cached screen (``_screen``).

    Returns ``search(queries, names, out=None)``, which maps a (Q, D)
    array of query vectors to (Q, k) int64 indices and (Q, k) float64
    distances, row for row bitwise equal to the first k entries of
    ``_sorted_candidates``. It writes them to ``out``, a pair of such
    arrays, if given, else to new ones. It screens ``_block_rows`` queries
    at a time into the calling thread's workspace (``_workspace``), and no
    result depends on that block size. ``search`` raises
    InsufficientNeighborsError for the first row with fewer than k nonzero
    distances, with that row's entry of ``names`` (Q labels) as ``point``.
    It reads only shared arrays and writes only its thread's buffers and
    ``out``, so threads may call it at once.
    """
    k = _check_positive("k", k)
    pts = data.points
    n, dim = pts.shape
    screen, center, max_sq = _screen(data)
    rows = _block_rows(n)
    step = 2 * (k + 1) // _SAMPLE_RANK
    sampled = step >= 2 and n >= 16 * (k + 1) * dim

    def search(queries: np.ndarray, names, out=None) -> tuple[np.ndarray, np.ndarray]:
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
            """Each row's rank-th smallest of every stride-th value of ``a``, as a copy (a
            redo reuses "part"), or inf, keeping every point, where rank reaches their count."""
            width = -(-n // stride)
            if rank >= width:
                return np.full(len(a), np.inf)
            part = _workspace("part", (len(a), width))
            np.copyto(part, a[:, ::stride])
            part.partition(rank - 1, axis=1)
            return part[:, rank - 1].copy()

        def exact(a, delta):
            """The exact rule's cut: rank k + z of each whole row, z its block's most zeros."""
            z = int(np.less_equal(a, delta[:, None], out=mask[:len(a)]).sum(axis=1).max())
            return cut(a, 1, k + z)

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
            # Cut. Each row keeps every point with a <= cut = c + 2 delta,
            # its base cut c set by one of two rules, so the block is
            # collected, measured and re-ranked once, from one per-row cut.
            #
            # Sampled rule: c is the 32nd smallest of every step-th value of
            # a row, near its 2(k+1)-th smallest. A row keeps it only if at
            # least k candidates have s > 0 and a <= c. Their s are at most
            # c + e, so the k-th nonzero s is too. A true neighbor has s at
            # most that, or up to 2 eps s <= 4 eps M more when sqrt rounds it
            # into a tie with the k-th distance, so a <= s + e <= c + 2 delta,
            # with eps M to spare for rounding the cut. Rows that fail the
            # check take the exact rule's c in place, and the block is
            # collected again.
            #
            # Exact rule: every s == 0 (query, duplicates) has a <= delta; a
            # row has at most z such points. Among the m = k + z smallest a,
            # at least k have s > 0 and s <= c + e, c the m-th smallest a, so
            # the k-th nonzero s is at most c + e, and as above a true
            # neighbor has a <= c + 2 delta. A larger m keeps all this true,
            # so the rows cut together take their largest z; with m >= n,
            # c = inf and every point is a candidate.
            #
            # The sampled rule replaces a partition of n values by one of
            # about n / step, which pays where rows are long against the
            # re-rank's k D work: it needs step >= 2 and n >= 16 (k+1) D.
            c = cut(a, step, _SAMPLE_RANK) if sampled else exact(a, delta)
            r, col, d = collect(q, a, c, delta)
            if sampled:
                sure = np.bincount(r[(d > 0.0) & (a.ravel().take(r * n + col) <= c.take(r))],
                                   minlength=len(q)) >= k
                if not sure.all():
                    redo = np.flatnonzero(~sure)
                    c[redo] = exact(a[redo], delta[redo])
                    r, col, d = collect(q, a, c, delta)
            # Re-rank with the distances and order of _sorted_candidates. The
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

    return search


def _distances(pts: np.ndarray, q: np.ndarray, r: np.ndarray, col: np.ndarray) -> np.ndarray:
    """The distances of _sorted_candidates from query rows ``q[r]`` to points ``pts[col]``."""
    diff = _gather(pts, col, 0, "diff")
    diff -= _gather(q, r, 0, "query_rows")
    d = np.einsum("ij,ij->i", diff, diff)
    return np.sqrt(d, out=d)


def knn_many(data: DataMatrix, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact k nearest neighbors of every row of ``queries``, a (Q, D) array.

    One search of ``_knn_kernel``, whose docstring gives the outputs and
    errors; a short row is named by its position in ``queries``.
    """
    return _knn_kernel(data, k)(queries, range(len(queries)))


def knn(data: DataMatrix, query, k: int) -> NeighborList:
    """The exact k nearest neighbors of a query by Euclidean distance.

    The query itself and any zero-distance duplicates are excluded before
    counting. Ties are broken by ascending point index, which makes
    knn(data, q, k) a prefix of knn(data, q, k+1).
    """
    q, qidx = _resolve_query(data, query)
    idx, dist = _knn_kernel(data, k)(q[None, :], [qidx])
    return NeighborList(qidx, idx[0], dist[0])


def radius_neighbors(data: DataMatrix, query, radius: float) -> NeighborList:
    """All neighbors within ``radius`` (inclusive), sorted like knn."""
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    q, qidx = _resolve_query(data, query)
    sel, dist = _sorted_candidates(data, q)
    m = int(np.searchsorted(dist, radius, side="right"))
    return NeighborList(qidx, sel[:m], dist[:m])


def direction_bundle(data: DataMatrix, query, nl: NeighborList) -> DirectionBundle:
    """Unit directions from the query to each neighbor in ``nl``.

    Direction j is (x_{nl.indices[j]} - x_query) / nl.distances[j]; the
    NeighborList invariant (no zero distances) makes this well-defined.
    """
    q, qidx = _resolve_query(data, query)
    if qidx != nl.query_index:
        raise ValueError("neighbor list was built for a different query")
    return DirectionBundle(_directions(data.points, q, nl.indices, nl.distances), nl.k)


def _directions(points: np.ndarray, q: np.ndarray, indices: np.ndarray,
                distances: np.ndarray, reuse: bool = False) -> np.ndarray:
    """Rows (points[indices[j]] - q) / distances[j], unchecked: the unit directions.

    Also for a block: q (B, D) with (B, k) indices and distances gives (B, k, D).
    With ``reuse`` the result is this thread's workspace buffer "directions"
    (``_gather``), valid until the thread's next such call.
    """
    u = _gather(points, indices, 0, "directions") if reuse else points.take(indices, 0)
    u -= q[..., None, :]
    u /= distances[..., None]
    return u
