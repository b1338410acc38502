"""Exact k-nearest-neighbor retrieval and neighbor direction bundles.

Distances are Euclidean; the query point and its exact duplicates
(distance exactly 0, not a tolerance) are always excluded, and ties break
by ascending point index, so knn(k) is a prefix of knn(k+1).

Every k-nearest-neighbor search goes through one blocked kernel,
``knn_many``. It screens a block of queries against all points with one
matrix product (the expansion |x|^2 - 2 x.y + |y|^2), keeps every point
that a rounding bound cannot rule out, and re-ranks those candidates with
the same difference-based distances and (distance, index) order as a full
sort of all n distances. The screen only narrows the candidates, so the
neighbor lists are bitwise those of the full sort for any block size or
thread count. The full sort itself remains for ``radius_neighbors``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import DataMatrix, InsufficientNeighborsError

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


def _check_index(data: DataMatrix, idx: int) -> int:
    if not 0 <= idx < data.n:
        raise IndexError(f"query index {idx} out of range for n={data.n}")
    return idx


def _resolve_query(data: DataMatrix, query) -> tuple[np.ndarray, int | None]:
    """A query is either a point index or an explicit D-vector."""
    if isinstance(query, (int, np.integer)):
        idx = _check_index(data, int(query))
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
# number B of query rows that knn_many screens with one matrix product.
_BLOCK_BYTES = 1 << 20
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


def _block_rows(n: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * n))


def _knn_kernel(data: DataMatrix, k: int):
    """The exact-kNN kernel for ``data`` and ``k``; the data's norms are computed once.

    Returns ``block(q)``, which maps a (B, D) array of query vectors to
    (B, k) int64 indices and (B, k) float64 distances, row for row bitwise
    equal to the first k entries of ``_sorted_candidates``. ``block``
    raises InsufficientNeighborsError for the first row with fewer than k
    nonzero distances, with that row as ``point``. It reads only shared
    arrays, so threads may call it at once.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    pts = data.points
    n, dim = pts.shape
    pts_t = np.ascontiguousarray(pts.T)  # about twice as fast in the product as pts.T
    sq = np.einsum("ij,ij->i", pts, pts)
    max_sq = sq.max()

    def block(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sq_q = np.einsum("ij,ij->i", q, q)
        # Screen. With u = eps/2 and M = |q|^2 + max |p|^2, a - |q-p|^2 is
        # within 2(D+2)u M: D-term rounding in |q|^2, |p|^2 and q.p (2 D u M)
        # plus the two additions (4 u M). The re-rank's s = fl(sum fl(p-q)^2)
        # is within (D+2)u |q-p|^2 <= 2(D+2)u M of |q-p|^2. Products that
        # underflow add at most half the smallest subnormal each, 5D in all.
        # So |a - s| <= e = (2D+4) eps M + 2.5 D tiny, and delta exceeds e
        # by at least (2D+12) eps M, room for second-order terms and for
        # the 4 eps M below. Norms so large that 4M overflows get
        # delta = inf, and ~(a > x) keeps their NaNs in.
        #
        # Every s == 0 (query, duplicates) has a <= delta; a row has at most
        # z such points. Among the m = k + z smallest a, at least k have
        # s > 0 and s <= t + e, t the m-th smallest a, so the k-th nonzero
        # s is at most t + e. A true neighbor has s at most that, or up to
        # 2 eps s <= 4 eps M more when sqrt rounds it into a tie with the
        # k-th distance, so a <= s + e <= t + 2 delta. A larger m keeps all
        # this true, so the block takes its largest z; with m >= n, t = inf
        # and every point is a candidate.
        with np.errstate(over="ignore", invalid="ignore"):
            a = (-2.0 * q) @ pts_t
            a += sq_q[:, None]
            a += sq
            scale = sq_q + max_sq
            delta = np.where(np.isfinite(4.0 * scale),
                             4.0 * (dim + 4) * (_EPS * scale + _TINY), np.inf)
            m = k + int((~(a > delta[:, None])).sum(axis=1).max())
            t = np.partition(a, m - 1, axis=1)[:, m - 1] if m < n else np.inf
            cut = t + 2.0 * delta
            r, c = np.divmod(np.flatnonzero(~(a > cut[:, None])), n)
        # Re-rank with the distances and order of _sorted_candidates.
        diff = pts[c] - q[r]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        keep = d > 0.0
        r, c, d = r[keep], c[keep], d[keep]
        order = np.lexsort((d, r))  # stable: ties keep ascending c
        counts = np.bincount(r, minlength=len(q))
        short = np.flatnonzero(counts < k)
        if short.size:
            row = int(short[0])
            raise InsufficientNeighborsError(k, int(counts[row]), point=row)
        take = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
        return c[take], d[take]

    return block


def knn_many(data: DataMatrix, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact k nearest neighbors of every row of ``queries``, a (Q, D) array.

    Returns (Q, k) int64 indices and (Q, k) float64 distances, row for row
    bitwise equal to the first k entries of ``_sorted_candidates``. Raises
    InsufficientNeighborsError for the first row with fewer than k nonzero
    distances; its ``point`` is that row's position in ``queries``.
    """
    block = _knn_kernel(data, k)
    rows = _block_rows(data.n)
    idx = np.empty((len(queries), k), dtype=np.int64)
    dist = np.empty((len(queries), k))
    for lo in range(0, len(queries), rows):
        try:
            idx[lo:lo + rows], dist[lo:lo + rows] = block(queries[lo:lo + rows])
        except InsufficientNeighborsError as exc:
            raise InsufficientNeighborsError(k, exc.available, point=lo + exc.point) from None
    return idx, dist


def _map_neighbors(data: DataMatrix, queries: list[int], k: int, fn, threads: int,
                   rows: int) -> list:
    """``fn(block, indices, distances)`` for blocks of up to ``rows`` in-set query indices.

    Returns the results in query order, one per call of ``fn``.
    ``indices`` and ``distances`` are the block's (B, k) rows of the
    knn_many kernel: the exact k nearest neighbors of each query, already
    sorted, distinct and at positive distance, so nothing is re-validated
    here. A unit of work is a whole number of the kernel's blocks
    (``_block_rows``), cut into ``fn``'s blocks. With ``threads > 1`` the
    units run in a thread pool, and a unit is cut down to a ``threads``-th
    of the queries where it would be larger, so every thread gets work;
    the kernel's results do not depend on its block size. Errors surface
    in query order, and an
    InsufficientNeighborsError that ``fn`` raises without a point gets the
    index of the query it concerns.
    """
    for qi in queries:
        _check_index(data, qi)
    kernel = _knn_kernel(data, k)
    knn_rows = _block_rows(data.n)
    per_thread = max(1, -(-len(queries) // max(1, threads)))
    unit = min(knn_rows * max(1, rows // knn_rows), per_thread)
    rows = min(rows, unit)
    units = [queries[lo:lo + unit] for lo in range(0, len(queries), unit)]

    def run(block: list[int]) -> list:
        idx = np.empty((len(block), k), dtype=np.int64)
        dist = np.empty((len(block), k))
        for lo in range(0, len(block), knn_rows):
            part = block[lo:lo + knn_rows]
            try:
                idx[lo:lo + knn_rows], dist[lo:lo + knn_rows] = kernel(data.points[part])
            except InsufficientNeighborsError as exc:
                raise InsufficientNeighborsError(k, exc.available, point=part[exc.point]) from None
        out = []
        for lo in range(0, len(block), rows):
            part = block[lo:lo + rows]
            try:
                out.append(fn(part, idx[lo:lo + rows], dist[lo:lo + rows]))
            except InsufficientNeighborsError as exc:
                if exc.point is not None or len(block) > 1:
                    raise
                raise InsufficientNeighborsError(exc.required, exc.available, point=block[0]) from None
        return out

    def work(block: list[int]) -> list:
        try:
            return run(block)
        except InsufficientNeighborsError as exc:
            if len(block) == 1:
                raise
            error = exc
        # Again one query at a time: the first query to fail, in query
        # order, is the one the error names.
        for qi in block:
            run([qi])
        raise error

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(work, units))
    else:
        parts = [work(block) for block in units]
    return [res for part in parts for res in part]


def knn(data: DataMatrix, query, k: int) -> NeighborList:
    """The exact k nearest neighbors of a query by Euclidean distance.

    The query itself and any zero-distance duplicates are excluded before
    counting. Ties are broken by ascending point index, which makes
    knn(data, q, k) a prefix of knn(data, q, k+1).
    """
    q, qidx = _resolve_query(data, query)
    try:
        idx, dist = knn_many(data, q[None, :], k)
    except InsufficientNeighborsError as exc:
        raise InsufficientNeighborsError(k, exc.available, point=qidx) from None
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
                distances: np.ndarray) -> np.ndarray:
    """Rows (points[indices[j]] - q) / distances[j], unchecked: the unit directions.

    Also for a block: q (B, D) with (B, k) indices and distances gives (B, k, D).
    """
    return (points[indices] - q[..., None, :]) / distances[..., None]
