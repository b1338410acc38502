"""Angle-based local intrinsic dimensionality estimators.

Both estimators are methods of moments on the pairwise cosine similarities
of the unit directions from a query point to its k nearest neighbors. For
directions sampled from a locally d-dimensional set, the mean squared
cosine is 1/d, so its inverse estimates d:

* ABID uses the full k-by-k cosine matrix including the diagonal of ones.
  The diagonal acts as a regularizer: the estimate is provably bounded by
  the spanning dimension of the directions, and never exceeds k.
* RABID uses only the k**2 - k off-diagonal cosines. It is unbiased for
  large k but can blow up (or divide by zero) on near-orthogonal
  neighborhoods, in which case the estimate is clamped to k, the spanning
  dimension of k pairwise-orthogonal vectors.

Both derive from one sufficient statistic, the off-diagonal sum of squared
cosines, computed here through a Gram identity rather than an explicit
pairwise loop. One function, ``_sq_sums``, computes it for every
requested k in one pass; the public statistics, tables and trails all
read it from there.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from math import ceil

import numpy as np

from .core import (
    ANGLE_TAGS,
    CLAMPED_TO_K,
    DEGENERATE_ZERO_DENOMINATOR,
    ESTIMATOR_TAGS,
    DataMatrix,
    EstimateTable,
    FixedPointDivergenceError,
    IdEstimate,
    InsufficientNeighborsError,
    MIN_K,
)
from .neighbors import DirectionBundle, _directions, _map_neighbors, direction_bundle, knn
from . import baseline_id

__all__ = [
    "CosineSquareStats",
    "NeighborhoodSizeWarning",
    "cosine_square_stats",
    "abid",
    "rabid",
    "abid_via_fixed_point",
    "required_k",
    "estimate_point",
    "estimate_table",
]


class NeighborhoodSizeWarning(UserWarning):
    """The neighborhood looks too small for a properly regularized estimate."""


@dataclass(frozen=True)
class CosineSquareStats:
    """Sufficient statistics of the pairwise cosines within one neighborhood.

    ``off_diag_sq_sum`` is the sum of squared cosine similarities over all
    ordered pairs of *different* directions, in [0, k**2 - k].
    ``mean_cosine`` is the plain mean over the same pairs (0 when k == 1),
    kept as a diagnostic: values near 1 indicate a query point far away
    from its neighborhood.
    """

    k: int
    off_diag_sq_sum: float
    mean_cosine: float

    @property
    def mean_sq_cosine_with_diagonal(self) -> float:
        """Mean squared cosine over the full k*k matrix, in (0, 1]."""
        return (self.off_diag_sq_sum + self.k) / (self.k * self.k)

    @property
    def mean_sq_cosine(self) -> float:
        """Mean squared cosine over off-diagonal pairs (requires k >= 2)."""
        return self.off_diag_sq_sum / (self.k * self.k - self.k)


# Elements of the largest temporary array _sq_sums builds at once (4 MiB).
_CHUNK = 1 << 19


def _sq_sums(u: np.ndarray, ks) -> np.ndarray:
    """S(k), the sum over i, j < k of (u_i . u_j)**2, at every k of ``ks`` in one pass.

    ``u`` holds unit rows, ``ks`` ascending integers in [1, len(u)]. Each
    S(k) is taken on the cheaper side of the Gram identity at that k: for
    k >= D it is ||sum_{i<k} u_i u_i^T||_F**2, read off running sums of
    the outer products; for k < D it is the sum of the squared entries of
    the k-by-k Gram matrix, read off running sums of its rows. Sums over
    rows run in index order (np.cumsum) and each Gram entry is a dot
    product of fixed length D, so S(k) depends only on the first k rows
    and is bitwise the same whichever other k values are requested; a
    BLAS matrix product is avoided because its rounding depends on the
    matrix size. Cost O(k_max * D * min(D, k_max)) for k_max = max(ks).
    """
    ks = np.asarray(ks, dtype=np.int64)
    dim = u.shape[1]
    if ks[0] >= dim:
        return _outer_sums(u, ks)
    if ks[-1] < dim:
        return _gram_sums(u, ks)
    gram = ks < dim
    return np.concatenate([_gram_sums(u, ks[gram]), _outer_sums(u, ks[~gram])])


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums along the last axis, added in index order whatever the shape."""
    return np.cumsum(x, axis=-1)[..., -1]


def _outer_sums(u: np.ndarray, ks: np.ndarray) -> np.ndarray:
    # Only the upper triangle a <= b of each outer product is summed; the
    # off-diagonal entries count twice in the Frobenius norm.
    a, b, weight = _triu(u.shape[1])
    k_max = int(ks[-1])
    step = max(1, _CHUNK // a.size)
    out = np.empty(ks.size)
    total = None
    for lo in range(0, k_max, step):
        v = u[lo:min(lo + step, k_max)]
        c = v[:, a] * v[:, b]
        if total is not None:
            c[0] += total
        np.cumsum(c, axis=0, out=c)  # c[j]: sum of the first lo + j + 1 products
        total = c[-1]
        j0, j1 = ks.searchsorted(lo + 1), ks.searchsorted(lo + len(v), side="right")
        sel = c[ks[j0:j1] - lo - 1]
        out[j0:j1] = _row_sums(sel * sel * weight)
    return out


@functools.lru_cache(maxsize=64)
def _triu(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column indices of the upper triangle, and each entry's weight (read-only)."""
    a, b = np.triu_indices(dim)
    out = (a, b, np.where(a == b, 1.0, 2.0))
    for x in out:
        x.setflags(write=False)
    return out


def _gram_sums(u: np.ndarray, ks: np.ndarray) -> np.ndarray:
    # k < D here, so the Gram matrix is smaller than u itself.
    v = u[:int(ks[-1])]
    g = np.einsum("id,jd->ij", v, v)
    g *= g
    rows = np.diagonal(g) + 2.0 * _row_sums(np.tril(g, -1))
    return np.cumsum(rows)[ks - 1]


def _off_diag(sq_sum: float, k: int) -> float:
    """S(k) without its k diagonal ones, roundoff clamped into [0, k**2 - k]."""
    return min(max(sq_sum - k, 0.0), float(k * k - k))


def _mean_cosine(u: np.ndarray) -> float:
    k = len(u)
    if k == 1:
        return 0.0
    s = u.sum(axis=0)
    mean = (float(s @ s) - k) / (k * k - k)
    return min(max(mean, -1.0), 1.0)


def cosine_square_stats(bundle: DirectionBundle) -> CosineSquareStats:
    """Pairwise cosine statistics of a direction bundle.

    Uses the Gram identity: the sum over all ordered pairs of squared dot
    products equals ||U^T U||_F^2 (U the k-by-D matrix of unit rows), so it
    costs O(k D^2) instead of O(k^2 D); when D > k the k-by-k Gram matrix
    is the cheaper side (see ``_sq_sums``). The diagonal contributes
    exactly k and is subtracted; roundoff is clamped back into
    [0, k**2 - k].
    """
    u = bundle.directions
    k = bundle.source_k
    off = _off_diag(float(_sq_sums(u, [k])[0]), k)
    return CosineSquareStats(k, off, _mean_cosine(u))


_NO_FLAGS = frozenset()
_RABID_ZERO = frozenset({CLAMPED_TO_K, DEGENERATE_ZERO_DENOMINATOR})
_RABID_CLAMPED = frozenset({CLAMPED_TO_K})


def _abid(off: float, k: int) -> tuple[float, frozenset]:
    return k * k / (off + k), _NO_FLAGS


def _rabid(off: float, k: int) -> tuple[float, frozenset]:
    if k < MIN_K["rabid"]:
        raise InsufficientNeighborsError(MIN_K["rabid"], k)
    if off == 0.0:
        return float(k), _RABID_ZERO
    value = (k * k - k) / off
    if value > k:
        return float(k), _RABID_CLAMPED
    return value, _NO_FLAGS


def abid(stats: CosineSquareStats) -> IdEstimate:
    """Regularized angle-based estimate: k**2 / (off_diag_sq_sum + k).

    This is the inverse mean squared cosine with the diagonal included.
    The denominator is at least k, so the value is finite, positive, and
    never exceeds k; no flags are ever set.
    """
    value, flags = _abid(stats.off_diag_sq_sum, stats.k)
    return IdEstimate("abid", value, stats.k, flags)


def rabid(stats: CosineSquareStats) -> IdEstimate:
    """Raw angle-based estimate: (k**2 - k) / off_diag_sq_sum.

    A zero denominator (pairwise-orthogonal directions) or a value above k
    is clamped to k with flags, since k directions span at most a
    k-dimensional space.
    """
    value, flags = _rabid(stats.off_diag_sq_sum, stats.k)
    return IdEstimate("rabid", value, stats.k, flags)


def abid_via_fixed_point(
    stats: CosineSquareStats, tol: float = 1e-12, max_iter: int = 100_000
) -> float:
    """The raw estimate's self-regularization fixed point; equals abid.

    Starting from the raw estimate d_0 = 1/m (m the off-diagonal mean
    squared cosine), iterates the self-consistency map
    d -> (1/m) * (k - d) / (k - 1) until successive iterates differ by
    less than ``tol``. That map contracts iff m*(k-1) > 1; below 1 its
    inverse d -> k - m*(k-1)*d is the contraction and is iterated instead,
    converging to the same self-consistent value. At m*(k-1) == 1 exactly,
    neither direction converges and a FixedPointDivergenceError is raised
    unless d_0 already solves the equation. Kept as a diagnostic
    cross-check of the closed form used by abid.
    """
    k = stats.k
    if k < 2:
        raise InsufficientNeighborsError(2, k)
    if stats.off_diag_sq_sum <= 0.0:
        raise ValueError("fixed point requires off_diag_sq_sum > 0")
    m = stats.mean_sq_cosine
    slope = m * (k - 1.0)
    d_prev = 1.0 / m
    if slope > 1.0:
        def step(d):
            return (k - d) / ((k - 1.0) * m)
    elif slope < 1.0:
        def step(d):
            return k - slope * d
    else:
        d_next = (k - d_prev) / ((k - 1.0) * m)
        if abs(d_next - d_prev) < tol:
            return d_next
        raise FixedPointDivergenceError(
            f"mean squared cosine {m:.6g} * (k-1) == 1: iteration oscillates"
        )
    for _ in range(max_iter):
        d_next = step(d_prev)
        if abs(d_next - d_prev) < tol:
            return d_next
        d_prev = d_next
    raise FixedPointDivergenceError(f"no convergence after {max_iter} iterations")


def required_k(d: int, c: float) -> int:
    """Minimum neighborhood size bounding raw-estimate overestimation by d + c.

    Returns ceil(d**2/c + (1 - 1/c)*d). With c = 1 this is d**2.
    """
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    value = d * d / c + (1.0 - 1.0 / c) * d
    nearest = round(value)
    if abs(value - nearest) < 1e-9:
        return int(nearest)
    return int(ceil(value))


def _check_tags(estimators) -> tuple[str, ...]:
    tags = tuple(estimators)
    if not tags:
        raise ValueError("at least one estimator tag is required")
    unknown = [t for t in tags if t not in ESTIMATOR_TAGS]
    if unknown:
        raise ValueError(f"unknown estimator tag(s) {unknown}; valid: {list(ESTIMATOR_TAGS)}")
    if len(set(tags)) != len(tags):
        raise ValueError("duplicate estimator tags")
    return tags


_ESTIMATORS = {"abid": _abid, "rabid": _rabid, "mle": baseline_id._mle, "mom": baseline_id._mom}


def _estimates(u: np.ndarray | None, d: np.ndarray, tags, ks: list[int], ged_pair) -> dict:
    """Every estimator of ``tags`` at every k of ``ks`` on one query's neighbors.

    The one estimation core of tables and trails. ``u`` are the unit
    directions to the neighbors (None when no angle estimator is asked
    for), ``d`` their sorted distances and ``ks`` ascending integers.
    Returns ``{tag: [(value, flags) for each k]}``. ABID and RABID read
    every k off one pass of ``_sq_sums``; the distance estimators run on
    the prefixes ``d[:k]``. Each value comes from the same arithmetic as
    the public estimator functions. A k below an estimator's minimum
    raises InsufficientNeighborsError.
    """
    if any(t in ANGLE_TAGS for t in tags):
        offs = [_off_diag(s, k) for s, k in zip(_sq_sums(u, ks).tolist(), ks)]
    out = {}
    for tag in tags:
        if tag == "ged":
            out[tag] = [baseline_id._ged(d[:k], ged_pair) for k in ks]
        elif tag in ANGLE_TAGS:
            out[tag] = [_ESTIMATORS[tag](off, k) for off, k in zip(offs, ks)]
        else:
            out[tag] = [_ESTIMATORS[tag](d[:k]) for k in ks]
    return out


def _row(u: np.ndarray | None, d: np.ndarray, tags, ged_pair) -> dict[str, IdEstimate]:
    """One table row: the estimates of ``tags`` at k = len(d)."""
    k = d.size
    out = {tag: IdEstimate(tag, value, k, flags)
           for tag, [(value, flags)] in _estimates(u, d, tags, [k], ged_pair).items()}
    for tag in tags:
        if tag in ANGLE_TAGS and out[tag].value > k - 2:
            # Estimates this close to k suggest the neighborhood is smaller
            # than d + 2, below the size needed for proper regularization.
            warnings.warn(
                f"k={k} may be too small: an angle-based estimate exceeded k-2",
                NeighborhoodSizeWarning,
                stacklevel=3,
            )
            break
    return out


def estimate_point(
    data: DataMatrix,
    query,
    k: int,
    estimators=ANGLE_TAGS,
    ged_pair: tuple[int, int] | None = None,
) -> dict[str, IdEstimate]:
    """Run the requested estimators on one query's k-nearest neighborhood.

    All estimators see the identical NeighborList, so mixed angle/distance
    comparisons are apples to apples. ``query`` is a point index or an
    explicit coordinate vector.
    """
    tags = _check_tags(estimators)
    nl = knn(data, query, k)
    angle = any(t in ANGLE_TAGS for t in tags)
    u = direction_bundle(data, query, nl).directions if angle else None
    return _row(u, nl.distances, tags, ged_pair)


def estimate_table(
    data: DataMatrix,
    k: int,
    estimators=ANGLE_TAGS,
    queries=None,
    ged_pair: tuple[int, int] | None = None,
    with_diagnostics: bool = False,
    threads: int = 1,
) -> EstimateTable:
    """Estimates for many in-set query points, one row per query.

    ``queries`` defaults to every point index. Work is an independent map
    over queries; ``threads`` only sets the parallel width and never
    changes results or row order.
    """
    tags = _check_tags(estimators)
    if queries is None:
        queries = range(data.n)
    query_list = [int(q) for q in queries]

    need_u = with_diagnostics or any(t in ANGLE_TAGS for t in tags)
    points = data.points

    def work(qi: int, idx: np.ndarray, dist: np.ndarray):
        u = _directions(points, points[qi], idx, dist) if need_u else None
        return _row(u, dist, tags, ged_pair), (_mean_cosine(u) if with_diagnostics else None)

    results = _map_neighbors(data, query_list, k, work, threads)
    rows = tuple((qi, ests) for qi, (ests, _) in zip(query_list, results))
    mean_cosines = tuple(mc for _, mc in results) if with_diagnostics else None
    return EstimateTable(rows, mean_cosines)
