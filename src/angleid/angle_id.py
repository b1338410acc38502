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
pairwise loop.
"""

from __future__ import annotations

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
)
from .neighbors import DirectionBundle, NeighborList, _map_neighbor_lists, direction_bundle, knn
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


def cosine_square_stats(bundle: DirectionBundle) -> CosineSquareStats:
    """Pairwise cosine statistics of a direction bundle.

    Uses the Gram identity: the sum over all ordered pairs of squared dot
    products equals ||U^T U||_F^2 (U the k-by-D matrix of unit rows), so it
    costs O(k D^2) instead of O(k^2 D); when D > k the k-by-k Gram matrix
    is the cheaper side. The diagonal contributes exactly k and is
    subtracted; roundoff is clamped back into [0, k**2 - k].
    """
    u = bundle.directions
    k, dim = u.shape
    if k == 1:
        return CosineSquareStats(1, 0.0, 0.0)
    if dim <= k:
        m = u.T @ u
    else:
        m = u @ u.T
    total = float(np.einsum("ij,ij->", m, m))
    off = min(max(total - k, 0.0), float(k * k - k))
    s = u.sum(axis=0)
    mean = (float(s @ s) - k) / (k * k - k)
    mean = min(max(mean, -1.0), 1.0)
    return CosineSquareStats(k, off, mean)


def abid(stats: CosineSquareStats) -> IdEstimate:
    """Regularized angle-based estimate: k**2 / (off_diag_sq_sum + k).

    This is the inverse mean squared cosine with the diagonal included.
    The denominator is at least k, so the value is finite, positive, and
    never exceeds k; no flags are ever set.
    """
    k = stats.k
    value = k * k / (stats.off_diag_sq_sum + k)
    return IdEstimate("abid", value, k)


def rabid(stats: CosineSquareStats) -> IdEstimate:
    """Raw angle-based estimate: (k**2 - k) / off_diag_sq_sum.

    A zero denominator (pairwise-orthogonal directions) or a value above k
    is clamped to k with flags, since k directions span at most a
    k-dimensional space.
    """
    k = stats.k
    if k < 2:
        raise InsufficientNeighborsError(2, k)
    if stats.off_diag_sq_sum == 0.0:
        flags = frozenset({CLAMPED_TO_K, DEGENERATE_ZERO_DENOMINATOR})
        return IdEstimate("rabid", float(k), k, flags)
    value = (k * k - k) / stats.off_diag_sq_sum
    if value > k:
        return IdEstimate("rabid", float(k), k, frozenset({CLAMPED_TO_K}))
    return IdEstimate("rabid", value, k)


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


def _dispatch(tag: str, stats: CosineSquareStats | None, nl: NeighborList, ged_pair) -> IdEstimate:
    if tag == "abid":
        return abid(stats)
    if tag == "rabid":
        return rabid(stats)
    if tag == "mle":
        return baseline_id.mle_hill(nl)
    if tag == "mom":
        return baseline_id.mom(nl)
    return baseline_id.ged(nl, pair=ged_pair)


def _estimate_from_neighbors(
    data: DataMatrix,
    query,
    nl: NeighborList,
    tags: tuple[str, ...],
    ged_pair,
    need_stats: bool,
) -> tuple[dict[str, IdEstimate], float]:
    stats = None
    if need_stats or any(t in ANGLE_TAGS for t in tags):
        stats = cosine_square_stats(direction_bundle(data, query, nl))
    out = {tag: _dispatch(tag, stats, nl, ged_pair) for tag in tags}
    for tag in tags:
        if tag in ANGLE_TAGS and out[tag].value > nl.k - 2:
            # Estimates this close to k suggest the neighborhood is smaller
            # than d + 2, below the size needed for proper regularization.
            warnings.warn(
                f"k={nl.k} may be too small: an angle-based estimate exceeded k-2",
                NeighborhoodSizeWarning,
                stacklevel=3,
            )
            break
    return out, (stats.mean_cosine if stats is not None else float("nan"))


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
    out, _ = _estimate_from_neighbors(data, query, nl, tags, ged_pair, need_stats=False)
    return out


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

    def work(qi: int, nl: NeighborList):
        return _estimate_from_neighbors(data, qi, nl, tags, ged_pair, with_diagnostics)

    results = _map_neighbor_lists(data, query_list, k, work, threads)
    rows = tuple((qi, ests) for qi, (ests, _) in zip(query_list, results))
    mean_cosines = tuple(mc for _, mc in results) if with_diagnostics else None
    return EstimateTable(rows, mean_cosines)
