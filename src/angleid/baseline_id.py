"""Distance-based reference estimators of local intrinsic dimensionality.

These are the standard expansion-rate estimators used for comparison:
the Hill maximum-likelihood estimator, a first-moment method-of-moments
estimator, and the generalized expansion dimension. All three consume
only neighbor distances, and only through ratios, so they are invariant
under rescaling of the data.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEGENERATE_ZERO_DENOMINATOR,
    MIN_K,
    IdEstimate,
    InsufficientNeighborsError,
)
from .neighbors import NeighborList

__all__ = ["mle_hill", "mom", "ged"]

# The array helpers below take the k sorted neighbor distances of one
# query and return (value, flags); the public functions wrap them around a
# NeighborList, and tables and trails call them on distance prefixes.
_NO_FLAGS = frozenset()
_DEGENERATE = frozenset({DEGENERATE_ZERO_DENOMINATOR})


def _mle(d: np.ndarray) -> tuple[float, frozenset]:
    k = d.size
    if k < MIN_K["mle"]:
        raise InsufficientNeighborsError(MIN_K["mle"], k)
    log_sum = float(np.log(d[:-1] / d[-1]).sum())
    if log_sum == 0.0:
        return float(k), _DEGENERATE
    return -(k - 1) / log_sum, _NO_FLAGS


def _mom(d: np.ndarray) -> tuple[float, frozenset]:
    k = d.size
    if k < MIN_K["mom"]:
        raise InsufficientNeighborsError(MIN_K["mom"], k)
    w = float(d[-1])
    m = float(d.mean())
    if w == m:
        return float(k), _DEGENERATE
    return m / (w - m), _NO_FLAGS


def _ged(d: np.ndarray, pair: tuple[int, int] | None) -> tuple[float, frozenset]:
    k = d.size
    if k < MIN_K["ged"]:
        raise InsufficientNeighborsError(MIN_K["ged"], k)
    if pair is None:
        k1, k2 = (k + 1) // 2, k
    else:
        k1, k2 = pair
    if not (1 <= k1 < k2 <= k):
        raise ValueError(f"need 1 <= k1 < k2 <= {k}, got ({k1}, {k2})")
    d1 = float(d[k1 - 1])
    d2 = float(d[k2 - 1])
    if d1 == d2:
        return float(k), _DEGENERATE
    return float(np.log(k2 / k1) / np.log(d2 / d1)), _NO_FLAGS


def mle_hill(nl: NeighborList) -> IdEstimate:
    """Hill/MLE estimate from the k-nearest-neighbor distance profile.

    value = -((1/(k-1)) * sum_{i<k} ln(d_i / d_k))**-1. When all distances
    are equal the log-sum is zero and the infinite estimate is reported as
    k with a degeneracy flag.
    """
    value, flags = _mle(nl.distances)
    return IdEstimate("mle", value, nl.k, flags)


def mom(nl: NeighborList) -> IdEstimate:
    """First-moment method-of-moments estimate: m / (w - m).

    m is the mean neighbor distance and w = d_k the neighborhood radius.
    For distances following an exact power law d_i = (i/k)**(1/m0) this
    converges to m0 as k grows. All distances equal means w == m and the
    infinite estimate is reported as k with a degeneracy flag.
    """
    value, flags = _mom(nl.distances)
    return IdEstimate("mom", value, nl.k, flags)


def ged(nl: NeighborList, pair: tuple[int, int] | None = None) -> IdEstimate:
    """Generalized expansion dimension from two neighbor counts.

    value = ln(k2/k1) / ln(d_k2/d_k1), i.e. the growth exponent of the
    neighbor count with the radius. The default pair is (ceil(k/2), k),
    a stable deterministic split; any 1-based pair k1 < k2 <= k can be
    passed instead. Equal radii at both counts degenerate to k.
    """
    value, flags = _ged(nl.distances, pair)
    return IdEstimate("ged", value, nl.k, flags)
